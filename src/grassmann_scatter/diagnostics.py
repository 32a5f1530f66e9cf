"""Existence diagnostics for scatter estimation from subspace data.

Whether a measure P on r-dimensional subspaces admits an estimate of
scatter is governed by the index

    existence_index(P, V) = (r/m) dim(V) - E_P[ dim(U & V) ]

over proper subspaces V.  Strict positivity for every proper V gives a
unique estimate; a strictly negative value anywhere means none exists (mass
concentrates on V); zero values put P on the boundary, where an estimate
may survive as a limit of perturbed problems.  ``classify_existence``
evaluates the index on a finite candidate scan (for empirical measures the
extrema are attained on subspaces built from the atoms: spans of atom
subsets and their intersections) and returns the verdict.

The second half of the module analyses escape directions.  Any self-adjoint
trace-free velocity w at Sigma decomposes as

    w = sum_k alpha_k ( Pr(V_k, Sigma) - dim(V_k)/m * Id ),   alpha_k > 0,

over a nested flag V_1 < V_2 < ... of eigenspace sums (descending
eigenvalue clusters), and the objective's asymptotic slope along the
geodesic ray t -> expm(t w) Sigma is

    lim_t d/dt loglik = 1/2 sum_k alpha_k * existence_index(P, V_k)

(log-det differentiation contributes the same 1/2 that sits in front of the
log-likelihood itself).  ``boundary_flag`` extracts the flag from a
diverging solver run, naming the subspaces responsible for nonexistence.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .errors import DomainError, EmptyFlagError, UsageError
from .grassmann import Empirical, dim_intersection, orthonormalize
from .manifold import _Chart, _chart, _distance, _whitened, check_scatter, sym

INDEX_TOL = 1e-9        # |index| below this counts as zero in classification
GAP_TOL = 1e-6          # relative eigenvalue gap separating velocity clusters
PROJECTOR_TOL = 1e-8    # Frobenius tolerance identifying equal subspaces


def unique_sample_threshold(m: int, r: int) -> float:
    """Sample size above which generic data admits a unique estimate (a.s.)."""
    return m * m / (r * (m - r))


def existence_index(meas: Empirical, V, tol: float = None) -> float:
    """(r/m) dim(V) - sum_j w_j dim(U_j & V) for a proper subspace V."""
    if not isinstance(meas, Empirical):
        raise UsageError("existence_index needs an empirical measure")
    V = np.asarray(V, dtype=float)
    if V.ndim != 2 or not 0 < V.shape[1] < meas.m or V.shape[0] != meas.m:
        raise DomainError(f"candidate subspace must be m x d with 0 < d < m, got {V.shape}")
    kw = {} if tol is None else {"tol": tol}
    dims = np.array([dim_intersection(meas.points[j], V, **kw) for j in range(meas.n)])
    return float(meas.r / meas.m * V.shape[1] - meas.weights @ dims)


@dataclass(frozen=True)
class Candidate:
    """A candidate subspace with how it was built ("sum", "intersection", "eigen_flag", "user")."""

    basis: np.ndarray
    provenance: str

    @property
    def dim(self) -> int:
        return self.basis.shape[1]


@dataclass
class CandidateScan:
    candidates: list[Candidate]
    truncated: bool


def _intersection_basis(QU: np.ndarray, QV: np.ndarray) -> np.ndarray | None:
    """Orthonormal basis of span(QU) & span(QV), or None if the meet is zero."""
    k = dim_intersection(QU, QV)
    if k == 0:
        return None
    # directions x in U-coordinates with (I - QV QV^T) QU x ~ 0
    M = QU - QV @ (QV.T @ QU)
    _, _, Vt = np.linalg.svd(M)
    return orthonormalize(QU @ Vt[-k:].T)


class _Pool:
    """Deduplicated pool of candidate subspaces, keyed by orthogonal projector."""

    def __init__(self, cap: int):
        self.cap = cap
        self.items: list[Candidate] = []
        self._projectors: list[np.ndarray] = []
        self.truncated = False

    @property
    def full(self) -> bool:
        return len(self.items) >= self.cap

    def add(self, basis: np.ndarray, provenance: str) -> None:
        m = basis.shape[0]
        Q = orthonormalize(np.asarray(basis, dtype=float))
        if not 0 < Q.shape[1] < m:
            return
        P = Q @ Q.T
        for P0 in self._projectors:
            if P0.shape == P.shape and np.abs(P0 - P).max() <= PROJECTOR_TOL:
                return
        if self.full:
            self.truncated = True
            return
        self.items.append(Candidate(Q, provenance))
        self._projectors.append(P)


def candidate_subspaces(
    meas: Empirical,
    max_subset: int = 2,
    cap: int = 512,
    extra=(),
) -> CandidateScan:
    """Scan of subspaces on which the existence index can attain its extrema.

    Builds spans of atom subsets up to size ``max_subset``, all pairwise atom
    intersections, then closes the pool once under pairwise sums and
    intersections.  ``extra`` bases are included first (provenance "user").
    The pool is deduplicated by orthogonal projector and capped at ``cap``
    entries (``truncated`` records whether the cap was hit).
    """
    if not isinstance(meas, Empirical):
        raise UsageError("candidate_subspaces needs an empirical measure")
    pool = _Pool(cap)
    for B in extra:
        pool.add(np.asarray(B, dtype=float), "user")
    atoms = [orthonormalize(meas.points[j]) for j in range(meas.n)]
    # a full pool cannot accept anything, so further generation is pure waste;
    # stopping with work left behaves exactly like attempting and overflowing
    for Q in atoms:
        if pool.full:
            pool.truncated = True
            break
        pool.add(Q, "sum")
    for size in range(2, max_subset + 1):
        for subset in combinations(range(meas.n), size):
            if pool.full:
                pool.truncated = True
                break
            pool.add(np.hstack([atoms[j] for j in subset]), "sum")
    for i, j in combinations(range(meas.n), 2):
        if pool.full:
            pool.truncated = True
            break
        B = _intersection_basis(atoms[i], atoms[j])
        if B is not None:
            pool.add(B, "intersection")
    # one closure round over the pool built so far
    base = list(pool.items)
    for i, j in combinations(range(len(base)), 2):
        if pool.full:
            pool.truncated = True
            break
        pool.add(np.hstack([base[i].basis, base[j].basis]), "sum")
        B = _intersection_basis(base[i].basis, base[j].basis)
        if B is not None:
            pool.add(B, "intersection")
    return CandidateScan(pool.items, pool.truncated)


@dataclass
class ExistenceReport:
    """Classification of an empirical measure.

    verdict        "unique" | "no_ge" | "limit" | "inconclusive"
    min_index      smallest existence index over the scan
    witness        candidate attaining min_index when it is <= tol, else None
    zeros          candidates with |index| <= tol
    complement_ok  every zero candidate admitted a matching zero complement
    scanned        number of candidates evaluated
    truncated      candidate pool hit its cap
    """

    verdict: str
    min_index: float
    witness: Candidate | None
    zeros: list[Candidate]
    complement_ok: bool
    scanned: int
    truncated: bool


def _complementary(meas: Empirical, V: Candidate, others: list[Candidate]) -> bool:
    """Is there a zero-index candidate V' with V + V' = R^m splitting every atom rank?"""
    m, r = meas.m, meas.r
    for W in others:
        if W.dim != m - V.dim or dim_intersection(V.basis, W.basis) != 0:
            continue
        split = all(
            dim_intersection(meas.points[j], V.basis) + dim_intersection(meas.points[j], W.basis)
            == r
            for j in range(meas.n)
        )
        if split:
            return True
    return False


def classify_existence(
    meas: Empirical,
    tol: float = INDEX_TOL,
    extra=(),
    max_subset: int = 2,
    cap: int = 512,
) -> ExistenceReport:
    """Trichotomy verdict from the candidate scan.

    Any index < -tol          -> "no_ge" (witness = the offending subspace).
    All indices > tol         -> "unique".
    Some |index| <= tol       -> "limit" when every such subspace has a
    complementary zero-index subspace splitting each atom's dimension
    (the measure then sits on the closure of the solvable set), otherwise
    "inconclusive".
    """
    scan = candidate_subspaces(meas, max_subset=max_subset, cap=cap, extra=extra)
    if not scan.candidates:
        raise UsageError("no candidate subspaces to scan")
    values = [existence_index(meas, c.basis) for c in scan.candidates]
    order = int(np.argmin(values))
    min_index = values[order]
    zeros = [c for c, v in zip(scan.candidates, values) if abs(v) <= tol]
    if min_index < -tol:
        return ExistenceReport(
            "no_ge", min_index, scan.candidates[order], zeros, False,
            len(values), scan.truncated,
        )
    if not zeros:
        return ExistenceReport(
            "unique", min_index, None, zeros, False, len(values), scan.truncated
        )
    complement_ok = all(_complementary(meas, V, zeros) for V in zeros)
    verdict = "limit" if complement_ok else "inconclusive"
    return ExistenceReport(
        verdict, min_index, scan.candidates[order], zeros, complement_ok,
        len(values), scan.truncated,
    )


@dataclass
class VelocityFlag:
    """Decomposition w = sum_k alpha_k (Pr(V_k) - dim(V_k)/m Id) over a nested flag.

    ``pairs`` lists (alpha_k, basis of V_k) with alpha_k > 0 and
    V_1 < V_2 < ... proper subspaces; empty for the zero velocity.
    """

    pairs: list[tuple[float, np.ndarray]]

    @property
    def is_empty(self) -> bool:
        return not self.pairs


def decompose_velocity(Sigma, w, gap_tol: float = GAP_TOL) -> VelocityFlag:
    """Flag decomposition of a self-adjoint trace-free velocity at Sigma.

    ``w`` must satisfy w Sigma = (w Sigma)^T and tr(w) = 0 (a geodesic ray
    t -> expm(t w) Sigma then stays in the manifold).  Eigenvalues of w are
    grouped into clusters separated by relative gaps above ``gap_tol``;
    V_k spans the top-k clusters' eigenvectors and alpha_k is the gap
    between consecutive cluster means.
    """
    Sigma = check_scatter(Sigma)
    w = np.asarray(w, dtype=float)
    m = Sigma.shape[0]
    if w.shape != (m, m):
        raise UsageError(f"velocity must be {m} x {m}, got {w.shape}")
    W = w @ Sigma
    scale = max(1.0, np.abs(W).max())
    if np.abs(W - W.T).max() > 1e-10 * scale:
        raise UsageError("velocity is not self-adjoint with respect to Sigma")
    if abs(np.trace(w)) > 1e-10 * max(1.0, np.abs(np.diag(w)).sum()):
        raise UsageError("velocity is not trace-free")
    c = _chart(Sigma)
    return _flag(c, sym(c.W @ w @ c.F), gap_tol)


def _flag(c: _Chart, v: np.ndarray, gap_tol: float) -> VelocityFlag:
    """Flag of the whitened velocity v = W w F (symmetric) in the chart c of Sigma."""
    m = v.shape[0]
    lam, E = np.linalg.eigh(v)
    lam, E = lam[::-1], E[:, ::-1]           # descending
    spread = lam[0] - lam[-1]
    if spread <= 1e-14 * max(1.0, np.abs(lam).max()):
        return VelocityFlag([])
    # cluster boundaries at relative gaps above gap_tol
    ends = [i + 1 for i in range(m - 1) if lam[i] - lam[i + 1] > gap_tol * spread] + [m]
    means = [float(lam[a:b].mean()) for a, b in zip([0] + ends, ends)]
    return VelocityFlag([(means[k] - means[k + 1], orthonormalize(c.F @ E[:, : ends[k]]))
                         for k in range(len(means) - 1)])


def asymptotic_slope(meas: Empirical, Sigma, w, gap_tol: float = GAP_TOL) -> float:
    """Limiting slope of the objective along the ray with velocity w at Sigma.

    Equals 1/2 sum_k alpha_k * existence_index(meas, V_k) over the
    velocity's flag (matches finite differences of the objective at large
    t): negative slope in some direction certifies nonexistence, while
    strictly positive slopes in all directions pin the minimizer down.
    """
    if not isinstance(meas, Empirical):
        raise UsageError("asymptotic_slope needs an empirical measure")
    flag = decompose_velocity(Sigma, w, gap_tol=gap_tol)
    return float(0.5 * sum(alpha * existence_index(meas, V) for alpha, V in flag.pairs))


def boundary_flag(iterates, gap_tol: float = GAP_TOL) -> VelocityFlag:
    """Escape-direction flag of a diverging solver run.

    Normalizes the log-map of the last step (second-to-last iterate to the
    last) into a unit velocity and decomposes it.  Raises EmptyFlagError when
    fewer than two iterates are given or the run is stationary: its last step
    is at most half the mean step from the first iterate to the last
    (converged runs have no escape direction).
    """
    return _boundary_flag([check_scatter(S, name="iterate") for S in iterates], gap_tol)


def _boundary_flag(iterates, gap_tol: float = GAP_TOL) -> VelocityFlag:
    if len(iterates) < 2:
        raise EmptyFlagError("need at least two iterates to extract an escape direction")
    # an escape is a ray, so its steps are steady; the first step from the
    # start can be several steady steps long, hence the mean step as reference
    mean_step = _distance(iterates[0], iterates[-1]) / (len(iterates) - 1)
    # the last step in the chart of its base: its length, and its log-map
    # whitened there (v), projected onto the tangent space (trace removed)
    c = _chart(iterates[-2])
    lam, E = np.linalg.eigh(_whitened(c, iterates[-1]))
    loglam = np.log(lam)
    if np.sqrt(loglam @ loglam) <= max(1e-8, 0.5 * mean_step):
        raise EmptyFlagError("iterates are stationary; no escape direction")
    loglam -= loglam.mean()
    v = sym((E * loglam) @ E.T)
    return _flag(c, v / np.linalg.norm(v), gap_tol)
