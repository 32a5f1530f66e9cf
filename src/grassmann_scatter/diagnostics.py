"""Existence diagnostics for scatter estimation from subspace data.

Whether a measure P on r-dimensional subspaces admits an estimate of
scatter is governed by the index

    existence_index(P, V) = (r/m) dim(V) - E_P[ dim(U & V) ]

over proper subspaces V.  Strict positivity for every proper V gives a
unique estimate; a strictly negative value anywhere means none exists (mass
concentrates on V); zero values put P on the boundary, where an estimate
may survive as a limit of perturbed problems.  The one verdict is
``estimator.diagnose``: it decides from one solver run, checking the solver's
certificate (its tangent Hessian, or its escape flag) with the indices defined
here.  The index is evaluated on stacks of same-dimension subspaces, each
``existence_index`` call ranking every atom against every subspace of its stack
in one ``dim_intersection`` call; every intersection dimension comes from the
one rank core ``grassmann._meet_dims``.

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
import numpy as np

from .errors import DomainError, EmptyFlagError, UsageError
from .grassmann import Empirical, _check_dims, _check_empirical, dim_intersection, orthonormalize
from .manifold import (_Chart, _chart, _check_scatter_for, _distance, _whitened, check_scatter,
                       check_tangent, sym)

INDEX_TOL = 1e-9        # |index| below this counts as zero in classification
GAP_TOL = 1e-6          # relative eigenvalue gap separating velocity clusters
MEET_BATCH = 1 << 16    # floats of the [U_j | V_i] stacks one existence_index call ranks


def unique_sample_threshold(m: int, r: int) -> float:
    """Sample size above which generic data admits a unique estimate (a.s.)."""
    _check_dims(m, r)
    return m * m / (r * (m - r))


def existence_index(meas: Empirical, V):
    """(r/m) dim(V) - sum_j w_j dim(U_j & V) for a proper subspace V.

    V is one m x d basis (a float is returned) or a stack (k, m, d) of bases
    of one dimension d (a (k,) array); one ``dim_intersection`` call takes
    the meets of every atom with every V.
    """
    _check_empirical(meas, "existence_index")
    V = np.asarray(V, dtype=float)
    if V.ndim not in (2, 3) or not 0 < V.shape[-1] < meas.m or V.shape[-2] != meas.m:
        raise DomainError(f"candidate subspace must be m x d with 0 < d < m, got {V.shape}")
    return _index(meas.points, meas.weights, V)


def _index(points: np.ndarray, weights: np.ndarray, V: np.ndarray):
    """``existence_index`` of the atoms (n, m, r) with their weights (unchecked)."""
    base = points.shape[2] / points.shape[1] * V.shape[-1]
    if V.ndim == 2:
        return float(base - weights @ dim_intersection(points, V))
    dims = dim_intersection(points[:, None], V)                  # atoms x candidates
    # one dot per candidate, as for a single V: each value is the same to the bit
    return np.array([base - weights @ col for col in np.ascontiguousarray(dims.T)])


@dataclass(frozen=True)
class Candidate:
    """A subspace that ``diagnose`` evaluated, with how it was built: "sum" (the span of
    one atom, or the joint span of all of them) or "eigen_flag" (a flag subspace of the
    solve's escape direction or Hessian null direction)."""

    basis: np.ndarray
    provenance: str

    @property
    def dim(self) -> int:
        return self.basis.shape[1]


@dataclass
class ExistenceReport:
    """Classification of an empirical measure.

    verdict        "unique" | "no_ge" | "limit" | "inconclusive"
    min_index      smallest existence index over the evaluated subspaces
    witness        subspace attaining min_index, None for "unique"
    zeros          the zero-index subspaces of a "limit" verdict, else empty
    scanned        number of subspaces whose index was evaluated
    lambda_min     ``estimator.diagnose``: smallest tangent Hessian eigenvalue at its
                   converged solve, else None
    slope          ``estimator.diagnose``: asymptotic slope of its diverged solve's
                   escape flag, else None
    """

    verdict: str
    min_index: float
    witness: Candidate | None
    zeros: list[Candidate]
    scanned: int
    lambda_min: float | None = None
    slope: float | None = None

    @property
    def complement_ok(self) -> bool:
        """The verdict is "limit": every zero has a complementary zero splitting every atom."""
        return self.verdict == "limit"


def _index_values(meas: Empirical, bases) -> np.ndarray:
    """existence_index of every basis: one stack per dimension, cut to MEET_BATCH floats."""
    values = np.empty(len(bases))
    for d in sorted({B.shape[1] for B in bases}):
        rows = [i for i, B in enumerate(bases) if B.shape[1] == d]
        step = max(1, MEET_BATCH // (meas.n * meas.m * (meas.r + d)))
        for lo in range(0, len(rows), step):
            batch = rows[lo:lo + step]
            values[batch] = existence_index(meas, np.stack([bases[i] for i in batch]))
    return values


def _complementary(meas: Empirical, V: Candidate, W: Candidate, meets_V, meets_W) -> bool:
    """Is R^m = V (+) W with every atom split, dim(U_j & V) + dim(U_j & W) = r?"""
    return (W.dim == meas.m - V.dim and dim_intersection(V.basis, W.basis) == 0
            and (meets_V + meets_W == meas.r).all())


def _paired(meas: Empirical, zeros: list[Candidate]) -> bool:
    """Does every zero-index subspace have a complementary one among ``zeros``?"""
    meets = [dim_intersection(meas.points, V.basis) for V in zeros]
    return all(any(_complementary(meas, V, W, mv, mw) for W, mw in zip(zeros, meets))
               for V, mv in zip(zeros, meets))


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


def decompose_velocity(Sigma, w) -> VelocityFlag:
    """Flag decomposition of a self-adjoint trace-free velocity at Sigma.

    ``w`` must satisfy w Sigma = (w Sigma)^T and tr(w) = 0 (a geodesic ray
    t -> expm(t w) Sigma then stays in the manifold), that is, w Sigma must be
    tangent at Sigma (``check_tangent``; tr(Sigma^-1 w Sigma) = tr(w)).  Eigenvalues
    of w are grouped into clusters separated by relative gaps above GAP_TOL;
    V_k spans the top-k clusters' eigenvectors and alpha_k is the gap
    between consecutive cluster means.
    """
    Sigma = check_scatter(Sigma)
    w = np.asarray(w, dtype=float)
    if w.shape != Sigma.shape:
        raise UsageError(f"velocity must be {len(Sigma)} x {len(Sigma)}, got {w.shape}")
    check_tangent(Sigma, w @ Sigma)
    c = _chart(Sigma)
    return _flag(c, sym(c.W @ w @ c.F))


def _flag(c: _Chart, v: np.ndarray) -> VelocityFlag:
    """Flag of the whitened velocity v = W w F (symmetric) in the chart c of Sigma."""
    m = v.shape[0]
    lam, E = np.linalg.eigh(v)
    lam, E = lam[::-1], E[:, ::-1]           # descending
    spread = lam[0] - lam[-1]
    if spread <= 1e-14 * max(1.0, np.abs(lam).max()):
        return VelocityFlag([])
    # cluster boundaries at relative gaps above GAP_TOL
    ends = [i + 1 for i in range(m - 1) if lam[i] - lam[i + 1] > GAP_TOL * spread] + [m]
    means = [float(lam[a:b].mean()) for a, b in zip([0] + ends, ends)]
    return VelocityFlag([(means[k] - means[k + 1], orthonormalize(c.F @ E[:, : ends[k]]))
                         for k in range(len(means) - 1)])


def asymptotic_slope(meas: Empirical, Sigma, w) -> float:
    """Limiting slope of the objective along the ray with velocity w at Sigma.

    Equals 1/2 sum_k alpha_k * existence_index(meas, V_k) over the
    velocity's flag (matches finite differences of the objective at large
    t): negative slope in some direction certifies nonexistence, while
    strictly positive slopes in all directions pin the minimizer down.
    """
    _check_empirical(meas, "asymptotic_slope")
    return _flag_slope(meas.points, meas.weights, decompose_velocity(Sigma, w))


def _flag_slope(points: np.ndarray, weights: np.ndarray, flag: VelocityFlag) -> float:
    """1/2 sum_k alpha_k * existence_index(V_k) over the flag's pairs (unchecked atoms)."""
    return float(0.5 * sum(alpha * _index(points, weights, V) for alpha, V in flag.pairs))


def boundary_flag(iterates) -> VelocityFlag:
    """Escape-direction flag of a diverging solver run.

    Normalizes the log-map of the last step (second-to-last iterate to the
    last) into a unit velocity and decomposes it.  Raises EmptyFlagError when
    fewer than two iterates are given or the run is stationary: its last step
    is at most half the mean step, the distance from the first iterate to the
    last over the number of steps (converged runs have no escape direction).
    """
    given = list(iterates)
    iterates = [check_scatter(S, name="iterate") for S in given[:1]]
    iterates += [_check_scatter_for(len(iterates[0]), S, "iterate", "iterates") for S in given[1:]]
    if len(iterates) < 2:
        raise EmptyFlagError("need at least two iterates to extract an escape direction")
    mean_step = _distance(iterates[0], iterates[-1]) / (len(iterates) - 1)
    return _boundary_flag(iterates[-2], iterates[-1], mean_step)


def _boundary_flag(prev, last, mean_step: float) -> VelocityFlag:
    """The flag of a run's last step from prev to last, or EmptyFlagError if the step is at
    most half the run's ``mean_step`` (an escape is a ray, so its steps are steady; the
    first step can be several steady steps long, hence the mean as reference)."""
    # the last step in the chart of its base: its length, and its log-map
    # whitened there (v), projected onto the tangent space (trace removed)
    c = _chart(prev)
    lam, E = np.linalg.eigh(_whitened(c, last))
    loglam = np.log(lam)
    if np.sqrt(loglam @ loglam) <= max(1e-8, 0.5 * mean_step):
        raise EmptyFlagError("iterates are stationary; no escape direction")
    loglam -= loglam.mean()
    v = sym((E * loglam) @ E.T)
    return _flag(c, v / np.linalg.norm(v))
