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
log-likelihood itself).  A diverging solver run carries the flag of its
last step (``GEResult.boundary``), naming the subspaces responsible for
nonexistence.
"""

from __future__ import annotations

from dataclasses import dataclass
import numpy as np

from .errors import DomainError, UsageError
from .grassmann import Empirical, _check_dims, _check_empirical, dim_intersection, orthonormalize
from .manifold import _Chart, _chart, _check_scatter_for, _check_tangent, _whitened

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


def _paired(meas: Empirical, flag: VelocityFlag, opposite: VelocityFlag) -> bool:
    """Does every atom split on each subspace V_k of ``flag`` and its complement W, the
    subspace of the opposite velocity's flag k-th from the end: dim(U_j & V_k) +
    dim(U_j & W) = r?"""
    return all((dim_intersection(meas.points, V) + dim_intersection(meas.points, W)
                == meas.r).all()
               for (_, V), (_, W) in zip(flag.pairs, opposite.pairs[::-1]))


@dataclass
class VelocityFlag:
    """Decomposition w = sum_k alpha_k (Pr(V_k) - dim(V_k)/m Id) over a nested flag.

    ``pairs`` lists (alpha_k, basis of V_k) with alpha_k > 0 and
    V_1 < V_2 < ... proper subspaces; empty for the zero velocity.
    """

    pairs: list[tuple[float, np.ndarray]]


def decompose_velocity(Sigma, w) -> VelocityFlag:
    """Flag decomposition of a self-adjoint trace-free velocity at Sigma: the point of the
    visual boundary at infinity dM of the manifold that the ray t -> expm(t w) Sigma
    tends to (``asymptotic_slope`` evaluates the objective's slope there).

    ``w`` must satisfy w Sigma = (w Sigma)^T and tr(w) = 0 (a geodesic ray
    t -> expm(t w) Sigma then stays in the manifold), that is, w Sigma must be
    tangent at Sigma (``check_tangent``; tr(Sigma^-1 w Sigma) = tr(w)).  Eigenvalues
    of w are grouped into clusters separated by relative gaps above GAP_TOL;
    V_k spans the top-k clusters' eigenvectors and alpha_k is the gap
    between consecutive cluster means.
    """
    c = _check_scatter_for(None, Sigma)
    w = np.asarray(w, dtype=float)
    if w.shape != c.sigma.shape:
        raise UsageError(f"velocity must be {len(c.sigma)} x {len(c.sigma)}, got {w.shape}")
    return _flag(c, *np.linalg.eigh(_check_tangent(c, w @ c.sigma)))


def _flag(c: _Chart, lam: np.ndarray, E: np.ndarray) -> VelocityFlag:
    """Flag of the whitened velocity v = W w F = E diag(lam) E^T in the chart c of Sigma,
    from its eigenpairs (lam ascending, as eigh gives them).  The flag of -v is that of
    (-lam[::-1], E[:, ::-1]): its k-th subspace from the end complements v's k-th."""
    m = len(lam)
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


def _boundary_flag(prev, last, mean_step: float) -> VelocityFlag | None:
    """The flag of a run's last step from prev to last, its log-map normalized to a unit
    velocity, or None if the step is stationary: at most half the run's ``mean_step``, the
    mean step of its divergence window (an escape is a ray, so its steps are steady; a
    converged run has no escape direction)."""
    # the last step in the chart of its base: its length, and the eigenpairs of its log-map
    # whitened there, projected onto the tangent space (trace removed) and normalized
    c = _chart(prev)
    lam, E = np.linalg.eigh(_whitened(c, last))
    loglam = np.log(lam)
    if np.sqrt(loglam @ loglam) <= max(1e-8, 0.5 * mean_step):
        return None
    loglam -= loglam.mean()
    return _flag(c, loglam / np.sqrt(loglam @ loglam), E)
