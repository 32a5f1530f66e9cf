"""Solvers for M-estimates of scatter from subspace data.

The estimating equation says the whitened mean projector equals (r/m) Id;
equivalently the residual

    residual(P, Sigma) = || mean_projector(P, Sigma) - (r/m) Id ||_F^2

vanishes.  Two solvers are provided:

* ``fixed_point_solve`` iterates the classical scatter update

      Sigma <- normalize_det( (m/r) sum_j w_j X_j (X_j^T Sigma^-1 X_j)^-1 X_j^T ),

  optionally damped by moving only part of the way along the connecting
  geodesic.  The update strictly decreases the objective away from fixed
  points, and its fixed points are exactly the zeros of the residual.

* ``riemannian_descent`` runs geodesic gradient descent with Armijo
  backtracking on the averaged log-likelihood.  Slower but makes no
  structural assumptions; useful as a cross-check.

When no estimate exists the iterates escape to the boundary of the cone:
eigenvalues split and the distance from the starting point grows without
bound (linearly in the iteration count, since the escape is along a ray).
Divergence is therefore detected *additively*: the run is flagged once the
distance from the start has grown by at least ``divergence_growth`` over the
last ``divergence_window`` iterations while the residual is still above
tolerance.  The returned result then carries a boundary flag describing the
escape direction (see ``diagnostics.boundary_flag``).

Both solvers evaluate the data through one core, ``likelihood._weighted_kernel_sum``
(built on the whitened-Gram kernel of ``grassmann``).  The residual is
whitening-invariant, || M - (r/m) Id ||_F^2 is the same for M whitened by
any factor of Sigma, so it is computed with the Cholesky factor.  Inputs are
validated once on entry; the iterations run on unchecked cores, and the only
conditioning decision is the solver's own COND_MAX guard on each iterate.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .diagnostics import VelocityFlag, _boundary_flag
from .errors import EmptyFlagError, ExistenceError, UsageError
from .grassmann import Empirical, Measure, _columns, _logdet_ratio
from .likelihood import _defect, _materialize, _weighted_kernel_sum
from .manifold import COND_MAX, _distance, _geodesic, _log_map, check_scatter


@dataclass
class SolverOptions:
    """Knobs shared by both solvers.

    max_iter            maximum number of updates
    tol                 convergence threshold on the residual
    damping             step fraction in (0, 1]; 1 is the undamped update
    divergence_window   lookback (iterations) for the divergence test
    divergence_growth   distance growth over the window that flags divergence
    """

    max_iter: int = 500
    tol: float = 1e-12
    damping: float = 1.0
    divergence_window: int = 25
    divergence_growth: float = 10.0

    def __post_init__(self):
        if self.max_iter < 1:
            raise UsageError("max_iter must be at least 1")
        if not self.tol > 0.0:
            raise UsageError("tol must be positive")
        if not 0.0 < self.damping <= 1.0:
            raise UsageError("damping must lie in (0, 1]")
        if self.divergence_window < 1 or not self.divergence_growth > 0.0:
            raise UsageError("divergence window/growth must be positive")


@dataclass
class GEResult:
    """Outcome of a solver run.

    estimate    final iterate (unimodular SPD)
    residual    || mean_projector - (r/m) Id ||_F^2 at the final iterate
    iterations  number of updates performed
    status      "converged" | "diverged_to_boundary" | "max_iterations"
    trace       per-iterate (iteration, residual, distance from start)
    boundary    escape-direction flag when diverged, else None
    """

    estimate: np.ndarray
    residual: float
    iterations: int
    status: str
    trace: list[tuple[int, float, float]] = field(default_factory=list)
    boundary: VelocityFlag | None = None

    @property
    def converged(self) -> bool:
        return self.status == "converged"


def residual(meas: Measure, Sigma, mc_n: int | None = None, rng=None) -> float:
    """Squared Frobenius defect of the estimating equation (= 4x grad norm^2).

    Whitening-invariant, so it is computed with the Cholesky factor of Sigma.
    """
    F = np.linalg.cholesky(check_scatter(Sigma))
    emp = _materialize(meas, mc_n, rng, "residual")
    return _defect(_weighted_kernel_sum(emp.points, emp.weights, F)[0], emp.r)


def _check_span(emp: Empirical) -> None:
    """Raise ExistenceError, with a basis of the joint span, if the atoms miss a direction."""
    U, s, _ = np.linalg.svd(_columns(emp.points), full_matrices=False)
    rank = int(np.sum(s > 1e-10 * s[0]))
    if rank < emp.m:
        raise ExistenceError(
            "atoms are contained in a proper subspace (dimension "
            f"{rank} of {emp.m}); no estimate of scatter exists",
            witness=U[:, :rank],
        )


def _diverged(trace, opts: SolverOptions) -> bool:
    k = len(trace) - 1
    if k < opts.divergence_window:
        return False
    return trace[k][2] - trace[k - opts.divergence_window][2] >= opts.divergence_growth


def _escape_result(Sigma, res, k, trace, iterates) -> GEResult:
    try:
        flag = _boundary_flag(iterates)
    except EmptyFlagError:
        flag = None
    return GEResult(Sigma, res, k, "diverged_to_boundary", trace, boundary=flag)


def _unimodular_or_none(T: np.ndarray) -> np.ndarray | None:
    """T rescaled to determinant one, or None past the solvers' one conditioning guard.

    The guard: every eigenvalue positive, and their ratio at most COND_MAX.
    """
    lam = np.linalg.eigvalsh(T)
    if lam[0] <= 0.0 or lam[-1] > COND_MAX * lam[0]:
        return None
    return T * np.exp(-np.log(lam).mean())


def fixed_point_solve(
    meas: Empirical,
    Sigma0=None,
    options: SolverOptions | None = None,
) -> GEResult:
    """Iterate the scatter fixed-point update until the residual drops below tol.

    Requires an empirical measure whose atoms jointly span the whole space
    (otherwise ExistenceError, carrying a basis of the deficient span as
    witness).  Starts from Sigma0 (default: identity).  With
    ``damping < 1`` each update moves only that fraction of the way along
    the geodesic toward the plain update target.
    """
    if not isinstance(meas, Empirical):
        raise UsageError("fixed_point_solve needs an empirical measure; sample first")
    opts = options or SolverOptions()
    _check_span(meas)
    start = np.eye(meas.m) if Sigma0 is None else check_scatter(Sigma0, name="Sigma0")

    T = start
    iterates: list[np.ndarray] = []
    trace: list[tuple[int, float, float]] = []
    for k in range(opts.max_iter + 1):
        Sigma = _unimodular_or_none(T)
        if Sigma is None:
            # conditioning breached before the distance test fired; the run
            # is escaping and the new iterate is numerically unusable
            return _escape_result(iterates[-1], trace[-1][1], k, trace, iterates)
        iterates.append(Sigma)
        M, S = _weighted_kernel_sum(meas.points, meas.weights, np.linalg.cholesky(Sigma))
        res = _defect(M, meas.r)
        trace.append((k, res, _distance(start, Sigma)))
        if res <= opts.tol:
            return GEResult(Sigma, res, k, "converged", trace)
        if _diverged(trace, opts):
            return _escape_result(Sigma, res, k, trace, iterates)
        if k == opts.max_iter:
            break
        # S is the update target up to scale; the next check normalizes it
        T = S if opts.damping >= 1.0 else _geodesic(Sigma, _log_map(Sigma, S), opts.damping)
    return GEResult(Sigma, res, opts.max_iter, "max_iterations", trace)


def riemannian_descent(
    meas: Measure,
    Sigma0=None,
    options: SolverOptions | None = None,
    mc_n: int | None = None,
    rng=None,
) -> GEResult:
    """Geodesic gradient descent with Armijo backtracking on the objective.

    Gaussian measures are first replaced by a Monte Carlo sample of size
    ``mc_n`` (so the run optimizes the sample-average objective).  The
    objective value is non-increasing along the run.  A stalled line search
    (no decrease after 60 halvings) ends the run with status
    "max_iterations".
    """
    opts = options or SolverOptions()
    emp = _materialize(meas, mc_n, rng, "riemannian_descent")
    _check_span(emp)
    m, r = emp.m, emp.r
    Sigma = np.eye(m) if Sigma0 is None else check_scatter(Sigma0, name="Sigma0")
    start = Sigma

    def objective(S):
        return 0.5 * float(emp.weights @ _logdet_ratio(emp.points, np.linalg.cholesky(S)))

    step0 = 2.0 * m / r  # undamped fixed-point step, linearized
    step = step0
    f = objective(Sigma)
    iterates = [Sigma]
    trace: list[tuple[int, float, float]] = []
    for k in range(opts.max_iter + 1):
        M, S = _weighted_kernel_sum(emp.points, emp.weights, np.linalg.cholesky(Sigma))
        G = (0.5 * r / m) * Sigma - 0.5 * S
        res = _defect(M, r)
        gn2 = 0.25 * res                                  # <G, G>_Sigma
        trace.append((k, res, _distance(start, Sigma)))
        if res <= opts.tol:
            return GEResult(Sigma, res, k, "converged", trace)
        if _diverged(trace, opts):
            return _escape_result(Sigma, res, k, trace, iterates)
        if k == opts.max_iter:
            break
        t = step
        for _ in range(60):
            cand = _unimodular_or_none(_geodesic(Sigma, -G, t))
            if cand is not None and (f_new := objective(cand)) <= f - 1e-4 * t * gn2:
                break
            t *= 0.5
        else:
            return GEResult(Sigma, res, k, "max_iterations", trace)
        Sigma, f = cand, f_new
        step = min(2.0 * t, 8.0 * step0)
        iterates.append(Sigma)
    return GEResult(Sigma, res, opts.max_iter, "max_iterations", trace)
