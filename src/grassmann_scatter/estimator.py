"""Solvers for M-estimates of scatter from subspace data.

The estimating equation says the whitened mean projector equals (r/m) Id;
equivalently the residual

    residual(P, Sigma) = || mean_projector(P, Sigma) - (r/m) Id ||_F^2

vanishes.  The solver, ``fixed_point_solve``, iterates the classical scatter update

    Sigma <- normalize_det( (m/r) sum_j w_j X_j (X_j^T Sigma^-1 X_j)^-1 X_j^T ).

The update is a majorize-minimize step: it strictly decreases the objective
away from fixed points, and its fixed points are exactly the zeros of the
residual.  It contracts only linearly, and slowest near the existence
threshold, so the loop is Newton-first.  A run tries a Newton point as soon as
its residual ratio res_k / res_(k-1) exceeds POLISH_RATIO (tested from
iteration 1 on, at any residual), and after its first Newton point it tries one
on every iteration.  The Newton point is F expm(V) F^T: V solves
H V = 1/2 (M - (r/m) Id) for the geodesic Hessian H (convex objective, so
H >= 0) on the tangent space, all whitened in the iterate's chart.  It is
taken only when the guard cannot reject it (lambda_min(H) > NULL_HESSIAN and a
conditioning bound, see ``_newton_targets``) and its objective is at most the
plain update's, so no iterate raises the objective; otherwise the plain update
is taken.  A run that meets lambda_min(H) <= NULL_HESSIAN (a flat of
minimizers, or an escape) declines Newton for the rest of its solve.

When no estimate exists the iterates escape to the boundary of the cone:
eigenvalues split and the distance from the starting point grows without
bound (linearly in the iteration count, since the escape is along a ray).
Divergence is therefore detected *additively*: the run is flagged once the
distance from the start has grown by at least DIVERGENCE_GROWTH over the
last DIVERGENCE_WINDOW iterations with a steady last step (at least half
the window's mean step; a run converging to a far estimate slows down), while
the residual is still above tolerance.  The returned result then carries a
boundary flag describing the escape direction (see ``diagnostics.boundary_flag``).

``diagnose`` decides existence from one fixed-point solve: a safely
positive-definite Hessian at the converged estimate certifies "unique", a null
direction of it splitting every atom "limit", an escape of negative slope (or a
deficient span) "no_ge"; whatever the solve leaves open is "inconclusive", or
"no_ge" where a subspace it evaluated has a negative index.  It is the
library's one existence verdict.

The solver evaluates the data through one core, ``likelihood._weighted_kernel_sum``
(built on the whitened-frame core of ``grassmann``).  Inputs are validated once
on entry; the iterations run on unchecked cores, and the only conditioning
decision is the solver's own COND_MAX guard on each iterate.  The span check on
entry certifies that the atoms span R^m by one batched det of the m x m Gram of
their columns (``grassmann._gram_certified``); an svd of the columns decides, and
builds the witness of a deficient span, only where that screen cannot certify.

One loop on a stack.  The fixed-point loop, ``_solve_stack``, runs B same-shape
datasets (B, n, m, r) at once; ``fixed_point_solve`` is its one-lane call, and
the Monte Carlo experiments of ``asymptotics`` hand it blocks of replications.
Each lane keeps its own trace, exit rule, Newton state and escape flag (which reads
the iterates k-1 and k, and its mean step off the trace), and leaves the stack
when it converges, diverges, breaches the guard or runs out of budget.  Every
batched call treats each lane on its own, so a lane's result is bit-identical
whichever lanes share its stack.

Per-iteration budget, for all live lanes together.  Every iterate is the eigen
chart (``manifold._chart``) of one eigh T = Q diag(lam) Q^T of the unnormalized
update (``_guarded``, one batched call for the stack): the eigenvalues give the
COND_MAX guard, the scaling Sigma = T exp(-mean log lam), F = Q diag(sqrt(lam~)),
W = F^-1 (lam~ the eigenvalues of Sigma) and the distance from the start,
|| log lam~ || from the identity (the default).  A user start is charted once per
solve and adds one batched eigvalsh of the whitened iterates per iteration.  The
kernel whitens the atoms of every lane by one broadcast product with the lanes'
W and orthonormalizes them by Gram-Schmidt across atoms and lanes: no LAPACK
call.  So a plain iteration makes one eigh call.  An iteration on which some
lanes try Newton builds their steps together (``_newton_targets``): the
projectors come from the kernel's frames, one batched GEMM gives
sum_j w_j Pi_j kron Pi_j, one batched eigh of the m^2 x m^2 Hessians decides
definiteness and solves, and one batched eigh of the V of the definite lanes
gives the exponential.  The guard's one batched eigh then charts the plain
update of every lane and the Newton points together, and one Gram-Schmidt of
the atoms whitened in both candidates' charts gives their objectives (its
squared norms are the log-det terms).  So a Newton iteration makes three eigh
calls (two when every trying lane declines).  No iteration solves a system.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from numbers import Integral, Real

import numpy as np

from .diagnostics import (
    INDEX_TOL,
    Candidate,
    ExistenceReport,
    VelocityFlag,
    _boundary_flag,
    _flag,
    _flag_slope,
    _index_values,
    _paired,
    existence_index,
)
from .errors import EmptyFlagError, ExistenceError, UsageError
from .grassmann import (
    RANK_TOL,
    Empirical,
    _check_empirical,
    _columns,
    _gram_certified,
    _log_gram_dets,
    _outer,
    orthonormalize,
)
from .likelihood import _defect, _hessian, _hessian_at, _weighted_kernel_sum, grad_norm_sq
from .manifold import (
    COND_MAX,
    _Chart,
    _chart,
    _check_scatter_for,
    _whitened_distance,
    sym,
)

POLISH_RATIO = 0.2      # Newton-first: a run tries Newton once res_k / res_(k-1) exceeds this
DIVERGENCE_WINDOW = 25    # divergence: the distance from the start grew by at least
DIVERGENCE_GROWTH = 10.0  # this over the last DIVERGENCE_WINDOW iterations

# diagnose: a converged solve certifies "unique" when lambda_min of the tangent Hessian
# is at least UNIQUE_HESSIAN and the Newton step ||g|| / lambda_min at most NEWTON_STEP,
# and reads a null direction ("limit") when lambda_min is at most NULL_HESSIAN
UNIQUE_HESSIAN = 1e-6
NEWTON_STEP = 1e-2
NULL_HESSIAN = 1e-10
REFINE_TOL = 1e-26      # the limit route re-solves to this residual before reading V
REFINE_ITER = 100
SPAN_CHECKS = 128       # atom spans whose index every route of diagnose evaluates


@dataclass
class SolverOptions:
    """The budget and tolerance of the solver (the divergence test's window and
    growth are the module constants DIVERGENCE_WINDOW and DIVERGENCE_GROWTH).

    max_iter    maximum number of updates
    tol         convergence threshold on the residual
    """

    max_iter: int = 500
    tol: float = 1e-12

    def __post_init__(self):
        if isinstance(self.max_iter, bool) or not isinstance(self.max_iter, Integral) \
                or self.max_iter < 1:
            raise UsageError(f"max_iter must be an integer >= 1, got {self.max_iter!r}")
        if isinstance(self.tol, bool) or not isinstance(self.tol, Real) \
                or not 0.0 < self.tol < np.inf:
            raise UsageError(f"tol must be finite and positive, got {self.tol!r}")


@dataclass
class GEResult:
    """Outcome of a solver run.

    estimate    final iterate (unimodular SPD)
    residual    || mean_projector - (r/m) Id ||_F^2 at the final iterate
    iterations  number of updates performed
    status      "converged" | "diverged_to_boundary" | "max_iterations"
    trace       per-iterate (iteration, residual, distance from start)
    boundary    escape-direction flag when diverged, else None
    slope       asymptotic slope 1/2 sum_k alpha_k index(V_k) of the boundary flag, else
                None: negative proves that no estimate exists (see ``diagnostics``)
    """

    estimate: np.ndarray
    residual: float
    iterations: int
    status: str
    trace: list[tuple[int, float, float]] = field(default_factory=list)
    boundary: VelocityFlag | None = None
    slope: float | None = None

    @property
    def converged(self) -> bool:
        return self.status == "converged"


def residual(meas: Empirical, Sigma) -> float:
    """Squared Frobenius defect of the estimating equation (= 4x grad norm^2)."""
    return 4.0 * grad_norm_sq(meas, Sigma)


def _check_span(points: np.ndarray) -> None:
    """Raise ExistenceError, with a basis of the joint span, if the atoms miss a direction.

    The m x nr columns of each dataset of a stack (B, n, m, r) pass the Gram screen
    ``_gram_certified`` (one batched det); only the datasets it cannot certify go to the
    svd of their columns, and the first deficient one raises.
    """
    m = points.shape[-2]
    A = _columns(points).reshape(-1, m, points.shape[-3] * points.shape[-1])
    uncertified = ~_gram_certified(A)
    if not uncertified.any():
        return
    U, s, _ = np.linalg.svd(A[uncertified], full_matrices=False)
    ranks = np.sum(s > RANK_TOL * s[..., :1], axis=-1)
    for b in np.flatnonzero(ranks < m)[:1]:
        raise ExistenceError(
            "atoms are contained in a proper subspace (dimension "
            f"{ranks[b]} of {m}); no estimate of scatter exists",
            witness=U[b][:, :ranks[b]],
        )


def _status(trace, opts: SolverOptions) -> str | None:
    """The solver's exit rule: the status a run ends with at its last trace entry
    (converged, diverged_to_boundary, max_iterations), or None to go on."""
    k, res, d = trace[-1]
    if res <= opts.tol:
        return "converged"
    # an escape is a ray, so its last step is steady: at least half the mean
    # step of the window; a run converging to a far estimate slows down instead
    w = DIVERGENCE_WINDOW
    if k >= w:
        growth = d - trace[k - w][2]
        if growth >= DIVERGENCE_GROWTH and d - trace[k - 1][2] >= 0.5 * growth / w:
            return "diverged_to_boundary"
    return "max_iterations" if k == opts.max_iter else None


def _escape_result(Sigma, res, k, trace, prev, points, weights) -> GEResult:
    """A run on the atoms (points, weights) whose last step went from prev to Sigma; its
    mean step is the trace's last distance over its steps, and the slope of its flag
    comes from integer meet dimensions."""
    steps = len(trace) - 1
    try:
        flag = _boundary_flag(prev, Sigma, trace[-1][2] / steps) if steps else None
    except EmptyFlagError:
        flag = None
    slope = None if flag is None else _flag_slope(points, weights, flag)
    return GEResult(Sigma, res, k, "diverged_to_boundary", trace, boundary=flag, slope=slope)


def _guarded(T: np.ndarray) -> tuple[_Chart, np.ndarray]:
    """The charts of a stack T rescaled to determinant one, and the mask of those that
    pass the solver's guard (the others' charts are placeholders).

    One batched eigh of T supplies everything.  The guard: every eigenvalue
    positive, and their ratio at most COND_MAX.  Every solver target is positive
    semi-definite with trace > 0, so its largest eigenvalue is positive and the
    ratio test alone implies the sign test.
    """
    lam, Q = np.linalg.eigh(T)
    ok = lam[..., -1] <= COND_MAX * lam[..., 0]
    if np.count_nonzero(ok) < ok.size:           # a quarter of ok.all()'s cost on small masks
        lam = np.where(ok[..., None], lam, 1.0)
    loglam = np.log(lam)
    shift = loglam.sum(-1, keepdims=True) / lam.shape[-1]     # the mean, as np.mean takes it
    return _chart(T * np.exp(-shift)[..., None], loglam - shift, Q), ok


def _hessian_eigh(U: np.ndarray, weights: np.ndarray, M: np.ndarray):
    """eigh of the whitened geodesic Hessians (``likelihood._hessian``) of a stack of L
    iterates, from the kernel's frames U (r, L, m, n), weights (L, n) and M (L, m, m).

    Their tangent eigenvalues lie in [0, 1/2] (1/2 tr(V^2 M) <= 1/2 ||V||^2 bounds the
    form), and the m(m-1)/2 + 1 off-tangent ones (antisymmetric and trace directions)
    are exactly 1, so they sort last: the first eigenpair of each is the smallest one
    on the symmetric trace-free matrices.
    """
    return np.linalg.eigh(_hessian(_outer(U), weights, M))


def _newton_targets(U: np.ndarray, weights: np.ndarray, M: np.ndarray, it: _Chart):
    """(definite, safe, points) for a stack of L iterates (kernel frames, weights, M, charts).

    ``definite`` marks lambda_min(H) > NULL_HESSIAN; ``safe`` marks the definite lanes
    whose Newton point F expm(V) F^T lies within the conditioning bound, and ``points``
    holds those lanes' points, in order (see above).
    """
    m = M.shape[-1]
    h, E = _hessian_eigh(U, weights, M)
    definite = h[:, 0] > NULL_HESSIAN               # else numerically singular on the tangent space
    safe = definite.copy()
    if not definite.any():
        return definite, safe, M[:0]
    h, E, loglam, F = h[definite], E[definite], it.loglam[definite], it.F[definite]
    g = (M[definite] - len(U) / m * np.eye(m)).reshape(-1, m * m, 1)    # 2 H V = M - (r/m) Id
    mu, Z = np.linalg.eigh(sym((E @ (E.swapaxes(-1, -2) @ g / (2.0 * h[..., None])))
                               .reshape(-1, m, m)))
    # cond(F e^V F^T) <= e^(mu_max - mu_min) cond(Sigma); within this bound it is at most
    # COND_MAX / e, so the guard passes the point whatever the rounding of its eigenvalues
    bounded = mu[:, -1] - mu[:, 0] + np.ptp(loglam, axis=-1) <= np.log(COND_MAX) - 1.0
    safe[definite] = bounded
    Z, F = Z[bounded], F[bounded]
    expV = (Z * np.exp(mu[bounded])[:, None, :]) @ Z.swapaxes(-1, -2)
    return definite, safe, sym(F @ expV @ F.swapaxes(-1, -2))


def _solve_stack(points: np.ndarray, weights: np.ndarray, opts: SolverOptions,
                 start: np.ndarray | None = None) -> list[GEResult]:
    """The fixed-point loop on a stack of B same-shape datasets at once (unchecked).

    ``points`` (B, n, m, r) and ``weights`` (B, n) hold validated datasets whose
    atoms span R^m; each lane starts from ``start`` (default: identity) and
    leaves the stack when it converges, diverges, breaches the guard or runs out
    of budget.  Every batched call computes each lane on its own, so a lane's
    result does not depend on the other lanes of its stack.
    """
    B, n, m, r = points.shape
    W0 = None if start is None else _chart(start).W     # a user start is charted once
    it, _ = _guarded(np.repeat((np.eye(m) if start is None else start)[None], B, axis=0))
    prev = it.sigma                          # the escape flag reads iterates k-1 and k
    newton = np.zeros(B, dtype=bool)         # took a Newton point: tries one every iteration
    declined = np.zeros(B, dtype=bool)       # met a null Hessian: never tries again
    lanes = list(range(B))
    traces: list[list[tuple[int, float, float]]] = [[] for _ in lanes]
    results: list[GEResult | None] = [None] * B
    for k in range(opts.max_iter + 1):
        M, S, U = _weighted_kernel_sum(points.reshape(-1, m, r), weights.reshape(-1),
                                       it.F, it.W)
        # the divergence test watches the distance from the start: || log eig(Sigma) ||
        # from the identity, else one batched eigvalsh of the iterates whitened by W0
        dist = np.sqrt(np.vecdot(it.loglam, it.loglam)) if W0 is None \
            else _whitened_distance(W0, it.sigma)
        done, trying = [], []                # lanes that end here with a status; Newton tries
        for i, (res, d) in enumerate(zip(_defect(M, r).tolist(), dist.tolist())):
            trace = traces[lanes[i]]
            trace.append((k, res, d))
            status = _status(trace, opts)
            if status is None:
                if not declined[i] and (newton[i] or k > 0 and res > POLISH_RATIO * trace[-2][1]):
                    trying.append(i)
                continue
            done.append(i)
            if status == "diverged_to_boundary":
                results[lanes[i]] = _escape_result(it.sigma[i], res, k, trace, prev[i],
                                                   points[i], weights[i])
            else:
                results[lanes[i]] = GEResult(it.sigma[i], res, k, status, trace)
        if len(done) == len(lanes):
            break
        # S holds the plain update targets up to scale; the guard scales them and the
        # lanes' Newton points (appended after them) in one call
        L, cand = len(S), np.array(trying, dtype=int)
        if trying:
            definite, safe, targets = _newton_targets(U[:, cand], weights[cand], M[cand],
                                                      _Chart(*(a[cand] for a in it)))
            declined[cand[~definite]] = True
            cand = cand[safe]
            S = np.concatenate([S, targets])
        new, ok = _guarded(S)
        if len(cand):
            # the plain update lowers the objective; a Newton point replaces it only
            # where it lowers it at least as much (objectives relative to the iterate,
            # from one Gram-Schmidt of the atoms whitened in both candidates' charts).
            # Newton points pass the guard by construction, and a lane whose plain
            # update breaches it leaves with its old iterate below
            twice = np.concatenate([cand, cand])
            charted = np.concatenate([cand, np.arange(L, len(S))])     # plain, then Newton
            A = new.W[charted] @ it.F[twice]
            f = np.vecdot(weights[twice], _log_gram_dets((A @ U[:, twice]).swapaxes(1, 2)))
            take = f[len(cand):] <= f[:len(cand)]
            for a in new:
                a[cand[take]] = a[L:][take]
            new = _Chart(*(a[:L] for a in new))
            newton[cand[take]] = True
        # the one exit point: a lane leaves the stack with a status or a guard breach
        keep = ok[:L]
        if done or np.count_nonzero(keep) < L:
            keep[done] = False
            for i in np.flatnonzero(~keep):
                if results[lanes[i]] is None:
                    # the guard breached before the distance test fired: the lane is
                    # escaping, and it leaves with its old iterate (the new one is unusable)
                    trace = traces[lanes[i]]
                    results[lanes[i]] = _escape_result(it.sigma[i], trace[-1][1], k + 1,
                                                       trace, prev[i], points[i], weights[i])
            if not keep.any():
                break
            it, new = _Chart(*(a[keep] for a in it)), _Chart(*(a[keep] for a in new))
            points, weights = points[keep], weights[keep]
            newton, declined = newton[keep], declined[keep]
            lanes = [lane for lane, good in zip(lanes, keep) if good]
        prev, it = it.sigma, new
    return results


def fixed_point_solve(
    meas: Empirical,
    Sigma0=None,
    options: SolverOptions | None = None,
) -> GEResult:
    """Iterate the scatter fixed-point update until the residual drops below tol.

    Requires an empirical measure whose atoms jointly span the whole space
    (otherwise ExistenceError, carrying a basis of the deficient span as
    witness).  Starts from Sigma0 (default: identity) and moves to Newton steps
    once the update contracts slowly.  The one-lane call of the stacked loop
    ``_solve_stack``.
    """
    _check_empirical(meas, "fixed_point_solve")
    opts = options or SolverOptions()
    _check_span(meas.points)
    start = None if Sigma0 is None else _check_scatter_for(meas.m, Sigma0, "Sigma0")
    return _solve_stack(meas.points[None], meas.weights[None], opts, start)[0]


def diagnose(meas: Empirical, tol: float = INDEX_TOL) -> ExistenceReport:
    """Existence verdict from one ``fixed_point_solve`` and the certificate it leaves.

    * unique: the run converged and the whitened tangent Hessian H at the estimate has
      lambda_min >= UNIQUE_HESSIAN with a Newton step ||g|| / lambda_min <= NEWTON_STEP.
      The objective is geodesically convex, so a positive-definite H at its critical
      point makes that point the only minimizer.
    * limit: lambda_min <= NULL_HESSIAN.  After a re-solve to REFINE_TOL, the null vector
      V of H splits every atom, so the objective is constant along F expm(tV) F^T: V's
      flag subspaces and their complements are the zeros, each checked to have index
      within tol and a complement splitting every atom (integer meet dimensions).
    * no_ge: the atoms span a proper subspace of index < -tol (the span is the
      witness), or the run diverged along a flag of slope < -tol; the witness attains
      the least index.

    Besides a deficient span, every route also evaluates the spans of the first
    SPAN_CHECKS atoms: one of index <= tol contradicts "unique", one < -tol contradicts
    "limit".  The cases the certificates leave open (``max_iterations``, an escape of
    slope >= -tol, a lambda_min between the thresholds, a failed check, a deficient
    span of index >= -tol) evaluate the atom spans, plus the escape flag of a diverged
    run or the flags of +-V (V the least eigenvector of H) of a converged one.
    Wherever the evaluated indices do not bear out a certificate, the verdict is
    "no_ge" if one of them is < -tol (a proof), else "inconclusive".
    ``scanned`` counts the evaluated subspaces; ``lambda_min`` and ``slope`` come from
    the solve.  UsageError unless ``tol`` is a finite real number >= 0.
    """
    _check_empirical(meas, "diagnose")
    if isinstance(tol, bool) or not isinstance(tol, Real) or not 0.0 <= tol < np.inf:
        raise UsageError(f"diagnose needs a finite tol >= 0, got {tol!r}")
    spans = [Candidate(B, "sum") for B in orthonormalize(meas.points[:SPAN_CHECKS])]
    try:
        result = fixed_point_solve(meas)
    except ExistenceError as exc:
        span = Candidate(exc.witness, "sum")
        index = float(existence_index(meas, span.basis))
        if index < -tol:
            return ExistenceReport("no_ge", index, span, [], 1)
        return _route_report(meas, "inconclusive", spans + [span], [], tol)
    lam = None
    if result.converged:
        lam, report = _converged_route(meas, result, spans, tol)
    else:
        flag = [] if result.boundary is None else [
            Candidate(B, "eigen_flag") for _, B in result.boundary.pairs]
        claim = "no_ge" if result.slope is not None and result.slope < -tol else "inconclusive"
        report = _route_report(meas, claim, spans + flag, [], tol)
    return replace(report, lambda_min=lam, slope=result.slope)


def _route_report(meas: Empirical, claim: str, cands: list[Candidate],
                  zeros: list[Candidate], tol: float) -> ExistenceReport:
    """The report over the evaluated subspaces: the verdict that the certificate claims
    where their indices bear it out, else "no_ge" if one is < -tol, else "inconclusive"."""
    values = _index_values(meas, [c.basis for c in cands])
    order = int(np.argmin(values))
    low = values[order]
    agrees = {"unique": low > tol, "no_ge": low < -tol, "inconclusive": False,
              "limit": low >= -tol and (values[len(cands) - len(zeros):] <= tol).all()}
    verdict = claim if agrees[claim] else "no_ge" if low < -tol else "inconclusive"
    return ExistenceReport(verdict, float(low), None if verdict == "unique" else cands[order],
                           zeros if verdict == "limit" else [], len(cands))


def _converged_route(meas: Empirical, result: GEResult, spans: list[Candidate], tol: float):
    """(lambda_min, report) of a converged solve: "unique", "limit" or the open case (see
    diagnose)."""
    c, _, H = _hessian_at(meas.points, meas.weights, result.estimate)
    h, U = np.linalg.eigh(H)
    lam = float(h[0])
    if lam >= UNIQUE_HESSIAN and 0.5 * np.sqrt(result.residual) <= NEWTON_STEP * lam:
        return lam, _route_report(meas, "unique", spans, [], tol)
    if lam <= NULL_HESSIAN:
        # at residual 1e-12 the null vector's eigenspaces meet the atoms only to ~1e-8,
        # coarser than the RANK_TOL of the integer checks; at 1e-26 they do to ~1e-15
        refined = _solve_stack(meas.points[None], meas.weights[None],
                               SolverOptions(max_iter=REFINE_ITER, tol=REFINE_TOL),
                               result.estimate)[0]
        if refined.residual < result.residual:
            c, _, H = _hessian_at(meas.points, meas.weights, refined.estimate)
            U = np.linalg.eigh(H)[1]
    V = sym(U[:, 0].reshape(meas.m, meas.m))
    flags = [Candidate(B, "eigen_flag") for v in (V, -V) for _, B in _flag(c, v).pairs]
    if lam <= NULL_HESSIAN and flags and _paired(meas, flags):
        return lam, _route_report(meas, "limit", spans + flags, flags, tol)
    return lam, _route_report(meas, "inconclusive", spans + flags, [], tol)
