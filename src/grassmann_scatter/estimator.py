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
boundary flag describing the escape direction (see ``diagnostics._boundary_flag``).

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
entry is the package's one rank rule, ``grassmann._rank_deficient``, on the
transposed columns of the atoms (a Gram screen, and an svd only where the screen
cannot certify); an svd of the columns builds the witness of a deficient span.

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
|| log lam~ || from the identity (the default).  A user start
comes charted by its validation and adds one batched eigvalsh of the whitened iterates
per iteration.  The raw atoms are whitened once per solve, into the start's chart; after
that every lane carries the frames U_k of its iterate (orthonormal bases of the
whitened atoms W_k X_j).  After the guard, one kernel call
(``likelihood._weighted_kernel_sum``) whitens the frames of every lane that goes on by
A = W' F_k into the chart F' of its plain update and, for a lane trying Newton, of its
Newton point, and orthonormalizes them by one Gram-Schmidt across atoms and
candidates: no LAPACK call.  A W' F_k U_j spans W' X_j, so that one pass gives the
candidates' frames, from which M = sum_j w_j U_j U_j^T and S = F' M F'^T follow with
no further whitening, and in its squared norms the log-det terms of each candidate's
objective relative to the iterate, which decide between plain update and Newton
point; each lane keeps its winner's frames and sums.  So a plain iteration makes one
eigh call and one Gram-Schmidt.  An iteration on which some lanes try Newton builds
their steps together (``_newton_targets``): the projectors come from the kernel's
frames, one batched GEMM gives sum_j w_j Pi_j kron Pi_j, which the fixed orthonormal
basis B of the symmetric trace-free matrices (``manifold._tangent_basis``, d =
(m-1)(m+2)/2 columns) maps to d x d Hessians, one batched eigh of them decides
definiteness and solves in B's coordinates, and one batched eigh of the V = B x of the
definite lanes gives the exponential; the guard's one batched eigh then charts the
plain updates and the Newton points together.  So a Newton iteration makes three eigh
calls (one of them on an empty stack when every trying lane declines) and still one
Gram-Schmidt.  No iteration
solves a system.
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
from .errors import ExistenceError, UsageError
from .grassmann import (
    RANK_TOL,
    Empirical,
    _check_empirical,
    _columns,
    _outer,
    _rank_deficient,
    orthonormalize,
)
from .likelihood import (
    _centered,
    _defect,
    _hessian,
    _hessian_at,
    _weighted_kernel_sum,
    grad_norm_sq,
)
from .manifold import (
    COND_MAX,
    _Chart,
    _chart,
    _check_scatter_for,
    _tangent_basis,
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

    The nr x m transposed columns of each dataset of a stack (B, n, m, r) go through the
    rank rule ``_rank_deficient`` (fewer than m columns always miss one); the svd of the
    columns of the first deficient dataset builds the witness.
    """
    m, nr = points.shape[-2], points.shape[-3] * points.shape[-1]
    A = _columns(points).reshape(-1, m, nr)
    bad = _rank_deficient(A.swapaxes(-1, -2)) if nr >= m else np.ones(len(A), dtype=bool)
    for b in np.flatnonzero(bad)[:1]:
        U, s, _ = np.linalg.svd(A[b], full_matrices=False)
        rank = np.sum(s > RANK_TOL * s[0])
        raise ExistenceError(
            "atoms are contained in a proper subspace (dimension "
            f"{rank} of {m}); no estimate of scatter exists",
            witness=U[:, :rank],
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
    mean step is the one the divergence test reads, over the last min(k, DIVERGENCE_WINDOW)
    steps of its trace, and the slope of its flag comes from integer meet dimensions."""
    steps = min(len(trace) - 1, DIVERGENCE_WINDOW)
    flag = _boundary_flag(prev, Sigma, (trace[-1][2] - trace[-1 - steps][2]) / steps) \
        if steps else None
    slope = None if flag is None else _flag_slope(points, weights, flag)
    return GEResult(Sigma, res, k, "diverged_to_boundary", trace, boundary=flag, slope=slope)


def _unimodular(T: np.ndarray, loglam: np.ndarray, Q: np.ndarray) -> _Chart:
    """The chart of T = Q diag(exp(loglam)) Q^T (or of a stack) rescaled to det 1."""
    shift = loglam.sum(-1, keepdims=True) / loglam.shape[-1]  # the mean, as np.mean takes it
    return _chart(T * np.exp(-shift)[..., None], loglam - shift, Q)


def _guarded(T: np.ndarray) -> tuple[_Chart, np.ndarray]:
    """The charts of a stack T rescaled to determinant one, and the mask of those that
    pass the solver's guard (the others' charts are placeholders).

    One batched eigh of T supplies everything.  The guard: every eigenvalue positive,
    and their ratio at most COND_MAX.  Every solver target is positive semi-definite
    with trace > 0, so its largest eigenvalue is positive and the ratio test alone
    implies the sign test.
    """
    lam, Q = np.linalg.eigh(T)
    ok = lam[..., -1] <= COND_MAX * lam[..., 0]
    if np.count_nonzero(ok) < ok.size:           # a quarter of ok.all()'s cost on small masks
        lam = np.where(ok[..., None], lam, 1.0)
    return _unimodular(T, np.log(lam), Q), ok


def _newton_targets(U: np.ndarray, weights: np.ndarray, M: np.ndarray, it: _Chart):
    """(definite, safe, points) for a stack of L iterates (kernel frames, weights, M, charts).

    ``definite`` marks lambda_min(H) > NULL_HESSIAN; ``safe`` marks the definite lanes
    whose Newton point F expm(V) F^T lies within the conditioning bound, and ``points``
    holds those lanes' points, in order (see above).
    """
    m = M.shape[-1]
    # the whitened geodesic Hessians (``likelihood._hessian``) from the kernel's frames U
    # (r, L, m, n): each H is d x d on the tangent basis B (``manifold._tangent_basis``),
    # so every eigenpair is a tangent one, the eigenvalues lie in [0, 1/2] (1/2 tr(V^2 M)
    # <= 1/2 ||V||^2 bounds the form) and the first is lambda_min on the symmetric
    # trace-free matrices
    h, E = np.linalg.eigh(_hessian(_outer(U), weights, M))
    definite = h[:, 0] > NULL_HESSIAN               # else numerically singular on the tangent space
    safe = definite.copy()
    loglam, F = it.loglam, it.F
    if np.count_nonzero(definite) < len(definite):
        h, E, M, loglam, F = h[definite], E[definite], M[definite], loglam[definite], F[definite]
    # 2 H x = g on the tangent basis B: g = B^T vec(M - (r/m) Id), V = B x, applied lane
    # by lane on the (L, m^2, 1) layout
    B = _tangent_basis(m)
    g = B.T @ _centered(M, len(U))[..., None]
    V = B @ (E @ (E.swapaxes(-1, -2) @ g / (2.0 * h[..., None])))
    mu, Z = np.linalg.eigh(sym(V.reshape(-1, m, m)))
    # cond(F e^V F^T) <= e^(mu_max - mu_min) cond(Sigma); within this bound it is at most
    # COND_MAX / e, so the guard passes the point whatever the rounding of its eigenvalues
    # (a chart's loglam comes from eigh, so it is sorted ascending)
    bounded = mu[:, -1] - mu[:, 0] + (loglam[:, -1] - loglam[:, 0]) <= np.log(COND_MAX) - 1.0
    safe[definite] = bounded
    if np.count_nonzero(bounded) < len(bounded):
        mu, Z, F = mu[bounded], Z[bounded], F[bounded]
    expV = (Z * np.exp(mu)[:, None, :]) @ Z.swapaxes(-1, -2)
    return definite, safe, sym(F @ expV @ F.swapaxes(-1, -2))


def _lanes(U: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """The kernel's frames (r, L, m, n) of the lanes idx, on contiguous (r, m, len(idx), n)
    memory: one copy, which ``_as_atoms`` hands to the kernel as it is."""
    return np.take(U.swapaxes(1, 2), idx, axis=2).swapaxes(1, 2)


def _as_atoms(U: np.ndarray) -> np.ndarray:
    """The kernel's frames (r, L, m, n) as (L n, m, r) atoms: a view of the contiguous
    (r, m, L, n) memory the kernel writes, else a copy."""
    r, L, m, n = U.shape
    return U.swapaxes(1, 2).reshape(r, m, L * n).T


def _solve_stack(points: np.ndarray, weights: np.ndarray, opts: SolverOptions,
                 start: _Chart | None = None) -> list[GEResult]:
    """The fixed-point loop on a stack of B same-shape datasets at once (unchecked).

    ``points`` (B, n, m, r) and ``weights`` (B, n) hold validated datasets whose
    atoms span R^m; each lane starts from the chart ``start`` (default: identity) and
    leaves the stack when it converges, diverges, breaches the guard or runs out
    of budget.  Every batched call computes each lane on its own, so a lane's
    result does not depend on the other lanes of its stack.
    """
    B, n, m, r = points.shape
    if start is None:                        # the identity's chart
        it, W0 = _chart(np.tile(np.eye(m), (B, 1, 1))), None
    else:                                    # a user start comes charted
        W0 = start.W
        it = _Chart(*(np.repeat(a[None], B, axis=0)
                      for a in _unimodular(start.sigma, start.loglam, start.Q)))
    prev = it.sigma                          # the escape flag reads iterates k-1 and k
    newton = np.zeros(B, dtype=bool)         # took a Newton point: tries one every iteration
    declined = np.zeros(B, dtype=bool)       # met a null Hessian: never tries again
    lanes = list(range(B))
    traces: list[list[tuple[int, float, float]]] = [[] for _ in lanes]
    results: list[GEResult | None] = [None] * B
    # the raw atoms are whitened once; every later kernel call whitens the frames U
    w = weights                              # the weights of the lanes in the stack
    M, S, U, _ = _weighted_kernel_sum(points.reshape(-1, m, r), weights.reshape(-1),
                                      it.F, it.W)
    for k in range(opts.max_iter + 1):
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
                                                   points[lanes[i]], weights[lanes[i]])
            else:
                results[lanes[i]] = GEResult(it.sigma[i], res, k, status, trace)
        if len(done) == len(lanes):
            break
        # S holds the plain update targets up to scale; the guard scales them and the
        # lanes' Newton points (appended after them) in one call
        L, cand = len(S), np.array(trying, dtype=int)
        if trying:
            if len(cand) == L:
                definite, safe, targets = _newton_targets(U, w, M, it)
            else:
                definite, safe, targets = _newton_targets(
                    U[:, cand], w[cand], M[cand], _Chart(*(a[cand] for a in it)))
            declined[cand[~definite]] = True
            cand = cand[safe]
            S = np.concatenate([S, targets])
        new, ok = _guarded(S)
        # the one exit point: a lane leaves the stack with a status or a guard breach
        keep = ok[:L]
        if done:
            keep[done] = False
        if np.count_nonzero(keep) < L:
            for i in np.flatnonzero(~keep):
                if results[lanes[i]] is None:
                    # the guard breached before the distance test fired: the lane is
                    # escaping, and it leaves with its old iterate (the new one is unusable)
                    trace = traces[lanes[i]]
                    results[lanes[i]] = _escape_result(it.sigma[i], trace[-1][1], k + 1, trace,
                                                       prev[i], points[lanes[i]],
                                                       weights[lanes[i]])
            if not keep.any():
                break
            go, tried = np.flatnonzero(keep), keep[cand]
            new = _Chart(*(a[np.concatenate([go, L + np.flatnonzero(tried)])] for a in new))
            it, w, U = _Chart(*(a[go] for a in it)), w[go], _lanes(U, go)
            newton, declined = newton[go], declined[go]
            lanes = [lanes[i] for i in go]
            cand, L = np.cumsum(keep)[cand[tried]] - 1, len(go)
        prev, F = it.sigma, it.F
        if len(cand):                        # the lane each Newton point leaves from
            src = np.concatenate([np.arange(L), cand])
            F, w, U = F[src], w[src], _lanes(U, src)
        # one kernel call whitens the frames of the iterates into the chart of every plain
        # update and Newton point: the next iterates' frames and sums, and in the squared
        # norms of their Gram-Schmidt the candidates' objectives relative to the iterates
        M, S, U, sq = _weighted_kernel_sum(_as_atoms(U), w.reshape(-1), new.F, new.W @ F)
        if len(cand):
            # the plain update lowers the objective; a Newton point replaces it only
            # where it lowers it at least as much.  Newton points pass the guard by
            # construction
            f = np.vecdot(w, np.log(sq).sum(0))
            take = f[L:] <= f[cand]
            if len(cand) == L and take.all():
                pick = slice(L, None)
            elif not take.any():
                pick = slice(L)
            else:
                pick = np.arange(L)
                pick[cand[take]] = L + np.flatnonzero(take)
            new, M, S, U, w = _Chart(*(a[pick] for a in new)), M[pick], S[pick], U[:, pick], \
                w[:L]
            newton[cand[take]] = True
        it = new
    return results


def fixed_point_solve(
    meas: Empirical,
    Sigma0=None,
    options: SolverOptions | None = None,
) -> GEResult:
    """Iterate the scatter fixed-point update until the residual drops below tol.

    Requires an empirical measure whose atoms jointly span the whole space
    (otherwise ExistenceError, carrying a basis of the deficient span as
    witness).  Starts from Sigma0 (default: identity), checked before the span and
    charted by the check's one eigh, and moves to Newton steps once the update contracts
    slowly.  The one-lane call of the stacked loop ``_solve_stack``.
    """
    _check_empirical(meas, "fixed_point_solve")
    opts = options or SolverOptions()
    start = None if Sigma0 is None else _check_scatter_for(meas.m, Sigma0, "Sigma0")
    _check_span(meas.points)
    return _solve_stack(meas.points[None], meas.weights[None], opts, start)[0]


def diagnose(meas: Empirical, tol: float = INDEX_TOL) -> ExistenceReport:
    """Existence verdict from one ``fixed_point_solve`` and the certificate it leaves.

    * unique: the run converged and the whitened tangent Hessian H at the estimate has
      lambda_min >= UNIQUE_HESSIAN with a Newton step ||g|| / lambda_min <= NEWTON_STEP.
      The objective is geodesically convex, so a positive-definite H at its critical
      point makes that point the only minimizer.
    * limit: lambda_min <= NULL_HESSIAN.  After a re-solve to REFINE_TOL, the null vector
      V of H splits every atom, so the objective is constant along F expm(tV) F^T: the
      flag subspaces of V and of -V (from one eigh of V, so each subspace of one flag
      is the complement of one of the other) are the zeros, each checked to have index
      within tol and to split every atom with its complement (integer meet dimensions).
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
    c = _chart(result.estimate)
    h, U = np.linalg.eigh(_hessian_at(meas.points, meas.weights, c))
    lam = float(h[0])
    if lam >= UNIQUE_HESSIAN and 0.5 * np.sqrt(result.residual) <= NEWTON_STEP * lam:
        return lam, _route_report(meas, "unique", spans, [], tol)
    if lam <= NULL_HESSIAN:
        # at residual 1e-12 the null vector's eigenspaces meet the atoms only to ~1e-8,
        # coarser than the RANK_TOL of the integer checks; at 1e-26 they do to ~1e-15
        refined = _solve_stack(meas.points[None], meas.weights[None],
                               SolverOptions(max_iter=REFINE_ITER, tol=REFINE_TOL),
                               c)[0]
        if refined.residual < result.residual:
            c = _chart(refined.estimate)
            U = np.linalg.eigh(_hessian_at(meas.points, meas.weights, c))[1]
    # one eigh of V gives the flags of V and of -V, each subspace of one the complement
    # of one of the other
    mu, E = np.linalg.eigh(sym((_tangent_basis(meas.m) @ U[:, 0]).reshape(meas.m, meas.m)))
    flag, opposite = _flag(c, mu, E), _flag(c, -mu[::-1], E[:, ::-1])
    flags = [Candidate(B, "eigen_flag") for f in (flag, opposite) for _, B in f.pairs]
    if lam <= NULL_HESSIAN and flags and _paired(meas, flag, opposite):
        return lam, _route_report(meas, "limit", spans + flags, flags, tol)
    return lam, _route_report(meas, "inconclusive", spans + flags, [], tol)
