"""The single-eigh fixed-point loop against the four-factorization reference loop,
its trace distances against the public distance, its LAPACK budget, its stacked
lanes and its Newton polish."""

from collections import Counter

import numpy as np
import pytest
import scipy.linalg

from grassmann_scatter import (
    Empirical,
    SolverOptions,
    distance,
    fixed_point_solve,
    random_scatter,
    riemannian_descent,
)
from grassmann_scatter import estimator
from grassmann_scatter.likelihood import _weighted_kernel_sum
from grassmann_scatter.manifold import COND_MAX, _chart
from helpers import max_mixed_err, mixed_err, no_ge_lines, ref_fixed_point

TRACE_TOL = 1e-10       # mixed error of trace distances against the reference loop
DISTANCE_TOL = 1e-12    # trace distance against public distance(start, Sigma_k)
EPS = np.finfo(float).eps
SEEDS = range(6)
BLOCK_START = random_scatter(5, np.random.default_rng(5))     # a user start for the block test


def _datasets(seed):
    """Generic, threshold+1 (5,2,5) and (4,1,6), and no-GE line sets."""
    rng = np.random.default_rng(seed)
    return {
        "generic(3,2,25)": Empirical(rng.standard_normal((25, 3, 2))),
        "threshold(5,2,5)": Empirical(rng.standard_normal((5, 5, 2))),
        "threshold(4,1,6)": Empirical(rng.standard_normal((6, 4, 1))),
        "no_ge(3,1,9)": no_ge_lines(seed, 9),
    }


def _variants(m, seed):
    start = random_scatter(m, np.random.default_rng(seed + 1000), spread=1.0)
    return {
        "identity": (None, SolverOptions()),
        "Sigma0": (start, SolverOptions()),
        "budget": (None, SolverOptions(max_iter=60)),
    }


def test_loop_matches_reference_loop():
    statuses = Counter()
    for seed in SEEDS:
        for name, meas in _datasets(seed).items():
            for label, (start, opts) in _variants(meas.m, seed).items():
                new = fixed_point_solve(meas, Sigma0=start, options=opts)
                status, iterations, trace, _ = ref_fixed_point(meas, Sigma0=start, options=opts)
                case = (name, seed, label)
                assert (new.status, new.iterations) == (status, iterations), case
                assert len(new.trace) == len(trace), case
                statuses[new.status] += 1
                if status == "diverged_to_boundary":
                    continue
                err = max(mixed_err(a[2], b[2]) for a, b in zip(new.trace, trace))
                assert err <= TRACE_TOL, case
                assert max_mixed_err([a[1] for a in new.trace], [b[1] for b in trace]) <= TRACE_TOL
    # every exit is exercised: the short budget ends slow runs with max_iterations
    assert set(statuses) == {"converged", "max_iterations", "diverged_to_boundary"}


@pytest.mark.parametrize("seed", [0, 3])
def test_guard_alone_stops_no_ge_run_on_the_same_iteration(monkeypatch, seed):
    # with the distance test out of reach only the COND_MAX guard can end the escape
    meas = no_ge_lines(seed, 9)
    opts = SolverOptions(max_iter=3000)
    monkeypatch.setattr(estimator, "DIVERGENCE_GROWTH", 1e6)
    new = fixed_point_solve(meas, options=opts)
    status, iterations, trace, _ = ref_fixed_point(meas, options=opts, divergence_growth=1e6)
    assert new.status == status == "diverged_to_boundary"
    assert new.iterations == iterations < opts.max_iter
    assert new.trace[-1][2] < 1e6


def _iterate(meas, start, k):
    """Sigma_k of the run: the estimate returned when the budget ends at k."""
    return fixed_point_solve(meas, Sigma0=start, options=SolverOptions(max_iter=k)).estimate


@pytest.mark.parametrize("case", ["generic", "generic-Sigma0", "no_ge", "no_ge-Sigma0"])
def test_trace_distance_is_public_distance_from_start(case):
    rng = np.random.default_rng(7)
    meas = Empirical(rng.standard_normal((25, 3, 2))) if case.startswith("generic") \
        else no_ge_lines(4, 9)
    start = random_scatter(3, rng, spread=1.0) if case.endswith("Sigma0") else None
    result = fixed_point_solve(meas, Sigma0=start)
    origin = np.eye(3) if start is None else start
    checked = 0
    for k, _, d_k in result.trace[1:]:
        Sigma_k = _iterate(meas, start, k)
        cond = np.linalg.cond(Sigma_k)
        if cond > 1e6:
            break
        # the smallest eigenvalue of a cond-conditioned matrix is only determined
        # to eps * cond relative, so two backward-stable eigensolvers may differ
        # by that much (seen up to 0.57 eps cond); below cond 4.5e3 it is 1e-12
        tol = max(DISTANCE_TOL, EPS * cond)
        assert mixed_err(d_k, distance(origin, Sigma_k)) <= tol, k
        checked += 1
    assert checked >= 5         # a no-GE escape passes condition 1e6 after 6 iterations


def _record_linalg(monkeypatch):
    """Count every numpy.linalg and scipy.linalg call as (module, name, shape of arg 0)."""
    calls = []

    def recording(module, name, fn):
        def wrapper(*args, **kwargs):
            calls.append((module, name, np.shape(args[0]) if args else None))
            return fn(*args, **kwargs)
        return wrapper

    for module, label in ((np.linalg, "numpy"), (scipy.linalg, "scipy")):
        for name in module.__all__:
            fn = getattr(module, name, None)
            if callable(fn) and not isinstance(fn, type):
                monkeypatch.setattr(module, name, recording(label, name, fn))
    return calls


@pytest.mark.parametrize("with_start", [False, True])
def test_lapack_budget_per_iteration(monkeypatch, with_start):
    rng = np.random.default_rng(12)
    meas = Empirical(rng.standard_normal((25, 3, 2)))
    start = random_scatter(3, rng) if with_start else None
    calls = _record_linalg(monkeypatch)
    result = fixed_point_solve(meas, Sigma0=start, options=SolverOptions(tol=1e-14))
    assert result.converged and result.iterations >= 30
    evaluations = len(result.trace)             # iterations + 1: the start is evaluated too
    assert not [c for c in calls if c[0] == "scipy"]
    names = Counter(name for _, name, _ in calls)
    expected = {"svd": 1, "eigh": evaluations}      # span check once; the kernel solves nothing
    if with_start:
        # validation, then the start's eigen chart once per solve,
        # then one eigvalsh of the start-whitened iterate per evaluation
        expected.update(eigvalsh=1 + evaluations, eigh=1 + evaluations)
    assert names == Counter(expected)


def test_lapack_budget_descent(monkeypatch):
    # the line search moves within the iterate's eigen chart: no second
    # factorization of the iterate and no m x m solve
    rng = np.random.default_rng(12)
    meas = Empirical(rng.standard_normal((25, 3, 2)))
    calls = _record_linalg(monkeypatch)
    result = riemannian_descent(meas, options=SolverOptions(max_iter=10))
    assert result.iterations == 10
    assert not [c for c in calls if c[1] in ("inv", "cholesky", "solve")]


def _planes_in_a_solid(seed):
    """(5,2,5): four planes inside one 3-dim subspace and one generic plane (no estimate)."""
    rng = np.random.default_rng(seed)
    V, _ = np.linalg.qr(rng.standard_normal((5, 3)))
    inside = np.einsum("ij,njr->nir", V, rng.standard_normal((4, 3, 2)))
    return Empirical(np.concatenate([inside, rng.standard_normal((1, 5, 2))]))


def _same_result(a, b):
    assert (a.status, a.iterations, a.residual) == (b.status, b.iterations, b.residual)
    assert np.array_equal(a.estimate, b.estimate)
    assert a.trace == b.trace
    assert (a.boundary is None) == (b.boundary is None)
    if a.boundary is not None:
        assert len(a.boundary.pairs) == len(b.boundary.pairs)
        for (alpha, V), (beta, U) in zip(a.boundary.pairs, b.boundary.pairs):
            assert alpha == beta and np.array_equal(V, U)


@pytest.mark.parametrize("budget, start",
                         [(1.0, None), (0.15, None), (1.0, BLOCK_START), (0.15, BLOCK_START)],
                         ids=["1.0", "0.15", "1.0-Sigma0", "0.15-Sigma0"])
def test_block_lanes_equal_the_same_datasets_solved_alone(monkeypatch, budget, start):
    # threshold+1 (5,2,5) sets (some finish with the Newton polish), no-GE sets
    # (escapes by the distance test and by the guard), some weighted, in one block;
    # from a user start every lane's trace distance comes from one stacked eigvalsh.
    # ``budget`` is the fraction of the default 500 iterations: at 0.15 (75) some
    # threshold+1 lanes run out of budget while others converge
    rng = np.random.default_rng(3)
    sets = [Empirical(np.random.default_rng(seed).standard_normal((5, 5, 2))) for seed in range(8)]
    w = 1.0 + 0.5 * rng.random(5)
    sets[1] = Empirical(sets[1].points, w / w.sum())
    sets += [_planes_in_a_solid(seed) for seed in range(3)]
    opts = SolverOptions(max_iter=round(budget * SolverOptions().max_iter))
    polished = []
    newton_target = estimator._newton_target

    def recording(points, *args):
        polished.append(next(j for j, s in enumerate(sets) if np.array_equal(s.points, points)))
        return newton_target(points, *args)

    monkeypatch.setattr(estimator, "_newton_target", recording)
    alone = [fixed_point_solve(meas, Sigma0=start, options=opts) for meas in sets]
    polished_alone, polished[:] = sorted(polished), []
    points = np.stack([meas.points for meas in sets])
    weights = np.stack([meas.weights for meas in sets])
    block = estimator._solve_stack(points, weights, opts, start)
    assert sorted(polished) == polished_alone
    for a, b in zip(block, alone):
        _same_result(a, b)
    # a different composition of the block changes nothing either
    for a, b in zip(estimator._solve_stack(points[::-2], weights[::-2], opts, start),
                    alone[::-2]):
        _same_result(a, b)
    statuses = Counter(result.status for result in alone)
    if budget == 1.0:
        assert polished_alone                               # the polish ran inside the block
        assert statuses == {"converged": 8, "diverged_to_boundary": 3}
        # one escape ends by the guard, before the distance test can fire
        assert min(result.iterations for result in alone[8:]) < estimator.DIVERGENCE_WINDOW
    else:
        assert statuses["max_iterations"] >= 2 and statuses["converged"] >= 2
    assert all(result.boundary.pairs for result in alone[8:])


def test_newton_points_always_pass_the_guard(monkeypatch):
    # the polish returns a point only within a conditioning bound the guard cannot reject
    targets = []
    newton_target = estimator._newton_target

    def recording(*args):
        targets.append(newton_target(*args))
        return targets[-1]

    monkeypatch.setattr(estimator, "_newton_target", recording)
    for seed in range(40):
        meas = Empirical(np.random.default_rng(seed).standard_normal((5, 5, 2)))
        assert fixed_point_solve(meas).converged
    points = [t for t in targets if t is not None]
    assert len(points) >= 20                        # threshold+1 sets polish often
    assert all(estimator._guarded(t)[1] is None for t in points)


@pytest.mark.parametrize("margin, accepted", [(1.5, True), (0.5, False)])
def test_newton_point_declined_near_the_guard(margin, accepted):
    # atoms whitened at their estimate, seen from a chart of log-eigenvalue spread
    # log(COND_MAX) - margin: whitened there they are the same atoms, so the Hessian is
    # definite and V ~ 0, and the chart's own conditioning alone decides the bound
    meas = Empirical(np.random.default_rng(0).standard_normal((5, 5, 2)))
    X = _chart(fixed_point_solve(meas).estimate).W @ meas.points
    c = _chart(np.diag(np.exp(np.linspace(-0.5, 0.5, 5) * (np.log(COND_MAX) - margin))))
    points = c.F @ X
    M = _weighted_kernel_sum(points, meas.weights, c.F, c.W)[0]
    target = estimator._newton_target(points, meas.weights, M, c)
    assert (target is not None) == accepted
    if accepted:
        assert estimator._guarded(target)[1] is None


def test_polish_declines_a_numerically_singular_hessian():
    # three generic planes of R^4 are a limit set: the Hessian at their flat of
    # minimizers is singular to rounding, and a Newton step divided by it jumped along
    # the flat and ended the run "diverged_to_boundary" at residual 4e-20
    meas = Empirical(np.random.default_rng(1).standard_normal((3, 4, 2)))
    estimate = fixed_point_solve(meas).estimate
    again = fixed_point_solve(meas, Sigma0=estimate, options=SolverOptions(tol=1e-28))
    assert again.status == "converged" and again.residual <= 1e-28
