"""The single-eigh fixed-point loop against the four-factorization reference loop,
its trace distances against the public distance, its LAPACK budget, its one
Gram-Schmidt per iteration and the residuals of its carried-over frames, its stacked
lanes and its Newton steps."""

from collections import Counter

import numpy as np
import pytest
import scipy.linalg

from grassmann_scatter import (
    Empirical,
    SolverOptions,
    check_tangent,
    decompose_velocity,
    diagnose,
    distance,
    fixed_point_solve,
    geodesic,
    grad,
    hess_quadform,
    inner,
    loglik,
    random_scatter,
    residual,
    tangent_project,
)
from grassmann_scatter import estimator, likelihood
from grassmann_scatter.cli import main
from grassmann_scatter.io import write_matrix_csv, write_measure_json
from grassmann_scatter.likelihood import _weighted_kernel_sum
from grassmann_scatter.manifold import COND_MAX, _Chart, _chart
from helpers import (
    gaussian_points,
    max_mixed_err,
    mixed_err,
    no_ge_lines,
    random_tangent,
    ray_form,
    ref_fixed_point,
    ref_objective,
    three_symmetric_lines,
)

TRACE_TOL = 1e-10       # mixed error of trace distances against the reference loop
DISTANCE_TOL = 1e-12    # trace distance against public distance(start, Sigma_k)
EPS = np.finfo(float).eps
SEEDS = range(6)
BLOCK_START = random_scatter(5, np.random.default_rng(5))     # a user start for the block test
FAR_TRUTH = np.diag(np.exp(np.linspace(4.0, -4.0, 3)))       # a generic truth far from Id


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
        "budget": (None, SolverOptions(max_iter=5)),
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
    # Newton-first finishes a generic set near Id in 4 iterations; around a far truth
    # the conditioning bound declines the early Newton points and the run takes 10
    rng = np.random.default_rng(7)
    meas = Empirical(gaussian_points(rng, FAR_TRUTH, 2, 25)) if case.startswith("generic") \
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


def _record_newton(monkeypatch):
    """Record every batched Newton build as the definite-Hessian mask of its lanes."""
    builds = []
    newton_targets = estimator._newton_targets

    def recording(*args):
        out = newton_targets(*args)
        builds.append(out[0])
        return out

    monkeypatch.setattr(estimator, "_newton_targets", recording)
    return builds


@pytest.mark.parametrize("with_start, data",
                         [(False, "screened"), (True, "screened"), (False, "svd-fallback"),
                          (True, "svd-fallback"), (False, "no_ge")],
                         ids=["False", "True", "False-svd-fallback", "True-svd-fallback",
                              "no_ge-escape"])
def test_lapack_budget_per_iteration(monkeypatch, with_start, data):
    rng = np.random.default_rng(12)
    points = rng.standard_normal((25, 3, 2))
    if data == "svd-fallback":
        # one atom's basis 1e6 times longer: the same subspaces, but the span's Gram is
        # dominated by that atom (sigma_min / sigma_max of the columns ~1e-6), below
        # what its Gram determinant can certify, so the span check's svd decides
        points[0] *= 1e6
    meas = no_ge_lines(0, 9) if data == "no_ge" else Empirical(points)
    start = random_scatter(3, rng) if with_start else None
    calls = _record_linalg(monkeypatch)
    builds = _record_newton(monkeypatch)
    result = fixed_point_solve(meas, Sigma0=start, options=SolverOptions(tol=1e-14))
    evaluations = len(result.trace)             # iterations + 1: the start is evaluated too
    # the first update is plain (no residual ratio yet), later ones try Newton
    assert result.status == ("diverged_to_boundary" if data == "no_ge" else "converged")
    assert 1 <= len(builds) < result.iterations
    assert not [c for c in calls if c[0] == "scipy"]
    names = Counter(name for _, name, _ in calls)
    # span check once: one det of the Gram screen, plus the svd of the columns where the
    # screen cannot certify; the kernel solves nothing; one eigh charts the start (the
    # identity, or a user start as validation checks it) and one each update, and a
    # Newton iteration adds one batched eigh of the Hessians and one of the Newton
    # velocities of the definite lanes
    expected = {"det": 1, "svd": int(data == "svd-fallback"),
                "eigh": 1 + result.iterations + 2 * len(builds)}
    if with_start:
        # validation's eigh gives the start's chart, for both the rescaled first iterate
        # and the distance's whitening, then one eigvalsh of the start-whitened iterate
        # per evaluation
        expected.update(eigvalsh=evaluations)
    if data == "no_ge":
        # the escape flag: one eigh charts the last step's base and one decomposes the
        # step, whose eigenpairs give the flag; each flag subspace is orthonormalized
        # (one qr), and its index ranks it against the atoms (one qr of each side, one
        # svd, and the Gram screen's det for a subspace of dimension >= 2)
        dims = [V.shape[1] for _, V in result.boundary.pairs]
        expected.update(eigh=2 + expected["eigh"], qr=3 * len(dims), svd=len(dims),
                        det=1 + sum(d >= 2 for d in dims))
    assert names == +Counter(expected)


def _seeded_orthogonal_lines(seed, m):
    """The scan workload's limit(m,1,m): m orthogonal lines with random basis scales."""
    rng = np.random.default_rng(seed)
    Q, _ = np.linalg.qr(rng.standard_normal((m, m)))
    return Empirical((Q * rng.uniform(0.5, 2.0, m)).T[:, :, None])


# the lines converge at iteration 0 with a null Hessian: one eigh charts the identity
# start, one the estimate (also the start of the re-solve, whose trace distance is one
# eigvalsh), one decomposes H and one V, whose eigenpairs give the flags of V and of -V;
# the pairing check ranks each flag subspace against the atoms (one svd each), and so
# does the index of every atom span and flag subspace (one svd per dimension)
LIMIT_DIAGNOSE = {"det": 4, "eigh": 4, "eigvalsh": 1, "qr": 17, "svd": 6}


# a tangent at Sigma is checked and whitened in the chart of the eigh that checks Sigma
# (no LU solve): geodesic adds the eigh of its velocity, reads its determinant off both
# eigh's and checks its point by a third (check_scatter's), decompose_velocity adds the
# eigh of the velocity and one qr per flag subspace, and hess_quadform builds its Hessian
# in the chart, for a dataset or for the one atom that gradcheck checks (whose rank
# Empirical checks when it is built).  The CLI's start is read as a matrix and checked once, by the solver, whose one
# iteration is charted by one eigh (the distance to the start: one eigvalsh per
# evaluation; the span check of the three lines: one det)
CHART_BUDGETS = {"inner": {"eigh": 1}, "geodesic": {"eigh": 3},
                 "tangent_project": {"eigh": 1}, "check_tangent": {"eigh": 1},
                 "decompose_velocity": {"eigh": 2, "qr": 2}, "hess_quadform": {"eigh": 1},
                 "one-atom hess_quadform": {"eigh": 1},
                 "estimate --start": {"eigh": 2, "det": 1, "eigvalsh": 2}}


@pytest.mark.parametrize("case, expected", [("loglik", {"eigh": 1}), ("grad", {"eigh": 1}),
                                            ("limit diagnose", LIMIT_DIAGNOSE)]
                         + list(CHART_BUDGETS.items()),
                         ids=["loglik", "grad", "limit-diagnose"]
                         + [case.replace(" ", "") for case in CHART_BUDGETS])
def test_lapack_budget_per_call(monkeypatch, tmp_path, case, expected):
    # a checked call decomposes its Sigma once: the eigh that validates it charts it
    rng = np.random.default_rng(12)
    meas = Empirical(rng.standard_normal((25, 3, 2)))
    Sigma = random_scatter(3, rng)
    lines = _seeded_orthogonal_lines(0, 3)
    atom = Empirical(rng.standard_normal((1, 3, 2)))
    A, B = random_tangent(rng, Sigma), random_tangent(rng, Sigma)
    w = ray_form(Sigma, A)                          # the velocity whose ray has velocity A
    write_measure_json(tmp_path / "lines.json", three_symmetric_lines())
    write_matrix_csv(tmp_path / "start.csv", np.diag([2.0, 0.5]))
    estimate = ["estimate", "--input", str(tmp_path / "lines.json"), "--start",
                str(tmp_path / "start.csv"), "--max-iter", "1", "--out", str(tmp_path / "out")]
    run = {"loglik": lambda: loglik(meas, Sigma),
           "grad": lambda: grad(meas, Sigma),
           "limit diagnose": lambda: diagnose(lines).verdict,
           "inner": lambda: inner(Sigma, A, B),
           "geodesic": lambda: geodesic(Sigma, A, 0.5),
           "tangent_project": lambda: tangent_project(Sigma, A + Sigma),
           "check_tangent": lambda: check_tangent(Sigma, A),
           "decompose_velocity": lambda: decompose_velocity(Sigma, w).pairs,
           "hess_quadform": lambda: hess_quadform(meas, Sigma, A),
           "one-atom hess_quadform": lambda: hess_quadform(atom, Sigma, A),
           "estimate --start": lambda: main(estimate)}[case]
    calls = _record_linalg(monkeypatch)
    out = run()
    assert Counter(name for _, name, _ in calls) == expected
    assert case != "limit diagnose" or out == "limit"
    assert case != "decompose_velocity" or len(out) == 2      # three clusters: two qr's
    assert case != "estimate --start" or out == 4              # one iteration: not converged


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("case", ["500 iterations", "no_ge escape"])
def test_last_trace_residual_is_the_residual_of_the_estimate(case, seed):
    # the raw atoms are whitened once per solve, and every later iterate's frames come
    # from the previous iterate's; the residual of the last trace entry still matches
    # the residual of the returned estimate evaluated afresh from the raw atoms: after
    # 500 iterations of a threshold+1 set (Newton points at the rounding floor) and
    # at the end of an escape (condition ~1e13)
    if case == "500 iterations":
        meas = Empirical(np.random.default_rng(seed).standard_normal((6, 4, 1)))
        result = fixed_point_solve(meas, options=SolverOptions(max_iter=500, tol=1e-300))
        assert result.iterations == 500
    else:
        meas = no_ge_lines(seed, 9)
        result = fixed_point_solve(meas)
        assert result.status == "diverged_to_boundary"
        assert np.linalg.cond(result.estimate) > 1e12
    fresh = residual(meas, result.estimate)
    assert abs(result.trace[-1][1] - fresh) <= max(1e-10 * fresh, 1e-24)


def test_one_gram_schmidt_per_trace_entry(monkeypatch):
    # the start's frames, then per update one Gram-Schmidt of the frames whitened into
    # the charts of every plain update and Newton point: it gives the next frames and
    # the candidates' objectives, for a lane alone and for a stack of lanes together
    passes = []
    gram_schmidt = likelihood._gram_schmidt

    def counting(T):
        passes.append(T.shape)
        return gram_schmidt(T)

    monkeypatch.setattr(likelihood, "_gram_schmidt", counting)
    builds = _record_newton(monkeypatch)
    sets = [Empirical(np.random.default_rng(seed).standard_normal((5, 5, 2))) for seed in range(4)]
    sets += [_planes_in_a_solid(seed) for seed in range(2)]
    for meas in sets + [no_ge_lines(0, 9)]:
        passes.clear()
        result = fixed_point_solve(meas)
        assert len(passes) == len(result.trace), result.status
    assert builds                               # Newton iterations were among them
    passes.clear()
    block = estimator._solve_stack(np.stack([meas.points for meas in sets]),
                                   np.stack([meas.weights for meas in sets]), SolverOptions())
    assert len(passes) == max(len(result.trace) for result in block)


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
                         [(1.0, None), (0.012, None), (1.0, BLOCK_START), (0.012, BLOCK_START)],
                         ids=["1.0", "0.012", "1.0-Sigma0", "0.012-Sigma0"])
def test_block_lanes_equal_the_same_datasets_solved_alone(monkeypatch, budget, start):
    # threshold+1 (5,2,5) sets (which move to Newton steps), no-GE sets (escapes by
    # the distance test and by the guard), some weighted, in one block; from a user
    # start every lane's trace distance comes from one stacked eigvalsh.  ``budget``
    # is the fraction of the default 500 iterations: at 0.012 (6) some threshold+1
    # lanes run out of budget while others converge (Newton-first takes 5-8)
    rng = np.random.default_rng(3)
    sets = [Empirical(np.random.default_rng(seed).standard_normal((5, 5, 2))) for seed in range(8)]
    w = 1.0 + 0.5 * rng.random(5)
    sets[1] = Empirical(sets[1].points, w / w.sum())
    sets += [_planes_in_a_solid(seed) for seed in range(3)]
    opts = SolverOptions(max_iter=round(budget * SolverOptions().max_iter))
    built = []                      # each lane's M at each Newton build, bit for bit
    newton_targets = estimator._newton_targets

    def recording(U, weights, M, it):
        built.extend(lane.tobytes() for lane in M)
        return newton_targets(U, weights, M, it)

    monkeypatch.setattr(estimator, "_newton_targets", recording)
    alone = [fixed_point_solve(meas, Sigma0=start, options=opts) for meas in sets]
    built_alone, built[:] = sorted(built), []
    points = np.stack([meas.points for meas in sets])
    weights = np.stack([meas.weights for meas in sets])
    chart = None if start is None else _chart(start)
    block = estimator._solve_stack(points, weights, opts, chart)
    assert sorted(built) == built_alone
    for a, b in zip(block, alone):
        _same_result(a, b)
    # a different composition of the block changes nothing either
    for a, b in zip(estimator._solve_stack(points[::-2], weights[::-2], opts, chart),
                    alone[::-2]):
        _same_result(a, b)
    statuses = Counter(result.status for result in alone)
    assert built_alone                          # Newton steps ran inside the block
    if budget == 1.0:
        assert statuses == {"converged": 8, "diverged_to_boundary": 3}
        # one escape ends by the guard, before the distance test can fire
        assert min(result.iterations for result in alone[8:]) < estimator.DIVERGENCE_WINDOW
        assert all(result.boundary.pairs for result in alone[8:])
    else:
        assert statuses["max_iterations"] >= 2 and statuses["converged"] >= 2


def _scan_no_ge_lines(n, rng):
    """The scan workload's no_ge(3,1,n): n - 1 lines in a random plane of R^3, one generic."""
    B, _ = np.linalg.qr(rng.standard_normal((3, 2)))
    inplane = (B @ rng.standard_normal((2, n - 1))).T
    return np.concatenate([inplane, rng.standard_normal((1, 3))])[:, :, None]


def test_guard_breach_beside_a_newton_lane_equals_the_solo_solves(monkeypatch):
    # lane A escapes and breaches the guard at iteration 24 while lane B, which cannot
    # reach tol 1e-300, tries a Newton point: one iteration holds both a breach and a
    # Newton merge, and each lane leaves the stack as it does alone
    A = _scan_no_ge_lines(6, np.random.default_rng(21))
    B = np.random.default_rng(3).standard_normal((6, 3, 1))
    opts = SolverOptions(tol=1e-300, max_iter=30)
    alone = [fixed_point_solve(Empirical(p), options=opts) for p in (A, B)]
    assert [(a.status, a.iterations) for a in alone] == [("diverged_to_boundary", 24),
                                                        ("max_iterations", 30)]
    # A leaves with its last iterate that passed the guard: the one a budget of 23 ends on
    last = fixed_point_solve(Empirical(A), options=SolverOptions(tol=1e-300, max_iter=23))
    assert np.array_equal(alone[0].estimate, last.estimate)
    masks = []
    guarded = estimator._guarded

    def recording(T):
        out = guarded(T)
        masks.append(out[1].tolist())
        return out

    monkeypatch.setattr(estimator, "_guarded", recording)
    block = estimator._solve_stack(np.stack([A, B]), np.full((2, 6), 1.0 / 6), opts)
    # one guard per iteration (the identity start needs none): A's plain update
    # breaches beside B's plain update and Newton point
    assert masks[23] == [False, True, True]
    for a, b in zip(block, alone):
        _same_result(a, b)


def test_newton_points_always_pass_the_guard(monkeypatch):
    # the batched build returns a point only within a conditioning bound the guard
    # cannot reject
    targets = []
    newton_targets = estimator._newton_targets

    def recording(*args):
        out = newton_targets(*args)
        targets.extend(out[2])
        return out

    monkeypatch.setattr(estimator, "_newton_targets", recording)
    for seed in range(40):
        meas = Empirical(np.random.default_rng(seed).standard_normal((5, 5, 2)))
        assert fixed_point_solve(meas).converged
    assert len(targets) >= 20                       # threshold+1 sets take Newton steps
    assert all(estimator._guarded(t)[1].all() for t in targets)


@pytest.mark.parametrize("margin, accepted", [(1.5, True), (0.5, False)])
def test_newton_point_declined_near_the_guard(margin, accepted):
    # atoms whitened at their estimate, seen from a chart of log-eigenvalue spread
    # log(COND_MAX) - margin: whitened there they are the same atoms, so the Hessian is
    # definite and V ~ 0, and the chart's own conditioning alone decides the bound
    meas = Empirical(np.random.default_rng(0).standard_normal((5, 5, 2)))
    X = _chart(fixed_point_solve(meas).estimate).W @ meas.points
    c = _chart(np.diag(np.exp(np.linspace(-0.5, 0.5, 5) * (np.log(COND_MAX) - margin))))
    points = c.F @ X
    M, _, U, _ = _weighted_kernel_sum(points, meas.weights, c.F[None], c.W[None])
    definite, safe, targets = estimator._newton_targets(U, meas.weights[None], M,
                                                        _Chart(*(a[None] for a in c)))
    assert definite[0] and safe[0] == accepted and len(targets) == accepted
    if accepted:
        assert estimator._guarded(targets[0])[1].all()


def test_polish_declines_a_numerically_singular_hessian():
    # three generic planes of R^4 are a limit set: the Hessian at their flat of
    # minimizers is singular to rounding, and a Newton step divided by it jumped along
    # the flat and ended the run "diverged_to_boundary" at residual 4e-20
    meas = Empirical(np.random.default_rng(1).standard_normal((3, 4, 2)))
    estimate = fixed_point_solve(meas).estimate
    again = fixed_point_solve(meas, Sigma0=estimate, options=SolverOptions(tol=1e-28))
    assert again.status == "converged" and again.residual <= 1e-28


def test_newton_point_with_a_higher_objective_is_declined():
    # unchecked, the Newton points of this (4,1,6) set overshoot and cycle: the distance
    # from the start went 3.5 -> 21.9 -> 7.1 -> 13.0 and the run ended
    # "diverged_to_boundary" (slope +0.43) at iteration 31; the plain loop needs 68
    meas = Empirical(np.random.default_rng(23).standard_normal((6, 4, 1)))
    result = fixed_point_solve(meas)
    assert result.converged and result.iterations <= 20, (result.status, result.iterations)


def test_objective_never_rises_between_iterates():
    # the plain update is majorize-minimize; a Newton point replaces it only where its
    # objective is at most the plain update's (unchecked, 7 of these 40 sets rose, by
    # up to 1.2)
    for seed in range(40):
        meas = Empirical(np.random.default_rng(seed).standard_normal((5, 5, 2)))
        result = fixed_point_solve(meas)
        iterates = [np.eye(5)] + [_iterate(meas, None, k) for k in range(1, result.iterations + 1)]
        f = [ref_objective(meas, Sigma) for Sigma in iterates]
        assert max(np.diff(f)) <= 1e-14, seed


def test_declined_lane_stops_trying_newton(monkeypatch):
    # three generic planes of R^4 are a limit set: lambda_min of the Hessian falls to
    # rounding at their flat of minimizers, where a run declines Newton.  Restarted
    # there at tol 1e-28 a run declines on its first slow iteration and then contracts
    # slowly for 25 or more; every one of those iterations rebuilt the Hessian only to
    # decline again before the decline was kept
    builds = _record_newton(monkeypatch)
    restarts = 0
    for seed in range(9):
        meas = Empirical(np.random.default_rng(seed).standard_normal((3, 4, 2)))
        builds.clear()
        estimate = fixed_point_solve(meas).estimate
        first = [bool(d[0]) for d in builds]
        builds.clear()
        again = fixed_point_solve(meas, Sigma0=estimate, options=SolverOptions(tol=1e-28))
        for lane in (first, [bool(d[0]) for d in builds]):
            # the declining build is the lane's last one
            assert False not in lane[:-1], (seed, lane)
        assert first[-1] is False, seed
        if builds:
            restarts += again.iterations >= 25
    assert restarts >= 3


@pytest.mark.parametrize("shape", [(5, 2, 5), (4, 1, 6), (3, 2, 5)])
def test_threshold_sets_converge_within_20_iterations(shape):
    # plain updates took up to 197 iterations on these sets; Newton-first takes at most 17
    m, r, n = shape
    for seed in range(60):
        meas = Empirical(np.random.default_rng(seed).standard_normal((n, m, r)))
        result = fixed_point_solve(meas)
        assert result.converged and result.iterations <= 20, (seed, result.iterations)
