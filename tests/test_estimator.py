"""The fixed-point solver for the scatter estimate, and its agreement with a reference descent."""

import dataclasses

import numpy as np
import pytest

from grassmann_scatter import (
    Empirical,
    ExistenceError,
    Gaussian,
    GEResult,
    SolverOptions,
    UsageError,
    act_measure,
    check_scatter,
    diagnose,
    distance,
    existence_index,
    fixed_point_solve,
    grad_norm_sq,
    loglik,
    normalize_det,
    random_scatter,
    residual,
)
from grassmann_scatter.cli import main
from grassmann_scatter.estimator import DIVERGENCE_GROWTH
from grassmann_scatter.io import write_measure_json
from helpers import (
    gaussian_points,
    no_ge_lines,
    orthogonal_lines,
    planar_lines_in_3d,
    random_measure,
    random_special_linear,
    ref_descent,
    three_symmetric_lines,
)


def test_solver_options_defaults_and_validation():
    opts = SolverOptions()
    assert (opts.max_iter, opts.tol) == (500, 1e-12)
    with pytest.raises(UsageError):
        SolverOptions(max_iter=0)
    with pytest.raises(UsageError):
        SolverOptions(tol=0.0)
    # a budget that is not a whole count, or a tolerance every residual meets
    for bad in ({"max_iter": 2.5}, {"max_iter": True}, {"max_iter": "5"},
                {"tol": np.inf}, {"tol": np.nan}, {"tol": -1e-12}, {"tol": "1e-12"}):
        with pytest.raises(UsageError):
            SolverOptions(**bad)
    assert SolverOptions(max_iter=np.int64(7), tol=np.float64(1e-9)).max_iter == 7


def test_solver_configuration_is_budget_and_tolerance_only(tmp_path, capsys):
    # the damped step and its flag are gone
    assert tuple(f.name for f in dataclasses.fields(SolverOptions)) == ("max_iter", "tol")
    data = tmp_path / "lines.json"
    write_measure_json(data, three_symmetric_lines())
    assert main(["estimate", "--input", str(data), "--damping", "0.5",
                 "--out", str(tmp_path / "out")]) == 3
    capsys.readouterr()


def test_fixed_point_three_symmetric_lines():
    res = fixed_point_solve(three_symmetric_lines())
    assert res.converged
    assert res.residual <= 1e-12
    assert np.allclose(res.estimate, np.eye(2), atol=1e-8)
    check_scatter(res.estimate)


def test_fixed_point_gaussian_sample_converges():
    rng = np.random.default_rng(17)
    sigma_star = random_scatter(3, rng, spread=0.6)
    meas = Empirical(gaussian_points(rng, sigma_star, 2, 60))
    res = fixed_point_solve(meas)
    assert res.converged
    assert res.residual <= 1e-12
    assert residual(meas, res.estimate) <= 1e-12
    check_scatter(res.estimate)
    # with n = 60 >> 4.5 the estimate should sit near the truth
    assert distance(res.estimate, sigma_star) < 0.75


def test_fixed_point_custom_start():
    meas = three_symmetric_lines()
    rng = np.random.default_rng(50)
    start = random_scatter(2, rng, spread=0.8)
    res = fixed_point_solve(meas, Sigma0=start)
    assert res.converged
    assert np.allclose(res.estimate, np.eye(2), atol=1e-7)


def test_fixed_point_trace_structure():
    meas = three_symmetric_lines()
    rng = np.random.default_rng(51)
    start = random_scatter(2, rng, spread=0.8)
    res = fixed_point_solve(meas, Sigma0=start)
    iters = [row[0] for row in res.trace]
    assert iters == sorted(iters)
    assert res.trace[-1][1] == pytest.approx(res.residual, rel=1e-12)
    for _, r_k, d_k in res.trace:
        assert r_k >= 0.0 and d_k >= 0.0


def test_fixed_point_max_iterations_status():
    rng = np.random.default_rng(52)
    meas = random_measure(rng, 3, 1, n=8)
    start = random_scatter(3, rng, spread=1.0)
    res = fixed_point_solve(meas, Sigma0=start, options=SolverOptions(max_iter=2))
    assert res.status == "max_iterations"
    assert not res.converged
    assert res.iterations == 2


def test_fixed_point_limit_case_multiple_fixed_points():
    meas = orthogonal_lines()
    rng = np.random.default_rng(53)
    estimates = []
    for _ in range(5):
        start = random_scatter(2, rng, spread=0.9)
        res = fixed_point_solve(meas, Sigma0=start)
        assert res.converged
        assert res.residual <= 1e-12
        # all fixed points are diagonal unimodular matrices
        assert abs(res.estimate[0, 1]) <= 1e-8
        estimates.append(res.estimate)
    spreads = [distance(a, b) for a in estimates for b in estimates]
    assert max(spreads) > 1e-3  # genuinely distinct solutions
    assert diagnose(meas).verdict == "limit"


def test_fixed_point_rejects_deficient_span():
    rng = np.random.default_rng(54)
    meas = planar_lines_in_3d(rng)
    with pytest.raises(ExistenceError) as exc:
        fixed_point_solve(meas)
    W = exc.value.witness
    assert W.shape[0] == 3 and W.shape[1] < 3
    assert existence_index(meas, W) < 0.0


def test_fixed_point_rejects_gaussian_measure():
    with pytest.raises(UsageError):
        fixed_point_solve(Gaussian(np.eye(3), 2))


def test_fixed_point_divergence_to_boundary():
    meas = orthogonal_lines(weights=np.array([0.7, 0.3]))
    res = fixed_point_solve(meas)
    assert res.status == "diverged_to_boundary"
    assert not res.converged
    assert res.boundary is not None
    pairs = res.boundary.pairs
    assert len(pairs) == 1
    alpha, V = pairs[0]
    assert alpha > 0.0
    # escape direction concentrates on the heavy atom's line
    v = V[:, 0] / np.linalg.norm(V[:, 0])
    assert abs(v[0]) > 1 - 1e-6
    assert existence_index(meas, V) == pytest.approx(-0.2, abs=1e-12)


def test_slow_convergence_past_the_window_is_not_divergence():
    # two (3,1,4) Gaussian sets with a unique estimate, still converging at
    # iteration 25 after growing more than DIVERGENCE_GROWTH from the start: a
    # standard one and one around a far truth (Newton-first finishes the standard
    # seed 132 set before iteration 25)
    far = np.diag(np.exp(np.linspace(5.0, -5.0, 3)))
    for meas in (Empirical(np.random.default_rng(82).standard_normal((4, 3, 1))),
                 Empirical(gaussian_points(np.random.default_rng(47), far, 1, 4))):
        assert diagnose(meas).verdict == "unique"
        res = fixed_point_solve(meas)
        assert res.converged, (res.status, res.iterations)
        assert res.trace[25][2] - res.trace[0][2] >= DIVERGENCE_GROWTH


def test_far_truth_sets_converge():
    # truth diag(exp(linspace(a, -a, m))) lies about 10 from the identity start,
    # so every run grows by DIVERGENCE_GROWTH within the first window
    for m, r, n, a in [(3, 1, 6, 7.4), (4, 1, 8, 6.0), (5, 2, 8, 5.0)]:
        sigma = np.diag(np.exp(np.linspace(a, -a, m)))
        for seed in range(100):
            meas = Empirical(gaussian_points(np.random.default_rng(seed), sigma, r, n))
            res = fixed_point_solve(meas)
            assert res.converged, ((m, r, n), seed, res.status, res.iterations)


@pytest.mark.parametrize("shape", [(5, 2, 5), (4, 1, 6), (3, 1, 4)])
def test_near_threshold_sets_converge_within_default_budget(shape):
    # threshold+1 sets contract at a residual ratio near 1; Newton steps finish
    # them (without them 18 (5,2,5) and 3 (4,1,6) runs used all 500)
    m, r, n = shape
    for seed in range(200):
        meas = Empirical(np.random.default_rng(seed).standard_normal((n, m, r)))
        res = fixed_point_solve(meas)
        assert res.converged, (shape, seed, res.status, res.iterations)


def test_far_truth_seed_24_converges_with_margin():
    # the slowest far-truth (3,1,6) set took 496 of 500 iterations without Newton steps
    sigma = np.diag(np.exp(np.linspace(7.4, -7.4, 3)))
    res = fixed_point_solve(Empirical(gaussian_points(np.random.default_rng(24), sigma, 1, 6)))
    assert res.converged and res.iterations <= 100, res.iterations


def test_no_ge_line_sets_diverge_without_raising(tmp_path):
    # (3,1) line sets with all but one line in a plane: the boundary flag of
    # these escapes used to raise (a computed log-map failing the user-input
    # tangency check, or a revalidated iterate past the conditioning guard)
    statuses = set()
    for n in (4, 6, 9, 16):
        for seed in range(40):
            meas = no_ge_lines(seed, n)
            result = fixed_point_solve(meas)
            statuses.add(result.status)
            # every escape names its flag, and the flag explains the escape
            assert result.boundary is not None and result.boundary.pairs, (n, seed)
            slope = sum(a * existence_index(meas, V) for a, V in result.boundary.pairs)
            assert slope < 0.0, (n, seed)
            assert result.slope == pytest.approx(0.5 * slope), (n, seed)
            path = tmp_path / f"lines_{n}_{seed}.json"
            write_measure_json(path, meas)
            out = tmp_path / f"out_{n}_{seed}"
            assert main(["estimate", "--input", str(path), "--out", str(out)]) == 2
    assert statuses == {"diverged_to_boundary"}


def test_descent_agrees_on_three_lines():
    fp = fixed_point_solve(three_symmetric_lines())
    status, estimate = ref_descent(three_symmetric_lines(),
                                   options=SolverOptions(tol=1e-14, max_iter=2000))
    assert status == "converged"
    assert distance(fp.estimate, estimate) <= 1e-8


def test_descent_monotone_likelihood():
    rng = np.random.default_rng(55)
    meas = random_measure(rng, 3, 2, n=7)
    start = random_scatter(3, rng, spread=0.8)
    values = [loglik(meas, start)]
    for k in range(1, 9):
        _, estimate = ref_descent(meas, Sigma0=start, options=SolverOptions(max_iter=k))
        values.append(loglik(meas, estimate))
    for prev, nxt in zip(values[:-1], values[1:]):
        assert nxt <= prev + 1e-12
    assert values[-1] < values[0] - 1e-6


def test_descent_cross_agreement_random_instances():
    rng = np.random.default_rng(56)
    for _ in range(20):
        m = int(rng.integers(2, 4))
        r = int(rng.integers(1, m))
        n_min = int(np.ceil(m * m / (r * (m - r)))) + 2
        meas = random_measure(rng, m, r, n=n_min + int(rng.integers(0, 4)))
        fp = fixed_point_solve(meas, options=SolverOptions(tol=1e-22, max_iter=4000))
        status, estimate = ref_descent(meas, options=SolverOptions(tol=1e-14, max_iter=4000))
        assert fp.converged and status == "converged"
        assert distance(fp.estimate, estimate) <= 1e-6


def test_solver_equivariance():
    rng = np.random.default_rng(57)
    meas = random_measure(rng, 3, 2, n=9)
    base = fixed_point_solve(meas, options=SolverOptions(tol=1e-22, max_iter=4000))
    for _ in range(3):
        A = random_special_linear(rng, 3)
        moved = fixed_point_solve(
            act_measure(A, meas),
            Sigma0=normalize_det(A @ A.T),
            options=SolverOptions(tol=1e-22, max_iter=4000),
        )
        target = normalize_det(A @ base.estimate @ A.T)
        assert distance(moved.estimate, target) <= 1e-8


def test_restart_uniqueness_on_well_posed_instance():
    rng = np.random.default_rng(58)
    meas = random_measure(rng, 3, 2, n=12)
    opts = SolverOptions(tol=1e-22, max_iter=4000)
    ref = fixed_point_solve(meas, options=opts)
    for _ in range(10):
        start = random_scatter(3, rng, spread=1.0)
        res = fixed_point_solve(meas, Sigma0=start, options=opts)
        assert res.converged
        assert distance(res.estimate, ref.estimate) <= 1e-6


def test_residual_identity_and_values():
    rng = np.random.default_rng(59)
    for _ in range(10):
        m = int(rng.integers(2, 6))
        r = int(rng.integers(1, m))
        meas = random_measure(rng, m, r, n=3 + int(rng.integers(0, 5)))
        S = random_scatter(m, rng)
        assert residual(meas, S) == pytest.approx(4.0 * grad_norm_sq(meas, S), abs=1e-12)
    for m, r in ((2, 1), (3, 2), (5, 2)):
        X = rng.standard_normal((m, r))
        got = residual(Empirical(np.stack([X])), np.eye(m))
        assert got == pytest.approx(r - r * r / m, abs=1e-10)


def test_residual_at_computed_estimate():
    rng = np.random.default_rng(60)
    meas = random_measure(rng, 2, 1, n=6)
    res = fixed_point_solve(meas)
    assert residual(meas, res.estimate) <= 1e-12


def test_result_dataclass_contract():
    res = fixed_point_solve(three_symmetric_lines())
    assert isinstance(res, GEResult)
    assert res.boundary is None
    assert isinstance(res.iterations, int)
    assert res.status == "converged"
