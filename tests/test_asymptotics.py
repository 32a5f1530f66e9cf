"""Vectorization algebra, limit-law covariances, and the two Monte Carlo experiments."""

import concurrent.futures
import warnings

import numpy as np
import pytest

from grassmann_scatter import (
    DegeneracyError,
    Empirical,
    Gaussian,
    SolverOptions,
    UsageError,
    check_scatter,
    clt_experiment,
    distance,
    limiting_covariance,
    lln_experiment,
    random_scatter,
    sample,
    tangent_vec_projector,
    unvec,
    vec,
    whiten_normalize,
)
from grassmann_scatter import asymptotics
from grassmann_scatter.grassmann import _gaussian_bases
from grassmann_scatter.manifold import _chart, manifold_dim
from helpers import circle_lines, gaussian_points, orthogonal_lines, three_symmetric_lines

# Closed forms for the uniform law on lines in the plane (m=2, r=1, scatter Id).
# With u = (cos t, sin t), the projector is Pi = (Id + cos 2t * AZ + sin 2t * AX)/2,
# and uniform averaging kills the odd terms and halves the squares, giving exact
# values for every moment the limit theory uses.  64 equispaced lines integrate
# these trigonometric polynomials exactly, so circle_lines(64) hits the same
# values to rounding error.
AZ = np.diag([1.0, -1.0])
AX = np.array([[0.0, 1.0], [1.0, 0.0]])
S0_CIRCLE = 0.25 * np.eye(4) + 0.125 * (np.kron(AZ, AZ) + np.kron(AX, AX))
Q2 = tangent_vec_projector(2)
SIGMA2_CIRCLE = Q2 / 4.0
LIMIT_CIRCLE = 4.0 * Q2


def moments(meas, Sigma):
    """(score covariance, E[Pi kron Pi]) of a sample at Sigma, by the unchecked moment core."""
    return asymptotics._moments(meas.points, meas.weights, _chart(check_scatter(Sigma)))


def antisym_basis(m):
    out = []
    for i in range(m):
        for j in range(i + 1, m):
            B = np.zeros((m, m))
            B[i, j], B[j, i] = 1.0, -1.0
            out.append(B)
    return out


# ---------------------------------------------------------------------------
# vec / unvec / Kronecker algebra


def test_vec_is_column_major():
    A = np.array([[1.0, 2.0], [3.0, 4.0]])
    assert np.array_equal(vec(A), [1.0, 3.0, 2.0, 4.0])
    assert np.array_equal(unvec(vec(A)), A)


def test_vec_kron_identity_random_triples():
    rng = np.random.default_rng(101)
    for _ in range(10):
        A, X, B = (rng.standard_normal((3, 3)) for _ in range(3))
        lhs = vec(A @ X @ B)
        rhs = np.kron(B.T, A) @ vec(X)
        assert np.max(np.abs(lhs - rhs)) <= 1e-12


def test_vec_kron_identity_triple_of_identities():
    eye = np.eye(3)
    assert np.array_equal(np.kron(eye.T, eye) @ vec(eye), vec(eye))
    assert np.array_equal(np.kron(eye, eye), np.eye(9))


def test_vec_trace_pairing():
    rng = np.random.default_rng(102)
    for _ in range(10):
        A = rng.standard_normal((4, 4))
        B = rng.standard_normal((4, 4))
        assert vec(A) @ vec(B) == pytest.approx(np.trace(A.T @ B), abs=1e-12)
        S = A + A.T
        T = B + B.T
        assert vec(S) @ vec(T) == pytest.approx(np.trace(S @ T), abs=1e-12)


def test_unvec_rejects_non_square_length():
    with pytest.raises(UsageError):
        unvec(np.arange(5.0))


def test_tangent_projector_algebra():
    for m in (2, 3, 4):
        Q = tangent_vec_projector(m)
        assert np.max(np.abs(Q @ Q - Q)) <= 1e-12
        assert np.array_equal(Q, Q.T)
        assert np.trace(Q) == pytest.approx((m - 1) * (m + 2) / 2, abs=1e-12)


def test_tangent_projector_action_on_the_three_blocks():
    rng = np.random.default_rng(104)
    m = 3
    Q = tangent_vec_projector(m)
    G = rng.standard_normal((m, m))
    S = G + G.T
    S -= np.trace(S) / m * np.eye(m)          # symmetric trace-free: fixed
    assert np.max(np.abs(Q @ vec(S) - vec(S))) <= 1e-12
    assert np.max(np.abs(Q @ vec(np.eye(m)))) <= 1e-12
    for B in antisym_basis(m):
        assert np.max(np.abs(Q @ vec(B))) <= 1e-12


# ---------------------------------------------------------------------------
# whiten_normalize


def test_whiten_normalize_is_identity_at_the_truth():
    sigma = random_scatter(3, np.random.default_rng(105))
    C = whiten_normalize(sigma, sigma)
    assert np.max(np.abs(C - np.eye(3))) <= 1e-12


def test_whiten_normalize_trace_and_symmetry():
    rng = np.random.default_rng(106)
    for m in (2, 3, 4):
        C = whiten_normalize(random_scatter(m, rng), random_scatter(m, rng))
        assert np.trace(C) == pytest.approx(m, abs=1e-12)
        assert np.max(np.abs(C - C.T)) <= 1e-12


def test_whiten_normalize_diagonal_example():
    for a in (0.25, 0.5, 2.0, 4.0):
        C = whiten_normalize(np.diag([a, 1.0 / a]), np.eye(2))
        expected = (2.0 / (a + 1.0 / a)) * np.diag([a, 1.0 / a])
        assert np.max(np.abs(C - expected)) <= 1e-12


# ---------------------------------------------------------------------------
# the score covariance, by the moment core


def test_score_covariance_kernel_and_psd():
    rng = np.random.default_rng(107)
    for r in (1, 2):
        meas = Empirical(gaussian_points(rng, np.eye(3), r, 40))
        sigma = random_scatter(3, rng, spread=0.4)
        S = moments(meas, sigma)[0]
        assert np.max(np.abs(S - S.T)) <= 1e-13
        assert np.max(np.abs(S @ vec(np.eye(3)))) <= 1e-12
        for B in antisym_basis(3):
            assert np.max(np.abs(S @ vec(B))) <= 1e-12
        assert np.linalg.eigvalsh(S).min() >= -1e-10


def test_score_covariance_rank_under_full_support():
    rng = np.random.default_rng(108)
    S = moments(Empirical(gaussian_points(rng, np.eye(3), 1, 100_000)), np.eye(3))[0]
    lam = np.linalg.eigvalsh(S)
    rank = int((np.abs(lam) > 1e-6 * np.abs(lam).max()).sum())
    assert rank == manifold_dim(3)


def test_score_covariance_circle_lines_closed_form():
    S = moments(circle_lines(64), np.eye(2))[0]
    assert np.max(np.abs(S - SIGMA2_CIRCLE)) <= 1e-12


def test_clt_monte_carlo_reference_is_limiting_covariance_of_its_own_draws():
    # the reference stream is SeedSequence(seed, spawn_key=(1,)); one draw at a time
    # through ``sample`` gives the batch's bits
    sigma = np.diag([2.0, 1.0, 0.5])
    report = clt_experiment(sigma, 2, 20, 2, 55, ref_mc_n=400)
    rng = np.random.default_rng(np.random.SeedSequence(entropy=55, spawn_key=(1,)))
    pts = np.stack([sample(Gaussian(sigma, 2), rng) for _ in range(400)])
    assert np.array_equal(report.ref, limiting_covariance(Empirical(pts), sigma))


def test_score_covariance_weighted_matches_an_independent_sum():
    # the moment core's one GEMM against the three-operand einsum over projectors built
    # from the symmetric root and a solve, with non-uniform weights
    rng = np.random.default_rng(109)
    for m, r, n in ((3, 1, 40), (4, 2, 60), (5, 2, 30)):
        pts = gaussian_points(rng, np.eye(m), r, n)
        w = rng.uniform(0.1, 1.0, n)
        sigma = random_scatter(m, rng, spread=0.4)
        lam, Q = np.linalg.eigh(sigma)
        T = (Q / np.sqrt(lam)) @ Q.T @ pts                           # g^-1 X_j
        Pi = T @ np.linalg.solve(T.swapaxes(1, 2) @ T, T.swapaxes(1, 2))
        V = np.stack([vec(P - (r / m) * np.eye(m)) for P in Pi])
        w = w / w.sum()
        ref = np.einsum("n,ni,nj->ij", w, V, V)
        S = moments(Empirical(pts, w), sigma)[0]
        assert np.max(np.abs(S - ref)) <= 1e-13 * np.max(np.abs(ref))


def test_score_covariance_usage_errors():
    # the evaluation scatter is required (a law is rejected in test_likelihood)
    with pytest.raises(TypeError):
        limiting_covariance(three_symmetric_lines())


# ---------------------------------------------------------------------------
# the kron mean E[Pi kron Pi], by the moment core


def test_projector_kron_mean_single_atom_is_kron_square():
    atom = np.eye(3)[:, :2]
    S0 = moments(Empirical(atom[None]), np.eye(3))[1]
    P = np.diag([1.0, 1.0, 0.0])
    assert np.max(np.abs(S0 - np.kron(P, P))) <= 1e-12


def test_projector_kron_mean_trace_is_rank_squared():
    rng = np.random.default_rng(109)
    for m, r in ((2, 1), (3, 2), (4, 2)):
        pts = gaussian_points(rng, np.eye(m), r, 25)
        w = rng.uniform(0.5, 1.5, 25)
        meas = Empirical(pts, w / w.sum())
        S0 = moments(meas, random_scatter(m, rng, spread=0.3))[1]
        assert np.trace(S0) == pytest.approx(r * r, abs=1e-10)
        assert np.max(np.abs(S0 - S0.T)) <= 1e-12
        assert np.linalg.eigvalsh(S0).min() >= -1e-10


def test_projector_kron_mean_circle_lines_closed_form():
    S0 = moments(circle_lines(64), np.eye(2))[1]
    assert np.max(np.abs(S0 - S0_CIRCLE)) <= 1e-12


def test_projector_kron_mean_resampling_self_consistency():
    rng = np.random.default_rng(110)
    pts = gaussian_points(rng, np.eye(2), 1, 3)
    weights = np.array([0.5, 0.3, 0.2])
    meas = Empirical(pts, weights)
    exact = moments(meas, np.eye(2))[1]
    idx = rng.choice(3, size=40_000, p=weights)
    mc = moments(Empirical(pts[idx]), np.eye(2))[1]
    assert np.max(np.abs(mc - exact)) <= 0.02   # ~8 standard errors at this size


# ---------------------------------------------------------------------------
# limiting_covariance


def test_limiting_covariance_circle_lines_closed_form():
    lim = limiting_covariance(circle_lines(64), Sigma=np.eye(2))
    assert np.max(np.abs(lim - LIMIT_CIRCLE)) <= 1e-10
    # three symmetric lines share every moment the limit uses, hence the limit
    lim3 = limiting_covariance(three_symmetric_lines(), Sigma=np.eye(2))
    assert np.max(np.abs(lim3 - LIMIT_CIRCLE)) <= 1e-10


def test_limiting_covariance_kernel_contains_normal_directions():
    lim = limiting_covariance(circle_lines(64), Sigma=np.eye(2))
    assert np.max(np.abs(lim @ vec(np.eye(2)))) <= 1e-10
    for B in antisym_basis(2):
        assert np.max(np.abs(lim @ vec(B))) <= 1e-10


def test_pseudo_inverse_contract_recovers_tangent_projector():
    for meas, m in ((circle_lines(64), 2),):
        Q = tangent_vec_projector(m)
        S0 = moments(meas, np.eye(m))[1]
        L0 = (meas.r / m) * np.eye(m * m) - S0
        A = Q @ L0 @ Q
        assert np.max(np.abs(np.linalg.pinv(A, hermitian=True) @ A - Q)) <= 1e-8
    rng = np.random.default_rng(111)
    S0 = moments(Empirical(gaussian_points(rng, np.eye(3), 1, 20_000)), np.eye(3))[1]
    Q = tangent_vec_projector(3)
    A = Q @ ((1.0 / 3.0) * np.eye(9) - S0) @ Q
    assert np.max(np.abs(np.linalg.pinv(A, hermitian=True) @ A - Q)) <= 1e-8


def test_analytic_projector_matches_eigenprojection_of_score_covariance():
    S = moments(circle_lines(64), np.eye(2))[0]
    lam, U = np.linalg.eigh(S)
    keep = lam > 1e-6 * lam.max()
    Q_eig = U[:, keep] @ U[:, keep].T
    assert np.max(np.abs(Q_eig - Q2)) <= 1e-6


def test_limiting_covariance_matches_pieces_from_a_common_stream():
    meas = Empirical(gaussian_points(np.random.default_rng(112), np.eye(3), 2, 3000))
    lim = limiting_covariance(meas, np.eye(3))
    S, S0 = moments(meas, np.eye(3))
    Q = tangent_vec_projector(3)
    A = Q @ ((2.0 / 3.0) * np.eye(9) - S0) @ Q
    Apinv = np.linalg.pinv(0.5 * (A + A.T), hermitian=True)
    assert np.max(np.abs(lim - Apinv @ S @ Apinv.T)) <= 1e-10


def test_limiting_covariance_degenerate_support_raises():
    with pytest.raises(DegeneracyError):
        limiting_covariance(orthogonal_lines(), Sigma=np.eye(2))
    with pytest.raises(DegeneracyError):
        limiting_covariance(Empirical(np.eye(2)[:, :1][None]), Sigma=np.eye(2))


# ---------------------------------------------------------------------------
# the Gaussian family's limit law in closed form


def kappa(m, r):
    return 2 * (m - 1) * (m + 2) / (m * r * (m - r))


def law_scatter(m, rng, random):
    """A ``random_scatter`` sigma, or the identity."""
    return random_scatter(m, rng) if random else np.eye(m)


@pytest.mark.parametrize("m, r, random", [(2, 1, False), (3, 2, False), (4, 1, True),
                                          (5, 2, True)])
def test_clt_default_reference_is_the_closed_form(m, r, random):
    sigma = law_scatter(m, np.random.default_rng(m), random)
    report = clt_experiment(sigma, r, 20, 2, 3)
    assert np.array_equal(report.ref, kappa(m, r) * tangent_vec_projector(m))


@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_closed_form_at_r1_is_tylers_law(m):
    # Tyler (Ann. Statist. 1987): 2(1 + 2/m)(1 - 1/m) on a diagonal pair, 1 + 2/m on an
    # off-diagonal one, in column-major vec coordinates (i, j) -> i + j m
    ref = clt_experiment(np.eye(m), 1, 20, 2, 3).ref
    for i in range(m):
        for j in range(m):
            want = 2 * (1 + 2 / m) * (1 - 1 / m) if i == j else 1 + 2 / m
            assert ref[i + j * m, i + j * m] == pytest.approx(want, rel=1e-14)


@pytest.mark.parametrize("m, r, random", [(2, 1, False), (3, 2, False), (5, 2, False),
                                          (3, 1, True)])
def test_closed_form_matches_the_limit_of_400k_draws(m, r, random):
    # the gaps are sampling error (about 1% at this size); a kappa 10% off misses
    rng = np.random.default_rng(7)
    sigma = law_scatter(m, rng, random)
    draws = _gaussian_bases(np.linalg.cholesky(sigma), r, 400_000, [rng])[0]
    lim = limiting_covariance(Empirical(draws), sigma)
    for scale, close in ((1.0, True), (1.1, False)):
        ref = scale * kappa(m, r) * tangent_vec_projector(m)
        assert (np.linalg.norm(lim - ref) <= 0.03 * np.linalg.norm(ref)) == close, scale


# ---------------------------------------------------------------------------
# consistency experiment


def test_lln_single_large_run_lands_close():
    report = lln_experiment(np.eye(3), 2, [10_000], 1, 31)
    assert report.distances.shape == (1, 1)
    assert report.medians[0] < 0.05


def test_lln_report_summaries_match_raw_distances():
    report = lln_experiment(np.eye(2), 1, [30, 60], 5, 3)
    assert report.ns == [30, 60]
    assert report.reps == 5 and report.seed == 3
    assert report.distances.shape == (2, 5)
    assert np.all(report.distances > 0)
    assert report.medians == pytest.approx(list(np.median(report.distances, axis=1)))
    q = np.percentile(report.distances, [25.0, 75.0], axis=1)
    for i, (lo, hi) in enumerate(report.quartiles):
        assert lo == pytest.approx(q[0, i]) and hi == pytest.approx(q[1, i])
        assert lo <= report.medians[i] <= hi
    slope = np.polyfit(np.log(report.ns), np.log(report.medians), 1)[0]
    assert report.slope == pytest.approx(slope)


@pytest.mark.parametrize("ns", [[30], [30, 30]])
def test_lln_slope_needs_two_distinct_sizes(ns):
    with warnings.catch_warnings():
        warnings.simplefilter("error")          # no fit over one x value (RankWarning)
        assert lln_experiment(np.eye(2), 1, ns, 3, 13).slope is None


def test_lln_worker_count_does_not_change_results():
    one = lln_experiment(np.eye(2), 1, [30, 50], 4, 13, threads=1)
    two = lln_experiment(np.eye(2), 1, [30, 50], 4, 13, threads=2)
    assert np.array_equal(one.distances, two.distances)
    assert one.medians == two.medians and one.slope == two.slope


def test_experiments_reject_worker_counts_below_one():
    # 0 divided by zero in the block sizing, and -1 ran blocks of one replication
    for threads in (0, -1, True, 1.0, 2.5, "2", None):
        with pytest.raises(UsageError):
            lln_experiment(np.eye(2), 1, [20], 2, 1, threads=threads)
        with pytest.raises(UsageError):
            clt_experiment(np.eye(2), 1, 20, 2, 1, threads=threads)
    one = lln_experiment(np.eye(2), 1, [20], 2, 1, threads=np.int64(1))
    assert one.distances.shape == (1, 2)


EXPERIMENT_ARGS = {
    lln_experiment: {"sigma": np.eye(2), "r": 1, "ns": [20], "reps": 2, "seed": 1},
    clt_experiment: {"sigma": np.eye(2), "r": 1, "n": 20, "reps": 2, "seed": 1, "ref_mc_n": 50},
}


@pytest.mark.parametrize("experiment, bad", [
    (lln_experiment, {"seed": -1}),         # a negative seed was an uncaught ValueError
    (lln_experiment, {"seed": True}),
    (lln_experiment, {"ns": [20.5]}),       # ran n = 20
    (lln_experiment, {"reps": 2.5}),
    (lln_experiment, {"r": 1.0}),
    (clt_experiment, {"seed": -5}),
    (clt_experiment, {"n": 20.5}),          # a raw TypeError
    (clt_experiment, {"reps": 2.5}),
    (clt_experiment, {"r": 1.0}),
    (clt_experiment, {"ref_mc_n": 50.7}),   # drew 50
    (clt_experiment, {"ref_mc_n": True}),   # drew one and ended in DegeneracyError
], ids=lambda x: x.__name__ if callable(x) else "-".join(f"{k}={v}" for k, v in x.items()))
def test_experiments_reject_non_integer_counts_and_negative_seeds(experiment, bad):
    with pytest.raises(UsageError, match="must be an integer"):
        experiment(**{**EXPERIMENT_ARGS[experiment], **bad})


def test_pool_never_has_more_workers_than_blocks(monkeypatch):
    # a fork pool starts all its workers at the first submit, so a worker count above
    # the number of blocks would fork idle processes; the fake pool runs in-process
    sizes = []

    class InProcessPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
    alone = lln_experiment(np.eye(2), 1, [30], 2, 13, threads=1)
    pooled = lln_experiment(np.eye(2), 1, [30], 2, 13, threads=64)
    assert sizes == [len(list(asymptotics._blocks([30], 2, 2, 1, 64)))] == [2]
    assert np.array_equal(pooled.distances, alone.distances)
    lln_experiment(np.eye(2), 1, [30], 1, 13, threads=64)      # one block: no pool
    assert sizes == [2]


def test_lln_full_grid_medians_decrease_at_root_n_rate(lln_runs):
    report = lln_runs["single"]
    assert all(b < a for a, b in zip(report.medians, report.medians[1:]))
    assert -0.65 <= report.slope <= -0.35


# ---------------------------------------------------------------------------
# fluctuation experiment


def test_clt_report_fields_and_structural_annihilation():
    report = clt_experiment(np.eye(2), 1, 150, 40, 5)
    assert (report.n, report.reps, report.seed) == (150, 40, 5)
    assert np.array_equal(report.ref, LIMIT_CIRCLE)
    assert report.cov.shape == (4, 4)
    assert np.max(np.abs(report.cov - report.cov.T)) <= 1e-12
    assert np.linalg.eigvalsh(report.cov).min() >= -1e-10
    # the normalized fluctuation is symmetric and trace-free by construction,
    # so the covariance kills the normal directions even at tiny rep counts
    assert report.annihilation <= 1e-8
    assert np.isfinite(report.rel_frobenius) and report.rel_frobenius > 0
    assert report.max_skew >= 0


def test_clt_worker_count_does_not_change_results():
    one = clt_experiment(np.eye(2), 1, 100, 10, 7, threads=1)
    two = clt_experiment(np.eye(2), 1, 100, 10, 7, threads=2)
    assert np.array_equal(one.cov, two.cov)
    assert one.annihilation == two.annihilation
    assert one.max_skew == two.max_skew


def test_experiments_identical_for_any_worker_count_and_block_size(monkeypatch):
    # a replication's result depends on its own stream only, not on which block
    # (or worker) solved it: blocks of one, of three and of the whole grid entry
    sigma = random_scatter(3, np.random.default_rng(5), spread=0.5)
    tight = SolverOptions(tol=1e-14)

    def run(threads):
        lln = lln_experiment(sigma, 2, [12, 20], 7, 19, threads=threads)
        clt = clt_experiment(sigma, 2, 15, 7, 19, threads=threads, options=tight)
        return lln, clt

    lln, clt = run(1)
    assert sum(lln.status_counts[0].values()) == 7 and clt.status_counts == {"converged": 7}
    budgets = [asymptotics.STACK_FLOATS, 1, 3 * 20 * 3 * 2]
    for budget, threads in [(budgets[0], 2), (budgets[1], 1), (budgets[2], 1), (budgets[2], 2)]:
        monkeypatch.setattr(asymptotics, "STACK_FLOATS", budget)
        lln_b, clt_b = run(threads)
        assert np.array_equal(lln_b.distances, lln.distances), (budget, threads)
        assert lln_b.status_counts == lln.status_counts
        assert lln_b.iteration_quantiles == lln.iteration_quantiles
        assert np.array_equal(clt_b.cov, clt.cov), (budget, threads)
        assert clt_b.iteration_quantiles == clt.iteration_quantiles


def test_block_draws_and_summaries_match_the_replications_one_by_one(monkeypatch):
    # a block is drawn from its replications' own streams and factored in one product,
    # and each experiment summarizes the whole stack of estimates at once: the block's
    # draws are each replication's to the bit, and the distances and CLT vectors are the
    # per-replication forms to rounding
    sigma = random_scatter(3, np.random.default_rng(6), spread=0.5)
    c, r, n, seed, opts = _chart(sigma), 2, 20, 23, SolverOptions()
    chol = np.linalg.cholesky(sigma)
    alone = np.stack([_gaussian_bases(chol, r, n, [asymptotics._rep_rng(seed, 0, k)])[0]
                      for k in range(2, 8)])
    solve_stack, seen = asymptotics._solve_stack, []
    monkeypatch.setattr(asymptotics, "_solve_stack",
                        lambda points, *a: seen.append(points) or solve_stack(points, *a))
    block = asymptotics._solve_block((c, r, n, 0, range(2, 8), seed, opts))[0]
    assert np.array_equal(seen[0], alone)
    E = asymptotics._replicate(c, r, [n, 10], 8, seed, opts, 1)[0]      # (grid, rep) order
    assert np.array_equal(E[2:8], block)
    d = lln_experiment(sigma, r, [n, 10], 8, seed).distances.reshape(-1)
    d_ref = np.array([distance(e, sigma) for e in E])
    assert np.max(np.abs(d - d_ref) / d_ref) <= 1e-14
    Z = np.sqrt(n) * (asymptotics._whiten_normalize(E[:8], c) - np.eye(3)).reshape(8, -1)
    Z_ref = np.stack([np.sqrt(n) * vec(asymptotics._whiten_normalize(e, c) - np.eye(3))
                      for e in E[:8]])
    for z, z_ref in zip(Z, Z_ref):
        assert np.max(np.abs(z - z_ref)) <= 1e-14 * np.max(np.abs(z_ref))
    cov, cov_ref = clt_experiment(sigma, r, n, 8, seed).cov, Z_ref.T @ Z_ref / 8
    assert np.max(np.abs(cov - cov_ref)) <= 1e-14 * np.max(np.abs(cov_ref))


def test_clt_full_run_matches_predicted_covariance_within_ten_percent(clt_run):
    # the simulated covariance of sqrt(n) vec(C_n - Id) against the closed form of the
    # predicted limit
    assert clt_run["report"].rel_frobenius <= 0.10


def test_clt_full_run_pivotal_relation_without_pseudo_inverse(clt_run):
    # Transporting the empirical fluctuation covariance through the exact
    # score operator L0 must land on the exact score covariance: for the
    # uniform law on plane lines both sides are known in closed form.
    L0 = 0.5 * np.eye(4) - S0_CIRCLE
    lhs = L0 @ clt_run["report"].cov @ L0.T
    rel = np.linalg.norm(lhs - SIGMA2_CIRCLE) / np.linalg.norm(SIGMA2_CIRCLE)
    assert rel <= 0.15
