"""Objective values, exact Riemannian derivatives, and the gradient score."""

import numpy as np
import pytest

from grassmann_scatter import (
    DomainError,
    Empirical,
    Gaussian,
    UsageError,
    act_measure,
    busemann,
    density_ratio,
    fixed_point_solve,
    geodesic,
    grad,
    grad_norm_sq,
    hess_quadform,
    inner,
    limiting_covariance,
    loglik,
    loglik_point,
    mean_projector,
    normalize_det,
    projector,
    random_scatter,
    residual,
    sample,
    sym_sqrt,
)
from grassmann_scatter.grassmann import _frames, _outer
from grassmann_scatter.likelihood import _hessian, _hessian_at, _weighted_kernel_sum
from grassmann_scatter.manifold import _chart, _tangent_basis
from helpers import (
    fd_first,
    fd_second,
    gaussian_points,
    lines_measure,
    orthogonal_lines,
    random_measure,
    random_special_linear,
    random_tangent,
    ref_hessian,
    ref_tangent_basis,
    three_symmetric_lines,
)


def test_loglik_point_identity_scatter():
    rng = np.random.default_rng(10)
    for _ in range(5):
        X = rng.standard_normal((4, 2))
        assert loglik_point(X, np.eye(4)) == pytest.approx(0.0, abs=1e-12)


def test_loglik_point_diagonal_line():
    for a in (0.25, 0.5, 2.0, 4.0):
        X = np.array([[1.0], [0.0]])
        val = loglik_point(X, np.diag([a, 1.0 / a]))
        assert val == pytest.approx(-0.5 * np.log(a), abs=1e-12)


def test_loglik_point_matches_density_ratio():
    rng = np.random.default_rng(12)
    for _ in range(10):
        m = int(rng.integers(2, 6))
        r = int(rng.integers(1, m))
        X = rng.standard_normal((m, r))
        S = random_scatter(m, rng)
        expect = -np.log(density_ratio(X, S)) / m
        assert loglik_point(X, S) == pytest.approx(expect, abs=1e-12)


def test_loglik_single_atom_and_gaussian():
    rng = np.random.default_rng(15)
    X = rng.standard_normal((3, 2))
    S = random_scatter(3, rng)
    meas = Empirical(np.stack([X]))
    assert loglik(meas, S) == pytest.approx(loglik_point(X, S), abs=1e-14)
    with pytest.raises(UsageError):
        loglik(Gaussian(np.eye(3), 2), np.eye(3))


def test_measure_functions_take_samples_not_laws():
    # a law is sampled first; the functions evaluate empirical measures only
    law = Gaussian(np.eye(3), 2)
    Z = np.diag([1.0, -1.0, 0.0])
    for call in (lambda: loglik(law, np.eye(3)), lambda: grad(law, np.eye(3)),
                 lambda: hess_quadform(law, np.eye(3), Z), lambda: mean_projector(law, np.eye(3)),
                 lambda: grad_norm_sq(law, np.eye(3)), lambda: residual(law, np.eye(3)),
                 lambda: limiting_covariance(law, np.eye(3))):
        with pytest.raises(UsageError, match="sample the law first"):
            call()


def test_loglik_geodesic_convexity():
    rng = np.random.default_rng(6)
    for _ in range(5):
        m = int(rng.integers(2, 5))
        r = int(rng.integers(1, m))
        meas = random_measure(rng, m, r, n=3 + int(rng.integers(0, 5)))
        Sigma = random_scatter(m, rng, spread=0.5)
        W = random_tangent(rng, Sigma, scale=0.7)
        f = lambda t: loglik(meas, geodesic(Sigma, W, t))
        h = 1e-3
        for t0 in (-0.8, -0.3, 0.0, 0.4, 1.1):
            second = f(t0 + h) - 2.0 * f(t0) + f(t0 - h)
            assert second >= -1e-10


# the derivatives of one point's term loglik_point(X, .) are those of the one-atom
# measure Empirical(X[None])


def test_grad_point_canonical():
    for m, r in ((2, 1), (3, 2), (4, 2), (5, 3)):
        X = np.eye(m)[:, :r]
        expect = (0.5 * r / m) * np.eye(m) - 0.5 * np.diag(
            np.concatenate([np.ones(r), np.zeros(m - r)])
        )
        assert np.allclose(grad(Empirical(X[None]), np.eye(m)), expect, atol=1e-12)


def test_grad_point_tangency():
    rng = np.random.default_rng(30)
    for _ in range(10):
        m = int(rng.integers(2, 6))
        r = int(rng.integers(1, m))
        X = rng.standard_normal((m, r))
        S = random_scatter(m, rng)
        G = grad(Empirical(X[None]), S)
        assert np.allclose(G, G.T, atol=1e-12)
        assert abs(np.trace(np.linalg.solve(S, G))) <= 1e-10


def test_grad_point_matches_finite_differences():
    rng = np.random.default_rng(31)
    for _ in range(50):
        m = int(rng.integers(2, 6))
        r = int(rng.integers(1, m))
        X = rng.standard_normal((m, r))
        S = random_scatter(m, rng, spread=0.7)
        W = random_tangent(rng, S, scale=1.0)
        exact = inner(S, grad(Empirical(X[None]), S), W)
        fd = fd_first(lambda t: loglik_point(X, geodesic(S, W, t)))
        assert abs(exact - fd) <= 1e-6 * max(1.0, abs(fd))


def test_grad_three_symmetric_lines_critical_at_identity():
    meas = three_symmetric_lines()
    G = grad(meas, np.eye(2))
    assert np.linalg.norm(G) <= 1e-12


def test_grad_orthogonal_lines_vanishes_along_diagonal():
    meas = orthogonal_lines()
    for a in (0.25, 0.5, 1.0, 2.0, 4.0):
        G = grad(meas, np.diag([a, 1.0 / a]))
        assert np.linalg.norm(G) <= 1e-12


def test_grad_gaussian_self_scatter_within_monte_carlo_error():
    rng = np.random.default_rng(33)
    Sigma = random_scatter(3, rng, spread=0.5)
    meas = Gaussian(Sigma, 2)
    mc_n = 4000
    draw_rng = np.random.default_rng(77)
    samples = [sample(meas, draw_rng) for _ in range(mc_n)]
    grads = np.stack([grad(Empirical(X[None]), Sigma) for X in samples])
    stderr = grads.std(axis=0, ddof=1) / np.sqrt(mc_n)
    pkg = grad(Empirical(np.stack(samples)), Sigma)
    assert np.allclose(pkg, grads.mean(axis=0), atol=1e-12)
    assert np.all(np.abs(pkg) <= 3.0 * stderr + 1e-12)
    with pytest.raises(UsageError):
        grad(meas, Sigma)


def test_grad_linear_in_weights():
    rng = np.random.default_rng(34)
    X1, X2 = rng.standard_normal((2, 3, 1))
    S = random_scatter(3, rng)
    w = 0.3
    mixed = Empirical(np.stack([X1, X2]), np.array([w, 1.0 - w]))
    G1 = grad(Empirical(np.stack([X1])), S)
    G2 = grad(Empirical(np.stack([X2])), S)
    assert np.allclose(grad(mixed, S), w * G1 + (1.0 - w) * G2, atol=1e-12)


def test_covariant_deriv_zero_direction():
    rng = np.random.default_rng(35)
    X = rng.standard_normal((3, 2))
    S = random_scatter(3, rng)
    assert hess_quadform(Empirical(X[None]), S, np.zeros((3, 3))) == 0.0


def test_covariant_deriv_quadform_closed_form():
    rng = np.random.default_rng(36)
    for _ in range(10):
        m = int(rng.integers(2, 6))
        r = int(rng.integers(1, m))
        X = rng.standard_normal((m, r))
        S = random_scatter(m, rng)
        Z = random_tangent(rng, S)
        lhs = hess_quadform(Empirical(X[None]), S, Z)        # <cov. deriv. of grad along Z, Z>
        Sinv = np.linalg.inv(S)
        pi = Sinv @ X @ np.linalg.solve(X.T @ Sinv @ X, X.T) @ Sinv
        rhs = 0.5 * np.trace((Sinv - pi) @ Z @ pi @ Z)
        assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(rhs))


def test_covariant_deriv_matches_second_differences():
    rng = np.random.default_rng(37)
    for _ in range(20):
        m = int(rng.integers(2, 5))
        r = int(rng.integers(1, m))
        X = rng.standard_normal((m, r))
        S = random_scatter(m, rng, spread=0.6)
        V = random_tangent(rng, S, scale=1.0)
        exact = hess_quadform(Empirical(X[None]), S, V)
        fd = fd_second(lambda t: loglik_point(X, geodesic(S, V, t)))
        assert abs(exact - fd) <= 1e-5 * max(1.0, abs(fd))


def test_hess_quadform_nonnegative():
    rng = np.random.default_rng(38)
    for _ in range(20):
        m = int(rng.integers(2, 6))
        r = int(rng.integers(1, m))
        meas = random_measure(rng, m, r, n=2 + int(rng.integers(0, 6)))
        S = random_scatter(m, rng)
        Z = random_tangent(rng, S)
        assert hess_quadform(meas, S, Z) >= -1e-10


def test_hess_quadform_flat_direction_instance():
    # Atoms of the form span{v, e3} with v in the eigenplane of Z for 1/2 and
    # e3 the eigenvector for -1: every projector commutes with Z inside the
    # atom, so the integrated quadratic form degenerates to exactly zero.
    Z = np.diag([0.5, 0.5, -1.0])
    atoms = []
    for ang in (0.0, np.pi / 4, np.pi / 2, 1.1, 2.3):
        v = np.array([np.cos(ang), np.sin(ang), 0.0])
        atoms.append(np.column_stack([v, np.array([0.0, 0.0, 1.0])]))
    meas = Empirical(np.stack(atoms))
    assert hess_quadform(meas, np.eye(3), Z) == pytest.approx(0.0, abs=1e-12)


def test_hess_quadform_spread_support_strictly_positive():
    rng = np.random.default_rng(39)
    meas = Empirical(gaussian_points(rng, np.eye(3), 2, 200))
    S = np.eye(3)
    worst = np.inf
    for _ in range(20):
        Z = random_tangent(rng, S, scale=1.0)
        worst = min(worst, hess_quadform(meas, S, Z))
    assert worst > 1e-3


def test_hess_quadform_whitened_block_oracle():
    rng = np.random.default_rng(40)
    for _ in range(10):
        m = int(rng.integers(2, 6))
        r = int(rng.integers(1, m))
        X = rng.standard_normal((m, r))
        S = random_scatter(m, rng)
        Z = random_tangent(rng, S)
        g = sym_sqrt(S)
        ginv = np.linalg.inv(g)
        Q = np.linalg.qr(ginv @ X, mode="complete")[0]
        v = Q.T @ ginv @ Z @ ginv @ Q
        oracle = 0.5 * np.sum(v[r:, :r] ** 2)
        got = hess_quadform(Empirical(np.stack([X])), S, Z)
        assert abs(got - oracle) <= 1e-10 * max(1.0, oracle)


def test_mean_projector_values_and_bounds():
    rng = np.random.default_rng(41)
    # square-symmetric instance: the average whitened projector is (r/m) Id
    meas = orthogonal_lines()
    for a in (0.25, 1.0, 4.0):
        M = mean_projector(meas, np.diag([a, 1.0 / a]))
        assert np.allclose(M, 0.5 * np.eye(2), atol=1e-12)
    # single atom at identity: the plain orthogonal projector
    X = rng.standard_normal((4, 2))
    M = mean_projector(Empirical(np.stack([X])), np.eye(4))
    pi = X @ np.linalg.solve(X.T @ X, X.T)
    assert np.allclose(M, pi, atol=1e-12)
    assert np.trace(M @ M) == pytest.approx(2.0, abs=1e-10)
    # structure invariants on random instances
    for _ in range(10):
        m = int(rng.integers(2, 6))
        r = int(rng.integers(1, m))
        meas = random_measure(rng, m, r, n=3 + int(rng.integers(0, 5)))
        G = random_scatter(m, rng)
        M = mean_projector(meas, G)
        assert np.allclose(M, M.T, atol=1e-12)
        assert np.linalg.eigvalsh(M).min() >= -1e-12
        assert np.trace(M) == pytest.approx(r, abs=1e-10)
        t2 = float(np.trace(M @ M))
        assert r * r / m - 1e-10 <= t2 <= r * r + 1e-10


def test_grad_norm_sq_values():
    # critical point of the square-symmetric instance
    assert grad_norm_sq(three_symmetric_lines(), np.eye(2)) == pytest.approx(0.0, abs=1e-12)
    # single atom at identity
    rng = np.random.default_rng(42)
    for m, r in ((2, 1), (3, 2), (5, 2)):
        X = rng.standard_normal((m, r))
        h = grad_norm_sq(Empirical(np.stack([X])), np.eye(m))
        assert h == pytest.approx(0.25 * (r - r * r / m), abs=1e-10)


def test_grad_norm_sq_is_gradient_norm():
    rng = np.random.default_rng(43)
    for _ in range(10):
        m = int(rng.integers(2, 6))
        r = int(rng.integers(1, m))
        meas = random_measure(rng, m, r, n=3 + int(rng.integers(0, 5)))
        G = random_scatter(m, rng)
        gvec = grad(meas, G)
        expect = inner(G, gvec, gvec)
        assert grad_norm_sq(meas, G) == pytest.approx(expect, abs=1e-10 * max(1.0, expect))


def test_critical_point_transported_by_congruence():
    rng = np.random.default_rng(45)
    axes_3d = Empirical(np.stack([np.eye(3)[:, [j]] for j in range(3)]))
    for meas, m in ((three_symmetric_lines(), 2), (axes_3d, 3)):
        A = random_special_linear(rng, m)
        moved = act_measure(A, meas)
        target = normalize_det(A @ A.T)
        assert np.linalg.norm(grad(moved, target)) <= 1e-10


def test_hessian_quadratic_form_matches_explicit_inverse():
    # the tangent-basis Hessian of the Newton steps (and of hess_quadform), built from the
    # whitened projectors in the eigen chart of Sigma, against the per-atom formula
    # 1/2 sum_j w_j tr((Sigma^-1 - pi_j) Z pi_j Z) with explicit inverses
    rng = np.random.default_rng(90)
    for m, r, n, uniform in [(3, 1, 6, True), (4, 2, 7, False), (5, 2, 5, True), (3, 2, 25, False)]:
        meas = random_measure(rng, m, r, n, uniform=uniform)
        Sigma = random_scatter(m, rng, spread=0.8)
        c = _chart(Sigma)
        P = _outer(_frames(meas.points, c.W))
        M = _weighted_kernel_sum(meas.points, meas.weights, c.F, c.W)[0]
        H = _hessian(P, meas.weights, M)
        assert np.abs(H - H.T).max() <= 1e-14
        Sinv = np.linalg.inv(Sigma)
        pis = [Sinv @ X @ np.linalg.solve(X.T @ Sinv @ X, X.T) @ Sinv for X in meas.points]
        for _ in range(5):
            V = rng.standard_normal((m, m))
            V = 0.5 * (V + V.T)
            V -= (np.trace(V) / m) * np.eye(m)
            Z = c.F @ V @ c.F.T
            want = 0.5 * sum(w * np.trace((Sinv - pi) @ Z @ pi @ Z)
                             for w, pi in zip(meas.weights, pis))
            z = _tangent_basis(m).T @ V.reshape(-1)
            got = z @ H @ z
            assert got == pytest.approx(want, rel=1e-10, abs=1e-13)


def test_hessian_spectrum_matches_the_per_atom_reference():
    # the spectrum of B^T H B does not depend on the orthonormal basis B, so the
    # tangent-basis Hessian and the per-atom m^2 form reduced on a null-space basis agree
    rng = np.random.default_rng(91)
    for m, r, n, uniform in [(2, 1, 5, True), (3, 1, 6, True), (4, 2, 7, False),
                             (5, 2, 5, True), (3, 2, 25, False), (6, 3, 4, False)]:
        meas = random_measure(rng, m, r, n, uniform=uniform)
        c = _chart(random_scatter(m, rng, spread=0.8))
        M = _weighted_kernel_sum(meas.points, meas.weights, c.F, c.W)[0]
        H = _hessian_at(meas.points, meas.weights, c)
        M_ref, H_ref = ref_hessian(meas, c.F)
        B = ref_tangent_basis(m)
        assert H.shape == (len(B.T), len(B.T))
        assert np.abs(M - M_ref).max() <= 1e-13
        want = np.linalg.eigvalsh(B.T @ H_ref @ B)
        assert np.abs(np.linalg.eigvalsh(H) - want).max() <= 1e-13


# every function of data and a scatter, with data in R^3 and a scatter of another size
WRONG_SIZE = {
    "loglik": lambda meas, X, S, Z: loglik(meas, S),
    "grad": lambda meas, X, S, Z: grad(meas, S),
    "hess_quadform": lambda meas, X, S, Z: hess_quadform(meas, S, Z),
    "mean_projector": lambda meas, X, S, Z: mean_projector(meas, S),
    "grad_norm_sq": lambda meas, X, S, Z: grad_norm_sq(meas, S),
    "residual": lambda meas, X, S, Z: residual(meas, S),
    "limiting_covariance": lambda meas, X, S, Z: limiting_covariance(meas, S),
    "fixed_point_solve": lambda meas, X, S, Z: fixed_point_solve(meas, S),
    "projector": lambda meas, X, S, Z: projector(X, S),
    "density_ratio": lambda meas, X, S, Z: density_ratio(X, S),
    "busemann": lambda meas, X, S, Z: busemann(X, S),
    "loglik_point": lambda meas, X, S, Z: loglik_point(X, S),
}


@pytest.mark.parametrize("k", [2, 4])
@pytest.mark.parametrize("name", list(WRONG_SIZE))
def test_scatter_of_wrong_size_raises_domain_error(name, k):
    meas = random_measure(np.random.default_rng(91), 3, 1, 8)
    Z = np.diag([1.0, -1.0] + [0.0] * (k - 2))
    with pytest.raises(DomainError, match="must be 3 x 3 for atoms in R\\^3"):
        WRONG_SIZE[name](meas, meas.points[0], np.eye(k), Z)
