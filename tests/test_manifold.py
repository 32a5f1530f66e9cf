"""Geometry of the unimodular positive-definite cone."""

import numpy as np
import pytest
import scipy.linalg

from grassmann_scatter import (
    DomainError,
    UsageError,
    boundary_flag,
    check_scatter,
    check_tangent,
    commutation_matrix,
    distance,
    geodesic,
    inner,
    log_map,
    manifold_dim,
    norm,
    normalize_det,
    random_scatter,
    random_unit_tangent,
    sym_sqrt,
    tangent_project,
    tangent_vec_projector,
    whiten_normalize,
)
from helpers import (
    max_mixed_err,
    mixed_err,
    mp_log_map_distance,
    random_special_linear,
    random_tangent,
    ref_distance,
    scatter_with_condition,
)

EPS = np.finfo(float).eps


def test_manifold_dim():
    assert [manifold_dim(m) for m in range(2, 7)] == [2, 5, 9, 14, 20]


@pytest.mark.parametrize("call", [
    lambda: manifold_dim(1.5), lambda: manifold_dim(1), lambda: manifold_dim(True),
    lambda: tangent_vec_projector(2.5), lambda: random_scatter(2.5, np.random.default_rng(0)),
    lambda: commutation_matrix(-1), lambda: commutation_matrix(0),
], ids=["dim-float", "dim-1", "dim-bool", "projector-float", "random-float", "K-negative", "K-0"])
def test_dimension_alone_must_be_an_integer_at_least_two(call):
    with pytest.raises(DomainError, match="dimension must be an integer >= 2"):
        call()


def test_sym_sqrt_identity():
    assert np.allclose(sym_sqrt(np.eye(3)), np.eye(3), atol=1e-14)


def test_sym_sqrt_diagonal():
    assert np.allclose(sym_sqrt(np.diag([4.0, 0.25])), np.diag([2.0, 0.5]), atol=1e-12)


def test_sym_sqrt_squares_back():
    rng = np.random.default_rng(7)
    for _ in range(10):
        S = random_scatter(4, rng)
        g = sym_sqrt(S)
        assert np.allclose(g @ g, S, atol=1e-10)
        assert np.allclose(g, g.T, atol=1e-12)
        assert abs(np.linalg.det(g) - 1.0) < 1e-10


def test_check_scatter_rejections():
    with pytest.raises(DomainError):
        check_scatter(np.ones((2, 3)))
    with pytest.raises(DomainError):
        check_scatter(np.eye(1))
    with pytest.raises(DomainError):
        check_scatter(np.array([[1.0, 0.5], [0.0, 1.0]]))
    with pytest.raises(DomainError):
        check_scatter(np.diag([1.0, -1.0]))
    with pytest.raises(DomainError):
        check_scatter(np.diag([2.0, 1.0]))
    with pytest.raises(DomainError):
        check_scatter(np.diag([1e8, 1e-8]))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_check_scatter_rejects_non_finite_entries(bad):
    for i, j in [(0, 0), (0, 1), (1, 0)]:
        M = np.eye(3)
        M[i, j] = bad
        with pytest.raises(DomainError, match="non-finite"):
            check_scatter(M)


def test_normalize_det():
    assert np.allclose(normalize_det(np.diag([2.0, 2.0])), np.eye(2), atol=1e-14)
    rng = np.random.default_rng(30)
    A = rng.standard_normal((3, 3))
    N = normalize_det(A @ A.T + 3.0 * np.eye(3))
    assert abs(np.linalg.det(N) - 1.0) < 1e-12
    with pytest.raises(DomainError):
        normalize_det(np.diag([1.0, -1.0]))


def test_inner_hand_values():
    D = np.diag([1.0, -1.0])
    assert inner(np.eye(2), D, D) == pytest.approx(2.0, abs=1e-12)
    A = np.diag([1.0, 1.0, -2.0])
    B = np.diag([1.0, -1.0, 0.0])
    assert inner(np.eye(3), A, B) == pytest.approx(0.0, abs=1e-12)


def test_inner_congruence_isometry():
    rng = np.random.default_rng(11)
    for _ in range(10):
        m = int(rng.integers(2, 5))
        A = random_tangent(rng, np.eye(m))
        B = random_tangent(rng, np.eye(m))
        S = random_scatter(m, rng)
        g = sym_sqrt(S)
        lhs = inner(S, g @ A @ g, g @ B @ g)
        rhs = inner(np.eye(m), A, B)
        assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(rhs))


def test_inner_rejects_non_tangent():
    with pytest.raises(UsageError):
        inner(np.eye(2), np.eye(2), np.diag([1.0, -1.0]))
    with pytest.raises(UsageError):
        inner(np.eye(2), np.diag([1.0, -1.0]), np.array([[0.0, 1.0], [-1.0, 0.0]]))


def test_norm_is_sqrt_inner():
    rng = np.random.default_rng(33)
    S = random_scatter(3, rng)
    W = random_tangent(rng, S)
    assert norm(S, W) == pytest.approx(np.sqrt(inner(S, W, W)), rel=1e-12)


@pytest.mark.parametrize("t", [np.nan, np.inf, -np.inf, True, "1", None])
def test_geodesic_rejects_a_time_that_is_not_a_finite_real(t):
    with pytest.raises(DomainError, match="t must be a finite real number"):
        geodesic(np.eye(3), np.diag([1.0, -1.0, 0.0]), t)


def test_geodesic_zero_velocity():
    for t in (-3.0, 0.0, 7.5):
        assert np.allclose(geodesic(np.eye(3), np.zeros((3, 3)), t), np.eye(3), atol=1e-14)


def test_geodesic_commuting_exponential():
    G = geodesic(np.eye(2), np.diag([1.0, -1.0]), 1.0)
    assert np.allclose(G, np.diag([np.e, 1.0 / np.e]), atol=1e-12)


def test_geodesic_group_property():
    rng = np.random.default_rng(3)
    for _ in range(8):
        m = int(rng.integers(2, 5))
        S = random_scatter(m, rng)
        W = random_tangent(rng, S)
        s, t = rng.uniform(-2.0, 2.0, size=2)
        g = sym_sqrt(S)
        V = np.linalg.solve(g, np.linalg.solve(g, W).T).T
        V = 0.5 * (V + V.T)
        whole = g @ scipy.linalg.expm((s + t) * V) @ g  # oracle: one exponential
        mid = geodesic(S, W, s)
        Ws = g @ (V @ scipy.linalg.expm(s * V)) @ g
        Ws = 0.5 * (Ws + Ws.T)
        stepped = geodesic(mid, Ws, t)
        assert np.allclose(stepped, whole, atol=1e-9 * np.linalg.norm(whole))


def test_geodesic_stays_on_manifold_long_range():
    rng = np.random.default_rng(41)
    S = random_scatter(3, rng, spread=0.4)
    W = 0.15 * random_unit_tangent(S, rng)
    for t in (-50.0, -20.0, -1.0, 1.0, 20.0, 50.0):
        G = geodesic(S, W, t)
        check_scatter(G)
        assert abs(np.linalg.det(G) - 1.0) < 1e-8


def test_geodesic_constant_speed():
    rng = np.random.default_rng(8)
    for _ in range(5):
        S = random_scatter(3, rng)
        W = random_tangent(rng, S)
        speed = np.sqrt(inner(S, W, W))
        for t in (-2.0, 0.5, 3.0):
            d = distance(S, geodesic(S, W, t))
            assert abs(d - abs(t) * speed) <= 1e-8 * max(1.0, abs(t) * speed)


def test_distance_basics():
    rng = np.random.default_rng(12)
    S0 = random_scatter(3, rng)
    S1 = random_scatter(3, rng)
    assert distance(S0, S0) == pytest.approx(0.0, abs=1e-12)
    assert distance(S0, S1) > 0.0
    assert distance(S0, S1) == pytest.approx(distance(S1, S0), rel=1e-12)


def test_distance_diagonal_value():
    d = distance(np.eye(2), np.diag([np.exp(2.0), np.exp(-2.0)]))
    assert d == pytest.approx(2.0 * np.sqrt(2.0), abs=1e-12)


def test_distance_congruence_invariance():
    rng = np.random.default_rng(5)
    for _ in range(10):
        m = int(rng.integers(2, 6))
        S0 = random_scatter(m, rng)
        S1 = random_scatter(m, rng)
        A = random_special_linear(rng, m)
        lhs = distance(A @ S0 @ A.T, A @ S1 @ A.T)
        rhs = distance(S0, S1)
        assert abs(lhs - rhs) <= 1e-9 * max(1.0, rhs)


@pytest.mark.parametrize("cond", [10.0, 1e3])
@pytest.mark.parametrize("m", [2, 3, 5, 10])
def test_distance_matches_generalized_eigen_reference(m, cond):
    # an independent eigensolver on the same eigenvalues; 64 eps cond is the slack
    # check_scatter grants the determinant of a cond-conditioned matrix
    rng = np.random.default_rng(1000 * m + int(cond))
    for _ in range(20):
        S0 = scatter_with_condition(rng, m, cond)
        S1 = scatter_with_condition(rng, m, cond)
        err = mixed_err(distance(S0, S1), ref_distance(S0, S1))
        assert err <= max(1e-13, 64 * EPS * cond)


def test_log_map_and_distance_match_50_digit_reference():
    # the eigen chart whitens to within a few eps cond of exact arithmetic; the
    # bound is the distance bound above (Cholesky and LU whitening reached
    # 2e3 eps cond on these pairs at condition 1e6)
    for m, cond in [(3, 1e3), (3, 1e6), (5, 1e3), (5, 1e6)]:
        rng = np.random.default_rng(7 * m + int(np.log10(cond)))
        for _ in range(10):
            S0 = scatter_with_condition(rng, m, cond)
            S1 = scatter_with_condition(rng, m, cond)
            W_ref, d_ref = mp_log_map_distance(S0, S1)
            assert max_mixed_err(log_map(S0, S1), W_ref) <= 64 * EPS * cond, (m, cond)
            assert mixed_err(distance(S0, S1), d_ref) <= 64 * EPS * cond, (m, cond)


def test_log_map_inverts_geodesic():
    rng = np.random.default_rng(15)
    for _ in range(5):
        S = random_scatter(3, rng)
        W = random_tangent(rng, S)
        W2 = log_map(S, geodesic(S, W, 1.0))
        assert np.allclose(W2, W, atol=1e-9 * max(1.0, np.linalg.norm(W)))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_check_tangent_rejects_non_finite_entries(bad):
    V = np.diag([1.0, -1.0, 0.0])
    V[0, 1] = V[1, 0] = bad
    with pytest.raises(DomainError, match="non-finite"):
        check_tangent(np.eye(3), V)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_tangent_project_rejects_non_finite_entries(bad):
    # a NaN matrix was projected to NaN
    with pytest.raises(DomainError, match="non-finite"):
        tangent_project(np.eye(3), np.full((3, 3), bad))


def test_tangent_project_hand_values():
    assert np.allclose(tangent_project(np.eye(3), np.eye(3)), np.zeros((3, 3)), atol=1e-14)
    assert np.allclose(tangent_project(np.eye(2), np.diag([2.0, 0.0])), np.diag([1.0, -1.0]), atol=1e-14)


def test_tangent_project_idempotent_linear_tangent():
    rng = np.random.default_rng(9)
    for _ in range(10):
        m = int(rng.integers(2, 6))
        S = random_scatter(m, rng)
        X = rng.standard_normal((m, m))
        X = 0.5 * (X + X.T)
        Y = rng.standard_normal((m, m))
        Y = 0.5 * (Y + Y.T)
        P1 = tangent_project(S, X)
        check_tangent(S, P1)
        assert np.allclose(tangent_project(S, P1), P1, atol=1e-12)
        assert np.allclose(
            tangent_project(S, 2.0 * X + Y), 2.0 * P1 + tangent_project(S, Y), atol=1e-10
        )


def test_random_unit_tangent_normalization():
    rng = np.random.default_rng(1)
    S = random_scatter(3, rng)
    for _ in range(100):
        V = random_unit_tangent(S, rng)
        check_tangent(S, V)
        assert inner(S, V, V) == pytest.approx(1.0, abs=1e-10)
        assert abs(np.trace(np.linalg.solve(S, V))) < 1e-10


def test_random_unit_tangent_mean_small():
    rng = np.random.default_rng(1)
    S = random_scatter(3, rng)
    total = np.zeros((3, 3))
    for _ in range(10_000):
        total += random_unit_tangent(S, rng)
    assert np.linalg.norm(total / 10_000) <= 0.05


@pytest.mark.parametrize("pair", [
    lambda S0, S1: distance(S0, S1),
    lambda S0, S1: log_map(S0, S1),
    lambda S0, S1: whiten_normalize(S0, S1),
    lambda S0, S1: boundary_flag([S0, S0, S1]),
], ids=["distance", "log_map", "whiten_normalize", "boundary_flag"])
def test_paired_scatters_of_two_sizes_are_a_domain_error(pair):
    S3, S2 = random_scatter(3, np.random.default_rng(0)), np.eye(2)
    for S0, S1 in ((S3, S2), (S2, S3)):
        m = len(S0)
        with pytest.raises(DomainError, match=rf"must be {m} x {m} for \w+ in R\^{m},"):
            pair(S0, S1)
