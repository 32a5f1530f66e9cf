"""Subspace points, induced distributions, projectors, and group scalars."""

import numpy as np
import pytest
import scipy.integrate
import scipy.linalg
import scipy.stats

from grassmann_scatter import (
    DomainError,
    Empirical,
    Gaussian,
    act,
    act_measure,
    busemann,
    check_basis,
    cocycle,
    density_ratio,
    dim_intersection,
    distinguished_ray_direction,
    existence_index,
    geodesic,
    loglik_point,
    modular_parabolic,
    normalize_det,
    orthonormalize,
    projector,
    random_scatter,
    sample,
    sym_sqrt,
    unique_sample_threshold,
)
from grassmann_scatter.grassmann import RANK_TOL, _meet_dims
from helpers import line, random_special_linear, ref_dim_intersection


def test_check_basis_validations():
    check_basis(np.eye(3)[:, :2])
    with pytest.raises(DomainError):
        check_basis(np.ones(3))
    with pytest.raises(DomainError):
        check_basis(np.eye(3))  # r = m is not a proper subspace
    with pytest.raises(DomainError):
        check_basis(np.array([[1.0, 1.0], [0.0, 0.0], [2.0, 2.0]]))  # rank 1


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_check_basis_rejects_non_finite_entries(bad):
    X = np.eye(3)[:, :2]
    X[2, 1] = bad
    with pytest.raises(DomainError, match="non-finite"):
        check_basis(X)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_empirical_rejects_non_finite_points_and_weights(bad):
    pts = np.stack([np.eye(3)[:, :1], np.eye(3)[:, 1:2], np.eye(3)[:, 2:]])
    broken = pts.copy()
    broken[1, 0, 0] = bad
    with pytest.raises(DomainError, match="non-finite"):
        Empirical(broken)
    with pytest.raises(DomainError, match="non-finite"):
        Empirical([p for p in broken])
    with pytest.raises(DomainError, match="non-finite"):
        Empirical(pts, np.array([0.5, 0.5, bad]))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_act_rejects_non_finite_matrix(bad):
    A = np.eye(3)
    A[1, 2] = bad
    with pytest.raises(DomainError, match="non-finite"):
        act(A, np.eye(3)[:, :1])


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_cocycle_rejects_non_finite_group_element(bad):
    h = np.eye(3)
    h[1, 2] = bad
    with pytest.raises(DomainError, match="non-finite"):
        cocycle(h, 1)


def test_empirical_constructor():
    meas = Empirical([np.array([1.0, 0.0]), np.array([0.0, 1.0])])
    assert (meas.n, meas.m, meas.r) == (2, 2, 1)
    assert np.array_equal(meas.weights, np.full(meas.n, 1.0 / meas.n))
    with pytest.raises(DomainError):
        Empirical(np.zeros((2, 2, 1)))  # rank-deficient atoms
    pts = np.stack([np.eye(2)[:, :1]] * 2)
    with pytest.raises(DomainError):
        Empirical(pts, np.array([0.7, 0.7]))  # weights do not sum to 1
    with pytest.raises(DomainError):
        Empirical(pts, np.array([1.5, -0.5]))  # negative weight
    with pytest.raises(DomainError):
        Empirical(pts, np.array([1.0]))  # wrong length


def test_gaussian_constructor():
    Gaussian(np.eye(3), 2)
    with pytest.raises(DomainError):
        Gaussian(np.eye(3), 3)
    with pytest.raises(DomainError):
        Gaussian(np.eye(3), 0)
    with pytest.raises(DomainError):
        Gaussian(np.diag([2.0, 1.0]), 1)


def test_sample_gaussian_rank():
    rng = np.random.default_rng(2)
    meas = Gaussian(np.eye(3), 2)
    for _ in range(1000):
        X = sample(meas, rng)
        assert X.shape == (3, 2)
        s = np.linalg.svd(X, compute_uv=False)
        assert s[-1] > 1e-10 * s[0]


def test_sample_single_atom():
    X = np.array([[1.0], [2.0]])
    meas = Empirical(np.stack([X]))
    rng = np.random.default_rng(0)
    for _ in range(5):
        assert np.array_equal(sample(meas, rng), X)


def test_sample_empirical_frequencies():
    meas = Empirical(
        np.stack([np.array([[1.0], [0.0]]), np.array([[0.0], [1.0]])]),
        np.array([0.8, 0.2]),
    )
    rng = np.random.default_rng(99)
    hits = sum(sample(meas, rng)[0, 0] != 0.0 for _ in range(5000))
    assert abs(hits / 5000 - 0.8) < 0.03


def test_sample_angular_law():
    # Oracle first: exact bin probabilities of the line angle under the
    # scatter diag(a, 1/a) come from the closed-form angular density
    # f(theta) = 1 / (pi * u(theta)^T Sigma^-1 u(theta)), integrated per bin.
    a = 1.7
    Sigma = np.diag([a, 1.0 / a])
    Sinv = np.linalg.inv(Sigma)
    edges = np.linspace(0.0, np.pi, 17)

    def dens(th):
        u = np.array([np.cos(th), np.sin(th)])
        return 1.0 / (np.pi * (u @ Sinv @ u))

    probs = np.array(
        [scipy.integrate.quad(dens, lo, hi)[0] for lo, hi in zip(edges[:-1], edges[1:])]
    )
    assert probs.sum() == pytest.approx(1.0, abs=1e-9)

    rng = np.random.default_rng(2)
    n = 10_000
    meas = Gaussian(Sigma, 1)
    th = np.empty(n)
    for i in range(n):
        X = sample(meas, rng)
        th[i] = np.arctan2(X[1, 0], X[0, 0]) % np.pi
    obs, _ = np.histogram(th, bins=edges)
    stat = float(((obs - n * probs) ** 2 / (n * probs)).sum())
    assert scipy.stats.chi2.sf(stat, df=15) > 0.001


def test_act_hand_cases_and_errors():
    U = np.array([[1.0], [0.0], [0.0]])
    assert np.allclose(act(np.eye(3), U), U)
    V = act(np.diag([2.0, 1.0, 0.5]), U)
    assert dim_intersection(V, U) == 1  # the axis is preserved
    with pytest.raises(DomainError):
        act(np.zeros((3, 3)), U)
    with pytest.raises(DomainError):
        act(np.eye(2), U)


@pytest.mark.parametrize("A", [np.ones((4, 3)), np.eye(4), np.diag([1.0, 1.0, 0.0]),
                               np.diag([1.0, np.nan, 1.0])],
                         ids=["4x3", "4x4", "singular", "non-finite"])
def test_act_measure_checks_the_map_as_act_does(A):
    # act_measure took any array: a 4 x 3 map sent atoms of R^3 into R^4, and the
    # singular diag(1, 1, 0) was accepted
    rng = np.random.default_rng(8)
    U = rng.standard_normal((3, 1))
    for meas in (Empirical(rng.standard_normal((5, 3, 1))), Gaussian(np.eye(3), 1)):
        with pytest.raises(DomainError):
            act_measure(A, meas)
    with pytest.raises(DomainError):
        act(A, U)


def test_act_measure_variants():
    A = np.diag([2.0, 0.5])
    emp = Empirical(np.stack([np.array([[1.0], [1.0]])]))
    moved = act_measure(A, emp)
    assert np.allclose(moved.points[0], np.array([[2.0], [0.5]]))
    gau = act_measure(A, Gaussian(np.eye(2), 1))
    assert isinstance(gau, Gaussian)
    assert np.allclose(gau.sigma, np.diag([4.0, 0.25]), atol=1e-12)


def test_act_pushforward_law():
    rng = np.random.default_rng(13)
    A = random_special_linear(rng, 2)
    Sigma = random_scatter(2, rng, spread=0.6)
    base = Gaussian(Sigma, 1)
    push = act_measure(A, base)
    assert np.allclose(push.sigma, normalize_det(A @ Sigma @ A.T), atol=1e-12)
    n = 10_000
    moved = np.empty((n, 2))
    direct = np.empty((n, 2))
    for i in range(n):
        P = projector(act(A, sample(base, rng)), np.eye(2))
        moved[i] = P[0, 0], P[0, 1]
        Pp = projector(sample(push, rng), np.eye(2))
        direct[i] = Pp[0, 0], Pp[0, 1]
    p1 = scipy.stats.ks_2samp(moved[:, 0], direct[:, 0]).pvalue
    p2 = scipy.stats.ks_2samp(moved[:, 1], direct[:, 1]).pvalue
    assert min(p1, p2) > 0.001


def test_projector_canonical():
    P = projector(np.eye(4)[:, :2], np.eye(4))
    assert np.allclose(P, np.diag([1.0, 1.0, 0.0, 0.0]), atol=1e-12)


def test_projector_properties():
    rng = np.random.default_rng(4)
    for _ in range(10):
        m = int(rng.integers(2, 6))
        r = int(rng.integers(1, m))
        X = rng.standard_normal((m, r))
        S = random_scatter(m, rng)
        P = projector(X, S)
        assert np.trace(P) == pytest.approx(r, abs=1e-10)
        assert np.allclose(P @ P, P, atol=1e-10)
        assert np.allclose(S @ P.T, P @ S, atol=1e-10)  # self-adjoint for <x|y>_S
        B = np.linalg.qr(rng.standard_normal((r, r)))[0] * rng.uniform(0.5, 2.0, size=r)
        assert np.allclose(projector(X @ B, S), P, atol=1e-10)
        assert np.allclose(P @ X, X, atol=1e-10)
        # oracle: S-orthogonal complement of the span via whitened QR
        g = sym_sqrt(S)
        Q = np.linalg.qr(np.linalg.solve(g, X), mode="complete")[0]
        Y = g @ Q[:, r:]
        assert np.allclose(P @ Y, np.zeros_like(Y), atol=1e-10)


def test_density_ratio_identity():
    rng = np.random.default_rng(18)
    assert density_ratio(rng.standard_normal((3, 2)), np.eye(3)) == pytest.approx(1.0, abs=1e-12)


def test_density_ratio_diagonal_value():
    e1 = np.array([[1.0], [0.0]])
    for a in (0.25, 0.5, 2.0, 4.0):
        assert density_ratio(e1, np.diag([a, 1.0 / a])) == pytest.approx(a, rel=1e-12)


def test_density_ratio_basis_invariance():
    rng = np.random.default_rng(19)
    X = rng.standard_normal((4, 2))
    S = random_scatter(4, rng)
    B = scipy.linalg.expm(0.3 * rng.standard_normal((2, 2)))
    assert density_ratio(X @ B, S) == pytest.approx(density_ratio(X, S), rel=1e-10)


def test_dim_intersection():
    E = np.eye(3)
    assert dim_intersection(E[:, :2], E[:, :2]) == 2
    assert dim_intersection(E[:, :2], E[:, 1:]) == 1
    rng = np.random.default_rng(20)
    assert dim_intersection(rng.standard_normal((5, 2)), rng.standard_normal((5, 2))) == 0


def _meet_pairs(rng, m):
    """(XU, XV) pairs in R^m: random, nested, meeting in k exact directions, and near-RANK_TOL."""
    pairs = []
    for a in range(1, m):
        for b in range(1, m):
            pairs.append((rng.standard_normal((m, a)), rng.standard_normal((m, b))))
            big = rng.standard_normal((m, max(a, b)))
            pairs.append((big[:, :a], big[:, :b]))                       # nested
            for k in range(1, min(a, b) + 1):
                shared = rng.standard_normal((m, k))
                U = np.hstack([shared, rng.standard_normal((m, a - k))])
                mixed = shared @ random_special_linear(rng, k)
                V = np.hstack([rng.standard_normal((m, b - k)), mixed])
                pairs.append((U, V))                                     # exact k-dim meet
            for eps in (1e-3 * RANK_TOL, 1e3 * RANK_TOL):               # either side of the cutoff
                U = rng.standard_normal((m, a))
                V = np.hstack([U[:, :1] + eps * rng.standard_normal((m, 1)),
                               rng.standard_normal((m, b - 1))])
                pairs.append((U, V))
    return pairs


def test_meet_dims_matches_reference_two_qr_and_svd():
    rng = np.random.default_rng(27)
    for m in (2, 3, 5):
        for XU, XV in _meet_pairs(rng, m):
            QU, QV = orthonormalize(XU), orthonormalize(XV)
            want = ref_dim_intersection(XU, XV)
            assert _meet_dims(QU, QV) == want == dim_intersection(XU, XV)
    # a near-cutoff pair really straddles it: one meets, the other does not
    U = rng.standard_normal((4, 2))
    near = [ref_dim_intersection(U, U[:, :1] + eps * rng.standard_normal((4, 1)))
            for eps in (1e-3 * RANK_TOL, 1e3 * RANK_TOL)]
    assert near == [1, 0]


def test_meet_dims_batched_and_broadcast():
    rng = np.random.default_rng(28)
    m, a, b = 5, 2, 3
    pairs = [(XU, XV) for XU, XV in _meet_pairs(rng, m) if (XU.shape[1], XV.shape[1]) == (a, b)]
    QU = orthonormalize(np.stack([p[0] for p in pairs]))        # one batched qr
    QV = orthonormalize(np.stack([p[1] for p in pairs]))
    want = np.array([ref_dim_intersection(XU, XV) for XU, XV in pairs])
    assert (_meet_dims(QU, QV) == want).all()
    # one V against every U, and every U against every V
    one = [ref_dim_intersection(XU, pairs[3][1]) for XU, _ in pairs]
    assert (_meet_dims(QU, QV[3]) == one).all()
    table = _meet_dims(QU[:, None], QV[None, :])
    assert table.shape == (len(pairs), len(pairs))
    assert all(table[i, j] == ref_dim_intersection(pairs[i][0], pairs[j][1])
               for i in range(len(pairs)) for j in range(len(pairs)))
    # the public function takes the same stacks unorthonormalized
    XU, XV = np.stack([p[0] for p in pairs]), np.stack([p[1] for p in pairs])
    assert dim_intersection(XU, XV).tolist() == want.tolist()
    assert (dim_intersection(XU[:, None], XV[None]) == table).all()


def test_dim_intersection_validates():
    with pytest.raises(DomainError):
        dim_intersection(np.ones(3), np.eye(3)[:, :1])
    with pytest.raises(DomainError):
        dim_intersection(np.eye(3)[:, :1], np.eye(4)[:, :1])
    with pytest.raises(DomainError):
        dim_intersection(np.full((3, 1), np.nan), np.eye(3)[:, :1])
    with pytest.raises(DomainError):
        dim_intersection(np.ones((2, 3, 1)), np.ones((3, 3, 2)))     # stacks do not broadcast
    # rank-deficient bases: qr would invent the missing directions
    e = np.eye(3)
    for XU, XV in [(e[:, 1:2], e[:, [0, 0]]), (e[:, :1], np.zeros((3, 1))),
                   (e[:, :2], np.stack([e[:, :1], np.zeros((3, 1))])),
                   (e[:, :1], np.ones((3, 4)))]:                 # more columns than rows
        with pytest.raises(DomainError):
            dim_intersection(XU, XV)
        with pytest.raises(DomainError):
            dim_intersection(XV, XU)
    with pytest.raises(DomainError):
        existence_index(Empirical(np.stack([e[:, :1], e[:, 1:2], e[:, 2:]])), np.zeros((3, 1)))



def test_orthonormalize():
    rng = np.random.default_rng(26)
    X = rng.standard_normal((4, 2))
    Q = orthonormalize(X)
    assert np.allclose(Q.T @ Q, np.eye(2), atol=1e-12)
    assert dim_intersection(Q, X) == 2


def test_busemann_zero_at_identity():
    rng = np.random.default_rng(22)
    assert busemann(rng.standard_normal((4, 2)), np.eye(4)) == pytest.approx(0.0, abs=1e-12)


def test_busemann_unit_speed_on_distinguished_ray():
    m, r = 3, 2
    A = distinguished_ray_direction(m, r)
    U0 = np.eye(m)[:, :r]
    for t in (-2.0, -1.0, 0.0, 1.0, 2.0):
        S = geodesic(np.eye(m), A, t)
        assert busemann(U0, S) == pytest.approx(-t, abs=1e-10)


def test_distinguished_ray_direction_is_unit_tangent():
    from grassmann_scatter import check_tangent, inner

    for m in range(2, 6):
        for r in range(1, m):
            A = distinguished_ray_direction(m, r)
            check_tangent(np.eye(m), A)
            assert inner(np.eye(m), A, A) == pytest.approx(1.0, abs=1e-12)


def test_busemann_proportional_to_loglik():
    rng = np.random.default_rng(24)
    for _ in range(10):
        m = int(rng.integers(2, 7))
        r = int(rng.integers(1, m))
        X = rng.standard_normal((m, r))
        S = random_scatter(m, rng)
        c = 2.0 * np.sqrt(m / ((m - r) * r))
        expect = c * loglik_point(X, S)
        assert abs(busemann(X, S) - expect) <= 1e-10 * max(1.0, abs(expect))


def test_cocycle_orthogonal_is_one():
    th = 0.7
    R = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
    assert cocycle(R, 1) == pytest.approx(1.0, abs=1e-12)
    rng = np.random.default_rng(25)
    Q = np.linalg.qr(rng.standard_normal((3, 3)))[0]
    if np.linalg.det(Q) < 0:
        Q[:, 0] *= -1.0
    for r in (1, 2):
        assert cocycle(Q, r) == pytest.approx(1.0, rel=1e-10)


def test_cocycle_block_diagonal():
    for m, r, l1 in ((2, 1, 2.0), (3, 2, 2.0), (4, 1, 0.5), (5, 3, 1.3), (2, 1, -2.0)):
        l2 = abs(l1) ** (-r / (m - r))
        t = np.diag([l1] * r + [l2] * (m - r))
        assert cocycle(t, r) == pytest.approx(modular_parabolic(l1, m, r), rel=1e-10)


def test_modular_parabolic_values():
    assert modular_parabolic(1.0, 3, 2) == pytest.approx(1.0)
    assert modular_parabolic(2.0, 2, 1) == pytest.approx(4.0)
    assert modular_parabolic(2.0, 3, 2) == pytest.approx(64.0)
    assert modular_parabolic(-2.0, 2, 1) == pytest.approx(4.0)


@pytest.mark.parametrize("call", [
    lambda: unique_sample_threshold(3, 3),          # ZeroDivisionError
    lambda: unique_sample_threshold(3, 0),          # ZeroDivisionError
    lambda: unique_sample_threshold(3, 5),          # returned -0.9
    lambda: Gaussian(np.eye(3), 1.5),               # accepted
    lambda: Gaussian(np.eye(3), True),              # accepted
    lambda: modular_parabolic(2.0, 3, 1.5),         # returned 22.6
    lambda: modular_parabolic(np.nan, 3, 1),        # returned nan
    lambda: modular_parabolic(np.inf, 3, 1),
    lambda: distinguished_ray_direction(3, 1.5),    # a raw TypeError
    lambda: cocycle(np.eye(3), 1.5),                # a raw TypeError
], ids=["threshold-r=m", "threshold-r=0", "threshold-r>m", "Gaussian-r=1.5",
        "Gaussian-r=True", "parabolic-r=1.5", "parabolic-nan", "parabolic-inf",
        "ray-r=1.5", "cocycle-r=1.5"])
def test_dimensions_and_scaling_factor_are_checked(call):
    with pytest.raises(DomainError):
        call()


def test_cocycle_quotient_matches_density_ratio():
    # The quotient of the group scalar along a right translation reproduces
    # the subspace density ratio: rho(h g) / rho(h) equals the density ratio
    # of the subspace spanned by h^-1 X0 against the scatter g g^T.
    rng = np.random.default_rng(21)
    for _ in range(10):
        m = int(rng.integers(2, 6))
        r = int(rng.integers(1, m))
        g = random_special_linear(rng, m)
        h = random_special_linear(rng, m)
        lhs = cocycle(h @ g, r) / cocycle(h, r)
        rhs = density_ratio(np.linalg.solve(h, np.eye(m)[:, :r]), g @ g.T)
        assert abs(lhs - rhs) <= 1e-8 * max(1.0, abs(rhs))


def _random_parabolic(rng, m, r):
    """Random unimodular block-upper-triangular matrix with blocks (r, m - r)."""
    A1 = rng.standard_normal((r, r)) + 2.0 * np.eye(r)
    A2 = rng.standard_normal((m - r, m - r)) + 2.0 * np.eye(m - r)
    d1, d2 = np.linalg.det(A1), np.linalg.det(A2)
    if abs(d1) < 0.1 or abs(d2) < 0.1:
        return _random_parabolic(rng, m, r)
    A2 = A2 / abs(d1 * d2) ** (1.0 / (m - r))
    p = np.zeros((m, m))
    p[:r, :r] = A1
    p[r:, r:] = A2
    p[:r, r:] = rng.standard_normal((r, m - r))
    return p


def test_cocycle_parabolic_translation_scales_by_modular():
    rng = np.random.default_rng(27)
    for _ in range(10):
        m = int(rng.integers(2, 6))
        r = int(rng.integers(1, m))
        x = _random_parabolic(rng, m, r)
        h = _random_parabolic(rng, m, r)
        delta = abs(np.linalg.det(h[:r, :r])) ** m
        lhs = cocycle(x @ h, r)
        rhs = delta * cocycle(x, r)
        assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(rhs))


def test_cocycle_rejects_non_unimodular():
    with pytest.raises(DomainError):
        cocycle(np.diag([2.0, 1.0]), 1)
