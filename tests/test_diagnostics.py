"""Existence classification, the reference candidate scan, velocity flags, and boundary-ray
slopes."""

import numpy as np
import pytest

from grassmann_scatter import (
    DomainError,
    Empirical,
    UsageError,
    asymptotic_slope,
    decompose_velocity,
    diagnose,
    dim_intersection,
    distance,
    distinguished_ray_direction,
    existence_index,
    fixed_point_solve,
    geodesic,
    loglik,
    projector,
    random_scatter,
)
from helpers import (
    exact_ray_instance,
    gaussian_points,
    line,
    lines_measure,
    orthogonal_lines,
    planar_lines_in_3d,
    random_measure,
    random_tangent,
    ray_form,
    ref_dim_intersection,
    ref_scan,
    ref_scan_report,
    three_symmetric_lines,
)
from grassmann_scatter.diagnostics import _boundary_flag
from grassmann_scatter.estimator import DIVERGENCE_WINDOW


def last_step_flag(iterates):
    """The escape flag of a run's iterates as the solver takes it (``_escape_result``): the
    last step, against the mean step of the last min(k, DIVERGENCE_WINDOW) steps, k the
    run's steps, in distance from the first iterate."""
    steps = min(len(iterates) - 1, DIVERGENCE_WINDOW)
    d = [distance(iterates[0], iterates[i]) for i in (-1 - steps, -1)]
    return _boundary_flag(iterates[-2], iterates[-1], (d[1] - d[0]) / steps)


def test_existence_index_hand_values():
    meas = orthogonal_lines()
    e1 = np.array([[1.0], [0.0]])
    assert existence_index(meas, e1) == pytest.approx(0.0, abs=1e-12)
    generic = line(0.83)
    assert existence_index(meas, generic) == pytest.approx(0.5, abs=1e-12)


def test_existence_index_negative_on_deficient_span():
    rng = np.random.default_rng(61)
    meas = planar_lines_in_3d(rng)
    plane = np.eye(3)[:, :2]
    assert existence_index(meas, plane) == pytest.approx(2.0 / 3.0 - 1.0, abs=1e-12)


def test_existence_index_basis_invariance_and_bounds():
    rng = np.random.default_rng(62)
    for _ in range(10):
        m = int(rng.integers(2, 6))
        r = int(rng.integers(1, m))
        meas = random_measure(rng, m, r, n=4)
        d = int(rng.integers(1, m))
        V = rng.standard_normal((m, d))
        val = existence_index(meas, V)
        B = rng.standard_normal((d, d)) + 3.0 * np.eye(d)
        assert existence_index(meas, V @ B) == val
        alt = Empirical(
            np.einsum("nir,rs->nis", meas.points, np.eye(r) * 2.0), meas.weights
        )
        assert existence_index(alt, V) == val
        lo = (r / m) * d - min(r, d)
        hi = (r / m) * d
        assert lo - 1e-12 <= val <= hi + 1e-12


def test_candidate_scan_three_lines():
    cands, truncated = ref_scan(three_symmetric_lines())
    assert not truncated
    assert len(cands) == 3
    assert all(c.dim == 1 for c in cands)


def test_candidate_scan_plane_intersection():
    planes = np.stack([np.eye(3)[:, :2], np.eye(3)[:, 1:]])
    lines = [c for c in ref_scan(Empirical(planes))[0] if c.dim == 1]
    assert any(dim_intersection(c.basis, np.eye(3)[:, 1:2]) == 1 for c in lines)
    assert any(c.provenance == "intersection" for c in lines)


def test_candidate_scan_random_planes_all_nonnegative():
    rng = np.random.default_rng(23)
    meas = Empirical(rng.standard_normal((5, 4, 2)))
    assert all(existence_index(meas, c.basis) >= 0.0 for c in ref_scan(meas)[0])


def test_candidate_scan_sums_are_rank_revealing():
    # span(e1, e2) + span(e1, e3) is span(e1, e2, e3); a qr of the stacked bases
    # would add a fourth direction chosen by rounding
    e = np.eye(5)
    cands, _ = ref_scan(Empirical(np.stack([e[:, [0, 1]], e[:, [0, 2]]])))
    assert [c for c in cands if c.dim == 3]
    for c in cands:
        assert dim_intersection(c.basis, e[:, :3]) == c.dim


def test_existence_index_on_a_stack_matches_single_bases():
    # random bases, and bases built from atoms so that some meets are nonzero
    rng = np.random.default_rng(67)
    meas = random_measure(rng, 5, 2, n=9)
    pairs = np.concatenate([meas.points[:-1], meas.points[1:]], axis=2)
    for d, built in ((1, meas.points[:, :, :1] + meas.points[:, :, 1:]), (2, meas.points),
                     (4, pairs)):
        V = np.concatenate([built, rng.standard_normal((6, 5, d))])
        values = existence_index(meas, V)
        assert values.shape == (len(V),)
        assert values.tolist() == [existence_index(meas, B) for B in V]


def test_classify_unique_on_gaussian_sample():
    rng = np.random.default_rng(64)
    meas = Empirical(gaussian_points(rng, np.eye(3), 2, 60))
    report = diagnose(meas)
    assert report.verdict == "unique"
    assert report.min_index > 1e-9
    assert report.witness is None and not report.zeros
    assert report.scanned >= 60


def test_classify_unique_frequency_small_samples():
    for trial in range(200):
        rng = np.random.default_rng(1000 + trial)
        meas = Empirical(gaussian_points(rng, np.eye(2), 1, 6))
        assert diagnose(meas).verdict == "unique"


def test_classify_limit_orthogonal_lines():
    report = diagnose(orthogonal_lines())
    assert report.verdict == "limit"
    assert report.complement_ok
    assert len(report.zeros) == 2
    zero_dirs = sorted(abs(z.basis[0, 0]) > 0.5 for z in report.zeros)
    assert zero_dirs == [False, True]  # one zero per coordinate axis
    assert report.min_index == pytest.approx(0.0, abs=1e-12)


def test_classify_no_ge_planar_atoms():
    rng = np.random.default_rng(65)
    meas = planar_lines_in_3d(rng)
    report = diagnose(meas)
    assert report.verdict == "no_ge"
    assert report.witness is not None
    assert report.witness.dim == 2
    assert dim_intersection(report.witness.basis, np.eye(3)[:, :2]) == 2
    assert report.min_index < -1e-9


def test_classify_inconclusive_without_complement():
    diag = np.array([[1.0], [1.0]]) / np.sqrt(2.0)
    pts = np.stack([np.eye(2)[:, :1], np.eye(2)[:, 1:], diag])
    meas = Empirical(pts, np.array([0.5, 0.25, 0.25]))
    report = diagnose(meas)
    assert report.verdict == "inconclusive"
    assert not report.complement_ok
    assert report.min_index == pytest.approx(0.0, abs=1e-12)


def test_scan_hands_qr_and_svd_no_single_atom(monkeypatch):
    # the atoms reach qr only as stacks (the scan's batch, and one batch per
    # existence_index call); no qr or svd is handed a single atom or its
    # orthonormal basis, as a per-atom index evaluation would
    rng = np.random.default_rng(70)
    meas = Empirical(rng.standard_normal((5, 5, 2)))
    calls = []
    for name in ("qr", "svd"):
        fn = getattr(np.linalg, name)
        monkeypatch.setattr(np.linalg, name,
                            lambda A, *a, _fn=fn, **k: calls.append(np.array(A)) or _fn(A, *a, **k))
    report, _ = ref_scan_report(meas)
    monkeypatch.undo()
    assert report.verdict == "unique" and report.scanned > meas.n
    singles = list(meas.points) + list(np.linalg.qr(meas.points)[0])
    assert not [A for A in calls if any(np.array_equal(A, X) for X in singles)]
    assert any(np.array_equal(A, meas.points) for A in calls)


def test_decompose_distinguished_ray():
    m, r = 3, 2
    A = distinguished_ray_direction(m, r)
    flag = decompose_velocity(np.eye(m), A)
    assert len(flag.pairs) == 1
    alpha, V = flag.pairs[0]
    lam = np.sqrt((m - r) / (m * r))
    beta = np.sqrt(r / (m * (m - r)))
    assert alpha == pytest.approx(lam + beta, abs=1e-12)
    assert V.shape == (m, r)
    assert dim_intersection(V, np.eye(m)[:, :r]) == r


def test_decompose_three_eigenvalues_nested():
    lam = np.array([0.6, 0.6, -0.1, -1.1])
    w = np.diag(lam)
    flag = decompose_velocity(np.eye(4), w)
    assert len(flag.pairs) == 2
    dims = [V.shape[1] for _, V in flag.pairs]
    assert dims == [2, 3]
    V1, V2 = flag.pairs[0][1], flag.pairs[1][1]
    assert dim_intersection(V1, V2) == 2  # strictly nested
    alphas = [a for a, _ in flag.pairs]
    assert alphas[0] == pytest.approx(0.7, abs=1e-10)
    assert alphas[1] == pytest.approx(1.0, abs=1e-10)


def test_decompose_zero_is_empty():
    flag = decompose_velocity(np.eye(3), np.zeros((3, 3)))
    assert flag.pairs == []


def test_decompose_validation():
    S = np.diag([2.0, 0.5])
    with pytest.raises(UsageError):
        decompose_velocity(S, np.zeros((3, 3)))
    with pytest.raises(UsageError):
        decompose_velocity(S, np.array([[0.0, 1.0], [-1.0, 0.0]]))  # w S not symmetric
    with pytest.raises(UsageError):
        decompose_velocity(S, np.eye(2))  # nonzero trace


def test_non_finite_velocity_raises_domain_error():
    # a NaN velocity passed the hand-rolled symmetry and trace tests (NaN compares
    # false): decompose_velocity returned an empty flag and asymptotic_slope 0.0
    w = np.full((3, 3), np.nan)
    with pytest.raises(DomainError, match="non-finite"):
        decompose_velocity(np.eye(3), w)
    with pytest.raises(DomainError, match="non-finite"):
        asymptotic_slope(three_symmetric_lines(), np.eye(2), np.full((2, 2), np.nan))


def test_decompose_reconstruction_identity():
    rng = np.random.default_rng(66)
    for _ in range(100):
        m = int(rng.integers(2, 6))
        Sigma = random_scatter(m, rng, spread=0.7)
        W = random_tangent(rng, Sigma, scale=1.0)
        w = ray_form(Sigma, W)
        flag = decompose_velocity(Sigma, w)
        recon = np.zeros((m, m))
        for alpha, V in flag.pairs:
            d = V.shape[1]
            recon += alpha * (projector(V, Sigma) - (d / m) * np.eye(m))
        assert np.linalg.norm(recon - w) <= 1e-8


def test_asymptotic_slope_positive_on_well_posed_instance():
    rng = np.random.default_rng(67)
    meas = random_measure(rng, 3, 2, n=9)
    assert diagnose(meas).verdict == "unique"
    for _ in range(5):
        Sigma = random_scatter(3, rng, spread=0.5)
        w = ray_form(Sigma, random_tangent(rng, Sigma, scale=1.0))
        assert asymptotic_slope(meas, Sigma, w) > 0.0


def test_asymptotic_slope_zero_toward_limit_axis():
    meas = orthogonal_lines()
    w = np.diag([0.5, -0.5])
    assert asymptotic_slope(meas, np.eye(2), w) == pytest.approx(0.0, abs=1e-12)


def test_asymptotic_slope_matches_exact_ray_and_finite_differences():
    rng = np.random.default_rng(68)
    for m in (2, 3):
        inst = exact_ray_instance(rng, m)
        got = asymptotic_slope(inst["meas"], inst["Sigma"], inst["w_ray"])
        assert got == pytest.approx(inst["slope"], abs=1e-10)
        f = lambda t: loglik(inst["meas"], geodesic(inst["Sigma"], inst["W"], t))
        fd = f(30.5) - f(29.5)
        assert abs(fd - got) <= 1e-4


def test_boundary_flag_synthetic_ray():
    rng = np.random.default_rng(69)
    m, r = 4, 2
    A = distinguished_ray_direction(m, r)
    iterates = []
    for t in np.linspace(0.0, 6.0, 7):
        S = geodesic(np.eye(m), A, t)
        noise = random_tangent(rng, S, scale=1e-8)
        iterates.append(geodesic(S, noise, 1.0))
    flag = last_step_flag(iterates)
    assert len(flag.pairs) == 1
    _, V = flag.pairs[0]
    assert V.shape[1] == r
    assert ref_dim_intersection(V, np.eye(m)[:, :r], tol=1e-6) == r


def test_boundary_flag_requires_motion():
    still = [np.eye(3), geodesic(np.eye(3), distinguished_ray_direction(3, 1), 1e-12)]
    assert last_step_flag(still) is None
    # a converging (stalling) run is not an escape
    A = distinguished_ray_direction(3, 1)
    converging = [geodesic(np.eye(3), A, 1.0 - 2.0 ** (-k)) for k in range(12)]
    assert last_step_flag(converging) is None
    # a diverged run from a far start: its first step is about 18 and its later ones are
    # under 0.7, so the mean step of the whole run (1.25) would call its last step (0.60)
    # stationary; the divergence window's mean step (0.58) calls it steady, and the
    # escape carries the flag span(e1) of negative slope
    meas = lines_measure([0.0, np.pi / 4], weights=np.array([0.7, 0.3]))
    res = fixed_point_solve(meas, Sigma0=np.diag([np.exp(-12.0), np.exp(12.0)]))
    assert res.status == "diverged_to_boundary" and res.iterations == 26
    assert len(res.boundary.pairs) == 1
    assert ref_dim_intersection(res.boundary.pairs[0][1], np.eye(2)[:, :1], tol=1e-6) == 1
    assert res.slope < 0.0


def test_boundary_flag_explains_divergence():
    meas = lines_measure([0.0, np.pi / 2], weights=np.array([0.7, 0.3]))
    res = fixed_point_solve(meas)
    assert res.status == "diverged_to_boundary"
    total = sum(a * existence_index(meas, V) for a, V in res.boundary.pairs)
    assert total < 0.0
