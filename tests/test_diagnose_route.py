"""Diagnosis from one solve: the solver's Hessian and escape slope decide, and whatever they
leave open is inconclusive (or no_ge where an evaluated subspace has a negative index)."""

import json
import math

import numpy as np
import pytest

from grassmann_scatter import (
    Empirical,
    diagnose,
    dim_intersection,
    distance,
    existence_index,
    fixed_point_solve,
    loglik,
    orthonormalize,
    random_scatter,
)
from grassmann_scatter.cli import main
from grassmann_scatter.diagnostics import INDEX_TOL
from grassmann_scatter.estimator import NULL_HESSIAN, UNIQUE_HESSIAN
from grassmann_scatter.io import write_measure_json
from helpers import (gaussian_points, lines_measure, no_ge_lines, planar_lines_in_3d,
                     ref_scan_report)


def run_diagnose(tmp_path, meas, name="data"):
    path = tmp_path / f"{name}.json"
    write_measure_json(path, meas)
    out = tmp_path / f"out-{name}"
    code = main(["diagnose", "--input", str(path), "--out", str(out)])
    return code, json.loads((out / "report.json").read_text())


def split_flow_spread(meas, Z, C, Sigma) -> float:
    """max - min of the objective along A_t Sigma A_t^T, t in [-1, 1], where A_t scales
    Z by exp(t (m - d)/m) and C by exp(-t d/m) (d = dim Z; det A_t = 1)."""
    m, d = meas.m, Z.shape[1]
    B = np.hstack([Z, C])
    s = np.r_[np.full(d, (m - d) / m), np.full(m - d, -d / m)]
    values = []
    for t in np.linspace(-1.0, 1.0, 9):
        A = (B * np.exp(t * s)) @ np.linalg.inv(B)
        values.append(loglik(meas, A @ Sigma @ A.T))
    return float(np.ptp(values))


def complementary_pair(report, m):
    """A zero of the report and a complementary zero (direct sum of R^m)."""
    for Z in report.zeros:
        for C in report.zeros:
            if Z.dim + C.dim == m and dim_intersection(Z.basis, C.basis) == 0:
                return Z.basis, C.basis
    raise AssertionError("no complementary pair among the zeros")


def same_subspace(A, B) -> bool:
    QA, QB = orthonormalize(A), orthonormalize(B)
    return QA.shape == QB.shape and np.abs(QA @ QA.T - QB @ QB.T).max() <= 1e-8


def test_three_generic_planes_in_r4_are_a_limit_not_unique(tmp_path):
    # three generic planes of R^4: U3 is the graph of a map A: U1 -> U2, and for
    # any line l of U1 the plane l + A l meets all three atoms in a line, so its
    # index is exactly 0.  The candidate pool (three atom spans; sums of two
    # atoms are all of R^4) missed these planes and called the set unique.
    pts = np.random.default_rng(3).standard_normal((3, 4, 2))
    meas = Empirical(pts)
    code, report = run_diagnose(tmp_path, meas)
    assert code == 1
    assert report["verdict"] == "limit" and report["complement_ok"] is True
    assert report["scanned"] > 0 and report["slope"] is None
    assert report["lambda_min"] <= NULL_HESSIAN

    # non-uniqueness without the route: two starts, two estimates, one objective
    a = fixed_point_solve(meas)
    b = fixed_point_solve(meas, Sigma0=random_scatter(4, np.random.default_rng(1)))
    assert a.converged and b.converged
    assert distance(a.estimate, b.estimate) > 0.1
    assert abs(loglik(meas, a.estimate) - loglik(meas, b.estimate)) <= 1e-10

    X1, X2, X3 = pts
    coef = np.linalg.solve(np.hstack([X1, X2]), X3)          # X3 = X1 a + X2 b
    A = coef[2:] @ np.linalg.inv(coef[:2])                    # X1 u -> X2 (b a^-1 u)
    for u in (np.array([1.0, 0.0]), np.array([0.3, -1.2])):
        S = np.column_stack([X1 @ u, X2 @ (A @ u)])
        assert existence_index(meas, S) == 0.0
        assert [dim_intersection(X, S) for X in pts] == [1, 1, 1]


def _threshold_sizes(m, r):
    at = math.ceil(m * m / (r * (m - r)))
    return (at - 1, at, at + 1)


@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_route_verdict_matches_the_scan(m):
    # below, at and above m^2 / (r (m - r)), against the reference candidate scan;
    # where the two disagree diagnose says "limit" and the scan "unique", and
    # diagnose is right: the objective is constant along the flow that scales a
    # zero against its complement
    for r in range(1, m):
        for n in _threshold_sizes(m, r):
            for seed in range(3):
                meas = Empirical(np.random.default_rng([m, r, n, seed]).standard_normal((n, m, r)))
                report, (scan, truncated) = diagnose(meas), ref_scan_report(meas)
                assert report.scanned > 0
                if truncated or report.verdict == scan.verdict:
                    continue
                assert (report.verdict, scan.verdict) == ("limit", "unique"), (m, r, n, seed)
                Z, C = complementary_pair(report, m)
                Sigma = fixed_point_solve(meas).estimate
                assert split_flow_spread(meas, Z, C, Sigma) <= 1e-10, (m, r, n, seed)


def _oblique(rng, m, dims):
    """Two random, non-orthogonal complementary subspaces of R^m."""
    B = rng.standard_normal((m, m))
    return B[:, :dims], B[:, dims:]


def _oblique_sets():
    rng = np.random.default_rng(31)
    sets = []
    V, W = _oblique(rng, 3, 2)                                 # lines in a plane and a line
    pts = np.concatenate([(V @ rng.standard_normal((2, 3))).T, W.T])[:, :, None]
    sets.append(pytest.param(Empirical(pts, [0.25, 0.25, 1 / 6, 1 / 3]), V, W, id="lines(3)"))
    V, W = _oblique(rng, 4, 2)                                 # weighted lines in two planes
    pts = np.concatenate([(V @ rng.standard_normal((2, 3))).T,
                          (W @ rng.standard_normal((2, 3))).T])[:, :, None]
    sets.append(pytest.param(Empirical(pts, [0.2, 0.15, 0.15, 0.2, 0.2, 0.1]), V, W,
                             id="lines(4)"))
    V, W = _oblique(rng, 4, 2)                                 # planes split by V and W
    pts = np.stack([np.column_stack([V @ rng.standard_normal(2), W @ rng.standard_normal(2)])
                    for _ in range(4)])
    sets.append(pytest.param(Empirical(pts), V, W, id="planes(4)"))
    V, W = _oblique(rng, 5, 3)                  # a plane inside V, four planes split by V, W
    pts = np.stack([V @ rng.standard_normal((3, 2))]
                   + [np.column_stack([V @ rng.standard_normal(3), W @ rng.standard_normal(2)])
                      for _ in range(4)])
    sets.append(pytest.param(Empirical(pts), V, W, id="planes(5)"))
    return sets


@pytest.mark.parametrize("meas, V, W", _oblique_sets())
def test_oblique_limit_sets(tmp_path, meas, V, W):
    code, doc = run_diagnose(tmp_path, meas)
    assert code == 1 and doc["complement_ok"] is True
    report = diagnose(meas)
    assert report.verdict == "limit"
    # the null direction splits R^m into exactly V (+) W
    zeros = [z.basis for z in report.zeros]
    assert len(zeros) == 2
    assert any(same_subspace(z, V) for z in zeros) and any(same_subspace(z, W) for z in zeros)
    assert existence_index(meas, V) == pytest.approx(0.0, abs=1e-12)
    # the flow leaves the objective invariant at every base point; the identity
    # keeps its rounding small (the solver's estimate can sit far out on the flat)
    assert split_flow_spread(meas, V, W, np.eye(meas.m)) <= 1e-10


def test_open_route_on_the_inconclusive_lines(tmp_path):
    # the solver "converges" far out, where the Hessian is small but not null and
    # the Newton step long: neither certificate holds.  span(e1) has index 0 and no
    # complement splits the pi/4 line, so the case stays open
    meas = lines_measure([0.0, np.pi / 2, np.pi / 4], weights=[0.5, 0.25, 0.25])
    code, doc = run_diagnose(tmp_path, meas)
    assert code == 4 and doc["verdict"] == "inconclusive"
    assert doc["min_index"] == 0.0 and doc["complement_ok"] is False
    assert doc["witness"]["dim"] == 1
    assert same_subspace(np.array(doc["witness"]["basis"]), np.eye(2)[:, :1])
    assert NULL_HESSIAN < doc["lambda_min"] < UNIQUE_HESSIAN and doc["slope"] is None
    assert "route" not in doc and "truncated" not in doc


def test_open_route_on_planes_sharing_a_line(tmp_path):
    # five planes of R^5, two of which share a line: the line has index 2/5 - 2/5 = 0.
    # The solve converges with a Hessian that is small but not null, so no certificate
    # holds; the flags of its least eigenvector mostly hold the shared line
    held = 0
    for seed in range(8):
        pts = np.random.default_rng(seed).standard_normal((5, 5, 2))
        pts[1, :, 0] = pts[0, :, 0]
        code, doc = run_diagnose(tmp_path, Empirical(pts), f"shared{seed}")
        assert code == 4 and doc["verdict"] == "inconclusive", seed
        assert doc["min_index"] >= -INDEX_TOL and doc["complement_ok"] is False, seed
        assert NULL_HESSIAN < doc["lambda_min"] < UNIQUE_HESSIAN, seed
        witness = np.array(doc["witness"]["basis"])
        if same_subspace(witness, pts[0, :, :1]):
            held += 1
            assert doc["min_index"] == 0.0 and doc["witness"]["provenance"] == "eigen_flag"
    assert held >= 7


def test_open_route_when_the_proofs_fall_within_tol():
    # with tol 1/2 neither a deficient span (index -1/3) nor an escape (slope -0.14)
    # proves nonexistence; the case is open, and the atom spans are evaluated too
    planar = planar_lines_in_3d(np.random.default_rng(44))
    report = diagnose(planar, tol=0.5)
    assert report.verdict == "inconclusive" and report.scanned == planar.n + 1
    assert report.min_index == pytest.approx(-1 / 3) and report.witness.dim == 2
    escape = lines_measure([0.0, np.pi / 2], weights=[0.7, 0.3])
    report = diagnose(escape, tol=0.5)
    assert report.verdict == "inconclusive" and -0.5 <= report.slope < 0
    assert report.min_index == pytest.approx(-0.2) and report.lambda_min is None


def test_no_ge_routes_name_a_negative_witness(tmp_path):
    # a deficient span: the span is the witness, with its own index
    code, doc = run_diagnose(tmp_path, planar_lines_in_3d(np.random.default_rng(44)), "planar")
    assert code == 2 and doc["verdict"] == "no_ge"
    assert doc["witness"]["dim"] == 2 and doc["scanned"] == 1
    assert doc["min_index"] == pytest.approx(-1 / 3)
    # an escape: the flag's slope is negative and its subspace of least index is the plane
    for seed, n in ((0, 4), (1, 6), (2, 9)):
        meas = no_ge_lines(seed, n)
        code, doc = run_diagnose(tmp_path, meas, f"lines{seed}")
        assert code == 2 and doc["verdict"] == "no_ge"
        assert doc["slope"] < 0 and doc["min_index"] < 0 and doc["lambda_min"] is None
        plane = np.array(doc["witness"]["basis"])
        assert doc["witness"]["provenance"] == "eigen_flag"
        in_plane = np.linalg.svd(meas.points[:-1, :, 0].T)[0][:, :2]
        assert same_subspace(plane, in_plane)
        assert doc["min_index"] == existence_index(meas, plane)


def test_estimate_reports_the_escape_slope(tmp_path):
    meas = no_ge_lines(3, 6)
    path = tmp_path / "lines.json"
    write_measure_json(path, meas)
    assert main(["estimate", "--input", str(path), "--out", str(tmp_path / "out")]) == 2
    doc = json.loads((tmp_path / "out" / "report.json").read_text())
    result = fixed_point_solve(meas)
    assert doc["slope"] == result.slope < 0
    assert result.slope == pytest.approx(
        0.5 * sum(a * existence_index(meas, V) for a, V in result.boundary.pairs))
    assert fixed_point_solve(lines_measure([0.0, 1.0, 2.0])).slope is None


def test_unique_route_report_fields(tmp_path):
    meas = Empirical(gaussian_points(np.random.default_rng(8), np.eye(3), 2, 60))
    code, doc = run_diagnose(tmp_path, meas)
    assert code == 0 and doc["verdict"] == "unique"
    assert doc["lambda_min"] >= UNIQUE_HESSIAN and doc["slope"] is None
    # every atom span is evaluated, and none has index <= tol
    assert doc["scanned"] == meas.n
    assert doc["min_index"] == existence_index(meas, meas.points).min() > 0
    assert doc["witness"] is None and doc["zeros"] == []
