"""The whitened-Gram kernel against per-atom reference loops, and where validation runs."""

import importlib

import numpy as np
import pytest

import grassmann_scatter
from grassmann_scatter import SolverOptions, fixed_point_solve, random_scatter, sym_sqrt
from grassmann_scatter.grassmann import _logdet_ratio, _pi_matrices, _projectors, _whiten
from grassmann_scatter.likelihood import _defect, _weighted_kernel_sum
from helpers import (
    conditioned_atoms,
    max_mixed_err,
    random_measure,
    ref_kernel_sum,
    ref_logdet_ratios,
    ref_pi_matrices,
    ref_residual,
    ref_whitened_projectors,
    scatter_with_condition,
)

KERNEL_TOL = 1e-12          # mixed error against the reference loop, well-conditioned Sigma
FACTOR_TOL = 1e-14          # residual with the Cholesky factor against the square root
EPS = np.finfo(float).eps


def conditioning_tol(base: float, cond: float) -> float:
    """Tolerance at a Sigma of eigenvalue ratio `cond`.

    Both the kernel and the reference loop solve against Sigma, so each is
    only accurate to ~eps * cond; 64 eps cond is the slack ``check_scatter``
    already grants a cond-conditioned determinant.  For cond = 10 this is
    below `base`, so `base` applies unchanged.
    """
    return max(base, 64.0 * EPS * cond)


SHAPES = [(2, 1), (3, 2), (5, 2), (10, 3)]


@pytest.mark.parametrize("m,r", SHAPES)
@pytest.mark.parametrize("uniform", [True, False])
@pytest.mark.parametrize("cond", [10.0, 1e6])
def test_kernel_matches_reference_loop(m, r, uniform, cond):
    rng = np.random.default_rng(1000 * m + 10 * r + int(uniform) + int(np.log10(cond)))
    tol = conditioning_tol(KERNEL_TOL, cond)
    ftol = conditioning_tol(FACTOR_TOL, cond)
    n = 30
    for _ in range(5):
        Sigma = scatter_with_condition(rng, m, cond)
        points = conditioned_atoms(rng, n, m, r)
        w = np.full(n, 1.0 / n) if uniform else 0.2 + rng.random(n)
        w = w / w.sum()
        L = np.linalg.cholesky(Sigma)
        g = sym_sqrt(Sigma)

        Th, G = _whiten(points, L)
        assert max_mixed_err(_logdet_ratio(points, L), ref_logdet_ratios(points, Sigma)) <= tol
        assert max_mixed_err(_pi_matrices(points, L), ref_pi_matrices(points, Sigma)) <= tol
        assert max_mixed_err(_projectors(Th, G), ref_whitened_projectors(points, L)) <= tol
        assert max_mixed_err(_projectors(*_whiten(points, g)),
                             ref_whitened_projectors(points, g)) <= tol

        M, S = _weighted_kernel_sum(points, w, L)
        assert max_mixed_err(S, ref_kernel_sum(points, w, Sigma)) <= tol
        assert max_mixed_err(_weighted_kernel_sum(points, w, g)[1], S) <= tol
        res = _defect(M, r)
        assert max_mixed_err(res, ref_residual(points, w, Sigma)) <= tol
        # the residual is whitening-invariant: Cholesky factor or square root
        assert abs(res - _defect(_weighted_kernel_sum(points, w, g)[0], r)) <= ftol


def _package_namespaces():
    names = ["manifold", "grassmann", "likelihood", "estimator", "diagnostics",
             "asymptotics", "io", "cli"]
    return [grassmann_scatter] + [
        importlib.import_module(f"grassmann_scatter.{name}") for name in names
    ]


def test_fixed_point_validates_once_per_solve(monkeypatch):
    calls = []
    original = grassmann_scatter.manifold.check_scatter

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    for ns in _package_namespaces():
        if hasattr(ns, "check_scatter"):
            monkeypatch.setattr(ns, "check_scatter", counted)
    rng = np.random.default_rng(12)
    meas = random_measure(rng, 3, 2, 25)
    start = random_scatter(3, rng)
    result = fixed_point_solve(meas, Sigma0=start, options=SolverOptions(tol=1e-14))
    assert result.converged
    assert result.iterations >= 30
    assert len(calls) <= 1


@pytest.mark.parametrize("m,r", [(10, 3), (3, 1), (4, 2)])
def test_kernel_sum_factors_no_batch_of_m_by_m_matrices(monkeypatch, m, r):
    seen = []

    def recording(fn):
        def wrapper(*args, **kwargs):
            seen.extend(np.shape(a) for a in list(args) + list(kwargs.values())
                        if isinstance(a, np.ndarray))
            return fn(*args, **kwargs)
        return wrapper

    for name in np.linalg.__all__:
        fn = getattr(np.linalg, name)
        if callable(fn) and not isinstance(fn, type):
            monkeypatch.setattr(np.linalg, name, recording(fn))
    rng = np.random.default_rng(m + r)
    points = rng.standard_normal((50, m, r))
    L = np.linalg.cholesky(random_scatter(m, rng))
    seen.clear()
    _weighted_kernel_sum(points, np.full(50, 0.02), L)
    assert seen, "the kernel made no numpy.linalg call"
    batched_square = [s for s in seen if len(s) >= 3 and s[-2:] == (m, m)]
    assert batched_square == []
