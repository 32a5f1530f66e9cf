"""The Gram-determinant rank screen against the svd-only rank test: the atom ranks
(``_rank_deficient``, ``Empirical``, ``check_basis``, ``dim_intersection``) and the span
check decide exactly as the svd, raise the same messages and witnesses, and make no
svd call on data the screen certifies."""

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grassmann_scatter import DomainError, Empirical, ExistenceError, check_basis, dim_intersection
from grassmann_scatter.estimator import _check_span
from grassmann_scatter.grassmann import RANK_TOL, _rank_deficient
from helpers import ref_rank_deficient, ref_span_error
from test_solver_loop import _record_linalg

# the smallest singular value over the largest: exactly zero (a column that is a
# combination of the others), at 1e-3 and 1e3 times the svd's cutoff, near and above the
# screen's own reach (1e-5), and well conditioned
RATIOS = [0.0, 1e-3 * RANK_TOL, 1e3 * RANK_TOL, 1e-6, 1e-5, 1e-4, 1e-2, 1.0]
# entries scaled far from one: from 1e-154 to 1e-162 the Gram's products are subnormal
# (at 1e-154 its trace is still normal), at 1e+-200 the Gram over- or underflows
SCALES = [1e-200, 1e-160, 1e-155, 1e-154, 1e-150, 1e-75, 1.0, 1e75, 1e150, 1e200]
KINDS = st.sampled_from(["zero"] + RATIOS)
SETTINGS = settings(max_examples=150, deadline=None, derandomize=True)

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")    # no overflow reaches the user


def _tall(rng, p: int, k: int, kind, scale: float) -> np.ndarray:
    """A p x k matrix (k <= p) whose singular values run from scale down to kind * scale;
    kind 0.0 makes the last column a combination of the others, "zero" all zeros."""
    if kind == "zero":
        return np.zeros((p, k))
    if kind == 0.0:
        X = rng.standard_normal((p, k))
        X[:, -1] = X[:, :-1] @ rng.standard_normal(k - 1)     # a line: a zero column
        return scale * X
    Q1, _ = np.linalg.qr(rng.standard_normal((p, k)))
    Q2, _ = np.linalg.qr(rng.standard_normal((k, k)))
    s = np.sort(rng.uniform(kind, 1.0, k))[::-1]
    s[0], s[-1] = 1.0, kind
    return scale * (Q1 * s) @ Q2.T


def _atoms(seed: int, m: int, d: int, kinds, scale: float) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return np.stack([_tall(rng, m, d, kind, scale) for kind in kinds])


@SETTINGS
@given(seed=st.integers(0, 2**32 - 1), m=st.integers(2, 7), d=st.integers(1, 7),
       kinds=st.lists(KINDS, min_size=1, max_size=6), scale=st.sampled_from(SCALES))
def test_atom_ranks_decide_as_the_svd(seed, m, d, kinds, scale):
    d = min(d, m)
    X = _atoms(seed, m, d, kinds, scale)
    ref = ref_rank_deficient(X)
    assert np.array_equal(_rank_deficient(X), ref)
    for Xi, bad in zip(X, ref):
        assert bool(_rank_deficient(Xi)) == bad
    if d < m:
        if ref.any():
            with pytest.raises(DomainError) as exc:
                Empirical(X)
            assert str(exc.value) == f"rank-deficient atoms at indices {np.flatnonzero(ref)}"
            with pytest.raises(DomainError, match="^basis is rank deficient$"):
                check_basis(X[np.flatnonzero(ref)[0]])
        else:
            assert Empirical(X).points is not None


@pytest.mark.parametrize("scale", [1e-154, 1e-155, 1e-157, 1e-160, 1e-162])
def test_a_subnormal_gram_is_never_certified(scale):
    # a column (a row of the span's columns) twice another: its Gram rounds to a few ulps
    # of a subnormal, whose det can look far from zero; the svd, which rescales, calls it
    # deficient
    rng = np.random.default_rng(0)
    x = scale * rng.standard_normal((200, 3, 1))
    X = np.concatenate([x, 2 * x], axis=-1)
    assert _rank_deficient(X).all() and ref_rank_deficient(X).all()
    points = X.reshape(200, 3, 2, 1)               # 200 datasets of 3 lines in a plane's line
    _assert_span_as_reference(points)
    for dataset in points:
        _assert_span_as_reference(dataset)


@SETTINGS
@given(seed=st.integers(0, 2**32 - 1), m=st.integers(2, 6), kind=KINDS,
       scale=st.sampled_from(SCALES))
def test_square_bases_in_dim_intersection(seed, m, kind, scale):
    rng = np.random.default_rng(seed)
    XU = _tall(rng, m, m, kind, scale)
    XV = rng.standard_normal((m, 1))
    if ref_rank_deficient(XU):
        with pytest.raises(DomainError, match="rank-deficient basis"):
            dim_intersection(XU, XV)
    else:
        assert dim_intersection(XU, XV) == 1


def _span_points(seed: int, n: int, m: int, r: int, kinds, scale: float) -> np.ndarray:
    """A stack (len(kinds), n, m, r) of datasets whose m x nr columns have the kinds'
    singular-value ratios (random columns where n r < m: such a span is deficient)."""
    rng = np.random.default_rng(seed)
    if n * r < m:
        return scale * rng.standard_normal((len(kinds), n, m, r))
    cols = np.stack([_tall(rng, n * r, m, kind, scale).T for kind in kinds])   # (B, m, nr)
    return cols.reshape(len(kinds), m, n, r).swapaxes(1, 2)


def _assert_span_as_reference(points):
    ref = ref_span_error(points)
    if ref is None:
        _check_span(points)
        return
    with pytest.raises(ExistenceError) as exc:
        _check_span(points)
    message, witness = ref
    assert str(exc.value) == message
    assert exc.value.witness.shape == witness.shape
    assert exc.value.witness.tobytes() == witness.tobytes()


@SETTINGS
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 6), m=st.integers(2, 6),
       r=st.integers(1, 5), kinds=st.lists(KINDS, min_size=1, max_size=4),
       scale=st.sampled_from(SCALES))
def test_span_check_raises_as_the_svd(seed, n, m, r, kinds, scale):
    r = min(r, m - 1)
    points = _span_points(seed, n, m, r, kinds, scale)
    _assert_span_as_reference(points)               # the stack: its first deficient dataset
    for dataset in points:
        _assert_span_as_reference(dataset)


@pytest.mark.parametrize("seed", range(4))
def test_span_check_of_a_stack_as_in_the_replications(seed):
    # (B, n, m, r) = (5, 25, 3, 2): certified datasets with one near-deficient and one
    # deficient dataset among them, anywhere in the stack
    rng = np.random.default_rng(seed)
    kinds = [1.0] * 5
    kinds[rng.integers(5)] = 1e3 * RANK_TOL
    points = _span_points(seed, 25, 3, 2, kinds, 1.0)
    _assert_span_as_reference(points)
    points[rng.integers(5), :, 2, :] = 0.0          # a dataset inside a plane
    _assert_span_as_reference(points)


@pytest.mark.parametrize("n, m, r", [(5000, 10, 3), (1600, 3, 2), (5, 5, 2), (2, 4, 3)])
def test_certified_data_make_no_svd_call(monkeypatch, n, m, r):
    points = np.random.default_rng(0).standard_normal((n, m, r))
    stack = np.random.default_rng(1).standard_normal((5, 25, 3, 2))
    calls = _record_linalg(monkeypatch)
    Empirical(points)
    _check_span(points)
    _check_span(stack)
    assert Counter(name for _, name, _ in calls) == {"det": 3}
