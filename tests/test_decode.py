"""The dataset decoder: `read_measure_json` builds the (n, m, r) array in one pass with
the cyclic collector paused, bit for bit as `json.load` + `np.asarray` decode it, and
rejects every malformed file with DomainError."""

import gc
import json

import numpy as np
import pytest

from grassmann_scatter import DomainError, Empirical
from grassmann_scatter.cli import main
from grassmann_scatter.io import read_measure_json, write_measure_json
from helpers import random_measure, ref_decode_measure, three_symmetric_lines

# every entry kind a JSON number can decode to: ints (one beyond 2**53), signed zero,
# subnormals, the largest magnitudes and 17-digit reprs
SPECIAL = [3, -7, 2**53 + 1, 10**20, -0.0, 0.0, 5e-324, 2.2250738585072014e-308 / 7,
           1e308, -1e308, 0.30000000000000004, 0.1, 1 / 3, 2.718281828459045]


def assert_bit_identical(a, b):
    assert a.dtype == b.dtype == np.float64 and a.shape == b.shape
    assert a.tobytes() == b.tobytes()


def assert_matches_reference(path):
    meas = read_measure_json(path)
    points, weights = ref_decode_measure(path)
    assert_bit_identical(meas.points, points)
    if weights is None:
        assert_bit_identical(meas.weights, np.full(len(points), 1.0 / len(points)))
    else:
        assert_bit_identical(meas.weights, weights)
    return meas


def dump(path, doc):
    with open(path, "w") as fh:
        json.dump(doc, fh)
    return path


# ---------------------------------------------------------------------------
# accepted files decode bit for bit as the reference does


@pytest.mark.parametrize("shape", [(40, 10, 3), (60, 3, 2), (7, 2, 1)])
def test_json_dump_layout_matches_reference(tmp_path, shape):
    # the layout the benchmark writes: json.dump of points.tolist(), no weights
    n, m, r = shape
    points = np.random.default_rng(n * m).standard_normal(shape)
    meas = assert_matches_reference(
        dump(tmp_path / "bulk.json", {"m": m, "r": r, "points": points.tolist()}))
    assert_bit_identical(meas.points, points)


def test_written_measure_matches_reference(tmp_path):
    meas = random_measure(np.random.default_rng(71), 4, 2, 30, uniform=False)
    path = tmp_path / "data.json"
    write_measure_json(path, meas)
    back = assert_matches_reference(path)
    assert_bit_identical(back.points, meas.points)
    assert_bit_identical(back.weights, meas.weights)


@pytest.mark.parametrize("weighted", [False, True])
def test_special_values_match_reference(tmp_path, weighted):
    # lines of R^2, each special value beside a 1 so that every atom has rank 1
    points = [[[v], [1.0]] for v in SPECIAL] + [[[1.0], [v]] for v in SPECIAL]
    doc = {"m": 2, "r": 1, "points": points}
    if weighted:
        w = np.random.default_rng(72).random(len(points))
        doc["weights"] = (w / w.sum()).tolist()
    meas = assert_matches_reference(dump(tmp_path / "special.json", doc))
    assert np.signbit(meas.points[4, 0, 0]) and not np.signbit(meas.points[5, 0, 0])


def test_non_ascii_utf8_text_decodes(tmp_path):
    doc = {"m": 2, "r": 1, "points": [[[1.0], [0.0]], [[0.0], [1.0]]], "note": "Grassmann é ∑"}
    path = tmp_path / "note.json"
    path.write_bytes(json.dumps(doc, ensure_ascii=False).encode("utf-8"))
    assert_matches_reference(path)


# ---------------------------------------------------------------------------
# malformed files raise DomainError


LINES = [[[1.0], [0.0]], [[0.0], [1.0]], [[1.0], [1.0]]]
MALFORMED = {
    "ragged atoms": {"m": 2, "r": 1, "points": [[[1.0], [0.0]], [[0.0], [1.0], [2.0]]]},
    "ragged rows": {"m": 2, "r": 1, "points": [[[1.0], [0.0]], [[0.0, 3.0], [1.0]]]},
    "extra nesting": {"m": 2, "r": 1, "points": [[[[1.0]], [[0.0]]], [[[0.0]], [[1.0]]]]},
    "missing nesting": {"m": 2, "r": 1, "points": [[1.0, 0.0], [0.0, 1.0]]},
    "flat points": {"m": 2, "r": 1, "points": [1.0, 0.0, 0.0, 1.0]},
    "scalar points": {"m": 2, "r": 1, "points": 3.0},
    "empty points": {"m": 2, "r": 1, "points": []},
    "wrong m": {"m": 3, "r": 1, "points": LINES},
    "wrong r": {"m": 2, "r": 2, "points": LINES},
    "null entry": {"m": 2, "r": 1, "points": [[[None], [0.0]], [[0.0], [1.0]]]},
    # json.load + np.asarray parsed a numeric string into its float
    "numeric string entry": {"m": 2, "r": 1, "points": [[["1.5"], [0.0]], [[0.0], [1.0]]]},
    "text entry": {"m": 2, "r": 1, "points": [[["x"], [0.0]], [[0.0], [1.0]]]},
    "string atoms": {"m": 2, "r": 1, "points": ["12", "34"]},
    "object atom": {"m": 2, "r": 1, "points": [{"1": [1.0], "2": [0.0]}, [[0.0], [1.0]]]},
    "string weights": {"m": 2, "r": 1, "points": LINES, "weights": "abc"},
    "null weight": {"m": 2, "r": 1, "points": LINES, "weights": [0.5, None, 0.5]},
    "huge int entry": {"m": 2, "r": 1, "points": [[[10**400], [0.0]], [[0.0], [1.0]]]},
    "m float": {"m": 2.9, "r": 1, "points": LINES},
    "m integral float": {"m": 2.0, "r": 1, "points": LINES},
    "m string": {"m": "2", "r": 1, "points": LINES},
    "r bool": {"m": 2, "r": True, "points": LINES},
    "r float": {"m": 2, "r": 1.5, "points": LINES},
    "missing r": {"m": 2, "points": LINES},
    "not an object": [2, 1, LINES],
}


@pytest.mark.parametrize("name", list(MALFORMED))
def test_malformed_dataset_raises_domain_error(tmp_path, name):
    path = dump(tmp_path / "bad.json", MALFORMED[name])
    with pytest.raises(DomainError):
        read_measure_json(path)


@pytest.mark.parametrize("text", [b"{nope", b"[" * 100_000, b'\xef\xbb\xbf{"m": 2}',
                                  b'{"m": 2, "r": 1, "points": [], "note": "\xff"}'],
                         ids=["broken", "deep nesting", "byte-order mark", "not utf-8"])
def test_undecodable_text_raises_domain_error(tmp_path, text):
    path = tmp_path / "bad.json"
    path.write_bytes(text)
    with pytest.raises(DomainError):
        read_measure_json(path)


@pytest.mark.parametrize("doc", [
    {"m": 2, "r": 1, "points": [[[True], [False]], [[0.0], [1.0]], [[1.0], [1.0]]]},
    {"m": 2, "r": 1, "points": LINES, "weights": [0.5, False, 0.5]},
    {"m": 2, "r": 1, "points": LINES, "weights": [True, 0.0, 0.0]},
], ids=["points", "weights", "weights true"])
def test_cli_rejects_json_booleans_with_exit_3(tmp_path, capsys, doc):
    # they were read as 1.0 / 0.0
    path = dump(tmp_path / "bools.json", doc)
    for command in ("estimate", "diagnose"):
        out = tmp_path / command
        assert main([command, "--input", str(path), "--out", str(out)]) == 3
        assert "not true or false" in capsys.readouterr().err
        assert not out.exists()


def test_text_with_u_or_l_outside_the_entries_loads(tmp_path):
    # the exact test of every entry runs on this file ("u" and "l" in the note) and
    # finds no boolean
    doc = {"m": 2, "r": 1, "points": LINES, "weights": [0.25, 0.5, 0.25],
           "note": "full rule: null"}
    meas = read_measure_json(dump(tmp_path / "note.json", doc))
    assert_bit_identical(meas.points, np.array(LINES))
    assert_bit_identical(meas.weights, np.array([0.25, 0.5, 0.25]))


def test_cli_rejects_non_utf8_dataset_with_exit_3(tmp_path, capsys):
    path = tmp_path / "latin1.json"
    path.write_bytes(b'{"m": 2, "r": 1, "points": [[[1.0], [0.0]], [[0.0], [1.0]], '
                     b'[[1.0], [1.0]]], "note": "\xff"}')
    for command in ("estimate", "diagnose"):
        out = tmp_path / command
        assert main([command, "--input", str(path), "--out", str(out)]) == 3
        assert "not UTF-8 JSON" in capsys.readouterr().err
        assert not out.exists()


# ---------------------------------------------------------------------------
# the collector


@pytest.fixture
def collector():
    """Restores the collector's state after the test."""
    enabled = gc.isenabled()
    yield
    (gc.enable if enabled else gc.disable)()


def test_collector_state_is_restored(tmp_path, collector):
    good = tmp_path / "good.json"
    write_measure_json(good, three_symmetric_lines())
    bad = dump(tmp_path / "bad.json", MALFORMED["ragged rows"])
    for enabled in (True, False):
        (gc.enable if enabled else gc.disable)()
        assert isinstance(read_measure_json(good), Empirical)
        assert gc.isenabled() is enabled
        with pytest.raises(DomainError):
            read_measure_json(bad)
        assert gc.isenabled() is enabled


def test_decoding_runs_no_collector_passes(tmp_path, collector):
    # json.load + np.asarray of this file run the collector dozens of times; the decoder
    # runs none while the tree is alive (at most one may follow, while Empirical checks
    # the arrays)
    gc.enable()
    points = np.random.default_rng(73).standard_normal((3000, 3, 2))
    path = dump(tmp_path / "big.json", {"m": 3, "r": 2, "points": points.tolist()})
    passes = []

    def count(phase, info):
        if phase == "start":
            passes.append(info["generation"])

    gc.collect()
    gc.callbacks.append(count)
    try:
        ref_decode_measure(path)
        reference = len(passes)
        passes.clear()
        read_measure_json(path)
    finally:
        gc.callbacks.remove(count)
    assert reference >= 10
    assert len(passes) <= 1
