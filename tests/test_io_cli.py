"""File formats and the command-line front end (exit codes, reports, replay)."""

import inspect
import json
import os
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

import grassmann_scatter
from grassmann_scatter import (
    DomainError,
    Empirical,
    SolverOptions,
    UsageError,
    check_scatter,
    diagnose,
)
from grassmann_scatter import cli
from grassmann_scatter.cli import main
from grassmann_scatter.diagnostics import INDEX_TOL
from grassmann_scatter.io import (
    read_matrix_csv,
    read_measure_json,
    write_matrix_csv,
    write_measure_json,
    write_report_json,
)
from helpers import (
    gaussian_points,
    lines_measure,
    orthogonal_lines,
    planar_lines_in_3d,
    random_measure,
    three_symmetric_lines,
)


def write_dataset(path, meas):
    write_measure_json(path, meas)
    return str(path)


def load_json(path):
    with open(path) as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# file formats


def test_matrix_csv_round_trip(tmp_path):
    rng = np.random.default_rng(201)
    M = rng.standard_normal((3, 4))
    path = tmp_path / "m.csv"
    write_matrix_csv(path, M)
    assert np.array_equal(read_matrix_csv(path), M)


def test_matrix_csv_bytes_equal_savetxt(tmp_path):
    # the writer formats the rows itself; its bytes are np.savetxt's
    tiny = np.nextafter(0.0, 1.0)
    special = np.array([[np.nan, np.inf, -np.inf], [-0.0, 0.0, tiny],
                        [2.2e-308 / 3, 1e300, -1e-300], [1e-300, -1e300, 1.0 / 3.0]])
    rng = np.random.default_rng(202)
    cases = [np.array([[1.5, -2.0, 3.25, 0.0]]), np.array([[1.5], [-2.0], [3.25]]),
             np.array([0.5, -7.0, 1e-12]), special, special.T, rng.standard_normal((6, 4)),
             np.array([[3, 4]])]
    for k, M in enumerate(cases):
        ours, ref = tmp_path / f"ours{k}.csv", tmp_path / f"ref{k}.csv"
        write_matrix_csv(ours, M)
        np.savetxt(ref, M, delimiter=",")
        assert ours.read_bytes() == ref.read_bytes(), M


def test_json_writers_bytes_equal_json_dump(tmp_path):
    meas = Empirical(np.random.default_rng(203).standard_normal((4, 3, 2)))
    report = {
        "status": "converged",
        "residual": np.float64(1.5e-13),
        "iterations": np.int64(7),
        "half": np.float32(0.25),
        "estimate": np.eye(2) / 3.0,
        "trace": [[1, 0.5, np.float64(-0.0)], (2, np.nan, np.inf)],
        "t": (1, np.int64(2)),
        "boundary": None,
        "nested": {"levels": [np.arange(3), {"deep": np.ones((2, 1, 2))}], 3: None},
        "text": "tab\t \u00e9",
    }
    plain = {
        "status": "converged",
        "residual": 1.5e-13,
        "iterations": 7,
        "half": 0.25,
        "estimate": (np.eye(2) / 3.0).tolist(),
        "trace": [[1, 0.5, -0.0], [2, np.nan, np.inf]],
        "t": [1, 2],
        "boundary": None,
        "nested": {"levels": [[0, 1, 2], {"deep": np.ones((2, 1, 2)).tolist()}], 3: None},
        "text": "tab\t \u00e9",
    }
    ours, ref = tmp_path / "ours.json", tmp_path / "ref.json"
    write_report_json(ours, report)
    with open(ref, "w") as fh:
        json.dump(plain, fh, indent=2)
    assert ours.read_bytes() == ref.read_bytes()

    write_measure_json(ours, meas)
    with open(ref, "w") as fh:
        json.dump({"m": 3, "r": 2, "points": meas.points.tolist(),
                   "weights": meas.weights.tolist()}, fh, indent=2)
    assert ours.read_bytes() == ref.read_bytes()

    # reports are plain dicts: a dataclass is not serialized, and no file is left
    with pytest.raises(TypeError):
        write_report_json(tmp_path / "meas.json", {"meas": meas})
    assert not (tmp_path / "meas.json").exists()


def test_matrix_csv_single_row_is_two_dimensional(tmp_path):
    path = tmp_path / "row.csv"
    path.write_text("1.0,2.0,3.0\n")
    assert read_matrix_csv(path).shape == (1, 3)


def test_matrix_csv_malformed_raises(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("1.0,2.0\n3.0,oops\n")
    with pytest.raises(DomainError):
        read_matrix_csv(path)


@pytest.mark.parametrize("shape", [(3, 3), (1, 4), (4, 1), (1, 1)])
def test_matrix_csv_reads_savetxt_files_bit_for_bit(tmp_path, shape):
    # every entry is parsed by float: the writer's %.18e and savetxt's %.18e and %.17g
    # give back the array and np.loadtxt's bits; one row or one column stays 2-D
    rng = np.random.default_rng(202)
    M = rng.standard_normal(shape) * 10.0 ** rng.integers(-300, 300, shape)
    M.flat[0] = np.nextafter(0.0, 1.0)
    path = tmp_path / "m.csv"
    for fmt in ("%.18e", "%.17g"):
        np.savetxt(path, M, delimiter=",", fmt=fmt)
        got = read_matrix_csv(path)
        assert got.shape == shape and np.array_equal(got, M)
        assert np.array_equal(got, np.loadtxt(path, delimiter=",", ndmin=2))
    write_matrix_csv(path, M)
    assert np.array_equal(read_matrix_csv(path), M)


def test_matrix_csv_skips_comments_and_blank_lines(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("# header\n1.0, 2.0  # note\n\n 3.0 ,4.0\n")
    got = read_matrix_csv(path)
    assert np.array_equal(got, [[1.0, 2.0], [3.0, 4.0]])
    assert np.array_equal(got, np.loadtxt(path, delimiter=",", ndmin=2))


@pytest.mark.parametrize("text", ["", "\n\n", "# header only\n", "1.0,2.0\n3.0\n",
                                  "1.0,2.0,\n", "1.0;2.0\n", "1.0,two\n"])
def test_matrix_csv_rejects_ragged_empty_and_non_numeric(tmp_path, text):
    path = tmp_path / "bad.csv"
    path.write_text(text)
    with pytest.raises(DomainError, match="malformed CSV matrix"):
        read_matrix_csv(path)
    assert main(["lln", "--sigma", str(path), "--r", "1", "--ns", "20", "--reps", "1",
                 "--out", str(tmp_path / "out")]) == 3


def test_scatter_csv_validates_the_matrix(tmp_path):
    # a scatter file is read as a matrix and checked once, by check_scatter
    good = tmp_path / "good.csv"
    write_matrix_csv(good, np.diag([2.0, 0.5]))
    assert np.allclose(check_scatter(read_matrix_csv(good), name=str(good)),
                       np.diag([2.0, 0.5]))
    for name, M in (("indef.csv", np.diag([1.0, -1.0])), ("det.csv", np.diag([2.0, 1.0]))):
        path = tmp_path / name
        write_matrix_csv(path, M)
        with pytest.raises(DomainError, match=name):
            check_scatter(read_matrix_csv(path), name=str(path))


def test_measure_json_round_trip(tmp_path):
    meas = random_measure(np.random.default_rng(202), 3, 2, 5, uniform=False)
    path = tmp_path / "data.json"
    write_measure_json(path, meas)
    back = read_measure_json(path)
    assert back.m == 3 and back.r == 2 and back.n == 5
    assert np.array_equal(back.points, meas.points)
    assert np.array_equal(back.weights, meas.weights)


def test_measure_json_errors(tmp_path):
    bad_json = tmp_path / "bad.json"
    bad_json.write_text("{this is not json")
    with pytest.raises(DomainError):
        read_measure_json(bad_json)

    missing = tmp_path / "missing.json"
    missing.write_text(json.dumps({"m": 2, "points": [[[1.0], [0.0]]]}))
    with pytest.raises(DomainError):
        read_measure_json(missing)

    shape = tmp_path / "shape.json"
    shape.write_text(json.dumps({"m": 3, "r": 1, "points": [[[1.0], [0.0]]]}))
    with pytest.raises(DomainError):
        read_measure_json(shape)

    deficient = tmp_path / "deficient.json"
    deficient.write_text(
        json.dumps({"m": 3, "r": 2, "points": [[[1.0, 1.0], [1.0, 1.0], [0.0, 0.0]]]})
    )
    with pytest.raises(DomainError):
        read_measure_json(deficient)


# ---------------------------------------------------------------------------
# estimate command


def test_cli_estimate_three_lines_gives_identity(tmp_path):
    data = write_dataset(tmp_path / "lines.json", three_symmetric_lines())
    out = tmp_path / "out"
    assert main(["estimate", "--input", data, "--out", str(out)]) == 0
    estimate = read_matrix_csv(out / "estimate.csv")
    assert np.max(np.abs(estimate - np.eye(2))) <= 1e-8
    report = load_json(out / "report.json")
    assert report["status"] == "converged"
    assert report["residual"] <= 1e-12
    assert (report["m"], report["r"], report["n"]) == (2, 1, 3)
    assert report["iterations"] >= 0 and len(report["trace"]) >= 1
    assert (out / "replay.json").exists()


def test_cli_estimate_with_start_scatter(tmp_path):
    data = write_dataset(tmp_path / "lines.json", three_symmetric_lines())
    start = tmp_path / "start.csv"
    write_matrix_csv(start, np.diag([2.0, 0.5]))
    out = tmp_path / "out"
    assert main(["estimate", "--input", data, "--start", str(start), "--out", str(out)]) == 0
    assert np.max(np.abs(read_matrix_csv(out / "estimate.csv") - np.eye(2))) <= 1e-5


def test_cli_estimate_planar_data_exits_2_with_witness(tmp_path, capsys):
    data = write_dataset(tmp_path / "planar.json", planar_lines_in_3d(np.random.default_rng(42)))
    out = tmp_path / "out"
    assert main(["estimate", "--input", data, "--out", str(out)]) == 2
    assert "error:" in capsys.readouterr().err
    report = load_json(out / "report.json")
    assert report["status"] == "no_ge"
    assert report["witness"] is not None
    W = np.asarray(report["witness"])
    assert W.shape[0] == 3 and np.linalg.matrix_rank(W) == 2
    assert not (out / "estimate.csv").exists()


def test_cli_estimate_budget_exhausted_exits_4(tmp_path):
    meas = random_measure(np.random.default_rng(203), 2, 1, 6)
    data = write_dataset(tmp_path / "data.json", meas)
    out = tmp_path / "out"
    code = main(["estimate", "--input", data, "--max-iter", "1", "--tol", "1e-16",
                 "--out", str(out)])
    assert code == 4
    assert load_json(out / "report.json")["status"] not in ("converged", "no_ge")


def test_cli_estimate_malformed_inputs_exit_3(tmp_path, capsys):
    bad_csv = tmp_path / "start.csv"
    bad_csv.write_text("1.0,2.0\n3.0,oops\n")
    data = write_dataset(tmp_path / "lines.json", three_symmetric_lines())
    out = tmp_path / "out"
    assert main(["estimate", "--input", data, "--start", str(bad_csv), "--out", str(out)]) == 3
    assert "error:" in capsys.readouterr().err

    bad_json = tmp_path / "bad.json"
    bad_json.write_text("{nope")
    assert main(["estimate", "--input", str(bad_json), "--out", str(out)]) == 3

    missing = tmp_path / "does-not-exist.json"
    assert main(["estimate", "--input", str(missing), "--out", str(out)]) == 3

    # a valid scatter of the wrong dimension
    wrong_m = tmp_path / "start3.csv"
    write_matrix_csv(wrong_m, np.eye(3))
    assert main(["estimate", "--input", data, "--start", str(wrong_m), "--out", str(out)]) == 3
    assert "Sigma0 must be 2 x 2" in capsys.readouterr().err

    text_weights = load_json(data)
    text_weights["weights"] = "abc"
    bad_weights = tmp_path / "text_weights.json"
    bad_weights.write_text(json.dumps(text_weights))
    assert main(["estimate", "--input", str(bad_weights), "--out", str(out)]) == 3
    assert main(["diagnose", "--input", str(bad_weights), "--out", str(out)]) == 3


def test_cli_bad_start_exits_3_and_writes_nothing(tmp_path, capsys):
    # the library checks the start once, before the span: whatever the data (a spanning
    # set or one that misses a direction), a start that is not a 2 x 2 scatter exits 3
    # before the output directory is made, and the error names Sigma0, not the file
    starts = {"det.csv": np.diag([2.0, 1.0]), "indef.csv": np.diag([1.0, -1.0]),
              "size.csv": np.eye(3)}
    data = {"lines": three_symmetric_lines(), "planar": lines_measure([0.3, 0.3, 0.3])}
    for name, M in starts.items():
        write_matrix_csv(tmp_path / name, M)
        for kind, meas in data.items():
            out = tmp_path / f"out-{name}-{kind}"
            argv = ["estimate", "--input", write_dataset(tmp_path / f"{kind}.json", meas),
                    "--start", str(tmp_path / name), "--out", str(out)]
            assert main(argv) == 3, (name, kind)
            err = capsys.readouterr().err
            assert "Sigma0" in err and name not in err, err
            assert not out.exists(), (name, kind)


@pytest.mark.parametrize("command", ["lln", "clt"])
def test_cli_experiment_m_contradicting_sigma_exits_3(tmp_path, capsys, command):
    # --m 5 beside a 3 x 3 --sigma ran at m = 3 while replay.json recorded m = 5
    sigma = tmp_path / "sigma.csv"
    write_matrix_csv(sigma, np.eye(3))
    out = tmp_path / "out"
    sizes = ["--ns", "20"] if command == "lln" else ["--n", "20", "--ref-mc", "50"]
    base = [command, "--sigma", str(sigma), "--r", "1", "--reps", "2"] + sizes
    assert main(base + ["--m", "5", "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert "--m 5" in err and "3-row" in err and "--sigma" in err, err
    assert not out.exists()
    assert main(base + ["--m", "3", "--out", str(out)]) == 0       # --m that agrees
    assert load_json(out / "replay.json")["options"]["m"] == 3
    # a bad --sigma is checked by the library, under the name sigma
    write_matrix_csv(sigma, np.diag([2.0, 1.0, 1.0]))
    assert main(base + ["--out", str(tmp_path / "bad")]) == 3
    err = capsys.readouterr().err
    assert "sigma is not unimodular" in err and "sigma.csv" not in err, err
    assert not (tmp_path / "bad").exists()


@pytest.mark.parametrize("bad", ["NaN", "Infinity", "-Infinity"])
def test_cli_non_finite_inputs_exit_3(tmp_path, capsys, bad):
    # json and float both parse these spellings into non-finite floats
    doc = load_json(write_dataset(tmp_path / "lines.json", three_symmetric_lines()))
    out = str(tmp_path / "out")
    bad_point = json.loads(json.dumps(doc))
    bad_point["points"][1][0][0] = bad
    bad_weight = json.loads(json.dumps(doc))
    bad_weight["weights"][2] = bad
    for k, variant in enumerate([bad_point, bad_weight]):
        path = tmp_path / f"bad{k}.json"
        path.write_text(json.dumps(variant).replace(f'"{bad}"', bad))
        assert main(["estimate", "--input", str(path), "--out", out]) == 3
        assert main(["diagnose", "--input", str(path), "--out", out]) == 3

    bad_csv = tmp_path / "bad.csv"
    bad_csv.write_text(f"1.0,0.0\n0.0,{bad}\n")
    good = write_dataset(tmp_path / "good.json", three_symmetric_lines())
    assert main(["estimate", "--input", good, "--start", str(bad_csv), "--out", out]) == 3
    assert main(["lln", "--sigma", str(bad_csv), "--r", "1", "--ns", "20", "--reps", "1",
                 "--out", out]) == 3
    assert main(["clt", "--sigma", str(bad_csv), "--r", "1", "--n", "20", "--reps", "1",
                 "--out", out]) == 3
    assert "non-finite" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# diagnose command


def test_cli_diagnose_exit_codes_cover_the_trichotomy(tmp_path):
    rng = np.random.default_rng(8)
    cases = [
        (Empirical(gaussian_points(rng, np.eye(3), 2, 60)), 0),   # unique
        (orthogonal_lines(), 1),                                  # limit
        (planar_lines_in_3d(np.random.default_rng(44)), 2),       # no estimate
        (lines_measure([0.0, np.pi / 2, np.pi / 4],
                       weights=[0.5, 0.25, 0.25]), 4),            # inconclusive
    ]
    for k, (meas, expected) in enumerate(cases):
        data = write_dataset(tmp_path / f"case{k}.json", meas)
        out = tmp_path / f"out{k}"
        assert main(["diagnose", "--input", data, "--out", str(out)]) == expected
        report = load_json(out / "report.json")
        assert "verdict" in report and "min_index" in report
        assert report["unique_sample_threshold"] == pytest.approx(
            meas.m**2 / (meas.r * (meas.m - meas.r))
        )


def test_cli_diagnose_limit_report_details(tmp_path):
    data = write_dataset(tmp_path / "ortho.json", orthogonal_lines())
    out = tmp_path / "out"
    assert main(["diagnose", "--input", data, "--out", str(out)]) == 1
    report = load_json(out / "report.json")
    assert report["verdict"] == "limit"
    assert report["complement_ok"] is True
    assert report["min_index"] == pytest.approx(0.0, abs=1e-12)
    assert len(report["zeros"]) >= 2
    assert report["witness"]["dim"] == 1
    assert report["scanned"] >= 2


# ---------------------------------------------------------------------------
# experiment commands


def test_cli_lln_low_power_and_non_monotone_warn(tmp_path):
    out = tmp_path / "out"
    code = main(["lln", "--m", "2", "--r", "1", "--ns", "40,41", "--reps", "2",
                 "--seed", "1", "--out", str(out)])
    assert code == 0
    doc = load_json(out / "lln.json")
    assert any(w.startswith("LOW_POWER") for w in doc["warnings"])
    assert any(w.startswith("WARN") for w in doc["warnings"])
    assert doc["ns"] == [40, 41] and doc["threads"] == 1
    assert len(doc["medians"]) == 2 and len(doc["quartiles"]) == 2
    assert doc["status_counts"] == [{"converged": 2}, {"converged": 2}]
    assert not any("did not converge" in w for w in doc["warnings"])
    assert read_matrix_csv(out / "distances.csv").shape == (2, 2)  # replicate rows


def test_cli_clt_low_power_smoke(tmp_path):
    out = tmp_path / "out"
    code = main(["clt", "--m", "2", "--r", "1", "--n", "80", "--reps", "10",
                 "--seed", "3", "--ref-mc", "2000", "--out", str(out)])
    assert code == 0
    doc = load_json(out / "clt.json")
    assert any(w.startswith("LOW_POWER") for w in doc["warnings"])
    assert doc["n"] == 80 and doc["reps"] == 10
    assert read_matrix_csv(out / "cov.csv").shape == (4, 4)
    assert read_matrix_csv(out / "ref.csv").shape == (4, 4)
    assert (out / "replay.json").exists()


def test_cli_experiments_count_non_converged_replications(tmp_path):
    # one iteration converges no replication: each is counted and the run warns
    out = tmp_path / "lln"
    code = main(["lln", "--m", "2", "--r", "1", "--ns", "30,40", "--reps", "3",
                 "--seed", "2", "--max-iter", "1", "--out", str(out)])
    assert code == 0
    doc = load_json(out / "lln.json")
    assert doc["status_counts"] == [{"max_iterations": 3}, {"max_iterations": 3}]
    assert doc["iteration_quantiles"] == [[1, 1, 1], [1, 1, 1]]
    assert "WARN: 6 of 6 replications did not converge" in doc["warnings"]

    out = tmp_path / "clt"
    code = main(["clt", "--m", "2", "--r", "1", "--n", "80", "--reps", "4", "--seed", "3",
                 "--ref-mc", "2000", "--max-iter", "1", "--out", str(out)])
    assert code == 0
    doc = load_json(out / "clt.json")
    assert doc["status_counts"] == {"max_iterations": 4}
    assert doc["iteration_quantiles"] == [1, 1, 1]
    assert "WARN: 4 of 4 replications did not converge" in doc["warnings"]


@pytest.mark.parametrize("argv", [
    ["lln", "--m", "5", "--r", "1", "--ns", "3,10", "--reps", "2"],
    ["clt", "--m", "5", "--r", "1", "--n", "3", "--reps", "2", "--ref-mc", "50"],
], ids=["lln", "clt"])
def test_cli_experiment_with_deficient_span_exits_2_and_writes_nothing(tmp_path, capsys, argv):
    # three lines cannot span R^5: the first replication's span check raises
    # ExistenceError, which the README maps to exit 2, before any output is written
    out = tmp_path / "out"
    assert main(argv + ["--seed", "1", "--threads", "1", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: atoms are contained in a proper subspace (dimension 3 of 5)")
    assert not out.exists()


@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_cli_gradcheck_default_seed_passes(tmp_path, m):
    out = tmp_path / "out"
    assert main(["gradcheck", "--m", str(m), "--trials", "5", "--out", str(out)]) == 0
    doc = load_json(out / "gradcheck.json")
    assert doc["passed"] is True
    assert set(doc["max_errors"]) == {"first_order", "second_order", "ray_normalization"}
    for key, tol in doc["tolerances"].items():
        assert doc["max_errors"][key] <= tol
    assert len(doc["rows"]) == (m - 1) * 5  # every rank, five trials each


@pytest.mark.parametrize("name, key", [("grad", "first_order"), ("hess_quadform", "second_order")])
def test_cli_gradcheck_fails_on_a_wrong_derivative(monkeypatch, tmp_path, name, key):
    # a derivative off by a relative 1e-3 is caught: exit 4 and "passed": false
    exact = getattr(cli, name)
    monkeypatch.setattr(cli, name, lambda *args: exact(*args) * (1.0 + 1e-3))
    out = tmp_path / "out"
    assert main(["gradcheck", "--m", "3", "--trials", "5", "--out", str(out)]) == 4
    doc = load_json(out / "gradcheck.json")
    assert doc["passed"] is False
    assert doc["max_errors"][key] > doc["tolerances"][key]


# ---------------------------------------------------------------------------
# replay, threading, and argument errors


def test_cli_replay_file_reproduces_outputs_bit_for_bit(tmp_path):
    argv = ["lln", "--m", "2", "--r", "1", "--ns", "30,60", "--reps", "3", "--seed", "9"]
    out1, out2 = tmp_path / "run1", tmp_path / "run2"
    assert main(argv + ["--out", str(out1)]) == 0
    assert main(argv + ["--out", str(out2)]) == 0
    assert (out1 / "lln.json").read_bytes() == (out2 / "lln.json").read_bytes()
    assert (out1 / "distances.csv").read_bytes() == (out2 / "distances.csv").read_bytes()

    # rebuild the command line from the recorded replay config alone
    opts = load_json(out1 / "replay.json")["options"]
    out3 = tmp_path / "run3"
    rebuilt = [
        "lln",
        "--m", str(opts["m"]),
        "--r", str(opts["r"]),
        "--ns", ",".join(str(n) for n in opts["ns"]),
        "--reps", str(opts["reps"]),
        "--seed", str(opts["seed"]),
        "--tol", str(opts["tol"]),
        "--max-iter", str(opts["max_iter"]),
        "--out", str(out3),
    ]
    assert main(rebuilt) == 0
    assert (out3 / "distances.csv").read_bytes() == (out1 / "distances.csv").read_bytes()
    assert (out3 / "lln.json").read_bytes() == (out1 / "lln.json").read_bytes()


def test_cli_replay_records_the_library_defaults(tmp_path):
    # the CLI's defaults are SolverOptions' and INDEX_TOL, not restated literals
    data = write_dataset(tmp_path / "lines.json", three_symmetric_lines())
    for command in ("estimate", "diagnose"):
        out = tmp_path / command
        assert main([command, "--input", data, "--out", str(out)]) == 0
        opts = load_json(out / "replay.json")["options"]
        if command == "estimate":
            assert (opts["tol"], opts["max_iter"]) == (SolverOptions().tol,
                                                      SolverOptions().max_iter) == (1e-12, 500)
        else:
            assert opts["tol"] == INDEX_TOL == 1e-9


def test_cli_threads_env_var_and_flag_precedence(tmp_path, monkeypatch):
    argv = ["lln", "--m", "2", "--r", "1", "--ns", "30", "--reps", "2", "--seed", "4"]
    out1 = tmp_path / "env"
    monkeypatch.setenv("GRASSMANN_SCATTER_THREADS", "2")
    assert main(argv + ["--out", str(out1)]) == 0
    doc = load_json(out1 / "lln.json")
    assert doc["threads"] == 2

    out2 = tmp_path / "flag"
    assert main(argv + ["--threads", "1", "--out", str(out2)]) == 0
    assert load_json(out2 / "lln.json")["threads"] == 1
    # worker count must not change the numbers
    assert load_json(out1 / "lln.json")["medians"] == load_json(out2 / "lln.json")["medians"]

    # a worker count below 1, from the flag or the environment, is a usage error
    for env in ("abc", "0", "-2"):
        monkeypatch.setenv("GRASSMANN_SCATTER_THREADS", env)
        assert main(argv + ["--out", str(tmp_path / "bad")]) == 3, env
    monkeypatch.delenv("GRASSMANN_SCATTER_THREADS")
    for flag in ("0", "-3"):
        assert main(argv + ["--threads", flag, "--out", str(tmp_path / "bad")]) == 3, flag
        assert main(["clt", "--m", "2", "--r", "1", "--n", "20", "--reps", "2", "--ref-mc", "50",
                     "--threads", flag, "--out", str(tmp_path / "bad")]) == 3, flag
    assert not (tmp_path / "bad").exists()


def test_cli_argument_errors_exit_3(tmp_path, capsys):
    assert main(["estimate", "--bogus-flag"]) == 3
    for bad in (True, "1e-9", None):                # diagnose's tol: a finite real >= 0
        with pytest.raises(UsageError):
            diagnose(orthogonal_lines(), tol=bad)
    assert main(["no-such-command"]) == 3
    assert main(["lln", "--r", "1"]) == 3          # neither --sigma nor --m
    out = ["--out", str(tmp_path / "out")]
    lln = ["lln", "--ns", "20", "--reps", "2"] + out
    # a no-estimate set (least index -1/3) and a limit set (least index 0)
    no_ge = write_dataset(tmp_path / "no_ge.json", planar_lines_in_3d(np.random.default_rng(46)))
    limit = write_dataset(tmp_path / "limit.json", orthogonal_lines())
    # --max-subset and --cap are unknown flags
    diag = [["diagnose", "--input", no_ge] + out + flags
            for flags in (["--tol", "nan"], ["--tol", "inf"], ["--max-subset", "0"],
                          ["--cap", "0"])]
    diag.append(["diagnose", "--input", limit, "--tol", "-1"] + out)
    clt = ["clt", "--n", "20", "--reps", "2", "--ref-mc", "50"] + out
    # a threshold+1 (5,2,5) set: --tol inf ended "converged" at iteration 0
    threshold = write_dataset(tmp_path / "threshold.json",
                              Empirical(np.random.default_rng(0).standard_normal((5, 5, 2))))
    estimate = [["estimate", "--input", threshold] + out + flags
                for flags in (["--tol", "inf"], ["--tol", "nan"], ["--tol", "0"],
                              ["--max-iter", "0"], ["--solver", "descent"])]
    for argv in [
        lln + ["--m", "-1", "--r", "1"],
        lln + ["--m", "2", "--r", "3"],             # r must lie in (0, m)
        lln + ["--m", "2", "--r", "2"],
        lln + ["--m", "3", "--r", "0"],
        clt + ["--m", "3", "--r", "4"],
        lln + ["--m", "3", "--r", "1", "--reps", "0"],
        clt + ["--m", "3", "--r", "1", "--reps", "0"],
        clt + ["--m", "3", "--r", "1", "--n", "0"],
        lln + ["--m", "3", "--r", "1", "--ns", "20,0"],
        clt + ["--m", "3", "--r", "1", "--ref-mc", "0"],
        ["gradcheck", "--m", "1"] + out,
        ["gradcheck", "--m", "3", "--trials", "0"] + out,
        *diag,
        *estimate,
        lln + ["--m", "3", "--r", "1", "--tol", "inf"],
    ]:
        assert main(argv) == 3, argv
    capsys.readouterr()


@pytest.mark.parametrize("argv", [
    ["lln", "--m", "2", "--r", "1", "--ns", "20", "--reps", "2", "--seed", "-1"],
    ["clt", "--m", "2", "--r", "1", "--n", "20", "--reps", "2", "--ref-mc", "50", "--seed", "-5"],
    ["gradcheck", "--m", "3", "--trials", "1", "--seed", "-1"],
], ids=lambda argv: argv[0])
def test_cli_negative_seed_exits_3_without_output(tmp_path, capsys, argv):
    # numpy's "expected non-negative integer" escaped main as a traceback and exit 1
    out = tmp_path / "out"
    assert main(argv + ["--out", str(out)]) == 3
    assert "seed" in capsys.readouterr().err
    assert not out.exists()


def test_cli_module_entry_point_subprocess(tmp_path):
    data = write_dataset(tmp_path / "ortho.json", orthogonal_lines())
    out = tmp_path / "out"
    proc = subprocess.run(
        [sys.executable, "-m", "grassmann_scatter.cli",
         "diagnose", "--input", data, "--out", str(out)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 1
    assert "limit" in proc.stdout


def test_public_namespace():
    # diagnose is the one existence verdict, and the measure functions return floats
    # and arrays only: the scan API and the Monte Carlo return type are not exported
    public = sorted(name for name, obj in vars(grassmann_scatter).items()
                    if not (name.startswith("_") or isinstance(obj, types.ModuleType)))
    assert public == [
        "CLTReport", "Candidate", "DegeneracyError", "DomainError", "Empirical",
        "ExistenceError", "ExistenceReport", "GEResult", "Gaussian",
        "GrassmannScatterError", "LLNReport", "Measure", "SolverOptions", "UsageError",
        "VelocityFlag", "act", "act_measure", "asymptotic_slope", "busemann", "check_basis",
        "check_scatter", "check_tangent", "clt_experiment", "cocycle",
        "decompose_velocity", "density_ratio", "diagnose", "dim_intersection", "distance",
        "distinguished_ray_direction", "existence_index", "fixed_point_solve", "geodesic",
        "grad", "grad_norm_sq", "hess_quadform", "inner", "limiting_covariance", "lln_experiment",
        "log_map", "loglik", "loglik_point", "manifold_dim", "mean_projector",
        "modular_parabolic", "normalize_det", "orthonormalize", "projector",
        "random_scatter", "random_unit_tangent", "residual", "sample", "sym_sqrt",
        "tangent_project", "tangent_vec_projector", "unique_sample_threshold", "unvec",
        "vec", "whiten_normalize",
    ]


def test_public_signatures_carry_no_unused_settings():
    # the limit law takes a sample and its scatter (no Monte Carlo size or stream), ranks
    # use RANK_TOL, and the validators' messages name no caller
    ns = grassmann_scatter
    for f, params in ((ns.limiting_covariance, ["meas", "Sigma"]),
                      (ns.dim_intersection, ["XU", "XV"]),
                      (ns.check_basis, ["X"]),
                      (ns.normalize_det, ["M"])):
        assert list(inspect.signature(f).parameters) == params, f.__name__


def test_cli_import_defers_metadata_and_process_pool():
    # importlib.metadata serves only replay.json's version and the process pool only
    # runs of more than one worker; compared against the modules loaded before the
    # import, so a site hook that preloads either one changes nothing
    src = str(Path(grassmann_scatter.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    code = ("import sys; before = set(sys.modules); import grassmann_scatter.cli; "
            "print(sorted({'importlib.metadata', 'concurrent.futures.process'} "
            "& (set(sys.modules) - before)))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_runtime_imports_no_scipy():
    # numpy is the only runtime dependency; scipy serves the tests alone
    src = str(Path(grassmann_scatter.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    code = ("import sys, grassmann_scatter, grassmann_scatter.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
