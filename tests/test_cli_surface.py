"""The command line's text surface, byte for byte: help texts, usage errors, replay.json,
and the output layout (the files of each outcome, their write order, their JSON keys).

The help texts are formatted for an 80-column terminal (COLUMNS=80).  The replay
files are compared with the run's own paths and the interpreter's versions
filled in; every other byte is fixed.
"""

import json
import platform
from importlib.metadata import PackageNotFoundError, version

import numpy as np
import pytest

from grassmann_scatter import Empirical, cli
from grassmann_scatter.cli import main
from grassmann_scatter.io import write_measure_json
from helpers import no_ge_lines, planar_lines_in_3d, three_symmetric_lines

TOP_HELP = """\
usage: grassmann-scatter [-h] {estimate,diagnose,lln,clt,gradcheck} ...

Command-line interface.

positional arguments:
  {estimate,diagnose,lln,clt,gradcheck}
    estimate            solve for the scatter of a dataset
    diagnose            existence trichotomy for a dataset
    lln                 consistency experiment
    clt                 fluctuation experiment
    gradcheck           finite-difference derivative validation

options:
  -h, --help            show this help message and exit
"""

HELP = {
    "estimate": """\
usage: grassmann-scatter estimate [-h] --input INPUT [--start START]
                                  [--tol TOL] [--max-iter MAX_ITER]
                                  [--out OUT]

options:
  -h, --help           show this help message and exit
  --input INPUT        dataset JSON ({m, r, points[, weights]})
  --start START        starting scatter CSV (default: identity)
  --tol TOL            residual tolerance
  --max-iter MAX_ITER  iteration budget
  --out OUT            output directory
""",
    "diagnose": """\
usage: grassmann-scatter diagnose [-h] --input INPUT [--tol TOL] [--out OUT]

options:
  -h, --help     show this help message and exit
  --input INPUT  dataset JSON
  --tol TOL      index zero-tolerance
  --out OUT      output directory
""",
    "lln": """\
usage: grassmann-scatter lln [-h] [--m M] --r R [--sigma SIGMA] [--ns NS]
                             [--reps REPS] [--seed SEED] [--threads THREADS]
                             [--tol TOL] [--max-iter MAX_ITER] [--out OUT]

options:
  -h, --help           show this help message and exit
  --m M                ambient dimension (or use --sigma)
  --r R                subspace dimension
  --sigma SIGMA        true scatter CSV (default: identity)
  --ns NS              comma-separated sample sizes
  --reps REPS          replications per sample size
  --seed SEED
  --threads THREADS    workers (default: 1)
  --tol TOL            residual tolerance
  --max-iter MAX_ITER  iteration budget
  --out OUT            output directory
""",
    "clt": """\
usage: grassmann-scatter clt [-h] [--m M] --r R [--sigma SIGMA] [--n N]
                             [--reps REPS] [--seed SEED] [--ref-mc REF_MC]
                             [--threads THREADS] [--tol TOL]
                             [--max-iter MAX_ITER] [--out OUT]

options:
  -h, --help           show this help message and exit
  --m M                ambient dimension (or use --sigma)
  --r R                subspace dimension
  --sigma SIGMA        true scatter CSV (default: identity)
  --n N                sample size per replication
  --reps REPS          replications
  --seed SEED
  --ref-mc REF_MC      Monte Carlo draws for the predicted covariance
                       (default: closed form)
  --threads THREADS    workers (default: 1)
  --tol TOL            residual tolerance
  --max-iter MAX_ITER  iteration budget
  --out OUT            output directory
""",
    "gradcheck": """\
usage: grassmann-scatter gradcheck [-h] --m M [--r R] [--trials TRIALS]
                                   [--seed SEED] [--out OUT]

options:
  -h, --help       show this help message and exit
  --m M            ambient dimension
  --r R            subspace dimension (default: all)
  --trials TRIALS  random instances per rank
  --seed SEED
  --out OUT        output directory
""",
}

USAGE_ERRORS = [
    (["estimate"], "error: the following arguments are required: --input\n"),
    (["estimate", "--input", "x.json", "--bogus"], "error: unrecognized arguments: --bogus\n"),
    (["frobnicate"], "error: argument command: invalid choice: 'frobnicate' (choose from "
                     "'estimate', 'diagnose', 'lln', 'clt', 'gradcheck')\n"),
    ([], "error: the following arguments are required: command\n"),
    # the top-level parser reaches the estimate parser past an unknown option
    (["--bogus", "estimate"], "error: the following arguments are required: --input\n"),
    (["lln", "--r", "1", "--ns", "a"], "error: argument --ns: invalid <lambda> value: 'a'\n"),
]

REPLAY_ESTIMATE = """\
{
  "command": "estimate",
  "options": {
    "command": "estimate",
    "input": @INPUT@,
    "start": null,
    "tol": 1e-12,
    "max_iter": 500,
    "out": @OUT@
  },
  "package_version": @PACKAGE@,
  "numpy_version": @NUMPY@,
  "python_version": @PYTHON@
}"""

REPLAY_LLN = """\
{
  "command": "lln",
  "options": {
    "command": "lln",
    "m": 2,
    "r": 1,
    "sigma": null,
    "ns": [
      10,
      20
    ],
    "reps": 3,
    "seed": 0,
    "threads": 1,
    "tol": 1e-12,
    "max_iter": 500,
    "out": @OUT@
  },
  "package_version": @PACKAGE@,
  "numpy_version": @NUMPY@,
  "python_version": @PYTHON@
}"""


@pytest.fixture(autouse=True)
def eighty_columns(monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")


def _help(argv, capsys) -> str:
    with pytest.raises(SystemExit) as stop:
        main(argv)
    assert stop.value.code == 0
    out, err = capsys.readouterr()
    assert err == ""
    return out


def test_top_level_help(capsys):
    for argv in (["--help"], ["-h"], ["-h", "estimate"], ["--he"]):
        assert _help(argv, capsys) == TOP_HELP, argv


@pytest.mark.parametrize("command", sorted(HELP))
def test_subcommand_help(command, capsys):
    assert _help([command, "--help"], capsys) == HELP[command]
    assert _help([command, "-h", "--bogus"], capsys) == HELP[command]


def test_usage_errors_exit_3(capsys):
    for argv, message in USAGE_ERRORS:
        assert main(argv) == 3, argv
        out, err = capsys.readouterr()
        assert (out, err) == ("", message), argv


def _expected_replay(template: str, **paths) -> bytes:
    try:
        package = version("grassmann-scatter")
    except PackageNotFoundError:
        package = "unknown"
    fill = {"PACKAGE": package, "NUMPY": np.__version__,
            "PYTHON": platform.python_version(), **paths}
    for key, value in fill.items():
        template = template.replace(f"@{key}@", json.dumps(value))
    return template.encode()


def test_replay_bytes(tmp_path, capsys):
    data = tmp_path / "d.json"
    write_measure_json(data, Empirical(np.random.default_rng(5).standard_normal((5, 3, 1))))
    out = tmp_path / "estimate"
    assert main(["estimate", "--input", str(data), "--out", str(out)]) == 0
    assert (out / "replay.json").read_bytes() == _expected_replay(
        REPLAY_ESTIMATE, INPUT=str(data), OUT=str(out))

    out = tmp_path / "lln"
    assert main(["lln", "--m", "2", "--r", "1", "--ns", "10,20", "--reps", "3",
                 "--out", str(out)]) == 0
    assert (out / "replay.json").read_bytes() == _expected_replay(REPLAY_LLN, OUT=str(out))
    capsys.readouterr()


REPLAY_KEYS = ["command", "options", "package_version", "numpy_version", "python_version"]
ESTIMATE_KEYS = ["status", "residual", "iterations", "m", "r", "n", "trace", "boundary",
                 "slope"]
DIAGNOSE_KEYS = ["verdict", "min_index", "witness", "zeros", "complement_ok", "scanned",
                 "lambda_min", "slope", "n", "unique_sample_threshold"]
LLN_KEYS = ["ns", "reps", "seed", "medians", "quartiles", "slope", "status_counts",
            "iteration_quantiles", "threads", "warnings"]
CLT_KEYS = ["n", "reps", "seed", "annihilation", "rel_frobenius", "max_skew", "status_counts",
            "iteration_quantiles", "threads", "warnings"]
# outcome -> (argv before --input/--out, dataset or None, exit code, {file: JSON keys, or
# None for a CSV} in write order, after the replay.json every outcome writes first)
LAYOUTS = {
    "estimate converged": (["estimate"], three_symmetric_lines, 0,
                           {"estimate.csv": None, "report.json": ESTIMATE_KEYS}),
    "estimate diverged": (["estimate"], lambda: no_ge_lines(3, 6), 2,
                          {"estimate.csv": None, "report.json": ESTIMATE_KEYS}),
    "estimate deficient span": (["estimate"], lambda: planar_lines_in_3d(np.random.default_rng(42)),
                                2, {"report.json": ["status", "reason", "witness", "m", "r", "n"]}),
    "diagnose": (["diagnose"], three_symmetric_lines, 0, {"report.json": DIAGNOSE_KEYS}),
    "lln": (["lln", "--m", "2", "--r", "1", "--ns", "10,20", "--reps", "3"], None, 0,
            {"lln.json": LLN_KEYS, "distances.csv": None}),
    "clt": (["clt", "--m", "2", "--r", "1", "--n", "30", "--reps", "5", "--ref-mc", "200"],
            None, 0, {"clt.json": CLT_KEYS, "cov.csv": None, "ref.csv": None}),
    "gradcheck": (["gradcheck", "--m", "2", "--trials", "1"], None, 0,
                  {"gradcheck.json": ["m", "trials", "max_errors", "tolerances", "passed",
                                      "rows"]}),
}


@pytest.mark.parametrize("outcome", list(LAYOUTS))
def test_output_layout(outcome, tmp_path, monkeypatch, capsys):
    argv, dataset, code, files = LAYOUTS[outcome]
    written = []
    for name in ("write_report_json", "write_matrix_csv"):
        def record(path, doc, write=getattr(cli, name)):
            written.append(path.name)
            write(path, doc)
        monkeypatch.setattr(cli, name, record)
    if dataset is not None:
        argv = [*argv, "--input", str(tmp_path / "d.json")]
        write_measure_json(tmp_path / "d.json", dataset())
    out = tmp_path / "out"
    assert main(argv + ["--out", str(out)]) == code
    capsys.readouterr()
    assert written == ["replay.json", *files]
    assert sorted(f.name for f in out.iterdir()) == sorted(written)
    for name, keys in {"replay.json": REPLAY_KEYS, **files}.items():
        if keys is not None:
            assert list(json.loads((out / name).read_text())) == keys, name
