"""The A/B harness shared by the ``bench/`` scripts, without starting a process."""

import importlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"
SCRIPTS = sorted(p.stem for p in BENCH.glob("*.py") if p.stem != "harness")
sys.path.insert(0, str(BENCH))
harness = importlib.import_module("harness")


def _tree(tmp_path: Path, name: str, compiled: bool = False) -> Path:
    package = tmp_path / name / "src" / "grassmann_scatter"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("")
    if compiled:
        (package / "__pycache__").mkdir()
    return tmp_path / name


def _refused(capsys, specs) -> str:
    with pytest.raises(SystemExit) as exc:
        harness.trees(harness.parser("doc"), specs)
    assert exc.value.code == 2
    return capsys.readouterr().err


def test_quartiles_of_fixed_values():
    assert harness.quartiles([5, 1, 4, 2, 3]) == {"median": 3.0, "q25": 2.0, "q75": 4.0}
    assert harness.quartiles([1, 2, 3, 4]) == {"median": 2.5, "q25": 1.75, "q75": 3.25}
    assert harness.quartiles([1 / 3]) == {"median": 0.3333, "q25": 0.3333, "q75": 0.3333}
    runs = [{"row": {"x": 1, "y": 0.5}}, {"row": {"x": 3, "y": 0.5}}]
    assert harness.summarize(runs) == {"row": {"x": harness.quartiles([1, 3]),
                                               "y": harness.quartiles([0.5, 0.5])}}


def test_tree_specs(tmp_path, capsys):
    a, b = _tree(tmp_path, "a"), _tree(tmp_path, "b")
    assert harness.trees(harness.parser("doc"), [f"parent={a}", f"change={b}"]) == \
        {"parent": a.resolve(), "change": b.resolve()}
    assert "is not LABEL=ROOT" in _refused(capsys, [str(a), f"change={b}"])
    assert "is not LABEL=ROOT" in _refused(capsys, [f"={a}", f"change={b}"])
    assert "has no src/grassmann_scatter" in _refused(capsys, [f"a={a}", f"b={tmp_path}"])
    assert "two or more" in _refused(capsys, [f"a={a}"])
    assert "two or more" in _refused(capsys, [f"a={a}", f"a={b}"])
    c = _tree(tmp_path, "c", compiled=True)
    err = _refused(capsys, [f"a={a}", f"c={c}"])
    assert "only some trees hold" in err and f"c={c.resolve()} holds it" in err
    d = _tree(tmp_path, "d", compiled=True)
    assert list(harness.trees(harness.parser("doc"), [f"c={c}", f"d={d}"])) == ["c", "d"]


def test_worker_dispatch(capsys):
    parser = harness.parser("doc")
    with pytest.raises(SystemExit) as exc:
        harness.parse(parser, ["--worker", "7", "x"], lambda seed, name: {name: int(seed)})
    assert exc.value.code == 0
    assert json.loads(capsys.readouterr().out) == {"x": 7}


def test_alternation_order():
    calls = []

    def stub(label, root, item):
        calls.append((item, label))
        return f"{root}{item}"

    trees = {"a": Path("A"), "b": Path("B"), "c": Path("C")}
    runs = harness.alternate(trees, range(3), stub)
    assert calls == [(0, "a"), (0, "b"), (0, "c"), (1, "c"), (1, "b"), (1, "a"),
                     (2, "a"), (2, "b"), (2, "c")]
    assert runs == {label: [f"{root}{i}" for i in range(3)] for label, root in trees.items()}


def test_repeats_join_the_rows_of_every_worker(monkeypatch):
    calls = []

    def stub(root, *argv, cwd=None):
        calls.append((root.name, argv))
        return {argv[-1]: {"rows": len(calls)}}

    monkeypatch.setattr(harness, "run", stub)
    runs = harness.repeats("s.py", {"a": Path("A"), "b": Path("B")}, 2, [("x",), ("y",)])
    assert [root for root, _ in calls] == ["A", "A", "B", "B", "B", "B", "A", "A"]
    assert calls[0][1] == ("s.py", "--worker", "x")
    assert runs == {"a": [{"x": {"rows": 1}, "y": {"rows": 2}},
                          {"x": {"rows": 7}, "y": {"rows": 8}}],
                    "b": [{"x": {"rows": 3}, "y": {"rows": 4}},
                          {"x": {"rows": 5}, "y": {"rows": 6}}]}


def test_envelope_and_append(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(harness, "git_commit", lambda root: f"head of {root.name}")
    for var in harness.THREAD_VARS:
        monkeypatch.delenv(var, raising=False)
    monkeypatch.setenv("OMP_NUM_THREADS", "3")
    trees = {"parent": Path("P"), "change": Path("C")}
    runs = {label: [{"ms": {"k": 1.0}}, {"ms": {"k": 2.0}}] for label in trees}
    entry = harness.envelope("what it measures", trees, runs, 2, {"seed": 7}, calls=31)
    assert list(entry) == ["what", "order", "repeats", "seeds", "calls", "nproc", "threads",
                           "python", "numpy", "scipy", "trees"]
    assert entry["order"] == ["parent", "change"] and entry["repeats"] == 2
    assert entry["seeds"] == {"seed": 7} and entry["nproc"] >= 1
    assert entry["threads"] == {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "3",
                                "MKL_NUM_THREADS": "1"}
    assert entry["trees"]["change"] == {"commit": "head of C",
                                        "ms": {"k": harness.quartiles([1.0, 2.0])}}
    out = tmp_path / "BENCH_x.json"
    harness.append(entry, str(out))
    harness.append(entry, str(out))
    assert json.loads(out.read_text()) == json.loads(json.dumps({"entries": [entry, entry]}))
    assert capsys.readouterr().out.count('"what": "what it measures"') == 2


@pytest.mark.parametrize("script", SCRIPTS)
def test_every_script_has_help(script, capsys):
    with pytest.raises(SystemExit) as exc:
        importlib.import_module(script).main(["--help"])
    assert exc.value.code == 0
    assert "--tree LABEL=ROOT" in capsys.readouterr().out


def test_scan_verdicts_creates_its_workdir(monkeypatch, tmp_path, capsys):
    # --workdir names a directory that does not exist yet, parents included, as
    # compare_outputs.py takes it; the workers are stubbed out
    scan = importlib.import_module("scan_verdicts")
    record = {"kind": "x", "verb": "estimate", "code": 0, "status": "converged",
              "iterations": 3}
    seen = []

    def stub(trees, seeds, run):
        seen.append(workdir.is_dir())
        return {label: [{"records": [record], "seconds": {}} for _ in seeds]
                for label in trees}

    monkeypatch.setattr(harness, "alternate", stub)
    workdir = tmp_path / "new" / "work"
    trees = [f"a={_tree(tmp_path, 'a')}", f"b={_tree(tmp_path, 'b')}"]
    assert scan.main(["--tree", trees[0], "--tree", trees[1], "--seeds", "1",
                      "--workdir", str(workdir)]) == 0
    assert seen == [True]
    assert "| 1 | b | 0 | 0 | 0 | 1 |" in capsys.readouterr().out


def test_compare_outputs_reads_a_rotated_basis_as_the_same_subspace():
    # a basis rotated inside its subspace differs in bytes, not in its projector; another
    # subspace, or bases that do not pair up, read as such
    compare = importlib.import_module("compare_outputs")
    rng = np.random.default_rng(0)
    B = np.linalg.qr(rng.standard_normal((4, 2)))[0]
    c, s = np.cos(0.3), np.sin(0.3)
    rotated = B @ np.array([[c, -s], [s, c]])
    other = np.linalg.qr(rng.standard_normal((4, 2)))[0]

    def report(basis, witness):
        return json.dumps({"status": "no_ge", "witness": witness.tolist(), "boundary":
                           [{"alpha": 1.0, "dim": 2, "basis": basis.tolist()}]}).encode()

    a = report(B, B[:, :1])
    assert a != report(rotated, -B[:, :1])
    diff = compare._projector_difference(a, report(rotated, -B[:, :1]))
    assert float(diff.rsplit(" ", 1)[1]) <= 1e-15, diff
    diff = compare._projector_difference(a, report(B, other[:, :1]))
    assert float(diff.rsplit(" ", 1)[1]) > 1e-2, diff
    assert compare._projector_difference(a, report(B, B)) == "subspace bases do not pair up"
    diagnose = {"verdict": "limit", "witness": {"dim": 2, "basis": B.tolist()}}
    assert [path for path, _ in compare._bases(diagnose)] == ["/witness/basis"]
    assert compare._projector_difference(b"{}", b"{}") == "no subspace bases"
