"""The A/B harness of the ``bench/`` scripts.

Every script names the source checkouts it compares as ``--tree LABEL=ROOT`` (two or
more; the first is the reference).  A ROOT must hold ``src/grassmann_scatter``, and
where only some of the trees hold compiled bytecode (``src/grassmann_scatter/
__pycache__``) the run is refused (exit 2): an interpreter that does not write bytecode
compiles the package on every start in a tree without it, so the trees' start-up times
would not compare.  A script measures in workers: ``python SCRIPT --worker ARGS`` in a
fresh interpreter with ``PYTHONPATH=ROOT/src`` and the BLAS thread variables set to 1
unless the caller set them.  Over the rounds of a run the trees take turns, and the tree
that runs first alternates from one round to the next, so they are interleaved against
the drift of a shared host.  Each row of a record gives, per tree, the median and
quartiles over the repeats; the record's envelope carries what was measured, the order,
repeats, seeds, ``nproc``, the thread variables, the python, numpy and scipy versions
and each tree's git commit, and is appended to the ``entries`` list of ``--out``.  Only
the standard library and numpy are imported here; the package itself is imported by
the workers.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from importlib.metadata import version
from pathlib import Path

import numpy as np

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parser(doc: str) -> argparse.ArgumentParser:
    """A script's argument parser, described by its docstring's first paragraph, with
    the ``--tree`` option."""
    parser = argparse.ArgumentParser(description=doc.split("\n\n")[0])
    parser.add_argument("--tree", action="append", default=[], metavar="LABEL=ROOT",
                        help="a source checkout, named (give two or more; the first is the "
                             "reference)")
    return parser


def parse(parser: argparse.ArgumentParser, argv, worker):
    """(args, {label: root}) of a script's command line.  With ``--worker ARGS`` first,
    print worker(*ARGS) as one JSON line and exit instead."""
    argv = sys.argv[1:] if argv is None else list(argv)
    if argv[:1] == ["--worker"]:
        print(json.dumps(worker(*argv[1:])))
        raise SystemExit(0)
    args = parser.parse_args(argv)
    return args, trees(parser, args.tree)


def trees(parser: argparse.ArgumentParser, specs: list[str]) -> dict[str, Path]:
    """{label: resolved root} of the ``--tree`` specs; a malformed spec, a root without
    the package and trees of which only some hold bytecode are parser errors."""
    out = {}
    for spec in specs:
        label, sep, root = spec.partition("=")
        if not (label and sep and root):
            parser.error(f"--tree {spec!r} is not LABEL=ROOT")
        out[label] = Path(root).resolve()
        if not (out[label] / "src" / "grassmann_scatter" / "__init__.py").is_file():
            parser.error(f"{out[label]} has no src/grassmann_scatter")
    if len(out) < max(2, len(specs)):
        parser.error("give two or more --tree LABEL=ROOT, each with its own label, "
                     "e.g. the parent and the change")
    compiled = {label: (root / "src" / "grassmann_scatter" / "__pycache__").is_dir()
                for label, root in out.items()}
    if len(set(compiled.values())) > 1:
        parser.error("only some trees hold src/grassmann_scatter/__pycache__, so their start-up "
                     "times would not compare: " + ", ".join(
                         f"{label}={out[label]} {'holds it' if held else 'does not'}"
                         for label, held in compiled.items()))
    return out


def threads() -> dict[str, str]:
    """The BLAS thread variables the workers get: 1 unless set."""
    return {var: os.environ.get(var, "1") for var in THREAD_VARS}


def run(root: Path, *argv: str, cwd: Path | None = None):
    """The last line of standard output, as JSON, of ``python ARGV`` in a fresh
    interpreter with root's ``src/`` on the path; exits with its error output if it
    fails."""
    env = {**os.environ, **threads(), "PYTHONPATH": str(root / "src")}
    proc = subprocess.run([sys.executable, *argv], env=env, cwd=cwd, capture_output=True,
                          text=True, check=False)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(argv)} failed on {root}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def order(trees: dict, i: int) -> list[str]:
    """The labels in the order they run in round i: the first tree runs first in even
    rounds, the last in odd ones."""
    return list(trees) if i % 2 == 0 else list(trees)[::-1]


def alternate(trees: dict[str, Path], rounds, call) -> dict[str, list]:
    """{label: [call(label, root, item) for each item of rounds]}, the trees taking turns
    in every round in ``order``."""
    out = {label: [] for label in trees}
    for i, item in enumerate(rounds):
        for label in order(trees, i):
            out[label].append(call(label, trees[label], item))
    return out


def repeats(script: str, trees: dict[str, Path], count: int, workers=((),)) -> dict[str, list]:
    """Per tree, the rows of each of count rounds: in a round every worker ``script
    --worker *args`` (args of workers) runs in its own fresh interpreter, and the rows
    of its JSON dict join the round's."""
    def one(label, root, _):
        rows = {}
        for args in workers:
            rows.update(run(root, script, "--worker", *args))
        return rows
    return alternate(trees, range(count), one)


def quartiles(values) -> dict[str, float]:
    """Median, q25 and q75 (numpy's linear interpolation), rounded to 4 decimals."""
    q25, q50, q75 = np.percentile(values, [25, 50, 75])
    return {"median": round(float(q50), 4), "q25": round(float(q25), 4),
            "q75": round(float(q75), 4)}


def summarize(runs: list):
    """The quartiles of every leaf of like-shaped nested dicts, one per repeat, in the
    same nesting."""
    if isinstance(runs[0], dict):
        return {key: summarize([run[key] for run in runs]) for key in runs[0]}
    return quartiles(runs)


def git_commit(root: Path) -> str:
    """HEAD of the checkout at root, with '+dirty' when its src/ differs from it."""
    def git(*args):
        return subprocess.run(["git", "-C", str(root), *args], capture_output=True, text=True)

    head = git("rev-parse", "HEAD")
    if head.returncode != 0:
        return "unknown"
    dirty = git("status", "--porcelain", "--", "src").stdout.strip()
    return head.stdout.strip() + ("+dirty" if dirty else "")


def envelope(what: str, trees: dict[str, Path], runs: dict[str, list], repeats: int,
             seeds: dict, **fields) -> dict:
    """A record: what was measured, the order, repeats, seeds, the script's other
    constants (fields), the host and versions, and per tree its commit and the
    ``summarize``d rows of its runs."""
    return {"what": what, "order": list(trees), "repeats": repeats, "seeds": seeds, **fields,
            "nproc": len(os.sched_getaffinity(0)), "threads": threads(),
            "python": platform.python_version(), "numpy": version("numpy"),
            "scipy": version("scipy"),
            "trees": {label: {"commit": git_commit(root), **summarize(runs[label])}
                      for label, root in trees.items()}}


def append(entry: dict, out: str | None) -> None:
    """Print the entry, and append it to the ``entries`` list of the JSON file out."""
    print(json.dumps(entry, indent=1))
    if out:
        path = Path(out)
        doc = json.loads(path.read_text()) if path.exists() else {"entries": []}
        doc["entries"].append(entry)
        path.write_text(json.dumps(doc, indent=1) + "\n")
