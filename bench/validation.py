"""Milliseconds per input validation (the atom ranks and the span check), minor page
faults per kernel call of a large solve, and end-to-end perfbench pairs, before and
after a change to the rank checks.

    python bench/validation.py --tree parent=/path/to/parent --tree change=. \
        [--perfbench bulk:601-610 --perfbench scan:611-616 ...] [--out BENCH_validation.json]

Each --tree is a source checkout (with ``src/`` and ``perfbench/``).  Each of REPEATS
repeats starts fresh interpreters per tree, in turn, and the tree that runs first
alternates from one repeat to the next, so the trees are interleaved against the drift
of a shared host.  Per repeat and tree:

* a validation worker builds seeded Gaussian subspace samples of every shape of SHAPES
  (atoms (n, m, r), or a stack (B, n, m, r) of B datasets as the Monte Carlo
  replications are validated) and reports the median over CALLS timed calls, after
  one untimed call, of the atom-rank check (``Empirical(points)``; the stack's
  ``grassmann._check_ranks``) and of the span check (``estimator._check_span``);
* a fault worker, in an interpreter that has done nothing else, builds the
  (n, m, r) = FAULT_SHAPE sample, runs one ``fixed_point_solve`` of FAULT_ITERS
  iterations (tol 1e-300, so none stops early) and reports the minor page faults
  (``resource.getrusage`` ru_minflt) of the first two kernel calls
  (``likelihood._weighted_kernel_sum``), their mean and maximum over the later calls and
  how many later calls refault (at least REFAULT faults), the faults of the validation
  before the solve, and the ms per iteration;
* a bulk-fault worker runs two passes over perfbench's bulk command list (seed
  BULK_SEED, built by ``perfbench/workloads.py``, imported read-only) through
  ``cli.main`` and reports the kernel faults of the second pass.

With --perfbench WORKLOAD:FIRST-LAST, pairs of ``python3 perfbench/run.py --workload
WORKLOAD --seed S --seconds PERFBENCH_SECONDS --trace 0`` run from each tree's root for
every seed S of the range, the tree that runs first alternating from pair to pair; the
entry keeps every run's result line and, per metric, each tree's median and quartiles,
the pairs the last tree wins and the relative change of the medians.

The record is one entry per run: per tree the median and quartiles over repeats of every
row, plus nproc, the BLAS thread variables, the numpy/scipy versions and the git commit
of each tree.  With --out, the entry is appended to that file's "entries" list.  Only
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
import time
from importlib.metadata import version
from pathlib import Path

# shapes of the points array: the bulk datasets (5000, 10, 3) and (1600, 3, 2), a
# threshold+1 set of five planes in R^5, and a block of five (3, 2) replications
SHAPES = [(5000, 10, 3), (1600, 3, 2), (5, 5, 2), (5, 25, 3, 2)]
FAULT_SHAPE = (5000, 10, 3)
FAULT_ITERS = 30
REFAULT = 100           # faults in one kernel call that count it as refaulting its temporaries
BULK_SEED = 501
SEED = 20261019
REPEATS = 15
CALLS = 31
PERFBENCH_SECONDS = 30
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# end-to-end metrics of perfbench and whether higher is better
METRICS = {"wall_s": False, "cmd_ms_p50": False, "cmd_ms_tail": False,
           "solves_per_s": True, "setup_s": False, "peak_rss_mb": False}


def _points(shape, rng):
    """Gaussian subspace samples of a non-isotropic truth, of the given points shape."""
    import numpy as np

    m = shape[-2]
    return np.einsum("ij,...njr->...nir", rng.standard_normal((m, m)), rng.standard_normal(shape))


def _median_ms(call) -> float:
    import numpy as np

    call()                                                  # warm caches, untimed
    times = []
    for _ in range(CALLS):
        t0 = time.perf_counter()
        call()
        times.append(time.perf_counter() - t0)
    return 1e3 * float(np.median(times))


def _validation_worker() -> dict:
    """{"ms_atom_ranks": {shape: ms}, "ms_span_check": {shape: ms}} of one repeat."""
    import numpy as np

    from grassmann_scatter import Empirical
    from grassmann_scatter.estimator import _check_span
    from grassmann_scatter.grassmann import _check_ranks

    out = {"ms_atom_ranks": {}, "ms_span_check": {}}
    for i, shape in enumerate(SHAPES):
        points = _points(shape, np.random.default_rng([SEED, i]))
        key = str(shape)
        ranks = (lambda: _check_ranks(points)) if len(shape) == 4 else (lambda: Empirical(points))
        out["ms_atom_ranks"][key] = _median_ms(ranks)
        out["ms_span_check"][key] = _median_ms(lambda: _check_span(points))
    return out


def _counting_kernel_faults() -> list:
    """Wrap the estimator's kernel so that each call appends its minor page faults
    (``resource.getrusage`` ru_minflt) to the returned list."""
    import resource

    from grassmann_scatter import estimator

    faults = []
    kernel = estimator._weighted_kernel_sum

    def counting(*args, **kwargs):
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        out = kernel(*args, **kwargs)
        faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
        return out

    estimator._weighted_kernel_sum = counting
    return faults


def _fault_worker() -> dict:
    """Minor page faults per kernel call of one solve at FAULT_SHAPE in this fresh
    interpreter: {"faults_per_kernel_call": {call index: faults}, ...}."""
    import resource

    import numpy as np

    from grassmann_scatter import Empirical, SolverOptions, estimator, fixed_point_solve

    points = _points(FAULT_SHAPE, np.random.default_rng([SEED, 99]))
    faults = _counting_kernel_faults()
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    meas = Empirical(points)
    estimator._check_span(meas.points)
    validation = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
    t0 = time.perf_counter()
    result = fixed_point_solve(meas, options=SolverOptions(max_iter=FAULT_ITERS, tol=1e-300))
    elapsed = time.perf_counter() - t0
    if result.iterations != FAULT_ITERS:
        raise SystemExit(f"{FAULT_SHAPE} stopped after {result.iterations} iterations")
    later = np.array(faults[2:])
    return {"faults_per_kernel_call": {"call 0": faults[0], "call 1": faults[1],
                                       "calls 2+ mean": float(later.mean()),
                                       "calls 2+ max": int(later.max())},
            "kernel_calls": {"total": len(faults),
                             f"calls 2+ with >= {REFAULT} faults": int((later >= REFAULT).sum())},
            "faults_validation": {"Empirical + _check_span": validation},
            "ms_per_iteration": {str(FAULT_SHAPE): 1e3 * elapsed / FAULT_ITERS}}


def _bulk_fault_worker() -> dict:
    """Kernel faults in the second of two passes over perfbench's bulk commands (seed
    BULK_SEED) run in this interpreter through ``cli.main``, as the benchmark runs them:
    {"bulk_pass_kernel_faults": {"total": faults, "calls with >= REFAULT faults": n}}."""
    import contextlib
    import io
    import tempfile

    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
    import workloads

    from grassmann_scatter import cli

    faults = _counting_kernel_faults()
    with tempfile.TemporaryDirectory() as tmp:
        commands = [list(cmd.argv) for cmd in workloads.build("bulk", BULK_SEED, Path(tmp))]
        for rep in range(2):
            faults.clear()
            for i, argv in enumerate(commands):
                argv[argv.index("--out") + 1] = str(Path(tmp) / f"out{rep}-{i}")
                with contextlib.redirect_stdout(io.StringIO()):
                    cli.main(argv)
    return {"bulk_pass_kernel_faults": {
        "total": sum(faults), "kernel calls": len(faults),
        f"calls with >= {REFAULT} faults": sum(f >= REFAULT for f in faults)}}


def _git_commit(root: Path) -> str:
    """HEAD of the checkout at root, with '+dirty' when its src/ differs from it."""
    def git(*args):
        return subprocess.run(["git", "-C", str(root), *args], capture_output=True, text=True)

    head = git("rev-parse", "HEAD")
    if head.returncode != 0:
        return "unknown"
    dirty = git("status", "--porcelain", "--", "src").stdout.strip()
    return head.stdout.strip() + ("+dirty" if dirty else "")


def _quartiles(values):
    import numpy as np

    q25, q50, q75 = np.percentile(values, [25, 50, 75])
    return {"median": round(float(q50), 4), "q25": round(float(q25), 4),
            "q75": round(float(q75), 4)}


def _perfbench(trees: dict, env: dict, workload: str, seeds: range) -> dict:
    """Alternating pairs of perfbench runs, one per seed, and their per-metric summary."""
    pairs = []
    for i, seed in enumerate(seeds):
        order = list(trees) if i % 2 == 0 else list(trees)[::-1]
        pair = {"seed": seed, "first": order[0]}
        for label in order:
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
                 "--seconds", str(PERFBENCH_SECONDS), "--trace", "0"],
                cwd=trees[label], env=env, capture_output=True, text=True, check=True)
            pair[label] = json.loads(proc.stdout.strip().splitlines()[-1])
        pairs.append(pair)
    base, last = list(trees)[0], list(trees)[-1]
    summary = {}
    for name, higher in METRICS.items():
        values = {label: [p[label]["metrics"][name]["value"] for p in pairs] for label in trees}
        wins = sum((b > a) if higher else (b < a) for a, b in zip(values[base], values[last]))
        stats = {label: _quartiles(v) for label, v in values.items()}
        summary[name] = {**stats, f"{last}_wins": f"{wins}/{len(pairs)}",
                         "median_change": round(stats[last]["median"] / stats[base]["median"] - 1, 4)}
    return {"seeds": [seeds.start, seeds.stop - 1], "pairs": pairs, "summary": summary}


WORKERS = {"validation": _validation_worker, "faults": _fault_worker,
           "bulk-faults": _bulk_fault_worker}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--tree", action="append", default=[], metavar="LABEL=DIR",
                        help="a source checkout to time (give at least two)")
    parser.add_argument("--perfbench", action="append", default=[], metavar="WORKLOAD:FIRST-LAST",
                        help="perfbench pairs of one workload over a range of seeds")
    parser.add_argument("--out", default=None,
                        help="JSON file whose 'entries' list gets this run's entry")
    parser.add_argument("--worker", choices=list(WORKERS), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.worker:
        print(json.dumps(WORKERS[args.worker]()))
        return 0
    if len(args.tree) < 2:
        parser.error("give at least two --tree checkouts, e.g. the parent and the change")

    trees = {}
    for spec in args.tree:
        label, _, path = spec.partition("=")
        trees[label] = Path(path).resolve()
    env = dict(os.environ)
    for var in THREAD_VARS:
        env.setdefault(var, "1")
    samples = {label: {} for label in trees}
    for i in range(REPEATS):
        for label in list(trees) if i % 2 == 0 else list(trees)[::-1]:
            env["PYTHONPATH"] = str(trees[label] / "src")
            for worker in WORKERS:
                proc = subprocess.run([sys.executable, __file__, "--worker", worker],
                                      env=env, capture_output=True, text=True, check=True)
                for kind, rows in json.loads(proc.stdout).items():
                    for key, value in rows.items():
                        samples[label].setdefault(kind, {}).setdefault(key, []).append(value)
    env.pop("PYTHONPATH")
    entry = {
        "what": "per tree: ms per atom-rank check (Empirical, or grassmann._check_ranks on a "
                "stack) and per span check (estimator._check_span), median of "
                f"{CALLS} calls per repeat, keyed by the points shape; minor page faults "
                f"per kernel call and ms per iteration of one {FAULT_ITERS}-iteration "
                f"fixed_point_solve at points {FAULT_SHAPE} in a fresh interpreter; kernel "
                f"faults of the second of two bulk passes (perfbench seed {BULK_SEED}) in one "
                "interpreter; median and quartiles over repeats",
        "interleaved": list(trees),
        "repeats": REPEATS,
        "seed": SEED,
        "nproc": os.cpu_count(),
        "threads": {var: env[var] for var in THREAD_VARS},
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "trees": {
            label: {"commit": _git_commit(root),
                    **{kind: {key: _quartiles(v) for key, v in rows.items()}
                       for kind, rows in samples[label].items()}}
            for label, root in trees.items()
        },
    }
    if args.perfbench:
        entry["perfbench"] = {
            "what": f"pairs of python3 perfbench/run.py --workload W --seed S --seconds "
                    f"{PERFBENCH_SECONDS} --trace 0 from each tree's root, alternating which "
                    "runs first; values in the benchmark's reference units",
        }
        for spec in args.perfbench:
            workload, _, span = spec.partition(":")
            first, _, last = span.partition("-")
            entry["perfbench"][workload] = _perfbench(trees, env, workload,
                                                      range(int(first), int(last) + 1))
    print(json.dumps(entry, indent=1))
    if args.out:
        path = Path(args.out)
        doc = json.loads(path.read_text()) if path.exists() else {"entries": []}
        doc["entries"].append(entry)
        path.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
