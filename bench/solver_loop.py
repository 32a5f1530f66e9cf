"""Microseconds per fixed-point iteration, before and after a solver change.

    python bench/solver_loop.py --src parent=/path/to/parent/src --src change=src \
        [--out BENCH_solver_loop.json]

Each of REPEATS repeats starts one fresh interpreter per source tree, in turn,
so the trees are interleaved against the drift of a shared host.  The worker builds seeded
Gaussian subspace samples at each (m, r, n) below, runs one untimed solve, then
times one ``fixed_point_solve`` per configuration with ITERS iterations
(tol 1e-300, so no run stops early) and reports wall time / iterations.  The
record gives the median and quartiles over repeats per tree and configuration,
plus nproc, the BLAS thread variables, the numpy/scipy versions and the git
commit of each tree: one entry per tree.  With --out, the entries are
appended to that file's "entries" list.  Only the standard library and numpy
are imported here; the package itself is imported by the workers.
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

# (m, r, n): the LLN configuration m=3, r=2 at three sample sizes, lines, a
# threshold+1 set, and the largest bulk dataset
CONFIGS = [(3, 2, 25), (3, 2, 400), (3, 2, 1600), (2, 1, 100), (5, 2, 5), (10, 3, 5000)]
SEED = 20261018
REPEATS = 15
ITERS = 30
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _worker() -> None:
    """One repeat in this interpreter: print {config: us per iteration} as JSON."""
    import numpy as np

    from grassmann_scatter import Empirical, SolverOptions, fixed_point_solve

    opts = SolverOptions(max_iter=ITERS, tol=1e-300)
    out = {}
    for i, (m, r, n) in enumerate(CONFIGS):
        rng = np.random.default_rng([SEED, i])
        A = rng.standard_normal((m, m))                       # a non-isotropic truth
        meas = Empirical(np.einsum("ij,njr->nir", A, rng.standard_normal((n, m, r))))
        fixed_point_solve(meas, options=opts)                 # warm caches, untimed
        t0 = time.perf_counter()
        result = fixed_point_solve(meas, options=opts)
        elapsed = time.perf_counter() - t0
        if result.iterations != ITERS:
            raise SystemExit(f"({m},{r},{n}) stopped after {result.iterations} iterations")
        out[f"{m},{r},{n}"] = 1e6 * elapsed / ITERS
    print(json.dumps(out))


def _git_commit(src: Path) -> str:
    """HEAD of the tree holding src, with '+dirty' when src differs from it."""
    def git(*args):
        return subprocess.run(["git", "-C", str(src), *args], capture_output=True, text=True)

    head = git("rev-parse", "HEAD")
    if head.returncode != 0:
        return "unknown"
    dirty = git("status", "--porcelain", "--", ".").stdout.strip()
    return head.stdout.strip() + ("+dirty" if dirty else "")


def _quartiles(values):
    import numpy as np

    q25, q50, q75 = np.percentile(values, [25, 50, 75])
    return {"median": round(float(q50), 2), "q25": round(float(q25), 2),
            "q75": round(float(q75), 2)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", action="append", default=[], metavar="LABEL=DIR",
                        help="a source tree to time (give at least two)")
    parser.add_argument("--out", default=None,
                        help="JSON file whose 'entries' list gets one entry per tree")
    parser.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.worker:
        _worker()
        return 0
    if len(args.src) < 2:
        parser.error("give at least two --src trees, e.g. the parent and the change")

    trees = {}
    for spec in args.src:
        label, _, path = spec.partition("=")
        trees[label] = Path(path).resolve()
    env = dict(os.environ)
    for var in THREAD_VARS:
        env.setdefault(var, "1")
    samples = {label: {f"{m},{r},{n}": [] for m, r, n in CONFIGS} for label in trees}
    for _ in range(REPEATS):
        for label, src in trees.items():
            env["PYTHONPATH"] = str(src)
            proc = subprocess.run([sys.executable, __file__, "--worker"],
                                  env=env, capture_output=True, text=True, check=True)
            for key, us in json.loads(proc.stdout).items():
                samples[label][key].append(us)
    common = {
        "what": "us per fixed-point iteration (wall / iterations), one solve per repeat",
        "interleaved_with": list(trees),
        "repeats": REPEATS,
        "iterations": ITERS,
        "seed": SEED,
        "nproc": os.cpu_count(),
        "threads": {var: env[var] for var in THREAD_VARS},
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
    }
    entries = [
        {"tree": label, "commit": _git_commit(src), **common,
         "us_per_iter": {key: _quartiles(v) for key, v in samples[label].items()}}
        for label, src in trees.items()
    ]
    print(json.dumps(entries, indent=2))
    if args.out:
        path = Path(args.out)
        doc = json.loads(path.read_text()) if path.exists() else {"entries": []}
        doc["entries"].extend(entries)
        path.write_text(json.dumps(doc, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
