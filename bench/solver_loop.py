"""Microseconds per fixed-point iteration, milliseconds and iterations per solve, and
milliseconds per solve of a stack of replications, before and after a solver change.

    python bench/solver_loop.py --src parent=/path/to/parent/src --src change=src \
        [--out BENCH_solver_loop.json]

Each of REPEATS repeats starts one fresh interpreter per source tree, in turn,
so the trees are interleaved against the drift of a shared host; the tree that runs
first alternates from one repeat to the next.  The worker builds seeded
Gaussian subspace samples at each (m, r, n) of CONFIGS, runs one untimed solve, then
times one ``fixed_point_solve`` per configuration with ITERS iterations
(tol 1e-300, so no run stops early) and reports wall time / iterations.  A tree
with the Newton-first loop moves the configurations whose plain update contracts
slowly (all but (10, 3, 5000)) to Newton iterations after the first, and keeps
trying Newton at the rounding floor, so there the figure is mostly a Newton
iteration's cost.  Per solve: for each (m, r, n) of SOLVE_CONFIGS it solves the
datasets default_rng(s).standard_normal((n, m, r)), s < SOLVE_SEEDS, with the
default options, one timed ``fixed_point_solve`` each after one untimed solve,
and reports the median ms per solve and the median and largest iteration count
over the seeds (the counts repeat exactly).  Stacked
mode: for each (m, r, n) of STACK_CONFIGS and each block size B of BLOCKS it draws
B seeded datasets and times one solve of all of them with the default options
(span check and fixed-point loop, as a block of Monte Carlo replications is
solved), after one untimed solve, and reports wall time / B: the B datasets are
solved as one stack by the estimator's stacked loop ``_solve_stack``.  Newton
step: for each (m, r, n) and lane count L of NEWTON_CONFIGS it draws L seeded
datasets, charts each at its solved estimate (there every lane's Hessian is
definite and its point within the conditioning bound, so every call runs the whole
build: Hessians, their eigh, the steps and their exponentials) and reports wall
time / NEWTON_CALLS of that many calls of ``estimator._newton_targets`` on the L
lanes at once, after one untimed call.  The
record is one entry per run: per tree the median and quartiles over repeats of
every row, plus nproc, the BLAS thread variables, the numpy/scipy versions and
the git commit of each tree.  With --out, the entry is appended to that file's
"entries" list.  Only the standard library and numpy are imported here; the
package itself is imported by the workers.
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
# (m, r, n) solved to the default tolerance: threshold+1 sets, generic sets, and a
# larger set whose plain update contracts fast (ratio ~0.13)
SOLVE_CONFIGS = [(5, 2, 5), (3, 2, 5), (4, 1, 6), (3, 2, 25), (5, 2, 25), (10, 3, 200)]
SOLVE_SEEDS = 60
# (m, r, n) of the LLN (3, 2) and CLT (2, 1) replications, and the block sizes
STACK_CONFIGS = [(3, 2, 25), (3, 2, 100), (2, 1, 100), (2, 1, 2000)]
BLOCKS = [1, 5, 20, 32]
# (m, r, n, L) of the Newton step: threshold+1 sets and lines one lane at a time, and the
# LLN (3, 2) and CLT (2, 1) replications as stacks of L lanes
NEWTON_CONFIGS = [(5, 2, 5, 1), (4, 1, 6, 1), (3, 2, 25, 5), (2, 1, 100, 20)]
NEWTON_CALLS = 200
SEED = 20261018
REPEATS = 15
ITERS = 30
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _points(m, r, n, rng, count=None):
    """Gaussian subspace samples of a non-isotropic truth: (n, m, r), or (count, n, m, r)."""
    import numpy as np

    A = rng.standard_normal((m, m))
    shape = (n, m, r) if count is None else (count, n, m, r)
    return np.einsum("ij,...njr->...nir", A, rng.standard_normal(shape))


def _stack_solve(points):
    """A call that solves the datasets points (B, n, m, r) as one stack, span check
    included (the datasets are built outside the call)."""
    import numpy as np

    from grassmann_scatter import SolverOptions, estimator

    opts = SolverOptions()
    weights = np.full(points.shape[:2], 1.0 / points.shape[1])
    return lambda: (estimator._check_span(points),
                    estimator._solve_stack(points, weights, opts))[1]


def _newton_call(points):
    """A call of the batched Newton build on the datasets points (L, n, m, r), each
    charted at its solved estimate; exits unless every lane gets a Newton point."""
    import numpy as np

    from grassmann_scatter import Empirical, estimator, fixed_point_solve
    from grassmann_scatter.likelihood import _weighted_kernel_sum
    from grassmann_scatter.manifold import _chart, _Chart

    L, n, m, r = points.shape
    charts = [_chart(fixed_point_solve(Empirical(p)).estimate) for p in points]
    it = _Chart(*(np.stack(a) for a in zip(*charts)))
    weights = np.full((L, n), 1.0 / n)
    M, _, U = _weighted_kernel_sum(points.reshape(-1, m, r), weights.reshape(-1), it.F, it.W)[:3]
    definite, safe, _ = estimator._newton_targets(U, weights, M, it)
    if not safe.all():
        raise SystemExit(f"({m},{r},{n}) L={L}: a lane has no Newton point")
    return lambda: estimator._newton_targets(U, weights, M, it)


def _worker() -> None:
    """One repeat in this interpreter: print {"us_per_iter": {config: us},
    "ms_per_fixed_point_solve": {config: ms}, "iterations_per_solve": {config
    median|max: count}, "ms_per_solve": {config/B: ms}, "us_per_newton_call":
    {config/L: us}} as JSON."""
    import numpy as np

    from grassmann_scatter import Empirical, SolverOptions, fixed_point_solve

    opts = SolverOptions(max_iter=ITERS, tol=1e-300)
    out = {"us_per_iter": {}, "ms_per_fixed_point_solve": {}, "iterations_per_solve": {},
           "ms_per_solve": {}, "us_per_newton_call": {}}
    for i, (m, r, n) in enumerate(CONFIGS):
        meas = Empirical(_points(m, r, n, np.random.default_rng([SEED, i])))
        fixed_point_solve(meas, options=opts)                 # warm caches, untimed
        t0 = time.perf_counter()
        result = fixed_point_solve(meas, options=opts)
        elapsed = time.perf_counter() - t0
        if result.iterations != ITERS:
            raise SystemExit(f"({m},{r},{n}) stopped after {result.iterations} iterations")
        out["us_per_iter"][f"{m},{r},{n}"] = 1e6 * elapsed / ITERS
    for m, r, n in SOLVE_CONFIGS:
        sets = [Empirical(np.random.default_rng(s).standard_normal((n, m, r)))
                for s in range(SOLVE_SEEDS)]
        fixed_point_solve(sets[0])                            # warm caches, untimed
        ms, iterations = [], []
        for meas in sets:
            t0 = time.perf_counter()
            result = fixed_point_solve(meas)
            ms.append(1e3 * (time.perf_counter() - t0))
            iterations.append(result.iterations)
        key = f"{m},{r},{n}"
        out["ms_per_fixed_point_solve"][key] = float(np.median(ms))
        out["iterations_per_solve"][f"{key} median"] = float(np.median(iterations))
        out["iterations_per_solve"][f"{key} max"] = max(iterations)
    for i, (m, r, n) in enumerate(STACK_CONFIGS):
        for B in BLOCKS:
            solve = _stack_solve(_points(m, r, n, np.random.default_rng([SEED, 100 + i, B]), count=B))
            solve()                                           # warm caches, untimed
            t0 = time.perf_counter()
            results = solve()
            elapsed = time.perf_counter() - t0
            if not all(res.converged for res in results):
                raise SystemExit(f"({m},{r},{n}) B={B}: a replication did not converge")
            out["ms_per_solve"][f"{m},{r},{n} B={B}"] = 1e3 * elapsed / B
    for i, (m, r, n, L) in enumerate(NEWTON_CONFIGS):
        call = _newton_call(_points(m, r, n, np.random.default_rng([SEED, 200 + i]), count=L))
        call()                                                # warm caches, untimed
        t0 = time.perf_counter()
        for _ in range(NEWTON_CALLS):
            call()
        out["us_per_newton_call"][f"{m},{r},{n} L={L}"] = \
            1e6 * (time.perf_counter() - t0) / NEWTON_CALLS
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
    samples = {label: {} for label in trees}
    for i in range(REPEATS):
        for label in list(trees) if i % 2 == 0 else list(trees)[::-1]:
            env["PYTHONPATH"] = str(trees[label])
            proc = subprocess.run([sys.executable, __file__, "--worker"],
                                  env=env, capture_output=True, text=True, check=True)
            for kind, rows in json.loads(proc.stdout).items():
                for key, value in rows.items():
                    samples[label].setdefault(kind, {}).setdefault(key, []).append(value)
    entry = {
        "what": "per tree: us per fixed-point iteration (wall / iterations, one solve per "
                "repeat), ms per fixed_point_solve (median over the seeds) and iterations "
                "per solve (median and max over the seeds), ms per solve of a block of "
                "B replications (wall / B, one block solve per repeat), and us per "
                "batched Newton build on L lanes (wall / calls); median and quartiles "
                "over repeats",
        "interleaved": list(trees),
        "repeats": REPEATS,
        "iterations": ITERS,
        "seed": SEED,
        "solve_seeds": SOLVE_SEEDS,
        "newton_calls": NEWTON_CALLS,
        "nproc": os.cpu_count(),
        "threads": {var: env[var] for var in THREAD_VARS},
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "trees": {
            label: {"commit": _git_commit(src),
                    **{kind: {key: _quartiles(v) for key, v in rows.items()}
                       for kind, rows in samples[label].items()}}
            for label, src in trees.items()
        },
    }
    print(json.dumps(entry, indent=2))
    if args.out:
        path = Path(args.out)
        doc = json.loads(path.read_text()) if path.exists() else {"entries": []}
        doc["entries"].append(entry)
        path.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
