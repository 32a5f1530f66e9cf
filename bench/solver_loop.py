"""Microseconds per fixed-point iteration, milliseconds and iterations per solve, and
milliseconds per solve of a stack of replications, before and after a solver change.

    python bench/solver_loop.py --tree parent=/path/to/parent --tree change=. \
        [--out BENCH_solver_loop.json]

The trees, the interleaved rounds and the record are ``harness.py``'s; here each of
REPEATS rounds runs one worker per tree.  The worker builds seeded Gaussian subspace
samples at each (m, r, n) of CONFIGS, runs one untimed solve, then
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
lanes at once, after one untimed call.
"""

from __future__ import annotations

import sys
import time

import harness

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


def _worker() -> dict:
    """One repeat in this interpreter: {"us_per_iter": {config: us},
    "ms_per_fixed_point_solve": {config: ms}, "iterations_per_solve": {config
    median|max: count}, "ms_per_solve": {config/B: ms}, "us_per_newton_call":
    {config/L: us}}."""
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
    return out


def main(argv=None) -> int:
    parser = harness.parser(__doc__)
    parser.add_argument("--out", help="JSON file whose 'entries' list gets this run's entry")
    args, trees = harness.parse(parser, argv, _worker)
    runs = harness.repeats(__file__, trees, REPEATS)
    harness.append(harness.envelope(
        "per tree: us per fixed-point iteration (wall / iterations, one solve per repeat), "
        "ms per fixed_point_solve (median over the seeds) and iterations per solve (median "
        "and max over the seeds), ms per solve of a block of B replications (wall / B, one "
        "block solve per repeat), and us per batched Newton build on L lanes (wall / "
        "calls); median and quartiles over repeats",
        trees, runs, REPEATS, {"seed": SEED, "solve_seeds": [0, SOLVE_SEEDS - 1]},
        iterations=ITERS, newton_calls=NEWTON_CALLS), args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
