"""Benchmark of the grassmann-scatter command line.

    python3 perfbench/run.py --workload {bulk,small-mc,scan} --seed N --seconds S --trace {0,1}

Run from anywhere inside a source checkout; the package is imported from the
checkout's ``src/``.  The workload's inputs are generated from ``--seed``;
then whole passes over the workload's command list run in this process
through ``grassmann_scatter.cli.main(argv)`` with one worker (and one
OpenBLAS thread unless the environment sets another count), for about
``--seconds`` seconds, and every command's exit code and outputs are checked.
Every command is timed next to a host-speed probe (see calibration.py), and
the end-to-end timings are in reference seconds.

With ``--trace 0`` the result carries the end-to-end metrics.  With
``--trace 1`` the first half of the time runs untraced passes and the second
half traced ones (see tracing.py); the result carries the per-layer metrics
and the tracing overhead.  A human-readable report (environment, every metric
with its unit, failures) precedes the result, which is the last line of
standard output: ``{"correct", "attempted", "failed", "metrics"}``.
Inputs, outputs, reports and span logs go to ``.bench_out/`` at the checkout root.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")    # before numpy loads: one worker, one BLAS thread

import calibration  # noqa: E402
import environment  # noqa: E402
import workloads  # noqa: E402
from tracing import LAYERS, Tracer, is_timed, layer_metrics

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

# A run makes at least this many passes (more while the next one fits in
# --seconds); the commands of these first passes are the tail sample, so its
# size and percentile are fixed per workload.
TAIL_PASSES = {"bulk": 6, "small-mc": 2, "scan": 1}
SETUP_REPEATS = 5
TAIL_BEYOND = 10
NOTES = [
    "wait times: none reported; every layer runs synchronously on one thread with no "
    "queues, so no layer waits for another",
    "correct: no output the program delivered was wrong; failed also counts commands "
    "that raised or whose exit code differs from the one their input implies",
]

_IMPORT_TIMER = ("import time; t = time.perf_counter(); import grassmann_scatter.cli; "
                 "print(time.perf_counter() - t)")


class _Discard(io.TextIOBase):
    def write(self, s):
        return len(s)


@dataclass
class Pass:
    cmd_s: list[float]                        # measured seconds per command
    ref_cmd_s: list[float]                    # the same in reference seconds
    probe_s: list[float]                      # host-speed probe just before each command
    failures: list[tuple[int, str, str]]      # (command index, kind, reason)
    snapshot: dict | None = field(default=None)  # tracer counters of a traced pass

    @property
    def wall_s(self) -> float:
        """Measured time of the pass's commands (probes excluded)."""
        return sum(self.cmd_s)

    @property
    def ref_wall_s(self) -> float:
        return sum(self.ref_cmd_s)


def measure_setup(probe) -> list[tuple[float, float]]:
    """(measured, reference) import times of grassmann_scatter.cli in fresh
    interpreters, each bracketed by probes; the first import is untimed."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    samples = []
    for i in range(SETUP_REPEATS + 1):
        before = probe()
        done = subprocess.run([sys.executable, "-c", _IMPORT_TIMER], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=120, check=False)
        after = probe()
        if done.returncode != 0:
            raise RuntimeError(f"importing grassmann_scatter.cli failed:\n{done.stderr}")
        if i:
            t = float(done.stdout.strip())
            samples.append((t, probe.to_reference(t, 0.5 * (before + after))))
    return samples


def run_pass(cli, commands, probe, tracer=None) -> Pass:
    """Run every command once, timed next to ``probe``; then check the outputs
    and clear them."""
    starts, cmd_s, probe_at, probe_s, codes, errors, stderr_at = [], [], [], [], [], [], [0]
    stderr = io.StringIO()
    if tracer is not None:
        tracer.reset()
    with contextlib.redirect_stdout(_Discard()), contextlib.redirect_stderr(stderr):
        for i, cmd in enumerate(commands):
            if tracer is not None:
                tracer.request = i
            probe_s.append(probe())
            t0 = time.perf_counter()
            probe_at.append(t0)
            try:
                code, err = cli.main(cmd.argv), None
            except Exception as exc:  # a crashing command is a counted failure
                code, err = None, exc
            starts.append(t0)
            cmd_s.append(time.perf_counter() - t0)
            codes.append(code)
            errors.append(err)
            stderr_at.append(stderr.tell())
    snap = tracer.snapshot() if tracer is not None else None
    failures = []
    text = stderr.getvalue()
    for i, (cmd, code, err) in enumerate(zip(commands, codes, errors)):
        trace = None if err is None else "".join(traceback.format_exception(err)).strip()
        bad = workloads.outcome(cmd, code, trace)
        if bad is not None:
            said = text[stderr_at[i]:stderr_at[i + 1]].strip()
            failures.append((i, bad[0], f"{bad[1]}; stderr: {said}" if said else bad[1]))
        shutil.rmtree(cmd.outdir, ignore_errors=True)
    ref = probe.reference_times(starts, cmd_s, probe_at, probe_s)
    return Pass(cmd_s, ref, probe_s, failures, snap)


def run_passes(cli, commands, probe, seconds: float, min_passes: int,
               tracer=None) -> list[Pass]:
    """At least ``min_passes`` passes; more while the next one fits in ``seconds``."""
    start = time.perf_counter()
    passes = []
    while True:
        passes.append(run_pass(cli, commands, probe, tracer))
        elapsed = time.perf_counter() - start
        if len(passes) >= min_passes and elapsed + elapsed / len(passes) > seconds:
            return passes


def end_to_end(passes, commands, setup, tail_passes, probe) -> tuple[dict, dict]:
    """End-to-end metrics in reference seconds; the measured figures go to the details."""
    walls = [p.ref_wall_s for p in passes]
    tail = sorted(t for p in passes[:tail_passes] for t in p.ref_cmd_s)
    n = len(tail)
    solves = sum(c.solves for c in commands)
    probes = [s for p in passes for s in p.probe_s]
    return {
        "wall_s": (statistics.median(walls), "s"),
        "cmd_ms_p50": (1e3 * statistics.median(t for p in passes for t in p.ref_cmd_s), "ms"),
        "cmd_ms_tail": (1e3 * tail[n - 1 - TAIL_BEYOND], "ms"),
        "solves_per_s": (solves * len(passes) / sum(walls), "1/s"),
        "setup_s": (statistics.median(ref for _, ref in setup), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }, {
        "passes": len(passes),
        "pass_wall_s": walls,
        "commands_per_pass": len(commands),
        "cmd_ms_tail_percentile": round(100.0 * (n - TAIL_BEYOND) / n, 2),
        "cmd_ms_tail_sample": n,
        "solves_per_pass": solves,
        "setup_samples_s": [ref for _, ref in setup],
        "measured": {
            "wall_s": statistics.median(p.wall_s for p in passes),
            "cmd_ms_p50": 1e3 * statistics.median(t for p in passes for t in p.cmd_s),
            "setup_s": statistics.median(t for t, _ in setup),
        },
        "host_slowdown": {
            "median": probe.slowdown(statistics.median(probes)),
            "min": probe.slowdown(min(probes)),
            "max": probe.slowdown(max(probes)),
        },
    }


def per_layer(traced: list[Pass], untraced: list[Pass]) -> tuple[dict, dict]:
    per_pass = [layer_metrics(p.snapshot) for p in traced]
    first = per_pass[0]
    out = {}
    for name, (value, unit) in first.items():
        if is_timed(name):
            value = statistics.median(m[name][0] for m in per_pass)
        out[name] = (value, unit)
    traced_wall = statistics.median(p.ref_wall_s for p in traced)
    untraced_wall = statistics.median(p.ref_wall_s for p in untraced)
    out["trace.overhead_frac"] = (traced_wall / untraced_wall - 1.0, "ratio")
    repeat = all({k: v for k, v in m.items() if not is_timed(k)}
                 == {k: v for k, v in first.items() if not is_timed(k)} for m in per_pass)
    return out, {
        "traced_passes": len(traced),
        "untraced_passes": len(untraced),
        "traced_ref_wall_s": traced_wall,
        "untraced_ref_wall_s": untraced_wall,
        "counts_repeat_across_passes": repeat,
        "self_s_total": sum(first[f"{name}.self_s"][0] for name in LAYERS),
        "first_traced_pass_wall_s": traced[0].wall_s,
        "solver_statuses": traced[0].snapshot["statuses"],
        "solver_raised": traced[0].snapshot["raised"],
    }


def _failure_summary(passes, commands) -> list[dict]:
    seen = {}
    for p in passes:
        for i, kind, reason in p.failures:
            key = (commands[i].kind, commands[i].argv[0], kind, reason.splitlines()[-1][:160])
            seen[key] = seen.get(key, 0) + 1
    return [{"dataset": k[0], "command": k[1], "kind": k[2], "reason": k[3], "count": v}
            for k, v in sorted(seen.items())]


def tally(passes, commands) -> tuple[int, int, bool]:
    """(attempted, failed, correct): correct means no delivered output failed its check."""
    failures = [kind for p in passes for _, kind, _ in p.failures]
    return len(commands) * len(passes), len(failures), "check" not in failures


def _warm_up(cli, commands, probe) -> None:
    """Run the first command of each subcommand once, untimed (lazy imports, caches)."""
    first = {}
    for cmd in commands:
        first.setdefault(cmd.argv[0], cmd)
    run_pass(cli, list(first.values()), probe)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not (SRC / "grassmann_scatter" / "__init__.py").is_file():
        print(f"error: no package sources under {SRC}; run inside a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    probe = calibration.Probe(args.workload)
    setup = None if args.trace else measure_setup(probe)
    import grassmann_scatter.cli as cli

    if Path(cli.__file__).resolve().parents[1] != SRC:
        print(f"error: imported {cli.__file__}, not the checkout's package", file=sys.stderr)
        return 2
    env = environment.record(ROOT, args.workload, args.seed, args.seconds, bool(args.trace))
    work = OUT / f"work-{os.getpid()}"
    try:
        commands = workloads.build(args.workload, args.seed, work)
        _warm_up(cli, commands, probe)
        if args.trace:
            untraced = run_passes(cli, commands, probe, args.seconds / 2, 1)
            tracer = Tracer()
            tracer.install()
            try:
                traced = run_passes(cli, commands, probe, args.seconds / 2, 1, tracer)
            finally:
                tracer.uninstall()
            passes = traced
            metrics, details = per_layer(traced, untraced)
            details["spans"] = tracer.spans
            span_file = OUT / f"spans-{args.workload}-seed{args.seed}.csv.gz"
            tracer.write_spans(span_file)
            details["span_file"] = str(span_file.relative_to(ROOT))
        else:
            tail_passes = TAIL_PASSES[args.workload]
            passes = run_passes(cli, commands, probe, args.seconds, tail_passes)
            metrics, details = end_to_end(passes, commands, setup, tail_passes, probe)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted, failed, correct = tally(passes, commands)
    report = {
        "env": env,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "details": details,
        "attempted": attempted,
        "failed": failed,
        "fail_frac": failed / attempted,
        "failures": _failure_summary(passes, commands),
        "notes": NOTES,
    }
    (OUT / f"report-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=1))
    print(json.dumps(report, indent=1))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": report["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
