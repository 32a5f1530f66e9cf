"""Milliseconds per phase of one in-process ``cli.main`` command, before and after a
change to the command-line front end.

    python bench/cli_overhead.py --tree parent=/path/to/parent --tree change=. \
        [--out BENCH_cli_overhead.json]

The trees, the interleaved rounds and the record are ``harness.py``'s; here each of
ROUNDS rounds runs one worker per tree.  The worker writes seeded
inputs to a temporary directory (a threshold+1 (5,2,5) set and a no-GE (3,1,6) set,
as in the scan workload, and the 3x3 and 2x2 scatters of the small-mc workload), wraps
the phases of ``cli.main`` from outside, runs every command of COMMANDS once untimed
and then REPEATS times, and reports the median milliseconds of each phase per command:

* ``parser``: every ``argparse`` parser construction, ``add_argument``,
  ``set_defaults``, subparser and parse call (outermost call only);
* ``read``: the ``read_*`` functions ``cli`` calls;
* ``solve``: ``fixed_point_solve``, ``diagnose``, ``lln_experiment``, ``clt_experiment``;
* ``write <file>``: each output file, keyed by its name.  ``cli._emit`` writes every
  file through the ``write_*`` functions; a tree older than ``_emit`` has
  ``cli._write_replay``, and there ``write replay.json`` is that whole function,
  version lookups included;
* ``mkdir``: ``cli._outdir``;
* ``other``: the rest of ``cli.main`` (dispatch, report shaping, the replay document,
  printing).  No
  function of ``gradcheck``'s is wrapped, so its compute (the finite differences of
  ``loglik``, ``grad`` and ``hess_quadform`` along geodesics) lands here too.

Only the outermost wrapped call is timed, so a write made inside ``_write_replay``
counts once, to ``write replay.json``.  The wrappers add about a microsecond per
wrapped call.  A row is one phase of one command, its median over the repeats
summarized over the rounds; the ``exit`` row summarizes the command's exit status.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

import harness

SEED = 20261019
ROUNDS = 7
REPEATS = 60
# name -> argv after the input paths are filled in ({data}, {noge}, {s3}, {s2}, {out})
COMMANDS = {
    "scan estimate (5,2,5)": ["estimate", "--input", "{data}", "--out", "{out}"],
    "scan diagnose (5,2,5)": ["diagnose", "--input", "{data}", "--out", "{out}"],
    "scan estimate no_ge(3,1,6)": ["estimate", "--input", "{noge}", "--out", "{out}"],
    "small-mc lln(3,2)": ["lln", "--sigma", "{s3}", "--r", "2", "--ns", "25,100", "--reps", "5",
                          "--seed", "7", "--threads", "1", "--out", "{out}"],
    "small-mc clt(2,1)": ["clt", "--sigma", "{s2}", "--r", "1", "--n", "100", "--reps", "20",
                          "--ref-mc", "4000", "--seed", "7", "--threads", "1", "--out", "{out}"],
    "gradcheck m=4": ["gradcheck", "--m", "4", "--trials", "5", "--out", "{out}"],
}
SOLVES = ("fixed_point_solve", "diagnose", "lln_experiment", "clt_experiment")


class _Phases:
    """Outermost-call timers keyed by phase name."""

    def __init__(self):
        self.depth = 0
        self.ns: dict[str, int] = {}

    def wrap(self, fn, phase):
        def timed(*args, **kwargs):
            if self.depth:
                return fn(*args, **kwargs)
            key = phase(args, kwargs) if callable(phase) else phase
            self.depth += 1
            t0 = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                self.ns[key] = self.ns.get(key, 0) + time.perf_counter_ns() - t0
                self.depth -= 1
        return timed


def _inputs(tmp: Path) -> dict[str, str]:
    import numpy as np

    rng = np.random.default_rng(SEED)

    def dataset(name, points):
        n, m, r = points.shape
        path = tmp / name
        path.write_text(json.dumps({"m": m, "r": r, "points": points.tolist()}))
        return str(path)

    def scatter(name, m):
        Q, _ = np.linalg.qr(rng.standard_normal((m, m)))
        lam = np.geomspace(1.0, 10.0, m)
        lam /= np.exp(np.log(lam).mean())
        path = tmp / name
        np.savetxt(path, (Q * lam) @ Q.T, delimiter=",", fmt="%.17g")
        return str(path)

    B, _ = np.linalg.qr(rng.standard_normal((3, 2)))
    noge = np.concatenate([(B @ rng.standard_normal((2, 5))).T, rng.standard_normal((1, 3))])
    return {"data": dataset("t525.json", rng.standard_normal((5, 5, 2))),
            "noge": dataset("noge316.json", noge[:, :, None]),
            "s3": scatter("sigma3.csv", 3), "s2": scatter("sigma2.csv", 2),
            "out": str(tmp / "out")}


def _install(cli, phases: _Phases) -> None:
    for cls, names in ((argparse.ArgumentParser, ("__init__", "parse_args", "add_subparsers")),
                       (argparse._ActionsContainer, ("add_argument", "set_defaults")),
                       (argparse._SubParsersAction, ("add_parser",))):
        for name in names:
            setattr(cls, name, phases.wrap(getattr(cls, name), "parser"))
    for name, obj in list(vars(cli).items()):
        if not callable(obj):
            continue
        if name.startswith("read_"):
            setattr(cli, name, phases.wrap(obj, "read"))
        elif name in SOLVES:
            setattr(cli, name, phases.wrap(obj, "solve"))
        elif name.startswith("write_"):
            setattr(cli, name, phases.wrap(
                obj, lambda args, kwargs: f"write {Path(args[0]).name}"))
    if hasattr(cli, "_write_replay"):
        cli._write_replay = phases.wrap(cli._write_replay, "write replay.json")
    cli._outdir = phases.wrap(cli._outdir, "mkdir")


def worker() -> dict:
    """{"commands": {command: {"exit": status, phase: median ms}}}."""
    from grassmann_scatter import cli

    phases = _Phases()
    _install(cli, phases)
    result = {}
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):
        paths = _inputs(Path(tmp))
        for label, argv in COMMANDS.items():
            argv = [a.format(**paths) for a in argv]
            samples: dict[str, list[float]] = {}
            for rep in range(REPEATS + 1):
                shutil.rmtree(paths["out"], ignore_errors=True)     # a fresh --out, as in perfbench
                phases.ns = {}
                t0 = time.perf_counter_ns()
                code = cli.main(argv)
                total = time.perf_counter_ns() - t0
                if not rep:
                    continue                    # lazy imports and first-call set-up
                ms = {k: v / 1e6 for k, v in phases.ns.items()}
                ms["other"] = total / 1e6 - sum(ms.values())
                ms["total"] = total / 1e6
                for k, v in ms.items():
                    samples.setdefault(k, []).append(v)
            result[label] = {"exit": code,
                             **{k: statistics.median(v) for k, v in sorted(samples.items())}}
    return {"commands": result}


def main(argv=None) -> int:
    parser = harness.parser(__doc__)
    parser.add_argument("--out", help="JSON file whose 'entries' list gets this run's entry")
    args, trees = harness.parse(parser, argv, worker)
    runs = harness.repeats(__file__, trees, ROUNDS)
    harness.append(harness.envelope(
        f"bench/cli_overhead.py: median ms per phase of one in-process cli.main command over "
        f"{REPEATS} repeats, median and quartiles over {ROUNDS} interleaved rounds",
        trees, runs, ROUNDS, {"seed": SEED}, calls_per_round=REPEATS), args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
