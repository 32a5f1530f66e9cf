"""Existence verdicts and estimate statuses of the scan workload, compared across trees.

    python bench/scan_verdicts.py --src parent=/path/to/parent/src --src change=src \
        [--seeds 501-510] [--workdir DIR]

For each seed, one fresh interpreter per source tree builds the scan
workload's datasets through ``perfbench/workloads.py`` (the benchmark's own
generator, imported read-only), runs each of its ``diagnose`` and
``estimate`` command lines in process through ``grassmann_scatter.cli.main``
and reads back the reports.  Every tree is then compared with the first one,
dataset by dataset: of a diagnosis the verdict, the sign of ``min_index`` (below
-1e-9, within 1e-9 of zero, above 1e-9), ``min_index`` itself (bit for bit),
``scanned``, the zero candidates, ``complement_ok`` and the witness (by dimension,
provenance and orthogonal projector, to 1e-8), and of an estimate its status.
Each difference is printed, then one table row per seed and tree: datasets,
differences, estimate statuses, the longest estimate run and the diagnose and
estimate wall times.  Exit status 1 when any diagnosis differs.  Only the standard library
and numpy are imported here; the package is imported by the workers.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
WITNESS_TOL = 1e-8      # max-norm distance between witness projectors counted as equal
INDEX_TOL = 1e-9        # |min_index| at most this has sign 0
DIAGNOSIS = ("verdict", "min_index", "scanned", "zeros", "complement_ok")


def _worker(seed: int, workdir: str) -> None:
    """Print the reports of one scan pass at ``seed`` as JSON, in command order."""
    import numpy as np

    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads
    from grassmann_scatter import cli

    records, seconds = [], Counter()
    with tempfile.TemporaryDirectory(dir=workdir) as tmp:
        for cmd in workloads.build("scan", seed, Path(tmp)):
            verb = cmd.argv[0]
            t0 = time.perf_counter()
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                code = cli.main(cmd.argv)
            seconds[verb] += time.perf_counter() - t0
            report = json.loads((cmd.outdir / "report.json").read_text())
            rec = {"kind": cmd.kind, "verb": verb, "code": code}
            if verb == "diagnose":
                rec.update({key: report[key] for key in DIAGNOSIS})
                rec["sign"] = _sign(report["min_index"])
                rec["min_index"] = float(report["min_index"]).hex()
                rec["zeros"] = [[z["dim"], z["provenance"]] for z in report["zeros"]]
                w = report["witness"]
                if w is not None:
                    B = np.array(w["basis"])
                    w = [w["dim"], w["provenance"], (B @ B.T).tolist()]
                rec["witness"] = w
            else:
                rec.update(status=report["status"], iterations=report.get("iterations"))
            records.append(rec)
    print(json.dumps({"records": records, "seconds": dict(seconds)}))


def _sign(value: float) -> int:
    return -1 if value < -INDEX_TOL else int(value > INDEX_TOL)


def _witness_differs(a, b) -> bool:
    import numpy as np

    if a is None or b is None:
        return (a is None) != (b is None)
    return a[:2] != b[:2] or float(np.abs(np.subtract(a[2], b[2])).max()) > WITNESS_TOL


def _differences(ref: list[dict], new: list[dict]) -> list[tuple[str, str]]:
    """(verb, line) per field that differs between two runs of the same command list."""
    out = []
    for i, (a, b) in enumerate(zip(ref, new)):
        where = f"#{i // 2} {a['kind']} {a['verb']}"
        if a["verb"] == "diagnose":
            out += [("diagnose", f"{where}: {key} {a[key]!r} -> {b[key]!r}")
                    for key in ("sign",) + DIAGNOSIS if a[key] != b[key]]
            if _witness_differs(a["witness"], b["witness"]):
                out.append(("diagnose", f"{where}: witness differs"))
        elif a["status"] != b["status"]:
            out.append(("estimate", f"{where}: status {a['status']} ({a['iterations']} it) -> "
                                    f"{b['status']} ({b['iterations']} it)"))
    return out


def _seeds(spec: str) -> list[int]:
    seeds = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", action="append", default=[], metavar="LABEL=DIR",
                        help="a source tree to run (at least two; the first is the reference)")
    parser.add_argument("--seeds", default="501-510",
                        help="benchmark seeds, e.g. 501-510 or 501,503")
    parser.add_argument("--workdir", default=None,
                        help="directory for generated inputs and outputs (default: system temp)")
    parser.add_argument("--worker", type=int, default=None, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.worker is not None:
        _worker(args.worker, args.workdir)
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
    cmd = [sys.executable, __file__, "--worker"]
    rows, differing = [], 0
    for seed in _seeds(args.seeds):
        runs = {}
        for label, src in trees.items():
            env["PYTHONPATH"] = str(src)
            extra = ["--workdir", args.workdir] if args.workdir else []
            proc = subprocess.run(cmd + [str(seed)] + extra, env=env, capture_output=True,
                                  text=True, check=True)
            runs[label] = json.loads(proc.stdout)
        ref_label = next(iter(trees))
        ref = runs[ref_label]["records"]
        for label, run in runs.items():
            recs = run["records"]
            diffs = [] if label == ref_label else _differences(ref, recs)
            for _, line in diffs:
                print(f"seed {seed} {label}: {line}")
            diag = sum(verb == "diagnose" for verb, _ in diffs)
            differing += diag
            statuses = Counter(r["status"] for r in recs if r["verb"] == "estimate")
            rows.append((seed, label, len(recs) // 2, diag, len(diffs) - diag,
                         statuses.get("converged", 0), statuses.get("max_iterations", 0),
                         statuses.get("diverged_to_boundary", 0) + statuses.get("no_ge", 0),
                         max(r["iterations"] or 0 for r in recs if r["verb"] == "estimate"),
                         run["seconds"].get("diagnose", 0.0), run["seconds"].get("estimate", 0.0)))
    print("| seed | tree | datasets | diagnose diffs | estimate diffs | converged | "
          "max_iterations | no estimate | longest run | diagnose s | estimate s |")
    print("|---|---|---|---|---|---|---|---|---|---|---|")
    for row in rows:
        print("| " + " | ".join(f"{v:.2f}" if isinstance(v, float) else str(v) for v in row) + " |")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
