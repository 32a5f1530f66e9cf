"""Existence verdicts and estimate statuses of the scan workload, compared across trees.

    python bench/scan_verdicts.py --tree parent=/path/to/parent --tree change=. \
        [--seeds 501-510] [--workdir DIR]

For each seed, one harness worker per tree (``harness.py``) builds the scan
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
estimate wall times.  Exit status 1 when any diagnosis differs.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

import harness

ROOT = Path(__file__).resolve().parent.parent
WITNESS_TOL = 1e-8      # max-norm distance between witness projectors counted as equal
INDEX_TOL = 1e-9        # |min_index| at most this has sign 0
DIAGNOSIS = ("verdict", "min_index", "scanned", "zeros", "complement_ok")


def _worker(seed: str, workdir: str | None = None) -> dict:
    """The reports of one scan pass at ``seed``, in command order, and the seconds per
    verb."""
    import numpy as np

    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads
    from grassmann_scatter import cli

    records, seconds = [], Counter()
    with tempfile.TemporaryDirectory(dir=workdir) as tmp:
        for cmd in workloads.build("scan", int(seed), Path(tmp)):
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
    return {"records": records, "seconds": dict(seconds)}


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
    parser = harness.parser(__doc__)
    parser.add_argument("--seeds", default="501-510",
                        help="benchmark seeds, e.g. 501-510 or 501,503")
    parser.add_argument("--workdir", default=None,
                        help="directory for generated inputs and outputs (default: system temp)")
    args, trees = harness.parse(parser, argv, _worker)
    seeds = _seeds(args.seeds)
    if args.workdir:
        Path(args.workdir).mkdir(parents=True, exist_ok=True)
    extra = [args.workdir] if args.workdir else []
    runs = harness.alternate(trees, seeds, lambda label, root, seed: harness.run(
        root, __file__, "--worker", str(seed), *extra))
    ref_label = next(iter(trees))
    rows, differing = [], 0
    for i, seed in enumerate(seeds):
        ref = runs[ref_label][i]["records"]
        for label in trees:
            run = runs[label][i]
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
