"""Byte-for-byte comparison of the output files of two source trees on one workload.

    python bench/compare_outputs.py --tree a=/path/to/parent --tree b=. \
        --workload {bulk,small-mc,scan} --seed N [--workdir DIR]

The two trees are ``harness.py``'s, for example the parent commit and the change.  The
workload's inputs and command list are built once, here, by ``perfbench/workloads.py``
(the benchmark's own generator, imported read-only).  Then each tree runs one pass over
the command list in a harness worker, through ``grassmann_scatter.cli.main``, writing to
its own output directory.  Every
output file is compared byte for byte, after each tree's output root is
replaced by one placeholder (``replay.json`` records ``--out``), and so are the
exit codes.  Each difference is printed; for a file that differs, so are the largest
relative difference of its floating-point numbers (a token with a decimal point or an
exponent, or NaN / Infinity) and whether everything else matches: the text between
them, integers included (statuses, verdicts, iteration counts, keys).  For a
``report.json`` that differs, so is the largest entry of P_a - P_b over its subspace
bases (the ``basis`` entries and a no_ge ``witness``), P = Q Q^T for an orthonormal
basis Q of the columns: a basis rotated inside its subspace (an eigenvalue cluster)
leaves P as it is.  So a change at the rounding level shows as such.  The exit status
is 1 when anything differs (byte for byte), else 0.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import re
import sys
import tempfile
from pathlib import Path

import harness
import numpy as np

ROOT = Path(__file__).resolve().parent.parent
OUT_ROOT = b"<OUT>"


def _build(workload: str, seed: int, workdir: Path) -> list[list[str]]:
    """The argv of every command of one pass; the inputs are written under ``workdir``."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads

    return [cmd.argv for cmd in workloads.build(workload, seed, workdir)]


def _worker(tree: str, commands: str, out: str) -> list[int]:
    """Run every command with its ``--out`` moved under ``out``; the exit codes."""
    from grassmann_scatter import cli

    if Path(cli.__file__).resolve().parents[1] != Path(tree) / "src":
        raise SystemExit(f"imported {cli.__file__}, not the tree {tree}")
    codes = []
    for i, argv in enumerate(json.loads(Path(commands).read_text())):
        argv = list(argv)
        argv[argv.index("--out") + 1] = str(Path(out) / f"c{i:03d}")
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            codes.append(cli.main(argv))
    return codes


def _files(out: Path) -> dict[str, Path]:
    return {str(p.relative_to(out)): p for p in sorted(out.rglob("*")) if p.is_file()}


def _first_difference(a: bytes, b: bytes) -> str:
    for n, (x, y) in enumerate(zip(a.splitlines(), b.splitlines()), 1):
        if x != y:
            return f"line {n}: {x[:100]!r} -> {y[:100]!r}"
    return f"lengths {len(a)} -> {len(b)} bytes"


def _numbers_and_rest(a: bytes, b: bytes) -> str:
    """The largest relative difference of the floats of two files, and whether the rest
    (the text between the floats, integers included) matches."""
    # a float token: digits with a decimal point or an exponent, or NaN / Infinity; a
    # split on one group alternates text and float tokens, text at even positions
    pattern = rb"(-?(?:\d+(?:\.\d+(?:[eE][-+]?\d+)?|[eE][-+]?\d+)|Infinity)|NaN)"
    pa, pb = re.split(pattern, a), re.split(pattern, b)
    if len(pa) != len(pb):
        return "the floats do not pair up, non-numeric tokens differ"
    largest = 0.0
    for x, y in zip(map(float, pa[1::2]), map(float, pb[1::2])):
        if x != y and not (math.isnan(x) and math.isnan(y)):
            scale = max(abs(x), abs(y))
            largest = max(largest, abs(x - y) / scale if math.isfinite(scale) else math.inf)
    return (f"largest relative difference {largest:.1e}, "
            f"non-numeric tokens {'match' if pa[::2] == pb[::2] else 'differ'}")


def _bases(doc, path: str = ""):
    """Yield (path, basis) for every subspace basis of a report, in document order: the
    lists under a ``basis`` or ``witness`` key."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) \
        if isinstance(doc, list) else ()
    for key, value in items:
        if key in ("basis", "witness") and isinstance(value, list):
            yield f"{path}/{key}", value
        else:
            yield from _bases(value, f"{path}/{key}")


def _projector_difference(a: bytes, b: bytes) -> str:
    """The largest entry of P_a - P_b over the paired subspace bases of two reports."""
    bases_a, bases_b = list(_bases(json.loads(a))), list(_bases(json.loads(b)))
    if [(path, np.shape(B)) for path, B in bases_a] != \
            [(path, np.shape(B)) for path, B in bases_b]:
        return "subspace bases do not pair up"
    if not bases_a:
        return "no subspace bases"
    largest = 0.0
    for (_, Ba), (_, Bb) in zip(bases_a, bases_b):
        Pa, Pb = (Q @ Q.T for Q in (np.linalg.qr(np.asarray(B, dtype=float))[0]
                                    for B in (Ba, Bb)))
        largest = max(largest, float(np.abs(Pa - Pb).max()))
    return f"largest projector difference {largest:.1e}"


def compare(trees: dict[str, Path], workload: str, seed: int, workdir: Path) -> int:
    """Print every difference between the two trees' passes; return how many there are."""
    commands = workdir / "commands.json"
    commands.write_text(json.dumps(_build(workload, seed, workdir)))
    outs = {label: workdir / f"out-{i}" for i, label in enumerate(trees)}
    runs = harness.alternate(trees, [commands], lambda label, root, cmds: harness.run(
        root, __file__, "--worker", str(root), str(cmds), str(outs[label])))
    (codes_a,), (codes_b,) = runs.values()
    out_a, out_b = outs.values()
    diffs = [f"c{i:03d}: exit code {a} -> {b}"
             for i, (a, b) in enumerate(zip(codes_a, codes_b)) if a != b]
    files_a, files_b = _files(out_a), _files(out_b)
    diffs += [f"{name}: only in {list(trees.values())[name in files_b]}"
              for name in sorted(files_a.keys() ^ files_b.keys())]
    same = 0
    for name in sorted(files_a.keys() & files_b.keys()):
        a, b = (files[name].read_bytes().replace(str(out).encode(), OUT_ROOT)
                for files, out in ((files_a, out_a), (files_b, out_b)))
        if a == b:
            same += 1
        else:
            line = f"{name}: {_first_difference(a, b)}; {_numbers_and_rest(a, b)}"
            if name.endswith("report.json"):
                line += f"; {_projector_difference(a, b)}"
            diffs.append(line)
    for line in diffs:
        print(line)
    print(f"{workload} seed {seed}: {len(codes_a)} commands, {same} identical files, "
          f"{len(diffs)} differences")
    return len(diffs)


def main(argv=None) -> int:
    parser = harness.parser(__doc__)
    parser.add_argument("--workload", required=True, choices=("bulk", "small-mc", "scan"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", type=Path, default=None,
                        help="directory for inputs and outputs, kept (default: a temporary one)")
    args, trees = harness.parse(parser, argv, _worker)
    if len(trees) != 2:
        parser.error("give exactly two --tree LABEL=ROOT")
    if args.workdir is not None:
        args.workdir.mkdir(parents=True, exist_ok=True)
        return int(compare(trees, args.workload, args.seed, args.workdir.resolve()) > 0)
    with tempfile.TemporaryDirectory() as tmp:
        return int(compare(trees, args.workload, args.seed, Path(tmp)) > 0)


if __name__ == "__main__":
    sys.exit(main())
