"""Seeded workloads: input files, the command list of one pass, and output checks.

Every workload is a fixed list of ``grassmann-scatter`` command lines built
from the benchmark seed.  The program only ever sees the generated files and
arguments.  Each command carries the exit code its input's construction
implies and a check of the outputs it must leave behind; README.md says why
each workload looks the way it does.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

WORKLOADS = ("bulk", "small-mc", "scan")

# Exit codes of the README contract.
OK, LIMIT, NO_ESTIMATE, BAD_INPUT, INCONCLUSIVE = 0, 1, 2, 3, 4
VERDICT_CODE = {"unique": OK, "limit": LIMIT, "no_ge": NO_ESTIMATE, "inconclusive": INCONCLUSIVE}
STATUS_CODE = {
    "converged": OK,
    "diverged_to_boundary": NO_ESTIMATE,
    "no_ge": NO_ESTIMATE,
    "max_iterations": INCONCLUSIVE,
}

SOLVER_TOL = 1e-12          # the CLI's default residual tolerance
RESIDUAL_SLACK = 1e-6       # relative slack for re-evaluating it in another order
DET_TOL = 1e-9              # |det - 1| of a returned estimate
ANNIHILATION_TOL = 1e-9     # CLT covariance on killed directions; structurally ~1e-16
TRUE_SCATTER_COND = 10.0    # eigenvalue ratio of the scatter generating bulk/small-mc data


class CheckFailed(Exception):
    """An output the program delivered as valid is wrong or missing."""


@dataclass
class Command:
    """One CLI invocation with the outcome its input implies."""

    kind: str                    # dataset family, for failure reports
    argv: list[str]
    expect: int                  # implied exit code
    outdir: Path
    solves: int                  # fixed-point solves the command performs
    check: Callable[["Command", int], None] = field(repr=False)
    points: np.ndarray | None = field(default=None, repr=False)


def _rotated_scatter(m: int, rng: np.random.Generator) -> np.ndarray:
    """Det-1 SPD matrix with a fixed geometric spectrum and a random eigenbasis.

    The fixed-point iteration from the identity is equivariant under
    rotations, so its iteration count depends on the spectrum and the sample
    noise only; fixing the spectrum keeps the work per solve steady across
    seeds.
    """
    lam = np.geomspace(1.0, TRUE_SCATTER_COND, m)
    lam /= math.exp(float(np.log(lam).mean()))
    Q, _ = np.linalg.qr(rng.standard_normal((m, m)))
    S = (Q * lam) @ Q.T
    return 0.5 * (S + S.T)


def _gaussian_points(sigma: np.ndarray, r: int, n: int, rng) -> np.ndarray:
    L = np.linalg.cholesky(sigma)
    return np.einsum("ij,njr->nir", L, rng.standard_normal((n, sigma.shape[0], r)))


def _write_dataset(path: Path, points: np.ndarray) -> None:
    n, m, r = points.shape
    with open(path, "w") as fh:
        json.dump({"m": m, "r": r, "points": points.tolist()}, fh)


def _write_csv(path: Path, M: np.ndarray) -> None:
    np.savetxt(path, M, delimiter=",", fmt="%.17g")


# ---------------------------------------------------------------------------
# output checks (independent numpy re-implementations, not library calls)


def _load_json(path: Path) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        raise CheckFailed(f"{path.name}: {exc}") from exc


def _load_csv(path: Path) -> np.ndarray:
    try:
        return np.loadtxt(path, delimiter=",", ndmin=2)
    except (OSError, ValueError) as exc:
        raise CheckFailed(f"{path.name}: {exc}") from exc


def whitened_residual(points: np.ndarray, sigma: np.ndarray) -> float:
    """|| sum_j w_j Pi_j - (r/m) Id ||_F^2 with Pi_j the Cholesky-whitened projectors.

    Uniform weights.  Equals the library's residual, which whitens by the
    symmetric square root instead: the two whitenings differ by an orthogonal
    factor, which leaves the Frobenius norm unchanged.
    """
    n, m, r = points.shape
    L = np.linalg.cholesky(sigma)
    theta = np.linalg.solve(L, points.transpose(1, 0, 2).reshape(m, n * r))
    theta = theta.reshape(m, n, r).transpose(1, 0, 2)            # (n, m, r)
    gram = np.einsum("nir,nis->nrs", theta, theta)
    proj = np.einsum("nir,nrs,njs->ij", theta, np.linalg.inv(gram), theta) / n
    D = proj - (r / m) * np.eye(m)
    return float(np.sum(D * D))


def _check_estimate(cmd: Command, code: int) -> None:
    report = _load_json(cmd.outdir / "report.json")
    status = report.get("status")
    if STATUS_CODE.get(status, INCONCLUSIVE) != code:
        raise CheckFailed(f"status {status!r} does not match exit code {code}")
    if status != "converged":
        return
    est = _load_csv(cmd.outdir / "estimate.csv")
    m = cmd.points.shape[1]
    if est.shape != (m, m) or not np.all(np.isfinite(est)):
        raise CheckFailed(f"estimate has shape {est.shape} or non-finite entries")
    if np.abs(est - est.T).max() > 1e-12 * max(1.0, np.abs(est).max()):
        raise CheckFailed("estimate is not symmetric")
    lam = np.linalg.eigvalsh(0.5 * (est + est.T))
    if lam[0] <= 0.0:
        raise CheckFailed(f"estimate is not positive definite (min eigenvalue {lam[0]:.3e})")
    if abs(math.expm1(float(np.log(lam).sum()))) > DET_TOL:
        raise CheckFailed(f"estimate determinant {float(np.prod(lam)):.15g} is not 1")
    res = whitened_residual(cmd.points, 0.5 * (est + est.T))
    if res > SOLVER_TOL * (1.0 + RESIDUAL_SLACK):
        raise CheckFailed(f"re-evaluated residual {res:.3e} exceeds tol {SOLVER_TOL:g}")


def _check_diagnose(cmd: Command, code: int) -> None:
    report = _load_json(cmd.outdir / "report.json")
    verdict = report.get("verdict")
    if VERDICT_CODE.get(verdict) != code:
        raise CheckFailed(f"verdict {verdict!r} does not match exit code {code}")
    if not report.get("scanned", 0) > 0:
        raise CheckFailed("no candidate subspaces scanned")
    if verdict == "no_ge" and not (report["min_index"] < 0 and report["witness"]):
        raise CheckFailed("no_ge verdict without a negative-index witness")


def _check_lln(cmd: Command, code: int) -> None:
    if code != OK:
        return
    doc = _load_json(cmd.outdir / "lln.json")
    dist = _load_csv(cmd.outdir / "distances.csv")
    values = doc.get("medians", []) + [doc.get("slope")]
    if dist.shape != (doc.get("reps"), len(doc.get("ns", []))):
        raise CheckFailed(f"distances.csv has shape {dist.shape}")
    if not all(isinstance(v, float) and math.isfinite(v) for v in values):
        raise CheckFailed(f"non-finite LLN summary {values}")
    if not np.all(np.isfinite(dist)) or (dist < 0).any():
        raise CheckFailed("non-finite or negative distances")


def _check_clt(cmd: Command, code: int) -> None:
    if code != OK:
        return
    doc = _load_json(cmd.outdir / "clt.json")
    cov = _load_csv(cmd.outdir / "cov.csv")
    ref = _load_csv(cmd.outdir / "ref.csv")
    for key in ("annihilation", "rel_frobenius", "max_skew"):
        if not (isinstance(doc.get(key), float) and math.isfinite(doc[key])):
            raise CheckFailed(f"clt.json {key} = {doc.get(key)!r}")
    if not (np.all(np.isfinite(cov)) and np.all(np.isfinite(ref))):
        raise CheckFailed("non-finite covariance")
    if doc["annihilation"] > ANNIHILATION_TOL * max(1.0, float(np.abs(cov).max())):
        raise CheckFailed(f"annihilation {doc['annihilation']:.3e} is not structurally zero")


# ---------------------------------------------------------------------------
# workloads


def _bulk(rng, data: Path, out: Path) -> list[Command]:
    # 3 large and 9 medium datasets: the median command is a medium one and the
    # tail (top ~21%) is a large one, so neither statistic sits on the
    # boundary between the two sizes
    cmds = []
    for i, (m, r, n) in enumerate([(10, 3, 5000)] * 3 + [(3, 2, 1600)] * 9):
        pts = _gaussian_points(_rotated_scatter(m, rng), r, n, rng)
        path = data / f"bulk{i:02d}.json"
        _write_dataset(path, pts)
        o = out / f"c{i:03d}"
        cmds.append(Command(f"gaussian({m},{r},{n})",
                            ["estimate", "--input", str(path), "--out", str(o)],
                            OK, o, 1, _check_estimate, pts))
    return cmds


def _small_mc(rng, data: Path, out: Path) -> list[Command]:
    s3, s2 = data / "sigma3.csv", data / "sigma2.csv"
    _write_csv(s3, _rotated_scatter(3, rng))
    _write_csv(s2, _rotated_scatter(2, rng))
    seeds = rng.integers(0, 2**31 - 1, size=48)
    cmds = []
    # 28 lln (10 solves each) and 20 clt (20 solves plus a 4000-draw reference
    # each): solves and reference sampling each take a large share of a pass,
    # and 48 distinct seeds keep the pass's median and tail steady across seeds
    for i in range(28):
        o = out / f"c{i:03d}"
        cmds.append(Command("lln(3,2)", [
            "lln", "--sigma", str(s3), "--r", "2", "--ns", "25,100", "--reps", "5",
            "--seed", str(seeds[i]), "--threads", "1", "--out", str(o),
        ], OK, o, 10, _check_lln))
    for i in range(28, 48):
        o = out / f"c{i:03d}"
        cmds.append(Command("clt(2,1)", [
            "clt", "--sigma", str(s2), "--r", "1", "--n", "100", "--reps", "20",
            "--ref-mc", "4000", "--seed", str(seeds[i]), "--threads", "1", "--out", str(o),
        ], OK, o, 20, _check_clt))
    return cmds


def _no_ge_lines(n: int, rng) -> np.ndarray:
    """n lines in R^3, all but one inside a random plane (index of the plane < 0)."""
    B, _ = np.linalg.qr(rng.standard_normal((3, 2)))
    inplane = (B @ rng.standard_normal((2, n - 1))).T
    return np.concatenate([inplane, rng.standard_normal((1, 3))])[:, :, None]


def _orthogonal_lines(m: int, rng) -> np.ndarray:
    """m mutually orthogonal lines with random basis scales (every index is 0)."""
    Q, _ = np.linalg.qr(rng.standard_normal((m, m)))
    return (Q * rng.uniform(0.5, 2.0, m)).T[:, :, None]


def _scan(rng, data: Path, out: Path) -> list[Command]:
    # (kind, points, implied diagnose code, implied estimate code).  Limit data
    # still has solutions (the identity solves orthogonal lines), just not a
    # unique one, so `estimate` converges there.
    sets = []
    # every dataset puts one command on each side of the median; 80 (5,2,5)
    # sets move it from the edge of their seed-dependent estimate times in
    # among the diagnoses
    sets += [("threshold+1(5,2,5)", rng.standard_normal((5, 5, 2)), OK, OK) for _ in range(80)]
    sets += [("threshold+1(4,1,6)", rng.standard_normal((6, 4, 1)), OK, OK) for _ in range(20)]
    # twenty small diagnoses outrank every other command but the n = 32 and
    # 128 ones, so the scan's tail is the middle of their times, not the
    # seed-dependent count of max-iteration exits just below them nor the
    # odd cheap one among them
    sets += [(f"generic(3,1,{n})", rng.standard_normal((n, 3, 1)), OK, OK)
             for n in (8,) * 20 + (32, 128)]
    sets += [(f"no_ge(3,1,{n})", _no_ge_lines(n, rng), NO_ESTIMATE, NO_ESTIMATE)
             for n in range(4, 10)]
    sets += [(f"limit({m},1,{m})", _orthogonal_lines(m, rng), LIMIT, OK) for m in (3, 3, 4, 4)]
    cmds = []
    for i, (kind, pts, diag_code, est_code) in enumerate(sets):
        path = data / f"scan{i:03d}.json"
        _write_dataset(path, pts)
        od, oe = out / f"c{i:03d}d", out / f"c{i:03d}e"
        cmds.append(Command(kind, ["diagnose", "--input", str(path), "--out", str(od)],
                            diag_code, od, 0, _check_diagnose, pts))
        cmds.append(Command(kind, ["estimate", "--input", str(path), "--out", str(oe)],
                            est_code, oe, 1, _check_estimate, pts))
    return cmds


_GENERATORS = {"bulk": _bulk, "small-mc": _small_mc, "scan": _scan}


def build(workload: str, seed: int, workdir: Path) -> list[Command]:
    """Write the workload's inputs under ``workdir`` and return one pass's commands."""
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    data, out = workdir / "data", workdir / "out"
    data.mkdir(parents=True, exist_ok=True)
    out.mkdir(parents=True, exist_ok=True)
    return _GENERATORS[workload](rng, data, out)


def outcome(cmd: Command, code: int | None, error: str | None) -> tuple[str, str] | None:
    """(kind, reason) of a failed command, or None when it did what its input implies.

    kind is "raised" (``error`` set, ``code`` None), "check" (an output the
    program delivered is wrong or missing) or "exit_code" (the outputs are
    consistent, but the outcome is not the one the input's construction
    implies, e.g. an exhausted iteration budget on well-posed data).
    """
    if error is not None:
        return "raised", error
    if code != BAD_INPUT:       # every other exit code promises outputs
        try:
            cmd.check(cmd, code)
        except CheckFailed as exc:
            return "check", str(exc)
    if code != cmd.expect:
        return "exit_code", f"exit code {code}, implied {cmd.expect}"
    return None
