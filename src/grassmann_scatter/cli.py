"""Command-line interface.

Subcommands
    estimate    solve for the scatter of a dataset of subspaces
    diagnose    existence trichotomy for a dataset (from one solve's certificate)
    lln         consistency experiment (error vs sample size)
    clt         fluctuation experiment against the predicted covariance
    gradcheck   finite-difference validation of the exact derivatives

Exit codes: 0 success (estimate found / verdict "unique" / experiment done,
also when some replications did not converge: lln/clt then warn and count the
solver statuses in their report),
1 boundary case (verdict "limit"), 2 no estimate (verdict "no_ge", diverging
run, deficient span, degenerate limit law), 3 input or I/O problem,
4 inconclusive (verdict "inconclusive", iteration budget exhausted, failed
gradcheck).

Every command writes its output directory through one writer, ``_emit``, and only
once it has finished: ``replay.json`` (the resolved options plus library versions, so
results can be reproduced exactly) first, then the command's own files.
The experiments' worker count is --threads (default 1), checked by the library: a
count below 1 exits 3.
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path

import numpy as np

from .asymptotics import clt_experiment, lln_experiment
from .diagnostics import INDEX_TOL, unique_sample_threshold
from .errors import DegeneracyError, DomainError, ExistenceError, UsageError
from .estimator import SolverOptions, diagnose, fixed_point_solve
from .grassmann import Empirical, busemann, distinguished_ray_direction
from .io import read_matrix_csv, read_measure_json, write_matrix_csv, write_report_json
from .likelihood import grad, hess_quadform, loglik
from .manifold import geodesic, inner, random_scatter, random_unit_tangent

LOW_POWER_REPS = {"lln": 50, "clt": 500}


class _Parser(argparse.ArgumentParser):
    """Raises UsageError instead of exiting.  ``add`` fills in a command's arguments, then
    the --out every command writes to, on the first parse, so a subcommand's parser costs
    nothing until a parse reaches it."""

    def __init__(self, *args, add=None, **kwargs):
        super().__init__(*args, **kwargs)
        self._add = add

    def error(self, message):
        raise UsageError(message)

    def parse_known_args(self, args=None, namespace=None):
        if self._add is not None:
            add, self._add = self._add, None
            add(self)
            self.add_argument("--out", default=".", help="output directory")
        return super().parse_known_args(args, namespace)


@functools.cache
def _package_version() -> str:
    from importlib.metadata import PackageNotFoundError, version

    try:
        return version("grassmann-scatter")
    except PackageNotFoundError:
        return "unknown"


def _outdir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _emit(args, files: dict) -> Path:
    """Make --out, write ``replay.json`` and then each entry of files in order (name -> a
    dict, written as report JSON, or an array, written as matrix CSV); return --out.  The
    writers are looked up when called, so wrappers installed on this module see each file."""
    import platform

    outdir = _outdir(args)
    replay = {
        "command": args.command,
        "options": vars(args),
        "package_version": _package_version(),
        "numpy_version": np.__version__,
        "python_version": platform.python_version(),
    }
    for name, content in {"replay.json": replay, **files}.items():
        if isinstance(content, dict):
            write_report_json(outdir / name, content)
        else:
            write_matrix_csv(outdir / name, content)
    return outdir


def _solver_options(args) -> SolverOptions:
    return SolverOptions(max_iter=args.max_iter, tol=args.tol)


def _flag_jsonable(flag):
    if flag is None:
        return None
    return [{"alpha": a, "dim": B.shape[1], "basis": B} for a, B in flag.pairs]


def _experiment_json(args, report, warnings: list[str], status_counts) -> dict:
    """An experiment's JSON: the report's fields less its arrays (written as CSV), --threads
    and the warnings: LOW_POWER below the command's LOW_POWER_REPS, the command's own, then
    WARN when some replications did not converge (one status count per grid)."""
    need = LOW_POWER_REPS[args.command]
    if args.reps < need:
        warnings = [f"LOW_POWER: {args.reps} replications (need {need}+)", *warnings]
    total = sum(sum(c.values()) for c in status_counts)
    bad = total - sum(c.get("converged", 0) for c in status_counts)
    if bad:
        warnings = [*warnings, f"WARN: {bad} of {total} replications did not converge"]
    fields = {k: v for k, v in vars(report).items() if not isinstance(v, np.ndarray)}
    return {**fields, "threads": args.threads, "warnings": warnings}


def _cmd_estimate(args) -> int:
    meas = read_measure_json(args.input)
    start = read_matrix_csv(args.start) if args.start else None
    shape = {
        "m": meas.m,
        "r": meas.r,
        "n": meas.n,
    }
    try:
        result = fixed_point_solve(meas, Sigma0=start, options=_solver_options(args))
    except ExistenceError as exc:
        _emit(args, {"report.json": {
            "status": "no_ge",
            "reason": str(exc),
            "witness": exc.witness,
            **shape,
        }})
        print(f"error: {exc}", file=sys.stderr)
        return 2
    outdir = _emit(args, {
        "estimate.csv": result.estimate,
        "report.json": {
            "status": result.status,
            "residual": result.residual,
            "iterations": result.iterations,
            **shape,
            "trace": result.trace,
            "boundary": _flag_jsonable(result.boundary),
            "slope": result.slope,
        },
    })
    print(
        f"{result.status}: residual {result.residual:.3e} "
        f"after {result.iterations} iterations -> {outdir / 'estimate.csv'}"
    )
    return {"converged": 0, "diverged_to_boundary": 2}.get(result.status, 4)


def _cmd_diagnose(args) -> int:
    meas = read_measure_json(args.input)
    report = diagnose(meas, tol=args.tol)
    _emit(args, {"report.json": {
        "verdict": report.verdict,
        "min_index": report.min_index,
        "witness": None
        if report.witness is None
        else {
            "dim": report.witness.dim,
            "provenance": report.witness.provenance,
            "basis": report.witness.basis,
        },
        "zeros": [{"dim": c.dim, "provenance": c.provenance} for c in report.zeros],
        "complement_ok": report.complement_ok,
        "scanned": report.scanned,
        "lambda_min": report.lambda_min,
        "slope": report.slope,
        "n": meas.n,
        "unique_sample_threshold": unique_sample_threshold(meas.m, meas.r),
    }})
    print(f"{report.verdict}: min index {report.min_index:.3e} over {report.scanned} subspaces")
    return {"unique": 0, "limit": 1, "no_ge": 2}.get(report.verdict, 4)


def _sigma_for_experiment(args) -> np.ndarray:
    if args.sigma:
        sigma = read_matrix_csv(args.sigma)
        if args.m is not None and args.m != len(sigma):
            raise UsageError(f"--m {args.m} contradicts the {len(sigma)}-row matrix of --sigma")
        return sigma
    if args.m is None or args.m < 2:
        raise UsageError("either --sigma or --m >= 2 is required")
    return np.eye(args.m)


def _cmd_lln(args) -> int:
    sigma = _sigma_for_experiment(args)
    report = lln_experiment(
        sigma, args.r, args.ns, args.reps, args.seed,
        threads=args.threads, options=_solver_options(args),
    )
    # each median must fall below those of all smaller sizes, in any order of --ns
    sized = list(zip(report.ns, report.medians))
    warnings = []
    if any(b >= a for n, a in sized for k, b in sized if k > n):
        warnings.append("WARN: median distances are not strictly decreasing across sample sizes")
    _emit(args, {
        "lln.json": _experiment_json(args, report, warnings, report.status_counts),
        # one row per replicate, one column per sample size
        "distances.csv": report.distances.T,
    })
    for n, med in zip(report.ns, report.medians):
        print(f"n = {n:6d}   median distance = {med:.6f}")
    if report.slope is not None:
        print(f"log-log slope: {report.slope:.4f}")
    return 0


def _cmd_clt(args) -> int:
    sigma = _sigma_for_experiment(args)
    report = clt_experiment(
        sigma, args.r, args.n, args.reps, args.seed,
        threads=args.threads, options=_solver_options(args), ref_mc_n=args.ref_mc,
    )
    _emit(args, {
        "clt.json": _experiment_json(args, report, [], [report.status_counts]),
        "cov.csv": report.cov,
        "ref.csv": report.ref,
    })
    print(
        f"annihilation {report.annihilation:.4f}   "
        f"rel. Frobenius error {report.rel_frobenius:.4f}   "
        f"max |skew| {report.max_skew:.4f}"
    )
    return 0


GRADCHECK_TOLS = {
    "first_order": 1e-6,
    "second_order": 1e-5,
    "ray_normalization": 1e-8,
}


def _cmd_gradcheck(args) -> int:
    if args.m < 2 or args.trials < 1 or args.seed < 0:
        raise UsageError("gradcheck needs --m >= 2, --trials >= 1 and --seed >= 0")
    rng = np.random.default_rng(args.seed)
    ranks = [args.r] if args.r is not None else list(range(1, args.m))
    rows = []
    worst = dict.fromkeys(GRADCHECK_TOLS, 0.0)
    h1, h2 = 1e-5, 1e-3
    for r in ranks:
        # The distinguished-ray check is deterministic per (m, r): along the
        # ray from the identity the horofunction must decrease at unit rate.
        A = distinguished_ray_direction(args.m, r)
        U0 = np.eye(args.m)[:, :r]
        e4 = max(
            abs(busemann(U0, geodesic(np.eye(args.m), A, t)) + t)
            for t in (-2.0, -0.5, 0.5, 2.0)
        )
        worst["ray_normalization"] = max(worst["ray_normalization"], e4)
        for _ in range(args.trials):
            # one subspace is the one-atom measure: the dataset forms are checked
            Sigma = random_scatter(args.m, rng)
            meas = Empirical(rng.standard_normal((1, args.m, r)))
            W = random_unit_tangent(Sigma, rng)

            def f(t):
                return loglik(meas, geodesic(Sigma, W, t))

            d1 = inner(Sigma, grad(meas, Sigma), W)
            d1_fd = (f(h1) - f(-h1)) / (2.0 * h1)
            d2 = hess_quadform(meas, Sigma, W)
            d2_fd = (f(h2) - 2.0 * f(0.0) + f(-h2)) / h2**2

            e1 = abs(d1_fd - d1) / max(1.0, abs(d1))
            e2 = abs(d2_fd - d2) / max(1.0, abs(d2))
            worst["first_order"] = max(worst["first_order"], e1)
            worst["second_order"] = max(worst["second_order"], e2)
            rows.append({"r": r, "first_order": e1, "second_order": e2})
    ok = all(worst[key] <= tol for key, tol in GRADCHECK_TOLS.items())
    _emit(args, {"gradcheck.json": {
        "m": args.m,
        "trials": args.trials,
        "max_errors": worst,
        "tolerances": GRADCHECK_TOLS,
        "passed": ok,
        "rows": rows,
    }})
    for key in GRADCHECK_TOLS:
        print(f"max {key.replace('_', ' ')} error {worst[key]:.3e} (tol {GRADCHECK_TOLS[key]:g})")
    print("ok" if ok else "FAILED")
    return 0 if ok else 4


def _add_solver_flags(p) -> None:
    p.add_argument("--tol", type=float, default=SolverOptions.tol, help="residual tolerance")
    p.add_argument("--max-iter", type=int, default=SolverOptions.max_iter,
                   help="iteration budget")


def _add_threads(p) -> None:
    p.add_argument("--threads", type=int, default=1, help="workers (default: 1)")


def _add_estimate(p) -> None:
    p.add_argument("--input", required=True, help="dataset JSON ({m, r, points[, weights]})")
    p.add_argument("--start", default=None, help="starting scatter CSV (default: identity)")
    _add_solver_flags(p)


def _add_diagnose(p) -> None:
    p.add_argument("--input", required=True, help="dataset JSON")
    p.add_argument("--tol", type=float, default=INDEX_TOL, help="index zero-tolerance")


def _add_experiment_law(p) -> None:
    p.add_argument("--m", type=int, default=None, help="ambient dimension (or use --sigma)")
    p.add_argument("--r", type=int, required=True, help="subspace dimension")
    p.add_argument("--sigma", default=None, help="true scatter CSV (default: identity)")


def _add_lln(p) -> None:
    _add_experiment_law(p)
    p.add_argument(
        "--ns", type=lambda s: [int(x) for x in s.split(",")],
        default=[25, 100, 400, 1600], help="comma-separated sample sizes",
    )
    p.add_argument("--reps", type=int, default=200, help="replications per sample size")
    p.add_argument("--seed", type=int, default=0)
    _add_threads(p)
    _add_solver_flags(p)


def _add_clt(p) -> None:
    _add_experiment_law(p)
    p.add_argument("--n", type=int, default=2000, help="sample size per replication")
    p.add_argument("--reps", type=int, default=4000, help="replications")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--ref-mc", type=int, default=None,
                   help="Monte Carlo draws for the predicted covariance (default: closed form)")
    _add_threads(p)
    _add_solver_flags(p)


def _add_gradcheck(p) -> None:
    p.add_argument("--m", type=int, required=True, help="ambient dimension")
    p.add_argument("--r", type=int, default=None, help="subspace dimension (default: all)")
    p.add_argument("--trials", type=int, default=20, help="random instances per rank")
    p.add_argument("--seed", type=int, default=0)


# name -> (help, argument adder, handler)
COMMANDS = {
    "estimate": ("solve for the scatter of a dataset", _add_estimate, _cmd_estimate),
    "diagnose": ("existence trichotomy for a dataset", _add_diagnose, _cmd_diagnose),
    "lln": ("consistency experiment", _add_lln, _cmd_lln),
    "clt": ("fluctuation experiment", _add_clt, _cmd_clt),
    "gradcheck": ("finite-difference derivative validation", _add_gradcheck, _cmd_gradcheck),
}


def _parse(argv: list[str]) -> argparse.Namespace:
    """The options of ``argv``, starting with ``command``.  Only the parser of the command
    argv[0] names is built; the top-level parser (for --help, an empty argv or an unknown
    command) lists the commands and fills in one only if its parse reaches it."""
    if argv and argv[0] in COMMANDS:
        parser = _Parser(prog=f"grassmann-scatter {argv[0]}", add=COMMANDS[argv[0]][1])
        return parser.parse_args(argv[1:], argparse.Namespace(command=argv[0]))
    parser = _Parser(prog="grassmann-scatter", description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help, add, _) in COMMANDS.items():
        sub.add_parser(name, help=help, add=add)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = _parse(argv)
        return COMMANDS[args.command][2](args)
    except (ExistenceError, DegeneracyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (OSError, DomainError, UsageError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
