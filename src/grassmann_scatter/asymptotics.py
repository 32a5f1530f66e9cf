"""Law of large numbers and central limit theorem for scatter estimates.

Estimates from n i.i.d. subspace draws converge to the sampling scatter at
the usual sqrt(n) rate, and the whitened, trace-normalized fluctuation

    C_n = m * A_n / tr(A_n),   A_n = g^-1 Sigma_n g^-1,   g = sym_sqrt(Sigma)

satisfies sqrt(n) vec(C_n - Id) -> N(0, limiting_covariance).  The limit is
built from two moments of the whitened projector Pi = Theta (Theta^T Theta)^-1 Theta^T
(Theta = g^-1 X the whitened sample):

    score_covariance     = E[ vec(Pi - (r/m) Id) vec(Pi - (r/m) Id)^T ]
    projector_kron_mean  = E[ Pi kron Pi ]

via  L0 = (r/m) Id - projector_kron_mean,  Q the vec-space projector onto
symmetric trace-free matrices, and

    limiting_covariance = (Q L0 Q)^+ score_covariance (Q L0 Q)^+T .

(Q L0 Q) must have full rank (m-1)(m+2)/2 on the tangent space; degenerate
support makes it rank-deficient there, raising DegeneracyError.  The three
functions take a sample (an ``Empirical``) and the scatter Sigma they whiten
by; the expectations are its exact weighted sums.  A law is sampled first: the
one such sample, the CLT reference, is drawn by ``clt_experiment``.

All vec operations are column-major.  ``lln_experiment`` and
``clt_experiment`` reproduce both limits by Monte Carlo; replications use
counter-based child streams SeedSequence(entropy=seed, spawn_key=(grid, rep)).
They are solved in blocks: a block is a range of reps within one grid entry
(same n), at most STACK_FLOATS floats of atoms and at most ceil(reps/threads) reps, so
every worker gets a share.  A block is drawn rep by rep from those streams,
validated by the Gram screens of the atom ranks and of the spans (one batched
det each, and an svd only of what a screen cannot certify), and solved as one
stack by the estimator's fixed-point loop, in which a lane's result does not
depend on the other lanes.  Results are therefore
bit-identical for any worker count and any block size.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from numbers import Integral

import numpy as np

from .errors import DegeneracyError, UsageError
from .estimator import SolverOptions, _check_span, _solve_stack
from .grassmann import (Empirical, Gaussian, _check_empirical, _check_ranks, _frames,
                        _gaussian_bases, _outer)
from .likelihood import _kron_mean
from .manifold import (
    _Chart,
    _chart,
    _check_scatter_for,
    _distance,
    _tangent_vec_projector,
    _whitened,
    check_scatter,
    manifold_dim,
    sym,
    vec,
)

PINV_CUTOFF = 1e-10     # relative eigenvalue cutoff for the pseudo-inverse
STACK_FLOATS = 1 << 17  # floats of atoms in one block of replications solved as a stack


def _whiten_normalize(Sigma_hat: np.ndarray, c: _Chart) -> np.ndarray:
    A = sym(c.Q @ _whitened(c, Sigma_hat) @ c.Q.T)       # g^-1 Sigma_hat g^-1, g^-1 = Q W
    return Sigma_hat.shape[0] * A / np.trace(A)


def whiten_normalize(Sigma_hat, Sigma) -> np.ndarray:
    """Whiten an estimate by the true scatter and normalize its trace to m.

    C = m A / tr(A) with A = g^-1 Sigma_hat g^-1, g = sym_sqrt(Sigma);
    equals Id exactly when Sigma_hat = Sigma.
    """
    Sigma_hat = check_scatter(Sigma_hat, name="Sigma_hat")
    Sigma = _check_scatter_for(len(Sigma_hat), Sigma, paired="Sigma_hat")
    return _whiten_normalize(Sigma_hat, _chart(Sigma))


def _moments(meas: Empirical, Sigma, op: str):
    """(score_covariance, projector_kron_mean) of a sample, projectors whitened by
    sym_sqrt(Sigma)."""
    c = _chart(_check_empirical(meas, op, Sigma))
    P = _outer(_frames(meas.points, c.Q @ c.W))
    n, m, r, w = meas.n, meas.m, meas.r, meas.weights
    D = P - (r / m) * np.eye(m)
    V = np.transpose(D, (0, 2, 1)).reshape(n, -1)   # column-major vec of each D_j
    sigma2 = np.einsum("n,ni,nj->ij", w, V, V)
    return sigma2, _kron_mean(P, w)


def score_covariance(meas: Empirical, Sigma) -> np.ndarray:
    """E[vec(Pi - (r/m) Id) vec(Pi - (r/m) Id)^T] over a sample, at the scatter Sigma."""
    return _moments(meas, Sigma, "score_covariance")[0]


def projector_kron_mean(meas: Empirical, Sigma) -> np.ndarray:
    """E[Pi kron Pi] over a sample, at the scatter Sigma; trace equals r^2 exactly."""
    return _moments(meas, Sigma, "projector_kron_mean")[1]


def limiting_covariance(meas: Empirical, Sigma) -> np.ndarray:
    """Asymptotic covariance of sqrt(n) vec(C_n - Id), evaluated on a sample at Sigma.

    Computes score_covariance and projector_kron_mean from the same atoms
    (common random numbers), forms A = Q L0 Q with L0 = (r/m) Id - kron mean,
    and returns A^+ sigma2 A^+T.  Raises DegeneracyError when A is
    rank-deficient on the tangent space (support too degenerate for a CLT).
    """
    sigma2, S0 = _moments(meas, Sigma, "limiting_covariance")
    m, r = meas.m, meas.r
    L0 = (r / m) * np.eye(m * m) - S0
    Q = _tangent_vec_projector(m)
    A = Q @ L0 @ Q
    A = 0.5 * (A + A.T)
    lam, U = np.linalg.eigh(A)
    thresh = PINV_CUTOFF * np.abs(lam).max()
    keep = np.abs(lam) > thresh
    d = manifold_dim(m)
    if int(keep.sum()) < d:
        raise DegeneracyError(
            f"score operator has rank {int(keep.sum())} on the {d}-dimensional "
            "tangent space; the support is too degenerate for a limit law"
        )
    Apinv = (U[:, keep] / lam[keep]) @ U[:, keep].T
    return Apinv @ sigma2 @ Apinv.T


# ---------------------------------------------------------------------------
# Monte Carlo experiments


def _rep_rng(seed: int, grid: int, rep: int) -> np.random.Generator:
    """Counter-based child stream: identical for any scheduling of workers."""
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(grid, rep)))


def _blocks(ns, reps: int, m: int, r: int, threads: int):
    """(grid, n, range of reps) per block: at most STACK_FLOATS floats of atoms, one
    grid entry each, and enough blocks to give every worker a share."""
    for grid, n in enumerate(ns):
        size = max(1, min(STACK_FLOATS // (n * m * r), -(-reps // threads)))
        for a in range(0, reps, size):
            yield grid, n, range(a, min(a + size, reps))


def _solve_block(c: _Chart, r: int, n: int, grid: int, reps: range, seed: int, opts):
    """Solver results of the replications ``reps``: n draws of the Gaussian family at
    c.sigma each, from their own streams, validated and solved as one stack."""
    chol = np.linalg.cholesky(c.sigma)
    points = np.stack([_gaussian_bases(chol, r, n, _rep_rng(seed, grid, rep)) for rep in reps])
    _check_ranks(points)
    _check_span(points)
    return _solve_stack(points, np.full((len(reps), n), 1.0 / n), opts)


def _lln_block(args) -> list[tuple[float, str, int]]:
    sigma = args[0].sigma
    return [(_distance(res.estimate, sigma), res.status, res.iterations)
            for res in _solve_block(*args)]


def _clt_block(args) -> list[tuple[np.ndarray, str, int]]:
    c, n = args[0], args[2]
    Id = np.eye(c.sigma.shape[0])
    return [(math.sqrt(n) * vec(_whiten_normalize(res.estimate, c) - Id), res.status,
             res.iterations) for res in _solve_block(*args)]


def _outcomes(flat) -> tuple[dict[str, int], tuple[float, float, float]]:
    """Status counts (keys sorted) and iteration (median, q90, max) of a batch of replications."""
    counts = dict(sorted(Counter(status for _, status, _ in flat).items()))
    median, q90, top = np.percentile([k for _, _, k in flat], [50.0, 90.0, 100.0])
    return counts, (float(median), float(q90), float(top))


def _experiment_law(sigma, r, reps, seed, threads, *sizes) -> Gaussian:
    """The sampled law Gaussian(sigma, r), which checks r < m; UsageError unless the
    worker count, r, reps and every sample size (the reference's too) are integers >= 1
    and the seed is an integer >= 0 (a bool is not an integer here)."""
    if not sizes:
        raise UsageError("need at least one sample size")
    named = [("threads", threads, 1), ("r", r, 1), ("reps", reps, 1), ("seed", seed, 0)]
    for name, x, low in named + [("sample size", n, 1) for n in sizes]:
        if isinstance(x, bool) or not isinstance(x, Integral) or x < low:
            raise UsageError(f"{name} must be an integer >= {low}, got {x!r}")
    return Gaussian(sigma, r)


def _run_blocks(task, c: _Chart, r: int, ns, reps: int, seed: int, opts, threads: int):
    """The replications' outcomes in (grid, rep) order, solved block by block, by at
    most one worker per block (a fork pool starts all its workers at once)."""
    args = [(c, r, n, grid, block, seed, opts)
            for grid, n, block in _blocks(ns, reps, c.sigma.shape[0], r, threads)]
    workers = min(threads, len(args))
    if workers <= 1:
        return [x for a in args for x in task(a)]
    from concurrent.futures import ProcessPoolExecutor      # loaded by pooled runs only

    with ProcessPoolExecutor(max_workers=workers) as pool:
        return [x for block in pool.map(task, args) for x in block]


@dataclass
class LLNReport:
    """Consistency experiment: median estimation error against sample size.

    distances has shape (len(ns), reps); quartiles[i] = (q25, q75) of the
    distances for ns[i]; slope is the log-log fit of the medians against n
    (about -1/2 at the parametric rate).  status_counts[i] counts the solver
    statuses of the replications for ns[i] and iteration_quantiles[i] gives
    the (median, q90, max) of their iteration counts; every estimate,
    converged or not, enters the distances.
    """

    ns: list[int]
    reps: int
    seed: int
    medians: list[float]
    quartiles: list[tuple[float, float]]
    slope: float
    distances: np.ndarray = field(repr=False)
    status_counts: list[dict[str, int]]
    iteration_quantiles: list[tuple[float, float, float]]


def lln_experiment(
    sigma,
    r: int,
    ns,
    reps: int,
    seed: int,
    threads: int = 1,
    options: SolverOptions | None = None,
) -> LLNReport:
    """Estimate scatter from n draws, for each n in ``ns``, ``reps`` times each.

    Returns medians of the geodesic distance to the truth and their log-log
    slope.  Deterministic for fixed seed regardless of ``threads``.
    """
    law = _experiment_law(sigma, r, reps, seed, threads, *ns)
    ns = [int(n) for n in ns]
    opts = options or SolverOptions()
    flat = _run_blocks(_lln_block, _chart(law.sigma), r, ns, reps, seed, opts, threads)
    dists = np.array([d for d, _, _ in flat]).reshape(len(ns), reps)
    outcomes = [_outcomes(flat[i * reps:(i + 1) * reps]) for i in range(len(ns))]
    medians = np.median(dists, axis=1)
    q = np.percentile(dists, [25.0, 75.0], axis=1)
    quartiles = [(float(a), float(b)) for a, b in zip(q[0], q[1])]
    if len(ns) >= 2:
        slope = float(np.polyfit(np.log(ns), np.log(medians), 1)[0])
    else:
        slope = float("nan")
    return LLNReport(ns, reps, seed, [float(x) for x in medians], quartiles, slope, dists,
                     [c for c, _ in outcomes], [q for _, q in outcomes])


@dataclass
class CLTReport:
    """Fluctuation experiment against the predicted limiting covariance.

    cov            empirical covariance of sqrt(n) vec(C_n - Id), (m^2, m^2)
    ref            predicted limiting covariance
    annihilation   operator norm of cov on the directions the limit kills
                   (vec(Id) and antisymmetric matrices); structural, ~0
    rel_frobenius  ||cov - ref||_F / ||ref||_F
    max_skew       largest |coordinate skewness| (should -> 0 by normality)
    status_counts  solver statuses of the replications; every estimate,
                   converged or not, enters cov
    iteration_quantiles  (median, q90, max) of the replications' iterations
    """

    n: int
    reps: int
    seed: int
    cov: np.ndarray = field(repr=False)
    ref: np.ndarray = field(repr=False)
    annihilation: float
    rel_frobenius: float
    max_skew: float
    status_counts: dict[str, int]
    iteration_quantiles: tuple[float, float, float]


def clt_experiment(
    sigma,
    r: int,
    n: int,
    reps: int,
    seed: int,
    threads: int = 1,
    options: SolverOptions | None = None,
    ref: np.ndarray | None = None,
    ref_mc_n: int = 200_000,
) -> CLTReport:
    """Sample the normalized fluctuation sqrt(n) vec(C_n - Id) ``reps`` times.

    Compares its empirical covariance with ``ref`` (when not supplied,
    ``limiting_covariance`` of ``ref_mc_n`` draws of the law from the stream
    SeedSequence(entropy=seed, spawn_key=(1,)), at sigma) and
    reports the tangent-space annihilation defect and coordinate skewness.
    Deterministic for fixed seed regardless of ``threads``.  UsageError unless a
    supplied ``ref`` is a finite (m^2, m^2) array.
    """
    law = _experiment_law(sigma, r, reps, seed, threads, n, ref_mc_n)
    m = law.m
    if ref is not None:
        ref = np.asarray(ref, dtype=float)
        if ref.shape != (m * m, m * m) or not np.isfinite(ref).all():
            raise UsageError(f"ref must be a finite {m * m} x {m * m} array, got shape "
                             f"{ref.shape}")
    opts = options or SolverOptions()
    flat = _run_blocks(_clt_block, _chart(law.sigma), r, [n], reps, seed, opts, threads)
    Z = np.array([z for z, _, _ in flat])                        # (reps, m^2)
    cov = Z.T @ Z / reps
    if ref is None:
        ref_rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(1,)))
        draws = _gaussian_bases(np.linalg.cholesky(law.sigma), r, ref_mc_n, ref_rng)
        ref = limiting_covariance(Empirical(draws), law.sigma)
    Q = _tangent_vec_projector(m)
    annihilation = float(np.linalg.norm(cov @ (np.eye(m * m) - Q), ord=2))
    rel_frob = float(np.linalg.norm(cov - ref) / np.linalg.norm(ref))
    Zc = Z - Z.mean(axis=0)
    sd = Zc.std(axis=0)
    live = sd > 1e-9 * max(sd.max(), 1e-300)
    skew = (Zc[:, live] ** 3).mean(axis=0) / sd[live] ** 3
    max_skew = float(np.abs(skew).max()) if live.any() else 0.0
    return CLTReport(n, reps, seed, cov, ref, annihilation, rel_frob, max_skew, *_outcomes(flat))
