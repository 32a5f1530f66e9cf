"""Law of large numbers and central limit theorem for scatter estimates.

Estimates from n i.i.d. subspace draws converge to the sampling scatter at
the usual sqrt(n) rate, and the whitened, trace-normalized fluctuation

    C_n = m * A_n / tr(A_n),   A_n = g^-1 Sigma_n g^-1,   g = sym_sqrt(Sigma)

satisfies sqrt(n) vec(C_n - Id) -> N(0, limiting_covariance).  The limit is
built from two moments of the whitened projector Pi = Theta (Theta^T Theta)^-1 Theta^T
(Theta = g^-1 X the whitened sample):

    sigma2 = E[ vec(Pi - (r/m) Id) vec(Pi - (r/m) Id)^T ]      (the score covariance)
    S0     = E[ Pi kron Pi ]

via  L0 = (r/m) Id - S0,  Q = B B^T the vec-space projector onto
symmetric trace-free matrices (B their orthonormal basis), and

    limiting_covariance = (Q L0 Q)^+ sigma2 (Q L0 Q)^+T .

(Q L0 Q) must have full rank (m-1)(m+2)/2 on the tangent space, i.e. the
d x d matrix B^T L0 B must be invertible; degenerate support makes it
rank-deficient, raising DegeneracyError.  ``limiting_covariance`` checks a sample (an
``Empirical``) and the scatter Sigma, then calls the unchecked core ``_moments`` on
(points, weights, chart of Sigma): exact weighted sums, the score covariance one GEMM.
For the Gaussian family the limit is kappa B B^T for every Sigma, kappa = 2(m-1)(m+2)/
(m r(m-r)) (Tyler's law at r = 1): the default CLT reference.  One of ``ref_mc_n`` draws
of the law is checked by the rank screen as the replications are and evaluated by that core.

All vec operations are column-major.  ``lln_experiment`` and
``clt_experiment`` reproduce both limits by Monte Carlo; replications use
counter-based child streams SeedSequence(entropy=seed, spawn_key=(grid, rep)).
They are solved in blocks: a block is a range of reps within one grid entry
(same n), at most STACK_FLOATS floats of atoms and at most ceil(reps/threads) reps, so
every worker gets a share.  Each rep's normals come from its own stream, and one
product with sigma's Cholesky factor turns the block's into atoms.  The block is
validated by the Gram screens of the atom ranks and of the spans (one batched det
each, and an svd only of what a screen cannot certify), and solved as one stack by the
estimator's fixed-point loop, in which a lane's result does not depend on the other
lanes.  ``_replicate`` hands back every replication's estimate, and each experiment
summarizes them all as one stack (distances and C_n whitened by sigma's chart).
Results are therefore bit-identical for any worker count and any block size.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from numbers import Integral

import numpy as np

from .errors import DegeneracyError, UsageError
from .estimator import SolverOptions, _check_span, _solve_stack
from .grassmann import (Empirical, _check_dims, _check_empirical, _check_ranks, _frames,
                        _gaussian_bases, _outer)
from .likelihood import _centered, _kron_mean
from .manifold import (
    _Chart,
    _check_scatter_for,
    _tangent_basis,
    _whitened,
    _whitened_distance,
    check_scatter,
    sym,
)

PINV_CUTOFF = 1e-10     # relative eigenvalue cutoff for the pseudo-inverse
STACK_FLOATS = 1 << 17  # floats of atoms in one block of replications solved as a stack


def _whiten_normalize(Sigma_hat: np.ndarray, c: _Chart) -> np.ndarray:
    """C of an estimate, or of each of a stack (..., m, m), whitened at c.sigma."""
    A = sym(c.Q @ _whitened(c, Sigma_hat) @ c.Q.T)       # g^-1 Sigma_hat g^-1, g^-1 = Q W
    return Sigma_hat.shape[-1] * A / np.trace(A, axis1=-2, axis2=-1)[..., None, None]


def whiten_normalize(Sigma_hat, Sigma) -> np.ndarray:
    """Whiten an estimate by the true scatter and normalize its trace to m: the rescaled
    process C_n of the CLT, for Sigma_hat = Sigma_n and Sigma = Sigma_P.

    C = m A / tr(A) with A = g^-1 Sigma_hat g^-1, g = sym_sqrt(Sigma);
    equals Id exactly when Sigma_hat = Sigma.
    """
    Sigma_hat = check_scatter(Sigma_hat, name="Sigma_hat")
    return _whiten_normalize(Sigma_hat, _check_scatter_for(len(Sigma_hat), Sigma,
                                                           paired="Sigma_hat"))


def _moments(points: np.ndarray, w: np.ndarray, c: _Chart):
    """Unchecked (sigma2, S0) of atoms (points, w) by g^-1 = c.Q c.W: the score covariance
    E[vec(Pi - (r/m) Id) vec(Pi - (r/m) Id)^T] and E[Pi kron Pi] (trace r^2 exactly)."""
    P = _outer(_frames(points, c.Q @ c.W))
    V = _centered(P, points.shape[2])               # vec of each D_j (symmetric: either order)
    return (V.T * w) @ V, _kron_mean(P, w)


def limiting_covariance(meas: Empirical, Sigma) -> np.ndarray:
    """Asymptotic covariance of sqrt(n) vec(C_n - Id), evaluated on a sample at Sigma.

    Computes the score covariance sigma2 and the kron mean S0 from the same atoms
    (common random numbers), forms A_t = B^T L0 B with L0 = (r/m) Id - kron mean on
    the tangent basis B (``manifold._tangent_basis``, so A = Q L0 Q = B A_t B^T), and
    returns A^+ sigma2 A^+T with A^+ = B A_t^+ B^T.  Raises DegeneracyError when A_t
    is rank-deficient (support too degenerate for a CLT).
    """
    c = _check_empirical(meas, "limiting_covariance", Sigma)   # a law raises first
    return _limiting_covariance(meas.points, meas.weights, c)


def _limiting_covariance(points: np.ndarray, w: np.ndarray, c: _Chart) -> np.ndarray:
    sigma2, S0 = _moments(points, w, c)
    _, m, r = points.shape
    B = _tangent_basis(m)
    d = B.shape[1]
    lam, U = np.linalg.eigh(sym((r / m) * np.eye(d) - B.T @ S0 @ B))    # A_t = B^T L0 B
    keep = np.abs(lam) > PINV_CUTOFF * np.abs(lam).max()
    if int(keep.sum()) < d:
        raise DegeneracyError(
            f"score operator has rank {int(keep.sum())} on the {d}-dimensional "
            "tangent space; the support is too degenerate for a limit law"
        )
    BU = B @ U[:, keep]
    Apinv = (BU / lam[keep]) @ BU.T                                     # B A_t^+ B^T
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


def _solve_block(args):
    """(estimates (len(reps), m, m), statuses, iterations) of the replications ``reps``:
    n Gaussian draws at c.sigma each, from their own streams, validated and solved as one stack."""
    c, r, n, grid, reps, seed, opts = args
    rngs = [_rep_rng(seed, grid, rep) for rep in reps]
    points = _gaussian_bases(np.linalg.cholesky(c.sigma), r, n, rngs)
    _check_ranks(points)
    _check_span(points)
    results = _solve_stack(points, np.full((len(reps), n), 1.0 / n), opts)
    return (np.stack([x.estimate for x in results]), [x.status for x in results],
            [x.iterations for x in results])


def _outcomes(statuses, iterations) -> tuple[dict[str, int], tuple[float, float, float]]:
    """Status counts (keys sorted) and iteration (median, q90, max) of a batch of replications."""
    counts = dict(sorted(Counter(statuses).items()))
    median, q90, top = np.percentile(iterations, [50.0, 90.0, 100.0])
    return counts, (float(median), float(q90), float(top))


def _experiment_law(sigma, r, reps, seed, threads, *sizes) -> _Chart:
    """The eigen chart of sigma, checked as Gaussian(sigma, r) checks it (with r < m);
    UsageError unless the worker count, r, reps and every sample size (the reference's
    too) are integers >= 1 and the seed is an integer >= 0 (a bool is not an integer
    here)."""
    if not sizes:
        raise UsageError("need at least one sample size")
    named = [("threads", threads, 1), ("r", r, 1), ("reps", reps, 1), ("seed", seed, 0)]
    for name, x, low in named + [("sample size", n, 1) for n in sizes]:
        if isinstance(x, bool) or not isinstance(x, Integral) or x < low:
            raise UsageError(f"{name} must be an integer >= {low}, got {x!r}")
    c = _check_scatter_for(None, sigma, "sigma")
    _check_dims(len(c.sigma), r)
    return c


def _replicate(c: _Chart, r: int, ns, reps: int, seed: int, opts, threads: int):
    """Estimates (len(ns) * reps, m, m), statuses and iteration counts of every
    replication in (grid, rep) order, solved block by block, by at most one worker per
    block (a fork pool starts all its workers at once)."""
    args = [(c, r, n, grid, block, seed, opts)
            for grid, n, block in _blocks(ns, reps, c.sigma.shape[0], r, threads)]
    workers = min(threads, len(args))
    blocks = map(_solve_block, args)
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor      # loaded by pooled runs only

        with ProcessPoolExecutor(max_workers=workers) as pool:
            blocks = list(pool.map(_solve_block, args))
    E, statuses, iterations = zip(*blocks)
    return np.concatenate(E), sum(statuses, []), sum(iterations, [])


@dataclass
class LLNReport:
    """Consistency experiment: median estimation error against sample size.

    distances has shape (len(ns), reps); quartiles[i] = (q25, q75) of the distances for
    ns[i]; slope is the log-log fit of the medians against n (about -1/2 at the parametric
    rate), None unless ns holds two distinct sizes.  status_counts[i] counts the solver
    statuses of the replications for ns[i] and iteration_quantiles[i] gives the (median,
    q90, max) of their iteration counts; every estimate, converged or not, enters the
    distances.
    """

    ns: list[int]
    reps: int
    seed: int
    medians: list[float]
    quartiles: list[tuple[float, float]]
    slope: float | None
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
    c = _experiment_law(sigma, r, reps, seed, threads, *ns)
    ns = [int(n) for n in ns]
    opts = options or SolverOptions()
    E, statuses, iterations = _replicate(c, r, ns, reps, seed, opts, threads)
    dists = _whitened_distance(c.W, E).reshape(len(ns), reps)
    grids = [slice(i * reps, (i + 1) * reps) for i in range(len(ns))]
    outcomes = [_outcomes(statuses[g], iterations[g]) for g in grids]
    medians = np.median(dists, axis=1)
    q = np.percentile(dists, [25.0, 75.0], axis=1)
    quartiles = [(float(a), float(b)) for a, b in zip(q[0], q[1])]
    slope = None
    if len(set(ns)) >= 2:
        slope = float(np.polyfit(np.log(ns), np.log(medians), 1)[0])
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
    ref_mc_n: int | None = None,
) -> CLTReport:
    """Sample the normalized fluctuation sqrt(n) vec(C_n - Id) ``reps`` times.

    Compares its empirical covariance with the predicted limit: kappa B B^T, with
    kappa = 2(m-1)(m+2)/(m r(m-r)) and B = ``manifold._tangent_basis(m)``, or, given
    ``ref_mc_n``, ``limiting_covariance`` of that many draws of the law from the stream
    SeedSequence(entropy=seed, spawn_key=(1,)), at sigma; and reports the tangent-space
    annihilation defect and coordinate skewness.  Deterministic for fixed seed
    regardless of ``threads``.
    """
    sizes = (n,) if ref_mc_n is None else (n, ref_mc_n)
    c = _experiment_law(sigma, r, reps, seed, threads, *sizes)
    m = len(c.sigma)
    opts = options or SolverOptions()
    E, statuses, iterations = _replicate(c, r, [n], reps, seed, opts, threads)
    D = _whiten_normalize(E, c) - np.eye(m)
    Z = math.sqrt(n) * D.reshape(reps, -1)      # vec of each C_n - Id (symmetric), (reps, m^2)
    cov = Z.T @ Z / reps
    B = _tangent_basis(m)
    Q = B @ B.T                                                  # tangent projector
    if ref_mc_n is None:
        ref = 2 * (m - 1) * (m + 2) / (m * r * (m - r)) * Q
    else:
        ref_rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(1,)))
        draws = _gaussian_bases(np.linalg.cholesky(c.sigma), r, ref_mc_n, [ref_rng])[0]
        _check_ranks(draws)
        ref = _limiting_covariance(draws, np.full(ref_mc_n, 1.0 / ref_mc_n), c)
    annihilation = float(np.linalg.norm(cov @ (np.eye(m * m) - Q), ord=2))
    rel_frob = float(np.linalg.norm(cov - ref) / np.linalg.norm(ref))
    Zc = Z - Z.mean(axis=0)
    sd = Zc.std(axis=0)
    live = sd > 1e-9 * max(sd.max(), 1e-300)
    skew = (Zc[:, live] ** 3).mean(axis=0) / sd[live] ** 3
    max_skew = float(np.abs(skew).max()) if live.any() else 0.0
    return CLTReport(n, reps, seed, cov, ref, annihilation, rel_frob, max_skew,
                     *_outcomes(statuses, iterations))
