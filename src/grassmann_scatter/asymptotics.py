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
support makes it rank-deficient there, raising DegeneracyError.

All vec operations are column-major.  ``lln_experiment`` and
``clt_experiment`` reproduce both limits by Monte Carlo; replications use
counter-based child streams SeedSequence(entropy=seed, spawn_key=(grid, rep)),
so results are bit-identical for any worker count.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .errors import DegeneracyError, UsageError
from .estimator import SolverOptions, fixed_point_solve
from .grassmann import Empirical, Gaussian, Measure, _gaussian_bases, _projectors, _whiten
from .likelihood import _materialize
from .manifold import _congruence_inv, _distance, _sym_sqrt, check_scatter, manifold_dim

PINV_CUTOFF = 1e-10     # relative eigenvalue cutoff for the pseudo-inverse


def vec(A: np.ndarray) -> np.ndarray:
    """Column-major (Fortran-order) vectorization."""
    return np.asarray(A, dtype=float).reshape(-1, order="F")


def unvec(x: np.ndarray) -> np.ndarray:
    """Inverse of ``vec`` for square matrices."""
    x = np.asarray(x, dtype=float)
    m = math.isqrt(x.size)
    if m * m != x.size:
        raise UsageError(f"cannot unvec a vector of length {x.size}")
    return x.reshape(m, m, order="F")


def commutation_matrix(m: int) -> np.ndarray:
    """K with K vec(A) = vec(A^T) for m x m matrices."""
    K = np.zeros((m * m, m * m))
    for i in range(m):
        for j in range(m):
            K[i + j * m, j + i * m] = 1.0
    return K


def tangent_vec_projector(m: int) -> np.ndarray:
    """Orthogonal projector (in vec coordinates) onto symmetric trace-free matrices.

    Q = 1/2 (Id + K) - vec(Id) vec(Id)^T / m;  tr(Q) = (m-1)(m+2)/2.
    """
    K = commutation_matrix(m)
    v = vec(np.eye(m))
    return 0.5 * (np.eye(m * m) + K) - np.outer(v, v) / m


def _whiten_normalize(Sigma_hat: np.ndarray, g: np.ndarray) -> np.ndarray:
    A = _congruence_inv(g, Sigma_hat)
    return Sigma_hat.shape[0] * A / np.trace(A)


def whiten_normalize(Sigma_hat, Sigma) -> np.ndarray:
    """Whiten an estimate by the true scatter and normalize its trace to m.

    C = m A / tr(A) with A = g^-1 Sigma_hat g^-1, g = sym_sqrt(Sigma);
    equals Id exactly when Sigma_hat = Sigma.
    """
    Sigma_hat = check_scatter(Sigma_hat, name="Sigma_hat")
    return _whiten_normalize(Sigma_hat, _sym_sqrt(check_scatter(Sigma)))


def _moments(meas: Measure, Sigma, mc_n, rng, op: str):
    """(score_covariance, projector_kron_mean), projectors whitened by sym_sqrt(Sigma).

    Sigma defaults to the scatter of a Gaussian measure; empirical measures
    need it explicitly.
    """
    if Sigma is not None:
        Sigma = check_scatter(Sigma)
    elif isinstance(meas, Gaussian):
        Sigma = meas.sigma
    else:
        raise UsageError("empirical measures need an explicit Sigma (evaluation point)")
    emp = _materialize(meas, mc_n, rng, op)
    P = _projectors(*_whiten(emp.points, _sym_sqrt(Sigma)))
    n, m, r, w = emp.n, emp.m, emp.r, emp.weights
    D = P - (r / m) * np.eye(m)
    V = np.transpose(D, (0, 2, 1)).reshape(n, -1)   # column-major vec of each D_j
    sigma2 = np.einsum("n,ni,nj->ij", w, V, V)
    S0 = np.einsum("n,nij,nkl->ikjl", w, P, P).reshape(m * m, m * m)
    return sigma2, S0


def score_covariance(meas: Measure, Sigma=None, mc_n: int | None = None, rng=None) -> np.ndarray:
    """E[vec(Pi - (r/m) Id) vec(Pi - (r/m) Id)^T] at the evaluation scatter.

    Gaussian measures are sampled with ``mc_n`` draws (Sigma defaults to the
    measure's own scatter); empirical measures are exact weighted sums.
    """
    return _moments(meas, Sigma, mc_n, rng, "score_covariance")[0]


def projector_kron_mean(meas: Measure, Sigma=None, mc_n: int | None = None, rng=None) -> np.ndarray:
    """E[Pi kron Pi] at the evaluation scatter; trace equals r^2 exactly."""
    return _moments(meas, Sigma, mc_n, rng, "projector_kron_mean")[1]


def limiting_covariance(
    meas: Measure,
    Sigma=None,
    mc_n: int | None = None,
    rng=None,
    cutoff: float = PINV_CUTOFF,
) -> np.ndarray:
    """Asymptotic covariance of sqrt(n) vec(C_n - Id).

    Computes score_covariance and projector_kron_mean from the same draws
    (common random numbers), forms A = Q L0 Q with L0 = (r/m) Id - kron mean,
    and returns A^+ sigma2 A^+T.  Raises DegeneracyError when A is
    rank-deficient on the tangent space (support too degenerate for a CLT).
    """
    sigma2, S0 = _moments(meas, Sigma, mc_n, rng, "limiting_covariance")
    m, r = meas.m, meas.r
    L0 = (r / m) * np.eye(m * m) - S0
    Q = tangent_vec_projector(m)
    A = Q @ L0 @ Q
    A = 0.5 * (A + A.T)
    lam, U = np.linalg.eigh(A)
    thresh = cutoff * np.abs(lam).max()
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


def _replicate(sigma, r, n, grid, rep, seed, opts) -> np.ndarray:
    """Estimate from n draws of the Gaussian family at sigma (one replication)."""
    rng = _rep_rng(seed, grid, rep)
    emp = Empirical(_gaussian_bases(np.linalg.cholesky(sigma), r, n, rng))
    return fixed_point_solve(emp, options=opts).estimate


def _lln_task(args) -> float:
    return _distance(_replicate(*args), args[0])


def _clt_task(args) -> np.ndarray:
    sigma, n = args[0], args[2]
    C = _whiten_normalize(_replicate(*args), _sym_sqrt(sigma))
    return math.sqrt(n) * vec(C - np.eye(sigma.shape[0]))


def _run_tasks(task, args_list, threads: int):
    if threads <= 1:
        return [task(a) for a in args_list]
    with ProcessPoolExecutor(max_workers=threads) as pool:
        chunk = max(1, len(args_list) // (8 * threads))
        return list(pool.map(task, args_list, chunksize=chunk))


@dataclass
class LLNReport:
    """Consistency experiment: median estimation error against sample size.

    distances has shape (len(ns), reps); quartiles[i] = (q25, q75) of the
    distances for ns[i]; slope is the log-log fit of the medians against n
    (about -1/2 at the parametric rate).
    """

    ns: list[int]
    reps: int
    seed: int
    medians: list[float]
    quartiles: list[tuple[float, float]]
    slope: float
    distances: np.ndarray = field(repr=False)


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
    sigma = check_scatter(sigma, name="sigma")
    ns = [int(n) for n in ns]
    opts = options or SolverOptions()
    args = [
        (sigma, r, n, grid, rep, seed, opts)
        for grid, n in enumerate(ns)
        for rep in range(reps)
    ]
    flat = _run_tasks(_lln_task, args, threads)
    dists = np.array(flat).reshape(len(ns), reps)
    medians = np.median(dists, axis=1)
    q = np.percentile(dists, [25.0, 75.0], axis=1)
    quartiles = [(float(a), float(b)) for a, b in zip(q[0], q[1])]
    if len(ns) >= 2:
        slope = float(np.polyfit(np.log(ns), np.log(medians), 1)[0])
    else:
        slope = float("nan")
    return LLNReport(ns, reps, seed, [float(x) for x in medians], quartiles, slope, dists)


@dataclass
class CLTReport:
    """Fluctuation experiment against the predicted limiting covariance.

    cov            empirical covariance of sqrt(n) vec(C_n - Id), (m^2, m^2)
    ref            predicted limiting covariance
    annihilation   operator norm of cov on the directions the limit kills
                   (vec(Id) and antisymmetric matrices); structural, ~0
    rel_frobenius  ||cov - ref||_F / ||ref||_F
    max_skew       largest |coordinate skewness| (should -> 0 by normality)
    """

    n: int
    reps: int
    seed: int
    cov: np.ndarray = field(repr=False)
    ref: np.ndarray = field(repr=False)
    annihilation: float
    rel_frobenius: float
    max_skew: float


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

    Compares its empirical covariance with ``ref`` (computed by
    ``limiting_covariance`` with ``ref_mc_n`` draws when not supplied) and
    reports the tangent-space annihilation defect and coordinate skewness.
    Deterministic for fixed seed regardless of ``threads``.
    """
    sigma = check_scatter(sigma, name="sigma")
    opts = options or SolverOptions()
    args = [(sigma, r, n, 0, rep, seed, opts) for rep in range(reps)]
    Z = np.array(_run_tasks(_clt_task, args, threads))           # (reps, m^2)
    cov = Z.T @ Z / reps
    if ref is None:
        ref_rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(1,)))
        ref = limiting_covariance(Gaussian(sigma, r), mc_n=ref_mc_n, rng=ref_rng)
    m = sigma.shape[0]
    Q = tangent_vec_projector(m)
    annihilation = float(np.linalg.norm(cov @ (np.eye(m * m) - Q), ord=2))
    rel_frob = float(np.linalg.norm(cov - ref) / np.linalg.norm(ref))
    Zc = Z - Z.mean(axis=0)
    sd = Zc.std(axis=0)
    live = sd > 1e-9 * max(sd.max(), 1e-300)
    skew = (Zc[:, live] ** 3).mean(axis=0) / sd[live] ** 3
    max_skew = float(np.abs(skew).max()) if live.any() else 0.0
    return CLTReport(n, reps, seed, cov, ref, annihilation, rel_frob, max_skew)
