"""Subspace points, subspace-valued measures, projectors and cocycles.

An r-dimensional subspace of R^m is stored as an m x r full-rank basis
matrix X; all span-level operations orthonormalize internally, and semantic
equality is rank-based (one rank core, ``_meet_dims``), never basis-based.  A
measure over subspaces is either an empirical measure (weighted atoms, all
sharing (m, r)) or the parametric family attached to an m x m unimodular SPD
matrix Sigma: the law of the span of r i.i.d. centered Gaussian vectors with
covariance Sigma.

Core formulas (X any basis of U, Sigma a unimodular SPD matrix):

    projector(U, Sigma)   = X (X^T Sigma^-1 X)^-1 X^T Sigma^-1
    density_ratio(U, S)   = (det(X^T X) / det(X^T Sigma^-1 X))^(m/2)
    busemann(U, Sigma)    = sqrt(m/((m-r) r)) * log(det(X^T Sigma^-1 X)/det(X^T X))

The projector is the Sigma-orthogonal projection onto U (idempotent, trace
r, self-adjoint for the inner product x^T Sigma^-1 y); the density ratio is
the Radon-Nikodym derivative of the family member at Sigma against the
isotropic one; the Busemann function is the normalized boundary horofunction
attached to U, equal to -t along the distinguished ray below.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from numbers import Integral

import numpy as np

from .errors import DomainError, UsageError
from .manifold import _as_square, _check_m, _check_scatter_for, check_scatter, normalize_det

RANK_TOL = 1e-10        # relative singular-value cutoff for rank decisions
WEIGHT_TOL = 1e-12      # tolerance on sum(weights) == 1


def _check_dims(m, r) -> None:
    """DomainError unless m passes ``_check_m`` and r is an integer (not a bool), 0 < r < m."""
    _check_m(m)
    if isinstance(r, bool) or not isinstance(r, Integral) or not 0 < r < m:
        raise DomainError(f"need 0 < r < m, got r={r}, m={m}")


def check_basis(X) -> np.ndarray:
    """Validate an m x r basis matrix (0 < r < m, full rank); return as float array."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2:
        raise DomainError(f"basis must be a 2-d array, got shape {X.shape}")
    if not np.isfinite(X).all():
        raise DomainError("basis has non-finite entries")
    _check_dims(*X.shape)
    if _rank_deficient(X):
        raise DomainError("basis is rank deficient")
    return X


def orthonormalize(X: np.ndarray) -> np.ndarray:
    """Orthonormal basis of span(X) via reduced QR."""
    Q, _ = np.linalg.qr(X)
    return Q


def _gram_certified(A: np.ndarray) -> np.ndarray:
    """Whether the Gram screen certifies that each k x p matrix (2 <= k <= p) of a stack
    (..., k, p) has full rank k: with C = A A^T, rho = det(C) (k-1)^(k-1) / tr(C)^k is at
    least RANK_TOL.  One batched Gram product and one batched det.

    rho is a lower bound on (sigma_min / sigma_max)^2 of A: the k-1 largest eigenvalues of
    C have product at most (tr/(k-1))^(k-1) (AM-GM), and lambda_max <= tr.  So a certified
    A has sigma_min / sigma_max >= 1e-5, far above the RANK_TOL cutoff of the svd.  rho is
    evaluated as det((k-1) C / tr) >= (k-1) RANK_TOL, whose entries are at most k-1 in
    size.  The bound needs C accurate to about p eps tr, so only a trace of at least the
    smallest normal float is certified: there every rounding of C, underflow to a
    subnormal included, errs by at most eps tr / 2.  A subnormal, zero (0/0 = nan) or
    overflowed Gram is never certified, whatever the rank.
    """
    k = A.shape[-2]
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        C = A @ A.swapaxes(-1, -2)
        tr = C.trace(axis1=-2, axis2=-1)
        rho = np.linalg.det(C / tr[..., None, None] * (k - 1))
        return (tr >= np.finfo(C.dtype).tiny) & (rho >= (k - 1) * RANK_TOL)


def _rank_deficient(X: np.ndarray) -> np.ndarray:
    """Whether each m x d basis (d <= m) of a stack (..., m, d) has rank below d: its
    smallest singular value is at most RANK_TOL times its largest.

    Lines are nonzero tests.  Wider bases pass the Gram screen ``_gram_certified``; only
    those it cannot certify go to the svd, which decides them.
    """
    if X.shape[-1] == 1:
        return ~X.any(axis=(-2, -1))
    bad = np.asarray(~_gram_certified(X.swapaxes(-1, -2)))
    if bad.any():
        sv = np.linalg.svd(X[bad], compute_uv=False)
        bad[bad] = sv[:, -1] <= RANK_TOL * sv[:, 0]
    return bad


def _check_ranks(points: np.ndarray) -> None:
    """Raise DomainError naming the rank-deficient atoms of (n, m, r) points, or of
    the first dataset of a stack (..., n, m, r) that has any."""
    bad = _rank_deficient(points).reshape(-1, points.shape[-3])
    for row in bad[bad.any(axis=1)][:1]:
        raise DomainError(f"rank-deficient atoms at indices {np.flatnonzero(row)}")


@dataclass(frozen=True)
class Empirical:
    """Weighted empirical measure over r-dimensional subspaces of R^m.

    ``points`` is an (n, m, r) array of basis matrices; ``weights`` is a
    nonnegative (n,) array summing to one (uniform if omitted).
    """

    points: np.ndarray
    weights: np.ndarray = field(default=None)

    def __post_init__(self):
        pts = self.points
        if not (isinstance(pts, np.ndarray) and pts.ndim == 3):
            cols = []
            for p in pts:
                p = np.asarray(p, dtype=float)
                cols.append(p[:, None] if p.ndim == 1 else p)  # vectors mean lines
            pts = np.stack(cols)
        pts = np.asarray(pts, dtype=float)
        if pts.ndim != 3:
            raise DomainError(f"atoms must form an (n, m, r) array, got shape {pts.shape}")
        n, m, r = pts.shape
        _check_dims(m, r)
        if not np.isfinite(pts).all():
            raise DomainError("atoms have non-finite entries")
        _check_ranks(pts)
        if self.weights is None:
            w = np.full(n, 1.0 / n)
        else:
            w = np.asarray(self.weights, dtype=float)
            if w.shape != (n,):
                raise DomainError(f"weights shape {w.shape} does not match {n} atoms")
            if not np.isfinite(w).all():
                raise DomainError("weights have non-finite entries")
            if (w < 0).any():
                raise DomainError("weights must be nonnegative")
            if abs(w.sum() - 1.0) > WEIGHT_TOL:
                raise DomainError(f"weights must sum to 1, got {w.sum():.15g}")
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "weights", w)

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def m(self) -> int:
        return self.points.shape[1]

    @property
    def r(self) -> int:
        return self.points.shape[2]


@dataclass(frozen=True)
class Gaussian:
    """Law of the span of r i.i.d. N(0, Sigma) vectors (Sigma unimodular SPD)."""

    sigma: np.ndarray
    r: int

    def __post_init__(self):
        S = check_scatter(self.sigma)
        _check_dims(S.shape[0], self.r)
        object.__setattr__(self, "sigma", S)

    @property
    def m(self) -> int:
        return self.sigma.shape[0]


Measure = Empirical | Gaussian


def _check_empirical(meas: Measure, op: str, Sigma=None):
    """UsageError unless the measure is empirical: ``op`` evaluates samples, not laws.
    Given a scatter Sigma, return its eigen chart, checked against the atoms by
    ``_check_scatter_for``."""
    if not isinstance(meas, Empirical):
        raise UsageError(f"{op} needs an empirical measure; sample the law first")
    return None if Sigma is None else _check_scatter_for(meas.m, Sigma)


def _gaussian_bases(chol: np.ndarray, r: int, n: int, rng) -> np.ndarray:
    """n i.i.d. m x r bases with N(0, chol chol^T) columns, (n, m, r): the one sampler;
    n from each of a list of B generators, (B, n, m, r), factored in one product.  The
    same bits whether drawn in one batch or one at a time, from a generator alone or in
    a list.  Ranks are checked by ``Empirical`` or ``_check_ranks``, not here."""
    shape = (n, chol.shape[0], r)
    Z = np.stack([g.standard_normal(shape) for g in rng]) if isinstance(rng, list) \
        else rng.standard_normal(shape)
    return np.einsum("ij,...njr->...nir", chol, Z)


def sample(meas: Measure, rng: np.random.Generator) -> np.ndarray:
    """Draw one subspace (an m x r basis matrix) from the measure.

    Gaussian variant: r i.i.d. centered normal columns with covariance Sigma
    (redrawn in the probability-zero event of rank deficiency).  Empirical
    variant: an atom drawn by weight.
    """
    if isinstance(meas, Empirical):
        j = rng.choice(meas.n, p=meas.weights)
        return meas.points[j]
    L = np.linalg.cholesky(meas.sigma)
    while True:
        X = _gaussian_bases(L, meas.r, 1, rng)[0]
        if not _rank_deficient(X):
            return X


def _check_transform(A, m: int) -> np.ndarray:
    """A as a float array, or DomainError unless it is a finite invertible m x m matrix."""
    A = _as_square(A, "transformation matrix")
    if len(A) != m:
        raise DomainError(f"matrix shape {A.shape} does not match ambient dimension {m}")
    sv = np.linalg.svd(A, compute_uv=False)
    if sv[-1] <= 1e-14 * sv[0]:
        raise DomainError("transformation matrix is singular")
    return A


def act(A, X) -> np.ndarray:
    """Image basis A X of the subspace under an invertible matrix A."""
    X = check_basis(X)
    return _check_transform(A, X.shape[0]) @ X


def act_measure(A, meas: Measure) -> Measure:
    """Pushforward of a measure under an invertible matrix A.

    Empirical atoms map to A X; the Gaussian parameter maps to A Sigma A^T
    renormalized to determinant one (the family is defined up to scale).
    """
    A = _check_transform(A, meas.m)
    if isinstance(meas, Empirical):
        return Empirical(np.einsum("ij,njk->nik", A, meas.points), meas.weights)
    return Gaussian(normalize_det(A @ meas.sigma @ A.T), meas.r)


# ---------------------------------------------------------------------------
# The whitened-frame core (unchecked): every per-atom quantity comes from Theta_j = W X_j,
# W = F^-1 for a factor F F^T = Sigma, so G_j = Theta_j^T Theta_j = X_j^T Sigma^-1 X_j.
# One product with W whitens all atoms into the (r, m, n) layout (column k of every atom
# in one contiguous m x n slice); Gram-Schmidt over the r columns, vectorized across
# atoms, gives orthonormal frames U_j: Pi_j = U_j U_j^T and log det G_j = sum_k log |v_k|^2
# (v_k: column k before it is normalized).  No LAPACK call, and an error of order
# eps cond(Theta_j), not the eps cond(Theta_j)^2 of forming G_j.  The caller supplies W
# from the eigen chart of Sigma it already has (the solver's iterates are charts), or
# g^-1 = Q W where the symmetric root is the definition.


def _columns(points: np.ndarray) -> np.ndarray:
    """The (n, m, r) atoms side by side: one m x (n r) matrix, atom j in block j (per
    dataset of a stack (..., n, m, r))."""
    n, m, r = points.shape[-3:]
    return points.swapaxes(-3, -2).reshape(points.shape[:-3] + (m, n * r))


def _gram_schmidt(T: np.ndarray):
    """(U, |v_k|^2 (r, ...)): the atoms of the (r, m, ...) layout T orthonormalized in place."""
    sq = np.empty(T.shape[:1] + T.shape[2:])
    for k, v in enumerate(T):
        for u in T[:k]:
            v -= u * (u * v).sum(0)
        sq[k] = (v * v).sum(0)
        v /= np.sqrt(sq[k])
    return T, sq


def _whiten(points: np.ndarray, W: np.ndarray) -> np.ndarray:
    """W X_j for the (n, m, r) atoms X_j, in the (r, m, n) layout.

    A stack of L factors W (L, m, m) whitens L equal blocks of consecutive atoms (one
    dataset each), block i by W[i], in one broadcast product; the atoms stay in their
    order, so the (r, m, n) array is the stack's (r, m, L, n/L) layout.
    """
    if W.ndim == 2 or len(W) == 1:
        return W.reshape(W.shape[-2:]) @ points.T
    n, m, r = points.shape
    L = len(W)
    T = np.empty((r, m, L, n // L))
    np.matmul(W, points.T.reshape(r, m, L, -1).swapaxes(1, 2), out=T.swapaxes(1, 2))
    return T.reshape(r, m, n)


def _frames(points: np.ndarray, W: np.ndarray) -> np.ndarray:
    """The whitened frames U_j of the (n, m, r) atoms, in the (r, m, n) layout."""
    return _gram_schmidt(_whiten(points, W))[0]


def _outer(U: np.ndarray) -> np.ndarray:
    """U_j U_j^T for every atom of the (r, m, n) layout, (n, m, m), or of the stacked
    (r, L, m, n) layout, (L, n, m, m); frames give Pi_j."""
    return np.einsum("k...in,k...jn->...nij", U, U)


def _log_gram_dets(T: np.ndarray) -> np.ndarray:
    """log det(T_j^T T_j) for every atom of the (r, m, ...) layout T (overwritten): the sum
    of the log squared norms of its Gram-Schmidt."""
    return np.log(_gram_schmidt(T)[1]).sum(0)


def _logdet_ratio(points: np.ndarray, W: np.ndarray) -> np.ndarray:
    """log det(X_j^T Sigma^-1 X_j) - log det(X_j^T X_j): with frames X_j = Q_j R_j, of (W Q_j)."""
    return _log_gram_dets(W @ _gram_schmidt(points.transpose(2, 1, 0).copy())[0])


def _atom_logdet_ratio(X, Sigma) -> float:
    """Checked single-atom log-det ratio, whitened in the eigen chart of Sigma."""
    X = check_basis(X)
    return float(_logdet_ratio(X[None], _check_scatter_for(len(X), Sigma).W)[0])


def projector(X, Sigma) -> np.ndarray:
    """Sigma-orthogonal projector onto span(X).

    Idempotent, trace r, range span(X), self-adjoint for the Sigma^-1 inner
    product: Sigma P^T Sigma^-1 = P.  Basis-independent.
    """
    X = check_basis(X)
    c = _check_scatter_for(len(X), Sigma)
    # Sigma pi, pi = W^T Pi W with Pi the whitened projector of the orthonormalized X
    return c.sigma @ _outer(c.W.T @ _frames(orthonormalize(X)[None], c.W))[0]


def density_ratio(X, Sigma) -> float:
    """Radon-Nikodym derivative of the Sigma family member against the isotropic one.

    Equals (det(X^T X) / det(X^T Sigma^-1 X))^(m/2); positive, equal to one at
    Sigma = Id, and independent of the chosen basis of the subspace.
    """
    ld = _atom_logdet_ratio(X, Sigma)
    return float(np.exp(-0.5 * np.shape(X)[0] * ld))


def _meet_dims(QA: np.ndarray, QB: np.ndarray) -> np.ndarray:
    """dim(span QA & span QB) = a + b - rank([QA | QB]), unchecked, over broadcast stacks.

    QA (..., m, a) and QB (..., m, b) hold orthonormal bases; one batched svd, with
    singular values at most RANK_TOL times the largest counted as zero.
    """
    lead = np.broadcast_shapes(QA.shape[:-2], QB.shape[:-2])
    C = np.concatenate([np.broadcast_to(QA, lead + QA.shape[-2:]),
                        np.broadcast_to(QB, lead + QB.shape[-2:])], axis=-1)
    sv = np.linalg.svd(C, compute_uv=False)
    return QA.shape[-1] + QB.shape[-1] - np.sum(sv > RANK_TOL * sv[..., :1], axis=-1)


def dim_intersection(XU, XV):
    """Dimension of span(XU) & span(XV): dim U + dim V - rank([XU | XV]).

    XU (..., m, a) and XV (..., m, b) may be stacks of bases whose leading
    axes broadcast; the result is then an int array of the broadcast shape,
    and an int for two single bases.  Every basis needs full column rank, so
    0 < d <= m (else DomainError: qr would invent the missing directions).
    Each argument is orthonormalized once (one batched qr) before the rank core.
    """
    XU, XV = np.asarray(XU, dtype=float), np.asarray(XV, dtype=float)
    if (XU.ndim < 2 or XV.ndim < 2 or XU.shape[-2] != XV.shape[-2]
            or not (0 < XU.shape[-1] <= XU.shape[-2] and 0 < XV.shape[-1] <= XV.shape[-2])
            or not (np.isfinite(XU).all() and np.isfinite(XV).all())):
        raise DomainError(f"need finite m x d bases of one space, got {XU.shape}, {XV.shape}")
    try:
        np.broadcast_shapes(XU.shape[:-2], XV.shape[:-2])
    except ValueError:
        raise DomainError(f"stacks of shapes {XU.shape} and {XV.shape} do not broadcast") from None
    if _rank_deficient(XU).any() or _rank_deficient(XV).any():
        raise DomainError("rank-deficient basis: its span has fewer dimensions than columns")
    dims = _meet_dims(orthonormalize(XU), orthonormalize(XV))
    return int(dims) if dims.ndim == 0 else dims


def busemann(X, Sigma) -> float:
    """Horofunction sqrt(m/((m-r) r)) * log(det(X^T Sigma^-1 X)/det(X^T X)).

    Vanishes at the identity and decreases with unit speed along the
    distinguished ray expm(t A), A = diag(lam_r 1_r, -beta_r 1_(m-r)) with
    lam_r = sqrt((m-r)/(m r)) and beta_r = sqrt(r/(m (m-r))), when the
    subspace is spanned by the first r coordinate vectors.
    """
    ld = _atom_logdet_ratio(X, Sigma)
    m, r = np.shape(X)
    return float(np.sqrt(m / ((m - r) * r)) * ld)


def distinguished_ray_direction(m: int, r: int) -> np.ndarray:
    """Velocity A = diag(lam_r 1_r, -beta_r 1_(m-r)) of the reference boundary ray."""
    _check_dims(m, r)
    lam_r = np.sqrt((m - r) / (m * r))
    beta_r = np.sqrt(r / (m * (m - r)))
    return np.diag(np.concatenate([np.full(r, lam_r), np.full(m - r, -beta_r)]))


def cocycle(h, r: int) -> float:
    """Multiplicative cocycle on the unimodular group attached to the reference r-subspace.

    For unimodular h this is (det(X0^T X0) / det(X0^T (h h^T)^-1 X0))^(m/2)
    with X0 the first r coordinate vectors; it equals one on orthogonal
    matrices and |lam1|^(m r) on block-scaling matrices
    diag(lam1 1_r, lam2 1_(m-r)) with lam1^r lam2^(m-r) = 1.  Its ratios
    reproduce density_ratio: cocycle(g h) / cocycle(h) equals the density
    ratio of <h^-1 X0> against g g^T normalized.
    """
    h = _as_square(h, "group element")
    m = h.shape[0]
    _check_dims(m, r)
    sign, logdet = np.linalg.slogdet(h)
    if sign == 0 or abs(logdet) > 1e-8:
        raise DomainError(f"group element must have |det| = 1, got log|det| = {logdet:.3e}")
    X0 = np.eye(m, r)[None]                  # h is a factor of h h^T, h^-1 whitens
    return float(np.exp(-0.5 * m * _logdet_ratio(X0, np.linalg.inv(h))[0]))


def modular_parabolic(lam1: float, m: int, r: int) -> float:
    """Modular function |lam1|^(m r) of the block upper-triangular parabolic subgroup.

    Evaluated on the block-scaling element diag(lam1 1_r, lam2 1_(m-r)) with
    lam1^r lam2^(m-r) = 1.
    """
    if not np.isfinite(lam1) or lam1 == 0:
        raise DomainError(f"block scaling factor must be finite and nonzero, got {lam1!r}")
    _check_dims(m, r)
    return float(abs(lam1) ** (m * r))
