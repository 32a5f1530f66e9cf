"""Subspace points, subspace-valued measures, projectors and cocycles.

An r-dimensional subspace of R^m is stored as an m x r full-rank basis
matrix X; all span-level operations orthonormalize internally, and semantic
equality is rank-based, never basis-based.  A measure over subspaces is
either an empirical measure (weighted atoms, all sharing (m, r)) or the
parametric family attached to an m x m unimodular SPD matrix Sigma: the law
of the span of r i.i.d. centered Gaussian vectors with covariance Sigma.

Core formulas (X any basis of U, Sigma a unimodular SPD matrix):

    projector(U, Sigma)   = X (X^T Sigma^-1 X)^-1 X^T Sigma^-1
    pi_matrix(U, Sigma)   = Sigma^-1 X (X^T Sigma^-1 X)^-1 X^T Sigma^-1
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

import numpy as np

from .errors import DomainError
from .manifold import check_scatter, normalize_det

RANK_TOL = 1e-10        # relative singular-value cutoff for rank decisions
WEIGHT_TOL = 1e-12      # tolerance on sum(weights) == 1


def check_basis(X, name: str = "basis") -> np.ndarray:
    """Validate an m x r basis matrix (0 < r < m, full rank); return as float array."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2:
        raise DomainError(f"{name} must be a 2-d array, got shape {X.shape}")
    m, r = X.shape
    if not 0 < r < m:
        raise DomainError(f"{name} must be m x r with 0 < r < m, got {m} x {r}")
    sv = np.linalg.svd(X, compute_uv=False)
    if sv[-1] <= RANK_TOL * sv[0]:
        raise DomainError(f"{name} is rank deficient (singular values {sv})")
    return X


def orthonormalize(X: np.ndarray) -> np.ndarray:
    """Orthonormal basis of span(X) via reduced QR."""
    Q, _ = np.linalg.qr(X)
    return Q


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
        if not 0 < r < m:
            raise DomainError(f"atoms must be m x r with 0 < r < m, got {m} x {r}")
        sv = np.linalg.svd(pts, compute_uv=False)
        bad = sv[:, -1] <= RANK_TOL * sv[:, 0]
        if bad.any():
            raise DomainError(f"rank-deficient atoms at indices {np.flatnonzero(bad)}")
        if self.weights is None:
            w = np.full(n, 1.0 / n)
        else:
            w = np.asarray(self.weights, dtype=float)
            if w.shape != (n,):
                raise DomainError(f"weights shape {w.shape} does not match {n} atoms")
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

    @property
    def is_uniform(self) -> bool:
        return bool(np.abs(self.weights - 1.0 / self.n).max() <= 1e-12)


@dataclass(frozen=True)
class Gaussian:
    """Law of the span of r i.i.d. N(0, Sigma) vectors (Sigma unimodular SPD)."""

    sigma: np.ndarray
    r: int

    def __post_init__(self):
        S = check_scatter(self.sigma)
        if not 0 < self.r < S.shape[0]:
            raise DomainError(f"need 0 < r < m, got r={self.r}, m={S.shape[0]}")
        object.__setattr__(self, "sigma", S)

    @property
    def m(self) -> int:
        return self.sigma.shape[0]


Measure = Empirical | Gaussian


def _gaussian_bases(chol: np.ndarray, r: int, n: int, rng: np.random.Generator) -> np.ndarray:
    """n i.i.d. m x r bases with N(0, chol chol^T) columns, (n, m, r): the one sampler.

    Bit-identical whether drawn in one batch or one at a time from the same
    generator.  Ranks are checked by ``Empirical``, not here.
    """
    return np.einsum("ij,njr->nir", chol, rng.standard_normal((n, chol.shape[0], r)))


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
        sv = np.linalg.svd(X, compute_uv=False)
        if sv[-1] > RANK_TOL * sv[0]:
            return X


def act(A, X) -> np.ndarray:
    """Image basis A X of the subspace under an invertible matrix A."""
    A = np.asarray(A, dtype=float)
    X = check_basis(X)
    if A.shape != (X.shape[0], X.shape[0]):
        raise DomainError(f"matrix shape {A.shape} does not match ambient dimension {X.shape[0]}")
    sv = np.linalg.svd(A, compute_uv=False)
    if sv[-1] <= 1e-14 * sv[0]:
        raise DomainError("transformation matrix is singular")
    return A @ X


def act_measure(A, meas: Measure) -> Measure:
    """Pushforward of a measure under an invertible matrix A.

    Empirical atoms map to A X; the Gaussian parameter maps to A Sigma A^T
    renormalized to determinant one (the family is defined up to scale).
    """
    if isinstance(meas, Empirical):
        return Empirical(np.einsum("ij,njk->nik", np.asarray(A, float), meas.points),
                         meas.weights)
    return Gaussian(normalize_det(A @ meas.sigma @ np.asarray(A, float).T), meas.r)


# ---------------------------------------------------------------------------
# The whitened-Gram kernel (unchecked cores): every per-atom quantity comes from
# Theta_j = F^-1 X_j and G_j = Theta_j^T Theta_j = X_j^T Sigma^-1 X_j, F F^T = Sigma.


def _columns(points: np.ndarray) -> np.ndarray:
    """The (n, m, r) atoms side by side: one m x (n r) matrix, atom j in block j."""
    n, m, r = points.shape
    return points.transpose(1, 0, 2).reshape(m, n * r)


def _solve_atoms(F: np.ndarray, points: np.ndarray) -> np.ndarray:
    """F^-1 X_j for every atom, (n, m, r): one solve on the (m, n r) layout."""
    n, m, r = points.shape
    return np.linalg.solve(F, _columns(points)).reshape(m, n, r).transpose(1, 0, 2)


def _whiten(points: np.ndarray, F: np.ndarray):
    """(Theta, G): whitened atoms Theta_j = F^-1 X_j and their Grams G_j, (n, r, r)."""
    Th = _solve_atoms(F, points)
    return Th, np.einsum("nir,nis->nrs", Th, Th)


def _gram_solve(G: np.ndarray, A: np.ndarray) -> np.ndarray:
    """G_j^-1 A_j^T for every atom, (n, r, m); closed form for lines."""
    At = A.transpose(0, 2, 1)
    return At / G if G.shape[-1] == 1 else np.linalg.solve(G, At)


def _projectors(A: np.ndarray, G: np.ndarray) -> np.ndarray:
    """A_j G_j^-1 A_j^T for every atom, (n, m, m); A = Theta gives Pi_j."""
    P = A @ _gram_solve(G, A)
    return 0.5 * (P + P.transpose(0, 2, 1))


def _pi_matrices(points: np.ndarray, F: np.ndarray) -> np.ndarray:
    """pi_j = Sigma^-1 X_j G_j^-1 X_j^T Sigma^-1 = F^-T Pi_j F^-1 for every atom."""
    Th, G = _whiten(points, F)
    return _projectors(_solve_atoms(F.T, Th), G)


def _logdet_ratio(points: np.ndarray, F: np.ndarray) -> np.ndarray:
    """log det(X_j^T Sigma^-1 X_j) - log det(X_j^T X_j) for every atom."""
    gram = np.einsum("nir,nis->nrs", points, points)
    return np.linalg.slogdet(_whiten(points, F)[1])[1] - np.linalg.slogdet(gram)[1]


def _atom_pi(X, Sigma: np.ndarray) -> np.ndarray:
    """pi of one validated, orthonormalized basis X at an already validated Sigma."""
    return _pi_matrices(orthonormalize(check_basis(X))[None], np.linalg.cholesky(Sigma))[0]


def _atom_logdet_ratio(X, Sigma) -> float:
    """Validated single-atom log-det ratio, with the Cholesky factor of Sigma."""
    return float(_logdet_ratio(check_basis(X)[None], np.linalg.cholesky(check_scatter(Sigma)))[0])


def projector(X, Sigma) -> np.ndarray:
    """Sigma-orthogonal projector onto span(X).

    Idempotent, trace r, range span(X), self-adjoint for the Sigma^-1 inner
    product: Sigma P^T Sigma^-1 = P.  Basis-independent.
    """
    Sigma = check_scatter(Sigma)
    return Sigma @ _atom_pi(X, Sigma)


def pi_matrix(X, Sigma) -> np.ndarray:
    """Symmetric kernel Sigma^-1 X (X^T Sigma^-1 X)^-1 X^T Sigma^-1.

    Satisfies Sigma @ pi_matrix(X, Sigma) == projector(X, Sigma).
    """
    return _atom_pi(X, check_scatter(Sigma))


def density_ratio(X, Sigma) -> float:
    """Radon-Nikodym derivative of the Sigma family member against the isotropic one.

    Equals (det(X^T X) / det(X^T Sigma^-1 X))^(m/2); positive, equal to one at
    Sigma = Id, and independent of the chosen basis of the subspace.
    """
    ld = _atom_logdet_ratio(X, Sigma)
    return float(np.exp(-0.5 * np.shape(X)[0] * ld))


def dim_intersection(XU, XV, tol: float = RANK_TOL) -> int:
    """Dimension of span(XU) & span(XV): dim U + dim V - rank([XU | XV])."""
    QU = orthonormalize(np.asarray(XU, dtype=float))
    QV = orthonormalize(np.asarray(XV, dtype=float))
    if QU.shape[0] != QV.shape[0]:
        raise DomainError("subspaces live in different ambient dimensions")
    sv = np.linalg.svd(np.hstack([QU, QV]), compute_uv=False)
    rank = int(np.sum(sv > tol * sv[0]))
    return QU.shape[1] + QV.shape[1] - rank


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
    if not 0 < r < m:
        raise DomainError(f"need 0 < r < m, got r={r}, m={m}")
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
    h = np.asarray(h, dtype=float)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise DomainError(f"group element must be square, got shape {h.shape}")
    m = h.shape[0]
    if not 0 < r < m:
        raise DomainError(f"need 0 < r < m, got r={r}, m={m}")
    sign, logdet = np.linalg.slogdet(h)
    if sign == 0 or abs(logdet) > 1e-8:
        raise DomainError(f"group element must have |det| = 1, got log|det| = {logdet:.3e}")
    X0 = np.eye(m, r)[None]                  # h is a factor of h h^T
    return float(np.exp(-0.5 * m * _logdet_ratio(X0, h)[0]))


def modular_parabolic(lam1: float, m: int, r: int) -> float:
    """Modular function |lam1|^(m r) of the block upper-triangular parabolic subgroup.

    Evaluated on the block-scaling element diag(lam1 1_r, lam2 1_(m-r)) with
    lam1^r lam2^(m-r) = 1.
    """
    if lam1 == 0:
        raise DomainError("block scaling factor must be nonzero")
    if not 0 < r < m:
        raise DomainError(f"need 0 < r < m, got r={r}, m={m}")
    return float(abs(lam1) ** (m * r))
