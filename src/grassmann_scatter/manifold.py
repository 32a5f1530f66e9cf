"""Geometry of the unimodular SPD manifold.

The parameter space is the set of symmetric positive-definite m x m matrices
with determinant one.  It is a complete simply-connected manifold of
nonpositive curvature when equipped with the affine-invariant metric

    <A, B>_Sigma = tr(Sigma^-1 A Sigma^-1 B),

whose tangent space at Sigma consists of the symmetric matrices A with
tr(Sigma^-1 A) = 0 (dimension (m-1)(m+2)/2).  Geodesics through Sigma are

    gamma(t) = g expm(t V) g,     g = sym_sqrt(Sigma),  V = g^-1 W g^-1,

where W is the velocity at t = 0, and the distance is

    d(S0, S1) = || logm(S0^-1/2 S1 S0^-1/2) ||_F.

All matrix exponentials/logarithms go through symmetric eigendecompositions
(inputs are symmetric after congruence), never Pade approximations.
Everything here is a pure function of its inputs; random draws take an
explicit numpy Generator owned by the caller.

Validation contract (package-wide): public functions validate their arguments
once (``check_scatter``, ``check_tangent``), then call unchecked ``_`` cores.
Cores assume validated input and run no symmetry, determinant, tangency or
conditioning checks; internal callers only hand them matrices the library
computed itself.  Solver iterates answer to the solver's COND_MAX guard.  The
scatter check reads the eigenvalues of one eigh, whose eigenpairs it returns as the
eigen chart (``_check_scatter_for``; ``check_scatter`` keeps only the matrix), so a
checked Sigma is not decomposed again; the tangent check ``_check_tangent`` runs in
that chart and returns the whitened tangent W V W^T, which its callers compute with.

Chart rule (package-wide): Sigma = Q diag(lam) Q^T is factored once, by ``_chart``
or by the check that validates it, into F = Q diag(sqrt(lam)) (F F^T = Sigma),
W = F^-1 and Q; a matrix decomposed once passes its eigenpairs on, and Sigma^-1 is
W^T W, never a linear solve.  What is invariant under congruence (distance, geodesics,
log-maps, inner products, tangency, velocity flags, log-likelihood, pi, kernel sum,
residual, gradient) is computed whitened by W; what is defined through the symmetric
root uses g = F Q^T and g^-1 = Q W (``sym_sqrt``, the mean projector, the CLT's C_n,
the score moments).  Solver iterates are charts of the eigh their COND_MAX guard
takes.  The Gaussian sampler's Cholesky factor is the only other factor in the package.
"""

from __future__ import annotations

import functools
import math
from numbers import Integral, Real
from typing import NamedTuple

import numpy as np

from .errors import DomainError, UsageError

# Default tolerances (see module invariants).
SYMMETRY_TOL = 1e-12     # max-norm asymmetry, relative to entry scale
DET_TOL = 1e-10          # |det - 1| before a matrix counts as unimodular
TANGENT_TOL = 1e-10      # |tr(Sigma^-1 V)| for tangency
COND_MAX = 1e14          # eigenvalue-ratio guard for meaningful inverses


def _check_m(m) -> None:
    """DomainError unless the dimension m is an integer (not a bool) with m >= 2."""
    if isinstance(m, bool) or not isinstance(m, Integral) or m < 2:
        raise DomainError(f"dimension must be an integer >= 2, got {m!r}")


def manifold_dim(m: int) -> int:
    """Dimension (m-1)(m+2)/2 of the unimodular SPD manifold."""
    _check_m(m)
    return (m - 1) * (m + 2) // 2


def sym(M: np.ndarray) -> np.ndarray:
    """Symmetric part (M + M^T)/2 (of every matrix of a stack)."""
    return 0.5 * (M + M.swapaxes(-1, -2))


def _as_square(M, name: str) -> np.ndarray:
    """M as a float array, or DomainError unless it is a finite square matrix."""
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise DomainError(f"{name} must be a square matrix, got shape {M.shape}")
    if not np.isfinite(M).all():
        raise DomainError(f"{name} has non-finite entries")
    return M


def check_scatter(M, name: str = "scatter matrix") -> np.ndarray:
    """Validate a point of the manifold; return the symmetrized array.

    Checks symmetry, positive definiteness, the conditioning guard and
    |det - 1| <= DET_TOL (widened by the conditioning-limited determinant
    accuracy).  Raises DomainError on any violation.
    """
    return _check_scatter_for(None, M, name).sigma


def _check_scatter_for(m: int | None, Sigma, name: str = "scatter matrix",
                       paired: str = "atoms") -> _Chart:
    """The eigen chart of the symmetrized Sigma, from the one eigh that check_scatter's
    checks read; DomainError unless it is m x m (m None: any size), the size of what it is
    paired with in R^m, atoms (..., m, r) or another scatter."""
    M = _as_square(Sigma, name)
    if len(M) < 2:
        raise DomainError(f"{name} must be at least 2x2")
    scale = max(1.0, float(np.abs(M).max()))
    if np.abs(M - M.T).max() > SYMMETRY_TOL * scale:
        raise DomainError(f"{name} is not symmetric")
    M = sym(M)
    lam, Q = np.linalg.eigh(M)
    if lam[0] <= 0.0:
        raise DomainError(f"{name} is not positive definite (min eigenvalue {lam[0]:.3e})")
    if lam[-1] / lam[0] > COND_MAX:
        raise DomainError(
            f"{name} too ill-conditioned (eigenvalue ratio {lam[-1] / lam[0]:.3e} > {COND_MAX:.0e})"
        )
    loglam = np.log(lam)
    logdet = float(loglam.sum())
    # the determinant of a kappa-conditioned matrix is only determined to
    # ~eps*kappa in floats, so the tolerance carries that slack
    slack = DET_TOL + 64.0 * np.finfo(float).eps * lam[-1] / lam[0]
    if abs(np.expm1(logdet)) > slack:
        raise DomainError(f"{name} is not unimodular (det = {np.exp(logdet):.12g})")
    if m is not None and len(M) != m:
        raise DomainError(f"{name} must be {m} x {m} for {paired} in R^{m}, got {M.shape}")
    return _chart(M, loglam, Q)


def normalize_det(M) -> np.ndarray:
    """Rescale a symmetric positive-definite matrix to determinant one."""
    M = sym(_as_square(M, "matrix"))
    sign, logdet = np.linalg.slogdet(M)
    if sign <= 0 or not np.isfinite(logdet):
        raise DomainError("matrix is not positive definite, cannot normalize determinant")
    return M * np.exp(-logdet / M.shape[0])


def check_tangent(Sigma, V) -> np.ndarray:
    """Validate that V is tangent at the scatter matrix Sigma (symmetric, trace condition
    |tr(Sigma^-1 V)| within TANGENT_TOL plus the rounding floor 64 eps cond(Sigma)).

    Raises DomainError unless Sigma is a scatter matrix (``check_scatter``) or on
    non-finite entries of V, and UsageError when V is not a tangent vector at Sigma.
    Returns the symmetrized V.
    """
    _check_tangent(_check_scatter_for(None, Sigma), V)
    return sym(np.asarray(V, dtype=float))


def _check_tangent(c: _Chart, V) -> np.ndarray:
    """W V W^T: V whitened in the chart c of its base point, once V is checked tangent
    there (DomainError on non-finite entries, else UsageError), its trace condition read
    from Sigma^-1 V = W^T (W V)."""
    V = _as_square(V, "tangent vector")
    if V.shape != c.sigma.shape:
        raise UsageError(
            f"tangent vector shape {V.shape} does not match base point shape {c.sigma.shape}"
        )
    scale = max(1.0, float(np.abs(V).max()))
    if np.abs(V - V.T).max() > 1e-10 * scale:
        raise UsageError("tangent vector is not symmetric")
    WV = c.W @ sym(V)
    T = c.W.T @ WV
    # tr(Sigma^-1 V) is only determined to ~eps*kappa for a kappa-conditioned Sigma, so
    # the tolerance carries the determinant check's slack
    slack = TANGENT_TOL + 64.0 * np.finfo(float).eps * math.exp(c.loglam[-1] - c.loglam[0])
    if abs(np.trace(T)) > slack * max(1.0, float(np.abs(np.diag(T)).sum())):
        raise UsageError(
            f"matrix is not tangent at the given base point (tr(Sigma^-1 V) = {np.trace(T):.3e})"
        )
    return sym(WV @ c.W.T)


def _eig_apply(S: np.ndarray, f) -> np.ndarray:
    """Q f(lam) Q^T for a symmetric S = Q diag(lam) Q^T, or a stack of them (unchecked)."""
    lam, Q = np.linalg.eigh(S)
    return sym((Q * f(lam)[..., None, :]) @ Q.swapaxes(-1, -2))


class _Chart(NamedTuple):
    """Sigma = Q diag(exp(loglam)) Q^T = F F^T with F = Q diag(exp(loglam/2)) and W = F^-1.

    The fields of a stack of charts carry one leading axis, one entry per matrix.
    """

    sigma: np.ndarray
    Q: np.ndarray
    loglam: np.ndarray
    F: np.ndarray
    W: np.ndarray


def _chart(Sigma: np.ndarray, loglam=None, Q=None) -> _Chart:
    """The eigen chart of Sigma (or of a stack); pass (loglam, Q) when its
    eigendecomposition is at hand."""
    if Q is None:
        lam, Q = np.linalg.eigh(Sigma)
        loglam = np.log(lam)
    root = np.exp(0.5 * loglam)
    return _Chart(Sigma, Q, loglam, Q * root[..., None, :],
                  Q.swapaxes(-1, -2) / root[..., :, None])


def _whitened(c: _Chart, M: np.ndarray) -> np.ndarray:
    """W M W^T: a symmetric M in the chart whitened at c.sigma (stacks entry by entry)."""
    return sym(c.W @ M @ c.W.swapaxes(-1, -2))


def sym_sqrt(Sigma) -> np.ndarray:
    """Unique symmetric positive-definite square root g with g g = Sigma.

    Computed from the eigendecomposition Sigma = Q diag(lam) Q^T as
    g = Q diag(sqrt(lam)) Q^T; inherits determinant one from Sigma.
    """
    c = _check_scatter_for(None, Sigma)
    return sym(c.F @ c.Q.T)


def inner(Sigma, A, B) -> float:
    """Affine-invariant inner product tr(Sigma^-1 A Sigma^-1 B) of tangents at Sigma."""
    c = _check_scatter_for(None, Sigma)
    return float(np.sum(_check_tangent(c, A) * _check_tangent(c, B)))   # W^T W = Sigma^-1


def _geodesic(c: _Chart, V: np.ndarray, t: float) -> np.ndarray:
    mu, E = np.linalg.eigh(t * V)
    G = sym(c.F @ sym((E * np.exp(mu)) @ E.T) @ c.F.T)   # F expm(t V) F^T, whitened V
    # log det G = sum(loglam) + sum(mu) scales it to det 1, whatever the trace of V
    return G * np.exp(-(c.loglam.sum() + mu.sum()) / len(G))


def geodesic(Sigma, W, t: float) -> np.ndarray:
    """Point gamma(t) of the geodesic with gamma(0) = Sigma, gamma'(0) = W.

    Returns g expm(t V) g with g = sym_sqrt(Sigma) and V = g^-1 W g^-1 (computed
    in the eigen chart); renormalized to determinant one against rounding drift.
    DomainError unless t is a finite real number and the point passes check_scatter
    (finite entries first, then the COND_MAX guard), so every point returned is one
    the package accepts.
    """
    if isinstance(t, bool) or not isinstance(t, Real) or not math.isfinite(t):
        raise DomainError(f"t must be a finite real number, got {t!r}")
    c = _check_scatter_for(None, Sigma)
    return check_scatter(_geodesic(c, _check_tangent(c, W), t), "geodesic point")


def log_map(Sigma0, Sigma1) -> np.ndarray:
    """Velocity W at Sigma0 of the unit-time geodesic reaching Sigma1.

    Inverse of ``geodesic(Sigma0, ., 1)``:  W = g logm(g^-1 Sigma1 g^-1) g.
    """
    c = _check_scatter_for(None, Sigma0)
    S1 = _check_scatter_for(len(c.sigma), Sigma1, paired="Sigma0").sigma
    return sym(c.F @ _eig_apply(_whitened(c, S1), np.log) @ c.F.T)


def _whitened_distance(W0: np.ndarray, Sigma1: np.ndarray) -> np.ndarray:
    """d(Sigma0, Sigma1) = ||log eig(W0 Sigma1 W0^T)|| for W0 = F0^-1, F0 F0^T = Sigma0
    (per matrix of a stack Sigma1, each the same to the bit as alone)."""
    lam = np.log(np.linalg.eigvalsh(W0 @ Sigma1 @ W0.T))
    return np.sqrt(np.vecdot(lam, lam))


def distance(Sigma0, Sigma1) -> float:
    """Geodesic distance ||logm(S0^-1/2 S1 S0^-1/2)||_F.

    Computed from the eigenvalues of Sigma1 whitened in the eigen chart of
    Sigma0 (any factor gives the same eigenvalues); invariant under
    simultaneous congruence by any invertible matrix.
    """
    c = _check_scatter_for(None, Sigma0)
    S1 = _check_scatter_for(len(c.sigma), Sigma1, paired="Sigma0").sigma
    return float(_whitened_distance(c.W, S1))


def tangent_project(Sigma, S) -> np.ndarray:
    """Project a symmetric matrix onto the tangent space at Sigma.

    Removes the trace component:  S - (tr(Sigma^-1 S)/m) Sigma.  Linear,
    idempotent, and the identity on matrices already tangent at Sigma.
    """
    c = _check_scatter_for(None, Sigma)
    S = sym(_as_square(S, "matrix"))
    if S.shape != c.sigma.shape:
        raise DomainError(f"matrix of shape {S.shape} does not match Sigma of shape "
                          f"{c.sigma.shape}")
    return S - (np.trace(_whitened(c, S)) / len(S)) * c.sigma     # tr(W S W^T) = tr(Sigma^-1 S)


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


def tangent_vec_projector(m: int) -> np.ndarray:
    """Orthogonal projector (in vec coordinates) onto symmetric trace-free matrices.

    Q = 1/2 (Id + K) - vec(Id) vec(Id)^T / m = B B^T, with K vec(A) = vec(A^T), for the
    orthonormal basis B of those matrices;  tr(Q) = (m-1)(m+2)/2.
    """
    _check_m(m)
    B = _tangent_basis(m)
    return B @ B.T


@functools.cache
def _tangent_basis(m: int) -> np.ndarray:
    """Orthonormal basis B (m^2, (m-1)(m+2)/2) of the vec'd symmetric trace-free matrices.

    Its columns are (E_ij + E_ji)/sqrt(2) for i < j, then the Helmert basis of the
    trace-free diagonals, (1, ..., 1, -k, 0, ..., 0)/sqrt(k(k+1)) for k = 1, ..., m-1.
    Built on first use per m, read-only.
    """
    i, j = np.triu_indices(m, 1)
    off = np.zeros((m, m, len(i)))
    off[i, j, np.arange(len(i))] = off[j, i, np.arange(len(i))] = math.sqrt(0.5)
    k = np.arange(1.0, m)
    c = 1.0 / np.sqrt(k * (k + 1.0))
    diag = np.zeros((m, m, m - 1))
    diag[np.arange(m), np.arange(m)] = np.triu(np.ones((m, m - 1))) * c \
        - np.diag(k * c, -1)[:, :-1]
    B = np.concatenate([off, diag], axis=-1).reshape(m * m, -1)
    B.flags.writeable = False
    return B


def _random_direction(m: int, rng: np.random.Generator) -> np.ndarray:
    """Trace-free symmetric Gaussian matrix scaled to unit Frobenius norm."""
    while True:
        S = sym(rng.standard_normal((m, m)))
        S -= (np.trace(S) / m) * np.eye(m)
        nrm = np.linalg.norm(S)
        if nrm > 1e-12:
            return S / nrm


def random_unit_tangent(Sigma, rng: np.random.Generator) -> np.ndarray:
    """Random tangent vector at Sigma with unit metric norm.

    Draws a symmetric matrix with Gaussian entries in the whitened chart,
    removes the trace part, normalizes in Frobenius norm and transports by
    the square root of Sigma, so the law is invariant under the stabilizer
    of Sigma.
    """
    g = sym_sqrt(Sigma)
    return sym(g @ _random_direction(g.shape[0], rng) @ g)


def random_scatter(m: int, rng: np.random.Generator, spread: float = 1.0) -> np.ndarray:
    """Random manifold point expm(V) for a trace-zero symmetric Gaussian V.

    ``spread`` scales V and thus the log-eigenvalue range of the result;
    keep it moderate so the conditioning guard stays comfortable.
    """
    _check_m(m)
    return _eig_apply(spread * _random_direction(m, rng), np.exp)
