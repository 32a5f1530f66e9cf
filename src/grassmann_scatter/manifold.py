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
computed itself.  Solver iterates answer to the solvers' COND_MAX guard.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg

from .errors import DomainError, UsageError

# Default tolerances (see module invariants).
SYMMETRY_TOL = 1e-12     # max-norm asymmetry, relative to entry scale
DET_TOL = 1e-10          # |det - 1| before a matrix counts as unimodular
TANGENT_TOL = 1e-10      # |tr(Sigma^-1 V)| for tangency
COND_MAX = 1e14          # eigenvalue-ratio guard for meaningful inverses


def manifold_dim(m: int) -> int:
    """Dimension (m-1)(m+2)/2 of the unimodular SPD manifold."""
    return (m - 1) * (m + 2) // 2


def sym(M: np.ndarray) -> np.ndarray:
    """Symmetric part (M + M^T)/2."""
    return 0.5 * (M + M.T)


def _as_square(M, name: str) -> np.ndarray:
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise DomainError(f"{name} must be a square matrix, got shape {M.shape}")
    return M


def check_scatter(M, name: str = "scatter matrix") -> np.ndarray:
    """Validate a point of the manifold; return the symmetrized array.

    Checks symmetry, positive definiteness, the conditioning guard and
    |det - 1| <= DET_TOL (widened by the conditioning-limited determinant
    accuracy).  Raises DomainError on any violation.
    """
    M = _as_square(M, name)
    m = M.shape[0]
    if m < 2:
        raise DomainError(f"{name} must be at least 2x2")
    scale = max(1.0, float(np.abs(M).max()))
    if np.abs(M - M.T).max() > SYMMETRY_TOL * scale:
        raise DomainError(f"{name} is not symmetric")
    M = sym(M)
    lam = np.linalg.eigvalsh(M)
    if lam[0] <= 0.0:
        raise DomainError(f"{name} is not positive definite (min eigenvalue {lam[0]:.3e})")
    if lam[-1] / lam[0] > COND_MAX:
        raise DomainError(
            f"{name} too ill-conditioned (eigenvalue ratio {lam[-1] / lam[0]:.3e} > {COND_MAX:.0e})"
        )
    logdet = float(np.log(lam).sum())
    # the determinant of a kappa-conditioned matrix is only determined to
    # ~eps*kappa in floats, so the tolerance carries that slack
    slack = DET_TOL + 64.0 * np.finfo(float).eps * lam[-1] / lam[0]
    if abs(np.expm1(logdet)) > slack:
        raise DomainError(f"{name} is not unimodular (det = {np.exp(logdet):.12g})")
    return M


def normalize_det(M, name: str = "matrix") -> np.ndarray:
    """Rescale a symmetric positive-definite matrix to determinant one."""
    M = sym(_as_square(M, name))
    sign, logdet = np.linalg.slogdet(M)
    if sign <= 0 or not np.isfinite(logdet):
        raise DomainError(f"{name} is not positive definite, cannot normalize determinant")
    return M * np.exp(-logdet / M.shape[0])


def check_tangent(Sigma: np.ndarray, V, tol: float = TANGENT_TOL) -> np.ndarray:
    """Validate that V is tangent at Sigma (symmetric, trace condition).

    Raises UsageError when V is not a tangent vector at the declared base
    point.  Returns the symmetrized array.
    """
    V = _as_square(V, "tangent vector")
    if V.shape != Sigma.shape:
        raise UsageError(
            f"tangent vector shape {V.shape} does not match base point shape {Sigma.shape}"
        )
    scale = max(1.0, float(np.abs(V).max()))
    if np.abs(V - V.T).max() > 1e-10 * scale:
        raise UsageError("tangent vector is not symmetric")
    V = sym(V)
    T = np.linalg.solve(Sigma, V)
    tr_scale = max(1.0, float(np.abs(np.diag(T)).sum()))
    if abs(np.trace(T)) > tol * tr_scale:
        raise UsageError(
            f"matrix is not tangent at the given base point (tr(Sigma^-1 V) = {np.trace(T):.3e})"
        )
    return V


def _eig_apply(S: np.ndarray, f) -> np.ndarray:
    """Q f(lam) Q^T for a symmetric S = Q diag(lam) Q^T (unchecked)."""
    lam, Q = np.linalg.eigh(S)
    return sym((Q * f(lam)) @ Q.T)


def _sym_sqrt(Sigma: np.ndarray) -> np.ndarray:
    return _eig_apply(Sigma, np.sqrt)


def sym_sqrt(Sigma) -> np.ndarray:
    """Unique symmetric positive-definite square root g with g g = Sigma.

    Computed from the eigendecomposition Sigma = Q diag(lam) Q^T as
    g = Q diag(sqrt(lam)) Q^T; inherits determinant one from Sigma.
    """
    return _sym_sqrt(check_scatter(Sigma))


def _congruence_inv(g: np.ndarray, M: np.ndarray) -> np.ndarray:
    """g^-1 M g^-1 for symmetric g, M (two triangular-free solves)."""
    Y = np.linalg.solve(g, M)            # g^-1 M
    return sym(np.linalg.solve(g, Y.T).T)  # (g^-1 M) g^-1


def inner(Sigma, A, B) -> float:
    """Affine-invariant inner product tr(Sigma^-1 A Sigma^-1 B) of tangents at Sigma."""
    Sigma = check_scatter(Sigma)
    A = check_tangent(Sigma, A)
    B = check_tangent(Sigma, B)
    SA = np.linalg.solve(Sigma, A)
    SB = np.linalg.solve(Sigma, B)
    return float(np.sum(SA * SB.T))


def norm(Sigma, A) -> float:
    """Metric norm sqrt(<A, A>_Sigma)."""
    return float(np.sqrt(max(inner(Sigma, A, A), 0.0)))


def _geodesic(Sigma: np.ndarray, W: np.ndarray, t: float) -> np.ndarray:
    g = _sym_sqrt(Sigma)
    V = _congruence_inv(g, W)
    V = V - (np.trace(V) / V.shape[0]) * np.eye(V.shape[0])  # exact trace-zero
    return sym(g @ _eig_apply(t * V, np.exp) @ g)      # det 1 up to rounding


def geodesic(Sigma, W, t: float) -> np.ndarray:
    """Point gamma(t) of the geodesic with gamma(0) = Sigma, gamma'(0) = W.

    Returns g expm(t V) g with g = sym_sqrt(Sigma) and V = g^-1 W g^-1; the
    result is renormalized to determinant one to remove rounding drift.
    """
    Sigma = check_scatter(Sigma)
    return normalize_det(_geodesic(Sigma, check_tangent(Sigma, W), t))


def _log_map(Sigma0: np.ndarray, Sigma1: np.ndarray) -> np.ndarray:
    g = _sym_sqrt(Sigma0)
    return sym(g @ _eig_apply(_congruence_inv(g, Sigma1), np.log) @ g)


def log_map(Sigma0, Sigma1) -> np.ndarray:
    """Velocity W at Sigma0 of the unit-time geodesic reaching Sigma1.

    Inverse of ``geodesic(Sigma0, ., 1)``:  W = g logm(g^-1 Sigma1 g^-1) g.
    """
    return _log_map(check_scatter(Sigma0), check_scatter(Sigma1))


def _distance(Sigma0: np.ndarray, Sigma1: np.ndarray) -> float:
    lam = scipy.linalg.eigvalsh(Sigma1, Sigma0)
    return float(np.sqrt(np.sum(np.log(lam) ** 2)))


def distance(Sigma0, Sigma1) -> float:
    """Geodesic distance ||logm(S0^-1/2 S1 S0^-1/2)||_F.

    Computed from the generalized symmetric-definite eigenvalues of
    (Sigma1, Sigma0); invariant under simultaneous congruence by any
    invertible matrix.
    """
    return _distance(check_scatter(Sigma0), check_scatter(Sigma1))


def tangent_project(Sigma, S) -> np.ndarray:
    """Project a symmetric matrix onto the tangent space at Sigma.

    Removes the trace component:  S - (tr(Sigma^-1 S)/m) Sigma.  Linear,
    idempotent, and the identity on matrices already tangent at Sigma.
    """
    Sigma = check_scatter(Sigma)
    S = sym(_as_square(S, "matrix"))
    c = np.trace(np.linalg.solve(Sigma, S)) / Sigma.shape[0]
    return S - c * Sigma


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
    if m < 2:
        raise DomainError("dimension must be at least 2")
    return _eig_apply(spread * _random_direction(m, rng), np.exp)
