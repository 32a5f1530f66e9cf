"""Log-likelihood of subspace data and its exact Riemannian derivatives.

For a subspace U = span(X) and a unimodular SPD matrix Sigma, the (negative)
log-likelihood contribution of U is

    loglik_point(U, Sigma) = 1/2 log( det(X^T Sigma^-1 X) / det(X^T X) ),

and for a measure P the objective is the P-average.  Estimates of scatter are
the minimizers.  First and second derivatives are available in closed form:

    grad_point(U, Sigma)  = (r/2m) Sigma - 1/2 X (X^T Sigma^-1 X)^-1 X^T
    covariant_deriv_grad  = 1/4 Z pi Sigma + 1/4 Sigma pi Z - 1/2 Sigma pi Z pi Sigma

with pi = pi_matrix(U, Sigma), so the geodesic second derivative equals
<covariant_deriv_grad(U, Sigma, Z), Z>_Sigma and is always nonnegative
(geodesic convexity).

The same data can be packaged through the whitened mean projector

    mean_projector(P, Gamma) = g^-1 ( sum_j w_j X_j (X_j^T Gamma^-1 X_j)^-1 X_j^T ) g^-1

(g = sym_sqrt(Gamma)): it is symmetric PSD with trace r, satisfies
r^2/m <= tr(M^2) <= r^2, and Gamma solves the estimating equation exactly
when M = (r/m) Id.  The squared gradient norm is then
grad_norm_sq = 1/4 || M - (r/m) Id ||_F^2, whose own gradient (uniform
weights) is grad_norm_sq_grad.

Gaussian (parametric) measures are evaluated by plain Monte Carlo with a
caller-supplied sample size and RNG; empirical measures are exact weighted
sums, batched over atoms.

Everything here comes from the single whitened-Gram core ``grassmann._whiten``
(one solve against a factor F F^T = Sigma gives every G_j = X_j^T Sigma^-1 X_j),
summed over atoms by ``_weighted_kernel_sum``.  Whitening-invariant quantities
(log-likelihood, gradient, pi, gradient norm, residual) use the Cholesky factor
of Sigma; ``mean_projector``, defined through g = sym_sqrt(Gamma), uses g.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import UsageError
from .grassmann import (
    Empirical,
    Measure,
    _atom_logdet_ratio,
    _atom_pi,
    _columns,
    _gaussian_bases,
    _gram_solve,
    _logdet_ratio,
    _pi_matrices,
    _whiten,
    check_basis,
)
from .manifold import _sym_sqrt, check_scatter, check_tangent, sym


class MonteCarloEstimate(NamedTuple):
    """Monte Carlo value with its standard error."""

    value: float
    stderr: float


def _materialize(meas: Measure, mc_n: int | None, rng, op: str) -> Empirical:
    """Turn a Gaussian measure into a uniform empirical one by sampling."""
    if isinstance(meas, Empirical):
        return meas
    if mc_n is None or rng is None:
        raise UsageError(f"{op} on a Gaussian measure needs mc_n and rng (Monte Carlo evaluation)")
    return Empirical(_gaussian_bases(np.linalg.cholesky(meas.sigma), meas.r, int(mc_n), rng))


def _weighted_kernel_sum(points: np.ndarray, weights: np.ndarray, F: np.ndarray):
    """(M, S): the mean projector M = sum_j w_j Pi_j whitened by F, and S = F M F^T.

    S = sum_j w_j X_j G_j^-1 X_j^T is the same for every factor F F^T = Sigma.
    """
    n, m, r = points.shape
    Th, G = _whiten(points, F)
    H = _gram_solve(G, Th) * weights[:, None, None]        # w_j G_j^-1 Theta_j^T
    M = sym(_columns(Th) @ H.reshape(n * r, m))
    return M, sym(F @ M @ F.T)


def _defect(M: np.ndarray, r: int) -> float:
    """|| M - (r/m) Id ||_F^2 for a whitened mean projector M."""
    D = M - (r / M.shape[0]) * np.eye(M.shape[0])
    return float(np.sum(D * D))


def loglik_point(X, Sigma) -> float:
    """Log-likelihood contribution 1/2 log(det(X^T Sigma^-1 X)/det(X^T X)).

    Vanishes at Sigma = Id and equals -(1/m) log density_ratio(U, Sigma).
    """
    return 0.5 * _atom_logdet_ratio(X, Sigma)


def loglik(meas: Measure, Sigma, mc_n: int | None = None, rng=None):
    """Measure-averaged log-likelihood.

    Empirical measures: exact weighted sum, returned as a float.  Gaussian
    measures: Monte Carlo with ``mc_n`` draws, returned as a
    MonteCarloEstimate (value, stderr); mc_n=None raises UsageError.
    """
    F = np.linalg.cholesky(check_scatter(Sigma))
    emp = _materialize(meas, mc_n, rng, "loglik")
    vals = 0.5 * _logdet_ratio(emp.points, F)
    if isinstance(meas, Empirical):
        return float(meas.weights @ vals)
    n = len(vals)
    stderr = float(vals.std(ddof=1) / np.sqrt(n)) if n > 1 else float("inf")
    return MonteCarloEstimate(float(vals.mean()), stderr)


def _grad(points: np.ndarray, weights: np.ndarray, Sigma: np.ndarray) -> np.ndarray:
    _, S = _weighted_kernel_sum(points, weights, np.linalg.cholesky(Sigma))
    _, m, r = points.shape
    return sym((0.5 * r / m) * Sigma - 0.5 * S)


def grad_point(X, Sigma) -> np.ndarray:
    """Riemannian gradient (r/2m) Sigma - 1/2 X (X^T Sigma^-1 X)^-1 X^T.

    A tangent vector at Sigma; its inner product against any tangent W
    equals the derivative of loglik_point along the geodesic with velocity W.
    """
    return _grad(check_basis(X)[None], np.ones(1), check_scatter(Sigma))


def grad(meas: Measure, Sigma, mc_n: int | None = None, rng=None) -> np.ndarray:
    """Measure-averaged gradient; vanishes exactly at an estimate of scatter."""
    Sigma = check_scatter(Sigma)
    emp = _materialize(meas, mc_n, rng, "grad")
    return _grad(emp.points, emp.weights, Sigma)


def covariant_deriv_grad(X, Sigma, Z) -> np.ndarray:
    """Covariant derivative of the gradient field of one atom along Z.

    Equals 1/4 Z pi Sigma + 1/4 Sigma pi Z - 1/2 Sigma pi Z pi Sigma with
    pi = pi_matrix(X, Sigma); the result is again tangent at Sigma.
    """
    Sigma = check_scatter(Sigma)
    Z = check_tangent(Sigma, Z)
    pi = _atom_pi(X, Sigma)
    ZpS = Z @ pi @ Sigma
    return sym(0.25 * (ZpS + ZpS.T) - 0.5 * (Sigma @ pi @ Z @ pi @ Sigma))


def hess_quadform(meas: Measure, Sigma, Z, mc_n: int | None = None, rng=None) -> float:
    """Geodesic second derivative <cov. deriv. of grad along Z, Z>_Sigma.

    Per atom this is 1/2 tr((Sigma^-1 - pi) Z pi Z) >= 0; the measure
    average is the Hessian quadratic form driving geodesic convexity.
    """
    Sigma = check_scatter(Sigma)
    Z = check_tangent(Sigma, Z)
    emp = _materialize(meas, mc_n, rng, "hess_quadform")
    pi = _pi_matrices(emp.points, np.linalg.cholesky(Sigma))
    A = np.linalg.solve(Sigma, Z)                               # Sigma^-1 Z
    B = np.einsum("nij,jk->nik", pi, Z)                         # pi_j Z
    t1 = np.einsum("ij,nji->n", A, B)                           # tr(Sigma^-1 Z pi Z)
    t2 = np.einsum("nij,nji->n", B, B)                          # tr(pi Z pi Z)
    return float(0.5 * emp.weights @ (t1 - t2))


def mean_projector(meas: Measure, Gamma, mc_n: int | None = None, rng=None) -> np.ndarray:
    """Whitened mean projector g^-1 (sum_j w_j X_j G_j^-1 X_j^T) g^-1, g = sym_sqrt(Gamma).

    Symmetric PSD with trace exactly r; tr(M^2) lies in [r^2/m, r^2], with
    the lower bound attained iff M = (r/m) Id, i.e. iff Gamma solves the
    estimating equation.
    """
    g = _sym_sqrt(check_scatter(Gamma))
    emp = _materialize(meas, mc_n, rng, "mean_projector")
    return _weighted_kernel_sum(emp.points, emp.weights, g)[0]


def grad_norm_sq(meas: Measure, Gamma, mc_n: int | None = None, rng=None) -> float:
    """Squared metric norm of the gradient, 1/4 || M - (r/m) Id ||_F^2.

    Nonnegative; zero exactly at critical points of the objective.  The norm
    is whitening-invariant, so M is whitened by the Cholesky factor.
    """
    F = np.linalg.cholesky(check_scatter(Gamma))
    emp = _materialize(meas, mc_n, rng, "grad_norm_sq")
    return 0.25 * _defect(_weighted_kernel_sum(emp.points, emp.weights, F)[0], emp.r)


def grad_norm_sq_grad(meas: Empirical, Gamma) -> np.ndarray:
    """Gradient of grad_norm_sq for a uniform-weight empirical measure.

    With pi_j = pi_matrix(U_j, Gamma) and S = sum_j pi_j:

        1/(2 n^2) Gamma (sum_j pi_j Gamma S Gamma pi_j) Gamma
      - 1/(2 n^2) Gamma S Gamma S Gamma

    Tangent at Gamma; vanishes at critical points; matches central finite
    differences of grad_norm_sq along geodesics.  Non-uniform weights raise
    UsageError (the closed form assumes weights 1/n).
    """
    if not isinstance(meas, Empirical):
        raise UsageError("grad_norm_sq_grad is defined for empirical measures only")
    if not meas.is_uniform:
        raise UsageError("grad_norm_sq_grad requires uniform weights")
    Gamma = check_scatter(Gamma)
    n = meas.n
    pi = _pi_matrices(meas.points, np.linalg.cholesky(Gamma))
    S = pi.sum(axis=0)
    inner_mat = Gamma @ S @ Gamma
    K = np.einsum("nij,jk,nkl->il", pi, inner_mat, pi)
    term1 = Gamma @ K @ Gamma
    term2 = Gamma @ S @ inner_mat                               # = Gamma S Gamma S Gamma
    return sym((term1 - term2) / (2.0 * n * n))
