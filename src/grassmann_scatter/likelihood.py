"""Log-likelihood of subspace data and its exact Riemannian derivatives.

For a subspace U = span(X) and a unimodular SPD matrix Sigma, the (negative)
log-likelihood contribution of U is

    loglik_point(U, Sigma) = 1/2 log( det(X^T Sigma^-1 X) / det(X^T X) ),

and for a measure P the objective is the P-average.  Estimates of scatter are
the minimizers.  The gradient is available in closed form,

    grad_point(U, Sigma)  = (r/2m) Sigma - 1/2 X (X^T Sigma^-1 X)^-1 X^T,

and every second-order quantity comes from one formula, the whitened geodesic
Hessian ``_hessian`` on vec(W Z W^T) (W = F^-1, F F^T = Sigma, Z tangent): the
solver's Newton steps, the certificate of ``estimator.diagnose``, hess_quadform (its
quadratic form, nonnegative by geodesic convexity), covariant_deriv_grad (one atom's
H applied to Z) and grad_norm_sq_grad (twice H applied to the gradient) all read it.

The same data can be packaged through the whitened mean projector

    mean_projector(P, Gamma) = g^-1 ( sum_j w_j X_j (X_j^T Gamma^-1 X_j)^-1 X_j^T ) g^-1

(g = sym_sqrt(Gamma)): it is symmetric PSD with trace r, satisfies
r^2/m <= tr(M^2) <= r^2, and Gamma solves the estimating equation exactly
when M = (r/m) Id.  The squared gradient norm is then
grad_norm_sq = 1/4 || M - (r/m) Id ||_F^2, whose own gradient is grad_norm_sq_grad.

The measure-averaged functions take an empirical measure and are exact weighted
sums, batched over atoms; a Gaussian law is sampled first (UsageError otherwise).
The one Monte Carlo evaluation of a law, the CLT reference, is drawn by
``asymptotics.clt_experiment``.

Everything here comes from the single whitened-frame core ``grassmann._frames``
(one product with the inverse W = F^-1 of a factor F F^T = Sigma whitens every
atom, and Gram-Schmidt across atoms gives orthonormal frames of span(W X_j) and
log det(X_j^T Sigma^-1 X_j)), summed over atoms by ``_weighted_kernel_sum``; the
whitening factor comes from the eigen chart of ``manifold``.
"""

from __future__ import annotations

import numpy as np

from .grassmann import (
    Empirical,
    _atom_logdet_ratio,
    _check_empirical,
    _frames,
    _logdet_ratio,
    _outer,
    check_basis,
)
from .manifold import (_Chart, _chart, _check_scatter_for, _tangent_vec_projector, _whitened,
                       check_tangent, sym)


def _weighted_kernel_sum(points: np.ndarray, weights: np.ndarray, F: np.ndarray,
                         W: np.ndarray):
    """(M, S, U): the mean projector M = sum_j w_j Pi_j whitened by W = F^-1, S = F M F^T,
    and the whitened frames U the sum is built from.

    S = sum_j w_j X_j G_j^-1 X_j^T is the same for every factor F F^T = Sigma.  A
    stack of L factors (L, m, m) splits the atoms into L equal blocks of consecutive
    atoms, one dataset each (see ``_frames``), and gives one (M, S) per block and the
    frames in the (r, L, m, n/L) layout; a single factor gives them in (r, m, n).
    """
    U = _frames(points, W)
    if W.ndim == 3:                                   # (r, m, L, n/L) -> (r, L, m, n/L)
        U = U.reshape(U.shape[:2] + (len(W), -1)).swapaxes(1, 2)
        weights = weights.reshape(len(W), 1, -1)
    M = sym(((U * weights) @ U.swapaxes(-1, -2)).sum(0)).reshape(W.shape)   # sum_k (U_k w) U_k^T
    return M, sym(F @ M @ F.swapaxes(-1, -2)), U


def _kron_mean(P: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """sum_j w_j P_j kron P_j for symmetric (..., n, m, m) P and weights (..., n): one GEMM
    per entry of a stack on the (n, m^2) layout."""
    *lead, n, m, _ = P.shape
    A = P.reshape(*lead, n, m * m)
    G = A.swapaxes(-1, -2) @ (weights[..., None] * A)                # [(i, j), (k, l)]
    return G.reshape(*lead, m, m, m, m).swapaxes(-3, -2).reshape(*lead, m * m, m * m)


def _hessian(P: np.ndarray, weights: np.ndarray, M: np.ndarray) -> np.ndarray:
    """1/2 [(Id kron M + M kron Id)/2 - _kron_mean(P, w)] on symmetric trace-free vec(V), Id off.

    For P_j whitened by W = F^-1 and M = sum_j w_j P_j, vec(V)^T H vec(V) is
    ``hess_quadform`` at Sigma = F F^T along F V F^T.  Stacks (leading axes on P,
    weights and M) give one Hessian per entry.
    """
    m = M.shape[-1]
    Id, Q = np.eye(m), _tangent_vec_projector(m)
    # Id kron M + M kron Id, entry [(i, k), (j, l)] = Id_ij M_kl + M_ij Id_kl
    sums = Id[:, None, :, None] * M[..., None, :, None, :] \
        + M[..., :, None, :, None] * Id[:, None, :]
    H = 0.5 * (0.5 * sums.reshape(M.shape[:-2] + (m * m, m * m)) - _kron_mean(P, weights))
    return Q @ H @ Q + (np.eye(m * m) - Q)


def _hessian_at(points: np.ndarray, weights: np.ndarray, Sigma: np.ndarray):
    """(chart c of Sigma, M, H): the whitened mean projector and ``_hessian`` at Sigma, built
    as a one-entry stack (the solver's layout), so ``diagnose`` reads the solver's H to the bit."""
    c = _chart(Sigma)
    M, _, U = _weighted_kernel_sum(points, weights, c.F[None], c.W[None])
    return c, M[0], _hessian(_outer(U), weights[None], M)[0]


def _hessian_apply(c: _Chart, H: np.ndarray, V: np.ndarray) -> np.ndarray:
    """F unvec(H vec(V)) F^T: H at c.sigma applied to the whitened tangent V = W Z W^T."""
    return sym(c.F @ (H @ V.reshape(-1)).reshape(V.shape) @ c.F.T)


def _defect(M: np.ndarray, r: int):
    """|| M - (r/m) Id ||_F^2 for a whitened mean projector M (per entry of a stack)."""
    D = M - (r / M.shape[-1]) * np.eye(M.shape[-1])
    return (D * D).reshape(D.shape[:-2] + (-1,)).sum(-1)


def loglik_point(X, Sigma) -> float:
    """Log-likelihood contribution 1/2 log(det(X^T Sigma^-1 X)/det(X^T X)).

    Vanishes at Sigma = Id and equals -(1/m) log density_ratio(U, Sigma).
    """
    return 0.5 * _atom_logdet_ratio(X, Sigma)


def loglik(meas: Empirical, Sigma) -> float:
    """Measure-averaged log-likelihood: the exact weighted sum over the atoms."""
    W = _chart(_check_empirical(meas, "loglik", Sigma)).W
    return float(meas.weights @ (0.5 * _logdet_ratio(meas.points, W)))


def _grad(points: np.ndarray, weights: np.ndarray, Sigma: np.ndarray) -> np.ndarray:
    c = _chart(Sigma)
    _, S, _ = _weighted_kernel_sum(points, weights, c.F, c.W)
    _, m, r = points.shape
    return sym((0.5 * r / m) * Sigma - 0.5 * S)


def grad_point(X, Sigma) -> np.ndarray:
    """Riemannian gradient (r/2m) Sigma - 1/2 X (X^T Sigma^-1 X)^-1 X^T.

    A tangent vector at Sigma; its inner product against any tangent W
    equals the derivative of loglik_point along the geodesic with velocity W.
    """
    X = check_basis(X)
    return _grad(X[None], np.ones(1), _check_scatter_for(len(X), Sigma))


def grad(meas: Empirical, Sigma) -> np.ndarray:
    """Measure-averaged gradient; vanishes exactly at an estimate of scatter."""
    Sigma = _check_empirical(meas, "grad", Sigma)
    return _grad(meas.points, meas.weights, Sigma)


def covariant_deriv_grad(X, Sigma, Z) -> np.ndarray:
    """Covariant derivative of the gradient field of one atom along Z.

    The one-atom Hessian ``_hessian`` applied to Z: 1/4 Z pi Sigma + 1/4 Sigma pi Z
    - 1/2 Sigma pi Z pi Sigma with pi = pi_matrix(X, Sigma), again tangent at Sigma.
    """
    X = check_basis(X)
    Sigma = _check_scatter_for(len(X), Sigma)
    Z = check_tangent(Sigma, Z)
    c, _, H = _hessian_at(X[None], np.ones(1), Sigma)
    return _hessian_apply(c, H, _whitened(c, Z))


def hess_quadform(meas: Empirical, Sigma, Z) -> float:
    """Geodesic second derivative <cov. deriv. of grad along Z, Z>_Sigma.

    vec(V)^T H vec(V) (``_hessian``, V = W Z W^T); per atom 1/2 tr((Sigma^-1 - pi) Z pi Z) >= 0,
    and the measure average is the quadratic form driving geodesic convexity.
    """
    Sigma = _check_empirical(meas, "hess_quadform", Sigma)
    Z = check_tangent(Sigma, Z)
    c, _, H = _hessian_at(meas.points, meas.weights, Sigma)
    z = _whitened(c, Z).reshape(-1)
    return float(z @ H @ z)


def mean_projector(meas: Empirical, Gamma) -> np.ndarray:
    """Whitened mean projector g^-1 (sum_j w_j X_j G_j^-1 X_j^T) g^-1, g = sym_sqrt(Gamma).

    Symmetric PSD with trace exactly r; tr(M^2) lies in [r^2/m, r^2], with
    the lower bound attained iff M = (r/m) Id, i.e. iff Gamma solves the
    estimating equation.
    """
    c = _chart(_check_empirical(meas, "mean_projector", Gamma))
    return _weighted_kernel_sum(meas.points, meas.weights, sym(c.F @ c.Q.T), c.Q @ c.W)[0]


def grad_norm_sq(meas: Empirical, Gamma) -> float:
    """Squared metric norm of the gradient, 1/4 || M - (r/m) Id ||_F^2.

    Nonnegative; zero exactly at critical points of the objective.
    """
    c = _chart(_check_empirical(meas, "grad_norm_sq", Gamma))
    return 0.25 * float(_defect(_weighted_kernel_sum(meas.points, meas.weights, c.F, c.W)[0],
                                meas.r))


def grad_norm_sq_grad(meas: Empirical, Gamma) -> np.ndarray:
    """Gradient of grad_norm_sq: twice the Hessian ``_hessian`` applied to the gradient,
    whose whitened form is -1/2 (M - (r/m) Id).

    Tangent at Gamma; vanishes at critical points; matches central finite
    differences of grad_norm_sq along geodesics, for any weights.
    """
    Gamma = _check_empirical(meas, "grad_norm_sq_grad", Gamma)
    c, M, H = _hessian_at(meas.points, meas.weights, Gamma)
    return -_hessian_apply(c, H, M - (meas.r / meas.m) * np.eye(meas.m))
