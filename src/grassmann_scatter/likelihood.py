"""Log-likelihood of subspace data and its exact Riemannian derivatives.

For a subspace U = span(X) and a unimodular SPD matrix Sigma, the (negative)
log-likelihood contribution of U is

    loglik_point(U, Sigma) = 1/2 log( det(X^T Sigma^-1 X) / det(X^T X) ),

and for a measure P the objective is the P-average.  Estimates of scatter are
the minimizers.  The gradient is available in closed form,

    grad(P, Sigma) = (r/2m) Sigma - 1/2 sum_j w_j X_j (X_j^T Sigma^-1 X_j)^-1 X_j^T,

and every second-order quantity comes from one formula, the whitened geodesic
Hessian ``_hessian``: a d x d matrix, d = (m-1)(m+2)/2, in the coordinates
z = B^T vec(W Z W^T) (W = F^-1, F F^T = Sigma, Z tangent) of the fixed orthonormal
basis B of the symmetric trace-free matrices (``manifold._tangent_basis``).  The
solver's Newton steps, the certificate of ``estimator.diagnose`` and hess_quadform (its
quadratic form, nonnegative by geodesic convexity) all read it.  One subspace U is the
one-atom measure delta_U: its derivatives are those of ``Empirical(X[None])``.

The same data can be packaged through the whitened mean projector

    mean_projector(P, Gamma) = g^-1 ( sum_j w_j X_j (X_j^T Gamma^-1 X_j)^-1 X_j^T ) g^-1

(g = sym_sqrt(Gamma)): it is symmetric PSD with trace r, satisfies
r^2/m <= tr(M^2) <= r^2, and Gamma solves the estimating equation exactly
when M = (r/m) Id.  The squared gradient norm is then
grad_norm_sq = 1/4 || M - (r/m) Id ||_F^2.

The measure-averaged functions take an empirical measure and are exact weighted
sums, batched over atoms; a Gaussian law is sampled first (UsageError otherwise).
Only ``asymptotics.clt_experiment`` evaluates a law by Monte Carlo, and only when given
``ref_mc_n``: its default CLT reference is a closed form.

Everything here comes from the single whitened-frame core of ``grassmann`` (one
product with the inverse W = F^-1 of a factor F F^T = Sigma whitens every atom,
``_whiten``, and Gram-Schmidt across atoms gives orthonormal frames of span(W X_j)
and log det(X_j^T Sigma^-1 X_j)), summed over atoms by ``_weighted_kernel_sum``; the
whitening factor comes from the eigen chart of ``manifold``.
"""

from __future__ import annotations

import functools

import numpy as np

from .grassmann import (
    Empirical,
    _atom_logdet_ratio,
    _check_empirical,
    _gram_schmidt,
    _logdet_ratio,
    _outer,
    _whiten,
)
from .manifold import _Chart, _check_tangent, _tangent_basis, sym


def _weighted_kernel_sum(points: np.ndarray, weights: np.ndarray, F: np.ndarray,
                         W: np.ndarray):
    """(M, S, U, sq): the mean projector M = sum_j w_j Pi_j of the atoms whitened by W,
    S = F M F^T, the whitened frames U the sum is built from and the squared norms sq of
    their Gram-Schmidt (sum_k log sq_kj = log det of the whitened atom's Gram matrix).

    The atoms may be any bases of the subspaces.  Raw atoms X_j whitened by W = F^-1
    give S = sum_j w_j X_j G_j^-1 X_j^T, the same for every factor F F^T = Sigma.  The
    solver whitens its raw atoms once per solve; after that it hands back the frames U
    of an iterate with chart F_k as the atoms, whitened by W = W' F_k for a candidate
    chart F': W' F_k U_j spans W' X_j, so one Gram-Schmidt gives the candidate's frames
    and, in its squared norms, the candidate's log-det terms relative to the iterate.

    A stack of L factors (L, m, m) splits the atoms into L equal blocks of consecutive
    atoms, one dataset each (see ``_whiten``), and gives one (M, S) per block, the frames
    in the (r, L, m, n/L) layout (a view of contiguous (r, m, n) memory) and sq in
    (r, L, n/L); a single factor gives them in (r, m, n) and (r, n).
    """
    U, sq = _gram_schmidt(_whiten(points, W))
    if W.ndim == 3:                                   # (r, m, L n/L) -> (r, L, m, n/L)
        r, m, n = U.shape
        U = U.reshape(r, m, len(W), -1).swapaxes(1, 2)
        sq = sq.reshape(r, len(W), -1)
        weights = weights.reshape(len(W), 1, -1)
    M = sym(((U * weights) @ U.swapaxes(-1, -2)).sum(0)).reshape(W.shape)   # sum_k (U_k w) U_k^T
    return M, sym(F @ M @ F.swapaxes(-1, -2)), U, sq


def _kron_mean(P: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """sum_j w_j P_j kron P_j for symmetric (..., n, m, m) P and weights (..., n): one GEMM
    per entry of a stack on the (n, m^2) layout."""
    *lead, n, m, _ = P.shape
    A = P.reshape(*lead, n, m * m)
    G = A.swapaxes(-1, -2) @ (weights[..., None] * A)                # [(i, j), (k, l)]
    return G.reshape(*lead, m, m, m, m).swapaxes(-3, -2).reshape(*lead, m * m, m * m)


@functools.cache
def _sym_products(m: int) -> np.ndarray:
    """T (m^2, d^2) with T[(k, l), (a, b)] = (B_a B_b + B_b B_a)_kl for the tangent basis B
    of ``manifold._tangent_basis`` (d columns): vec(M) T is B^T (Id kron M + M kron Id) B
    for a symmetric M.  Built on first use per m, read-only."""
    Bm = _tangent_basis(m).reshape(m, m, -1)
    T = np.einsum("kpa,plb->klab", Bm, Bm)
    T = (T + T.swapaxes(-1, -2)).reshape(m * m, -1)
    T.flags.writeable = False
    return T


def _hessian(P: np.ndarray, weights: np.ndarray, M: np.ndarray) -> np.ndarray:
    """B^T 1/2 [(Id kron M + M kron Id)/2 - _kron_mean(P, w)] B on the tangent basis B
    (``manifold._tangent_basis``): d x d, d = (m-1)(m+2)/2.

    For P_j whitened by W = F^-1 and M = sum_j w_j P_j, z^T H z is ``hess_quadform`` at
    Sigma = F F^T along F V F^T, z = B^T vec(V).  Stacks (leading axes on P, weights and
    M) give one Hessian per entry; B is applied to each entry on its own, so an entry's
    H does not depend on the others.
    """
    m = M.shape[-1]
    B, lead = _tangent_basis(m), M.shape[:-2]
    d = B.shape[1]
    sums = (M.reshape(lead + (1, m * m)) @ _sym_products(m)).reshape(lead + (d, d))
    return 0.5 * (0.5 * sums - B.T @ _kron_mean(P, weights) @ B)


def _hessian_at(points: np.ndarray, weights: np.ndarray, c: _Chart) -> np.ndarray:
    """``_hessian`` at c.sigma, built as a one-entry stack (the solver's layout), so
    ``diagnose`` reads the solver's H to the bit."""
    M, _, U, _ = _weighted_kernel_sum(points, weights, c.F[None], c.W[None])
    return _hessian(_outer(U), weights[None], M)[0]


def _centered(M: np.ndarray, r: int) -> np.ndarray:
    """vec(M - (r/m) Id) for a whitened mean projector M (per entry of a stack, (..., m^2)),
    in the memory order of M, so that a product with it rounds as one with M would."""
    m = M.shape[-1]
    D = M.reshape(M.shape[:-2] + (m * m,)).copy(order="K")
    D[..., ::m + 1] -= r / m                        # the diagonal of each entry
    return D


def _defect(M: np.ndarray, r: int):
    """|| M - (r/m) Id ||_F^2 for a whitened mean projector M (per entry of a stack)."""
    D = _centered(M, r)
    return (D * D).sum(-1)


def loglik_point(X, Sigma) -> float:
    """Log-likelihood contribution 1/2 log(det(X^T Sigma^-1 X)/det(X^T X)).

    Vanishes at Sigma = Id and equals -(1/m) log density_ratio(U, Sigma).
    """
    return 0.5 * _atom_logdet_ratio(X, Sigma)


def loglik(meas: Empirical, Sigma) -> float:
    """Measure-averaged log-likelihood: the exact weighted sum over the atoms."""
    W = _check_empirical(meas, "loglik", Sigma).W
    return float(meas.weights @ (0.5 * _logdet_ratio(meas.points, W)))


def grad(meas: Empirical, Sigma) -> np.ndarray:
    """Riemannian gradient (r/2m) Sigma - 1/2 sum_j w_j X_j (X_j^T Sigma^-1 X_j)^-1 X_j^T.

    A tangent vector at Sigma that vanishes exactly at an estimate of scatter; its inner
    product against any tangent W equals the derivative of loglik along the geodesic
    with velocity W.
    """
    c = _check_empirical(meas, "grad", Sigma)
    S = _weighted_kernel_sum(meas.points, meas.weights, c.F, c.W)[1]
    return sym((0.5 * meas.r / meas.m) * c.sigma - 0.5 * S)


def hess_quadform(meas: Empirical, Sigma, Z) -> float:
    """Geodesic second derivative <cov. deriv. of grad along Z, Z>_Sigma.

    z^T H z (``_hessian``, z = B^T vec(W Z W^T)); per atom 1/2 tr((Sigma^-1 - pi) Z pi Z) >= 0,
    and the measure average is the quadratic form driving geodesic convexity.
    """
    c = _check_empirical(meas, "hess_quadform", Sigma)
    z = _tangent_basis(meas.m).T @ _check_tangent(c, Z).reshape(-1)
    H = _hessian_at(meas.points, meas.weights, c)
    return float(z @ H @ z)


def mean_projector(meas: Empirical, Gamma) -> np.ndarray:
    """Whitened mean projector g^-1 (sum_j w_j X_j G_j^-1 X_j^T) g^-1, g = sym_sqrt(Gamma).

    Symmetric PSD with trace exactly r; tr(M^2) lies in [r^2/m, r^2], with
    the lower bound attained iff M = (r/m) Id, i.e. iff Gamma solves the
    estimating equation.
    """
    c = _check_empirical(meas, "mean_projector", Gamma)
    return _weighted_kernel_sum(meas.points, meas.weights, sym(c.F @ c.Q.T), c.Q @ c.W)[0]


def grad_norm_sq(meas: Empirical, Gamma) -> float:
    """Squared metric norm of the gradient, 1/4 || M - (r/m) Id ||_F^2.

    Nonnegative; zero exactly at critical points of the objective.
    """
    c = _check_empirical(meas, "grad_norm_sq", Gamma)
    return 0.25 * float(_defect(_weighted_kernel_sum(meas.points, meas.weights, c.F, c.W)[0],
                                meas.r))
