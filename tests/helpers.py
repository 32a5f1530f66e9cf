"""Shared generators, closed-form instances, and finite-difference stencils."""

from __future__ import annotations

import numpy as np

from grassmann_scatter import Empirical, sym_sqrt


def mixed_err(value: float, reference: float) -> float:
    """Relative error with an absolute floor: |a - b| / max(1, |b|)."""
    return abs(value - reference) / max(1.0, abs(reference))


def fd_first(f, h: float = 1e-5) -> float:
    """Central first difference of a scalar curve at 0."""
    return (f(h) - f(-h)) / (2.0 * h)


def fd_second(f, h: float = 1e-3) -> float:
    """Central second difference of a scalar curve at 0."""
    return (f(h) - 2.0 * f(0.0) + f(-h)) / (h * h)


def random_tangent(rng, Sigma: np.ndarray, scale: float = 1.0) -> np.ndarray:
    """Random symmetric matrix with tr(Sigma^-1 W) = 0 (tangent at Sigma)."""
    m = Sigma.shape[0]
    S = rng.standard_normal((m, m))
    S = 0.5 * (S + S.T)
    W = S - (np.trace(np.linalg.solve(Sigma, S)) / m) * Sigma
    return scale * W


def ray_form(Sigma: np.ndarray, W: np.ndarray) -> np.ndarray:
    """Convert a tangent W at Sigma into the generator w = W Sigma^-1.

    The curve t -> expm(t w) Sigma is then the geodesic with velocity W, and
    w satisfies the self-adjointness (w Sigma symmetric) and trace-zero
    conditions expected by the velocity-flag decomposition.
    """
    return np.linalg.solve(Sigma, W.T).T


def random_special_linear(rng, m: int, smin: float = 0.6, smax: float = 1.6) -> np.ndarray:
    """Random unit-determinant matrix with singular values near [smin, smax]."""
    U, _, Vt = np.linalg.svd(rng.standard_normal((m, m)))
    if np.linalg.det(U) * np.linalg.det(Vt) < 0:
        U[:, -1] *= -1.0
    s = smin + (smax - smin) * rng.random(m)
    s /= np.prod(s) ** (1.0 / m)
    return (U * s) @ Vt


def random_measure(rng, m: int, r: int, n: int, uniform: bool = True) -> Empirical:
    """n independent full-rank random atoms (Gaussian entries)."""
    pts = rng.standard_normal((n, m, r))
    if uniform:
        return Empirical(pts)
    w = 0.2 + rng.random(n)
    return Empirical(pts, w / w.sum())


def gaussian_points(rng, sigma: np.ndarray, r: int, n: int) -> np.ndarray:
    """n independent m x r basis draws whose columns are N(0, sigma)."""
    L = np.linalg.cholesky(sigma)
    return np.einsum("ij,njr->nir", L, rng.standard_normal((n, sigma.shape[0], r)))


def line(angle: float) -> np.ndarray:
    """Unit line in the plane at the given angle, as a 2 x 1 basis."""
    return np.array([[np.cos(angle)], [np.sin(angle)]])


def lines_measure(angles, weights=None) -> Empirical:
    return Empirical(np.stack([line(a) for a in angles]), weights)


def three_symmetric_lines() -> Empirical:
    """Three equally spaced lines in the plane; the unique estimate is Id."""
    return lines_measure([0.0, np.pi / 3.0, 2.0 * np.pi / 3.0])


def orthogonal_lines(weights=None) -> Empirical:
    """The two coordinate axes of the plane."""
    return lines_measure([0.0, np.pi / 2.0], weights)


def planar_lines_in_3d(rng, n: int = 6) -> Empirical:
    """n lines inside the xy-plane of R^3; their joint span is 2-dimensional."""
    ang = rng.uniform(0.0, np.pi, size=n)
    pts = np.zeros((n, 3, 1))
    pts[:, 0, 0] = np.cos(ang)
    pts[:, 1, 0] = np.sin(ang)
    return Empirical(pts)


def circle_lines(n: int = 64) -> Empirical:
    """n equally spaced lines in the plane (quadrature nodes for moments).

    Moments of the orthogonal projector are degree-4 trigonometric
    polynomials of the angle, so for n > 4 the uniform average over these
    nodes equals the exact integral over the rotation-invariant law.
    """
    ang = (np.arange(n) + 0.5) * np.pi / n
    pts = np.stack([line(a) for a in ang])
    return Empirical(pts)


def two_cluster_velocity(rng, Sigma: np.ndarray, gap: float = 0.75):
    """Tangent at Sigma whose whitened spectrum has two flat clusters.

    The top cluster has dimension d (1 <= d < m); the two eigenvalue levels
    differ by exactly `gap` and average to zero with multiplicity.  Returns
    (W, w_ray, d).
    """
    m = Sigma.shape[0]
    d = int(rng.integers(1, m))
    hi = gap * (m - d) / m
    lam = np.array([hi] * d + [hi - gap] * (m - d))
    Q, _ = np.linalg.qr(rng.standard_normal((m, m)))
    V = (Q * lam) @ Q.T
    g = sym_sqrt(Sigma)
    W = g @ V @ g
    W = 0.5 * (W + W.T)
    return W, ray_form(Sigma, W), d


def exact_ray_instance(rng, m: int, n_clusters: int | None = None, spread: float = 0.75):
    """Line measure plus a geodesic along which the objective is exactly affine.

    Atoms are the columns of a unit-determinant A, as lines, with random
    weights; Sigma = A A^T; the velocity W = A diag(lam) A^T shares A's
    frame, so geodesic(Sigma, W, t) = A diag(exp(t lam)) A^T and every
    atom's objective term is linear in t.  The curve's slope is exactly
    -(1/2) sum_j w_j lam_j, computable by hand from the weights alone.

    Returns a dict with meas, Sigma, W, w_ray, lam (per-atom), slope.
    """
    A = random_special_linear(rng, m)
    pts = np.stack([A[:, [j]] for j in range(m)])
    w = 0.2 + rng.random(m)
    w = w / w.sum()
    meas = Empirical(pts, w)

    K = int(n_clusters) if n_clusters else int(rng.integers(2, min(m, 3) + 1))
    sizes = np.ones(K, dtype=int)
    for _ in range(m - K):
        sizes[rng.integers(0, K)] += 1
    means = np.linspace(spread / 2.0, -spread / 2.0, K)
    lam = np.repeat(means, sizes)
    lam = lam - lam.mean()

    Sigma = A @ A.T
    W = (A * lam) @ A.T
    W = 0.5 * (W + W.T)
    w_ray = (A * lam) @ np.linalg.inv(A)
    slope = -0.5 * float(w @ lam)
    return {
        "meas": meas,
        "Sigma": Sigma,
        "W": W,
        "w_ray": w_ray,
        "lam": lam,
        "weights": w,
        "sizes": sizes,
        "slope": slope,
    }


# ---------------------------------------------------------------------------
# reference per-atom loop formulas for the whitened-Gram kernel


def ref_logdet_ratios(points: np.ndarray, Sigma: np.ndarray) -> np.ndarray:
    """log det(X_j^T Sigma^-1 X_j) - log det(X_j^T X_j), one atom at a time."""
    out = []
    for X in points:
        G = X.T @ np.linalg.solve(Sigma, X)
        out.append(np.linalg.slogdet(G)[1] - np.linalg.slogdet(X.T @ X)[1])
    return np.array(out)


def ref_kernel_sum(points: np.ndarray, weights: np.ndarray, Sigma: np.ndarray) -> np.ndarray:
    """sum_j w_j X_j (X_j^T Sigma^-1 X_j)^-1 X_j^T, one atom at a time."""
    S = np.zeros((points.shape[1], points.shape[1]))
    for w, X in zip(weights, points):
        G = X.T @ np.linalg.solve(Sigma, X)
        S += w * (X @ np.linalg.solve(G, X.T))
    return 0.5 * (S + S.T)


def ref_pi_matrices(points: np.ndarray, Sigma: np.ndarray) -> np.ndarray:
    """Sigma^-1 X_j (X_j^T Sigma^-1 X_j)^-1 X_j^T Sigma^-1, one atom at a time."""
    out = []
    for X in points:
        W = np.linalg.solve(Sigma, X)
        P = W @ np.linalg.solve(X.T @ W, W.T)
        out.append(0.5 * (P + P.T))
    return np.stack(out)


def ref_whitened_projectors(points: np.ndarray, F: np.ndarray) -> np.ndarray:
    """Theta_j (Theta_j^T Theta_j)^-1 Theta_j^T with Theta_j = F^-1 X_j, one atom at a time."""
    out = []
    for X in points:
        T = np.linalg.solve(F, X)
        P = T @ np.linalg.solve(T.T @ T, T.T)
        out.append(0.5 * (P + P.T))
    return np.stack(out)


def ref_residual(points: np.ndarray, weights: np.ndarray, Sigma: np.ndarray) -> float:
    """|| g^-1 S g^-1 - (r/m) Id ||_F^2 with g = sym_sqrt(Sigma) and S the kernel sum."""
    _, m, r = points.shape
    g = sym_sqrt(Sigma)
    S = ref_kernel_sum(points, weights, Sigma)
    M = np.linalg.solve(g, np.linalg.solve(g, S).T).T
    D = M - (r / m) * np.eye(m)
    return float(np.sum(D * D))


def max_mixed_err(value: np.ndarray, reference: np.ndarray) -> float:
    """Largest entrywise mixed_err between two arrays of the same shape."""
    value, reference = np.asarray(value), np.asarray(reference)
    return float(np.max(np.abs(value - reference) / np.maximum(1.0, np.abs(reference))))


def scatter_with_condition(rng, m: int, cond: float) -> np.ndarray:
    """Det-1 SPD matrix with eigenvalue ratio `cond` (geometric spectrum, random eigenbasis)."""
    Q, _ = np.linalg.qr(rng.standard_normal((m, m)))
    lam = np.geomspace(cond ** -0.5, cond ** 0.5, m)
    S = (Q * lam) @ Q.T
    return 0.5 * (S + S.T)


def conditioned_atoms(rng, n: int, m: int, r: int) -> np.ndarray:
    """n bases Q_j C_j: orthonormal Q_j times an r x r mix with singular values in [0.5, 2]."""
    out = []
    for _ in range(n):
        Q, _ = np.linalg.qr(rng.standard_normal((m, r)))
        U, _, Vt = np.linalg.svd(rng.standard_normal((r, r)))
        out.append(Q @ ((U * rng.uniform(0.5, 2.0, r)) @ Vt))
    return np.stack(out)


def no_ge_lines(seed: int, n: int) -> Empirical:
    """n lines in R^3 spanning it, all but one inside a random plane (no estimate exists).

    The plane carries mass (n-1)/n > 2/3, so its existence index is negative.
    """
    rng = np.random.default_rng(seed)
    P, _ = np.linalg.qr(rng.standard_normal((3, 2)))
    in_plane = P @ rng.standard_normal((2, n - 1))
    cols = np.concatenate([in_plane, rng.standard_normal((3, 1))], axis=1)
    return Empirical(cols.T[:, :, None])
