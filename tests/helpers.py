"""Shared generators, closed-form instances, finite-difference stencils and reference
implementations (the fixed-point loop, a descent solver, the candidate scan)."""

from __future__ import annotations

from itertools import chain, combinations

import mpmath
import numpy as np
import scipy.linalg

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
# reference per-atom loop formulas for the whitened-frame core


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


def ref_dim_intersection(XU: np.ndarray, XV: np.ndarray, tol: float = 1e-10) -> int:
    """dim U + dim V - rank([QU | QV]) with QU, QV from one reduced QR each."""
    QU, _ = np.linalg.qr(XU)
    QV, _ = np.linalg.qr(XV)
    sv = np.linalg.svd(np.hstack([QU, QV]), compute_uv=False)
    return QU.shape[1] + QV.shape[1] - int(np.sum(sv > tol * sv[0]))


def ref_rank_deficient(X: np.ndarray) -> np.ndarray:
    """The svd-only rank test: whether each m x d basis of a stack (..., m, d) has its
    smallest singular value at most RANK_TOL times its largest (a line: whether it is zero)."""
    from grassmann_scatter.grassmann import RANK_TOL

    if X.shape[-1] == 1:
        return ~X.any(axis=(-2, -1))
    sv = np.linalg.svd(X, compute_uv=False)
    return sv[..., -1] <= RANK_TOL * sv[..., 0]


def ref_span_error(points: np.ndarray):
    """(message, witness) of the ExistenceError that the span check raises on the atoms of
    one dataset (n, m, r) or the first deficient dataset of a stack (..., n, m, r), else
    None: one batched svd of every dataset's m x nr columns, cut at RANK_TOL."""
    from grassmann_scatter.grassmann import RANK_TOL

    n, m, r = points.shape[-3:]
    A = points.swapaxes(-3, -2).reshape(points.shape[:-3] + (m, n * r))
    U, s, _ = np.linalg.svd(A, full_matrices=False)
    ranks = np.sum(s > RANK_TOL * s[..., :1], axis=-1).reshape(-1)
    for b in np.flatnonzero(ranks < m)[:1]:
        return ("atoms are contained in a proper subspace (dimension "
                f"{ranks[b]} of {m}); no estimate of scatter exists",
                U.reshape((-1,) + U.shape[-2:])[b][:, :ranks[b]])
    return None


def ref_distance(Sigma0: np.ndarray, Sigma1: np.ndarray) -> float:
    """||log lam|| over the generalized symmetric-definite eigenvalues of (Sigma1, Sigma0)."""
    lam = scipy.linalg.eigvalsh(Sigma1, Sigma0)
    return float(np.sqrt(np.sum(np.log(lam) ** 2)))


def mp_log_map_distance(Sigma0: np.ndarray, Sigma1: np.ndarray, dps: int = 50):
    """(log_map, distance) of two float matrices, computed in dps-digit arithmetic.

    W = g logm(g^-1 Sigma1 g^-1) g and ||log eig(g^-1 Sigma1 g^-1)|| with g the
    symmetric root of Sigma0, both from mpmath's symmetric eigensolver.
    """
    with mpmath.workdps(dps):
        lam, Q = mpmath.eigsy(mpmath.matrix(Sigma0.tolist()))
        g = Q * mpmath.diag([mpmath.sqrt(x) for x in lam]) * Q.T
        g_inv = Q * mpmath.diag([1 / mpmath.sqrt(x) for x in lam]) * Q.T
        mu, E = mpmath.eigsy(g_inv * mpmath.matrix(Sigma1.tolist()) * g_inv)
        logmu = [mpmath.log(x) for x in mu]
        W = g * (E * mpmath.diag(logmu) * E.T) * g
        return np.array(W.tolist(), dtype=float), float(mpmath.sqrt(sum(x * x for x in logmu)))


def mp_kernel_sum(points: np.ndarray, weights: np.ndarray, W: np.ndarray, dps: int = 50):
    """(M, logdet ratios) of float atoms and whitening W, computed in dps-digit arithmetic.

    M = sum_j w_j Theta_j G_j^-1 Theta_j^T with Theta_j = W X_j and G_j = Theta_j^T Theta_j,
    and log det G_j - log det(X_j^T X_j), one atom at a time with mpmath's LU.
    """
    with mpmath.workdps(dps):
        Wm = mpmath.matrix(W.tolist())
        M = mpmath.zeros(W.shape[0], W.shape[0])
        ratios = []
        for w, X in zip(weights, points):
            Xm = mpmath.matrix(X.tolist())
            Th = Wm * Xm
            G = Th.T * Th
            M += mpmath.mpf(float(w)) * (Th * mpmath.inverse(G) * Th.T)
            ratios.append(mpmath.log(mpmath.det(G)) - mpmath.log(mpmath.det(Xm.T * Xm)))
        return np.array(M.tolist(), dtype=float), np.array(ratios, dtype=float)


def ill_conditioned_atoms(rng, n: int, m: int, r: int, cond: float) -> np.ndarray:
    """n bases Q_j diag(geomspace(1, 1/cond, r)) V_j^T with orthonormal Q_j and orthogonal V_j."""
    out = []
    for _ in range(n):
        Q, _ = np.linalg.qr(rng.standard_normal((m, r)))
        V, _ = np.linalg.qr(rng.standard_normal((r, r)))
        out.append((Q * np.geomspace(1.0, 1.0 / cond, r)) @ V.T)
    return np.stack(out)


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


# ---------------------------------------------------------------------------
# reference fixed-point loop: four factorizations of each iterate


def _tangent_basis(m: int) -> np.ndarray:
    """Orthonormal basis (m^2, (m-1)(m+2)/2) of the vec'd symmetric trace-free matrices."""
    constraints = [np.eye(m).ravel()]                       # tr V = 0
    for i in range(m):
        for j in range(i + 1, m):
            C = np.zeros((m, m))
            C[i, j], C[j, i] = 1.0, -1.0                    # V_ij = V_ji
            constraints.append(C.ravel())
    return scipy.linalg.null_space(np.array(constraints))


def ref_newton_point(meas: Empirical, Sigma: np.ndarray, cond_max: float, null_hessian: float):
    """(F expm(V) F^T or None, declined) for the Newton step V in the Cholesky chart F of Sigma.

    Per atom: Pi_j from F^-1 X_j and its Hessian term
    1/2 [(I kron Pi_j + Pi_j kron I)/2 - Pi_j kron Pi_j]; the step solves the
    reduced system on an orthonormal basis of symmetric trace-free matrices.
    Declined (None, True) when that reduced Hessian's least eigenvalue is at most
    null_hessian; None when the spread of V's eigenvalues plus log cond(Sigma)
    exceeds log(cond_max) - 1, the solver's bound.
    """
    _, m, r = meas.points.shape
    F = np.linalg.cholesky(Sigma)
    Id = np.eye(m)
    M, H = np.zeros((m, m)), np.zeros((m * m, m * m))
    for w, X in zip(meas.weights, meas.points):
        T = np.linalg.solve(F, X)
        P = T @ np.linalg.solve(T.T @ T, T.T)
        P = 0.5 * (P + P.T)
        M += w * P
        H += w * 0.5 * (0.5 * (np.kron(Id, P) + np.kron(P, Id)) - np.kron(P, P))
    B = _tangent_basis(m)
    Hr = B.T @ H @ B
    if np.linalg.eigvalsh(Hr)[0] <= null_hessian:
        return None, True
    V = (B @ np.linalg.solve(Hr, B.T @ (0.5 * (M - (r / m) * Id)).ravel())).reshape(m, m)
    V = 0.5 * (V + V.T)
    mu, lam = np.linalg.eigvalsh(V), np.linalg.eigvalsh(Sigma)
    if mu[-1] - mu[0] + np.log(lam[-1] / lam[0]) > np.log(cond_max) - 1.0:
        return None, False
    T = F @ scipy.linalg.expm(V) @ F.T
    return 0.5 * (T + T.T), False


def ref_objective(meas: Empirical, T: np.ndarray) -> float:
    """sum_j w_j log det(X_j^T Sigma^-1 X_j) at Sigma = T rescaled to determinant one."""
    Sigma = T * np.exp(-np.log(np.linalg.eigvalsh(T)).mean())
    G = np.einsum("nir,nis->nrs", meas.points, np.linalg.solve(Sigma, meas.points))
    return float(meas.weights @ np.linalg.slogdet(G)[1])


def ref_fixed_point(meas: Empirical, Sigma0=None, options=None, divergence_growth=None):
    """The fixed-point loop with a separate factorization for each use of the iterate.

    Per iteration: an eigvalsh for the COND_MAX guard, a Cholesky factor, an LU
    solve against it to whiten the atoms, and a generalized symmetric-definite
    eigvalsh for the distance from the start.  Newton-first: from iteration 1 a run
    whose residual is above POLISH_RATIO times the previous one, and every run after
    its first Newton point, tries ``ref_newton_point``; the point is taken when it
    exists, the plain update passes the guard and the point's objective is at most
    the plain update's.  A declined Newton step (null Hessian) ends the tries for
    the run.  Divergence needs growth by ``divergence_growth`` (default: the
    solver's DIVERGENCE_GROWTH) over DIVERGENCE_WINDOW iterations and a steady last
    step, at least half the mean step of the window.  Returns (status, iterations,
    trace, estimate) with the solver's status names and trace layout.
    """
    from grassmann_scatter import SolverOptions
    from grassmann_scatter.estimator import (
        DIVERGENCE_GROWTH,
        DIVERGENCE_WINDOW,
        NULL_HESSIAN,
        POLISH_RATIO,
    )
    from grassmann_scatter.manifold import COND_MAX

    opts = options or SolverOptions()
    growth_min = DIVERGENCE_GROWTH if divergence_growth is None else divergence_growth
    n, m, r = meas.points.shape
    start = np.eye(m) if Sigma0 is None else np.asarray(Sigma0, dtype=float)
    cols = meas.points.transpose(1, 0, 2).reshape(m, n * r)
    T, Sigma, trace, previous = start, None, [], np.inf
    newton_on, declined = False, False
    for k in range(opts.max_iter + 1):
        lam = np.linalg.eigvalsh(T)
        if lam[0] <= 0.0 or lam[-1] > COND_MAX * lam[0]:
            return "diverged_to_boundary", k, trace, Sigma
        Sigma = T * np.exp(-np.log(lam).mean())
        F = np.linalg.cholesky(Sigma)
        Th = np.linalg.solve(F, cols).reshape(m, n, r).transpose(1, 0, 2)
        G = np.einsum("nir,nis->nrs", Th, Th)
        At = Th.transpose(0, 2, 1)
        H = (At / G if r == 1 else np.linalg.solve(G, At)) * meas.weights[:, None, None]
        M = Th.transpose(1, 0, 2).reshape(m, n * r) @ H.reshape(n * r, m)
        M = 0.5 * (M + M.T)
        S = F @ M @ F.T
        S = 0.5 * (S + S.T)
        D = M - (r / m) * np.eye(m)
        dist = ref_distance(start, Sigma)
        trace.append((k, float(np.sum(D * D)), dist))
        if trace[-1][1] <= opts.tol:
            return "converged", k, trace, Sigma
        w = DIVERGENCE_WINDOW
        if k >= w:
            growth = dist - trace[k - w][2]
            steady = dist - trace[k - 1][2] >= 0.5 * growth / w
            if growth >= growth_min and steady:
                return "diverged_to_boundary", k, trace, Sigma
        if k == opts.max_iter:
            break
        res = trace[-1][1]
        tries = not declined and (newton_on or res > POLISH_RATIO * previous)
        previous, T = res, S
        if tries:
            newton, declined = ref_newton_point(meas, Sigma, COND_MAX, NULL_HESSIAN)
            lam = np.linalg.eigvalsh(S)
            if newton is not None and lam[0] > 0.0 and lam[-1] <= COND_MAX * lam[0] \
                    and ref_objective(meas, newton) <= ref_objective(meas, S):
                T, newton_on = newton, True
    return "max_iterations", opts.max_iter, trace, Sigma


# ---------------------------------------------------------------------------
# reference descent solver: geodesic gradient descent through the public functions


def ref_descent(meas: Empirical, Sigma0=None, options=None):
    """Geodesic gradient descent with Armijo backtracking on the objective.

    The trial step starts at 2m/r (the fixed-point step, linearized) and halves, at most
    60 times, until the candidate passes the COND_MAX guard and lowers the objective by
    1e-4 t ||G||^2; the next trial starts at twice the accepted step, capped at 16m/r.
    The objective is non-increasing along the run.  There is no divergence test, so it
    is meant for sets that have an estimate.  Returns (status, estimate) with status
    "converged", "max_iterations" or "stalled" (the line search found no decrease).
    """
    from grassmann_scatter import SolverOptions, geodesic, grad, loglik, residual
    from grassmann_scatter.manifold import COND_MAX

    opts = options or SolverOptions()
    step0 = 2.0 * meas.m / meas.r
    step = step0
    Sigma = np.eye(meas.m) if Sigma0 is None else np.asarray(Sigma0, dtype=float)
    f = loglik(meas, Sigma)
    for k in range(opts.max_iter + 1):
        res = residual(meas, Sigma)
        if res <= opts.tol:
            return "converged", Sigma
        if k == opts.max_iter:
            return "max_iterations", Sigma
        G, gn2, t = grad(meas, Sigma), 0.25 * res, step     # <G, G>_Sigma = res / 4
        for _ in range(60):
            cand = geodesic(Sigma, -G, t)
            lam = np.linalg.eigvalsh(cand)
            if lam[-1] <= COND_MAX * lam[0] and (f_new := loglik(meas, cand)) <= f - 1e-4 * t * gn2:
                break
            t *= 0.5
        else:
            return "stalled", Sigma
        Sigma, f = cand, f_new
        step = min(2.0 * t, 8.0 * step0)


# ---------------------------------------------------------------------------
# reference existence verdict: the candidate scan


def _span(X: np.ndarray) -> np.ndarray:
    """Orthonormal basis of span(X) from an svd cut at RANK_TOL (rank-revealing, where
    qr would invent the directions that a rank-deficient X lacks)."""
    from grassmann_scatter.grassmann import RANK_TOL

    U, s, _ = np.linalg.svd(X, full_matrices=False)
    return U[:, :np.sum(s > RANK_TOL * s[0])]


def _meet(QU: np.ndarray, QV: np.ndarray) -> list:
    """[(orthonormal basis of span(QU) & span(QV), "intersection")], or [] if the meet is zero."""
    from grassmann_scatter import orthonormalize
    from grassmann_scatter.grassmann import _meet_dims

    k = int(_meet_dims(QU, QV))
    if k == 0:
        return []
    # directions x in U-coordinates with (I - QV QV^T) QU x ~ 0
    _, _, Vt = np.linalg.svd(QU - QV @ (QV.T @ QU))
    return [(orthonormalize(QU @ Vt[-k:].T), "intersection")]


def ref_scan(meas: Empirical, max_subset: int = 2, cap: int = 512):
    """(candidates, truncated): a finite pool of subspaces on which the index can attain
    its extrema.

    Pools the spans of atom subsets up to size ``max_subset`` and all pairwise atom
    intersections, then closes the pool once under pairwise sums and intersections.
    The pool is deduplicated by orthogonal projector (to 1e-8) and capped at ``cap``
    entries (``truncated`` records whether the cap was hit).  The pool is a heuristic:
    it can miss every zero-index subspace (three generic planes of R^4 have a
    one-parameter family of them, and none is in the pool).
    """
    from grassmann_scatter import Candidate, orthonormalize

    atoms = orthonormalize(meas.points)
    n, m, _ = atoms.shape
    items = []
    projectors = np.empty((cap, m, m))                  # of items, for the dedup
    truncated = False

    def fill(units) -> bool:
        """Pool each unit, a list of (orthonormal basis, provenance); False once full."""
        nonlocal truncated
        for unit in units:
            if len(items) >= cap:
                truncated = True            # stopping with work left = overflowing
                return False
            for Q, provenance in unit:
                if not 0 < Q.shape[1] < m:
                    continue
                P = Q @ Q.T
                if (np.abs(projectors[:len(items)] - P).max(axis=(1, 2)) <= 1e-8).any():
                    continue
                if len(items) >= cap:
                    truncated = True
                    continue
                projectors[len(items)] = P
                items.append(Candidate(Q, provenance))
        return True

    singles = ([(Q, "sum")] for Q in atoms)
    sums = ([(_span(np.hstack(atoms[list(subset)])), "sum")]
            for size in range(2, max_subset + 1) for subset in combinations(range(n), size))
    meets = (_meet(atoms[i], atoms[j]) for i, j in combinations(range(n), 2))
    if fill(chain(singles, sums, meets)):
        base = list(items)                              # one closure round over the pool so far
        fill([(_span(np.hstack([a.basis, b.basis])), "sum"), *_meet(a.basis, b.basis)]
             for a, b in combinations(base, 2))
    return items, truncated


def ref_scan_report(meas: Empirical, tol: float = 1e-9, max_subset: int = 2, cap: int = 512):
    """(ExistenceReport, truncated): the trichotomy over the pool of ``ref_scan``.

    Any index < -tol          -> "no_ge" (witness = the offending subspace).
    All indices > tol         -> "unique".
    Some |index| <= tol       -> "limit" when every such subspace has a complementary
    zero-index subspace splitting each atom's dimension, otherwise "inconclusive".
    """
    from grassmann_scatter import ExistenceReport, dim_intersection, existence_index

    cands, truncated = ref_scan(meas, max_subset, cap)
    values = np.empty(len(cands))
    for d in {c.dim for c in cands}:
        rows = [i for i, c in enumerate(cands) if c.dim == d]
        values[rows] = existence_index(meas, np.stack([cands[i].basis for i in rows]))
    order = int(np.argmin(values))
    min_index = float(values[order])
    zeros = [cands[i] for i, v in enumerate(values) if abs(v) <= tol]
    complement_ok = False
    if min_index < -tol:
        verdict = "no_ge"
    elif not zeros:
        verdict = "unique"
    else:
        meets = [dim_intersection(meas.points, Z.basis) for Z in zeros]
        complement_ok = all(any(Z.dim + C.dim == meas.m and dim_intersection(Z.basis, C.basis) == 0
                                and (mz + mc == meas.r).all() for C, mc in zip(zeros, meets))
                            for Z, mz in zip(zeros, meets))
        verdict = "limit" if complement_ok else "inconclusive"
    report = ExistenceReport(verdict, min_index, None if verdict == "unique" else cands[order],
                             zeros, len(cands))
    return report, truncated
