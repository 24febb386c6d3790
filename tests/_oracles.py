"""Independent reference computations for the test suite.

Everything in this module is deliberately slow and explicit: scalar
arithmetic, Python loops, and closed-form 2x2 algebra, with no calls into
the library's vectorized code paths. Tests compare library output against
these re-derivations, so a bug would have to appear identically in two
unrelated implementations to slip through.
"""

from __future__ import annotations

import math

import numpy as np

from kernelbridge.kernels import (
    BrownianDistance,
    KroneckerDelta,
    Matern,
    Polynomial,
    SquaredExponential,
    Sum,
)


def euclidean(x, y) -> float:
    return math.sqrt(sum((float(a) - float(b)) ** 2 for a, b in zip(x, y)))


def vector_norm(x) -> float:
    return math.sqrt(sum(float(a) ** 2 for a in x))


def kernel_value(kernel, x, y) -> float:
    """Scalar re-derivation of every kernel family's closed form."""
    x = [float(v) for v in np.atleast_1d(x)]
    y = [float(v) for v in np.atleast_1d(y)]
    if isinstance(kernel, SquaredExponential):
        r = euclidean(x, y)
        return math.exp(-r * r / kernel.gamma**2)
    if isinstance(kernel, Matern):
        r = euclidean(x, y)
        if kernel.alpha == 0.5:
            return math.exp(-r / kernel.h)
        if kernel.alpha == 1.5:
            t = math.sqrt(3.0) * r / kernel.h
            return (1.0 + t) * math.exp(-t)
        t = math.sqrt(5.0) * r / kernel.h
        return (1.0 + t + t * t / 3.0) * math.exp(-t)
    if isinstance(kernel, Polynomial):
        dot = sum(a * b for a, b in zip(x, y))
        return (dot + kernel.c) ** kernel.degree
    if isinstance(kernel, KroneckerDelta):
        return kernel.scale if x == y else 0.0
    if isinstance(kernel, BrownianDistance):
        return vector_norm(x) + vector_norm(y) - euclidean(x, y)
    if isinstance(kernel, Sum):
        return kernel_value(kernel.left, x, y) + kernel_value(kernel.right, x, y)
    raise TypeError(f"no oracle for kernel type {type(kernel).__name__}")


def gram_loops(kernel, A, B) -> np.ndarray:
    A = np.atleast_2d(np.asarray(A, dtype=float))
    B = np.atleast_2d(np.asarray(B, dtype=float))
    out = np.empty((A.shape[0], B.shape[0]))
    for i, a in enumerate(A):
        for j, b in enumerate(B):
            out[i, j] = kernel_value(kernel, a, b)
    return out


def expansion_value(kernel, centers, coefficients, x) -> float:
    """Evaluate ``sum_i c_i k(x, z_i)`` by explicit summation."""
    return sum(
        float(c) * kernel_value(kernel, x, z)
        for c, z in zip(coefficients, np.atleast_2d(centers))
    )


def expansion_norm_squared(kernel, centers, coefficients) -> float:
    """RKHS norm squared of ``sum_i c_i k(., z_i)`` by double summation."""
    Z = np.atleast_2d(np.asarray(centers, dtype=float))
    c = [float(v) for v in coefficients]
    total = 0.0
    for i in range(len(c)):
        for j in range(len(c)):
            total += c[i] * c[j] * kernel_value(kernel, Z[i], Z[j])
    return total


def mmd_squared_loops(kernel, p_atoms, p_weights, q_atoms, q_weights) -> float:
    """Three-term expansion of the squared embedding distance."""
    P = np.atleast_2d(np.asarray(p_atoms, dtype=float))
    Q = np.atleast_2d(np.asarray(q_atoms, dtype=float))
    pw = [float(v) for v in p_weights]
    qw = [float(v) for v in q_weights]
    t_pp = sum(
        pw[i] * pw[j] * kernel_value(kernel, P[i], P[j])
        for i in range(len(pw))
        for j in range(len(pw))
    )
    t_pq = sum(
        pw[i] * qw[j] * kernel_value(kernel, P[i], Q[j])
        for i in range(len(pw))
        for j in range(len(qw))
    )
    t_qq = sum(
        qw[i] * qw[j] * kernel_value(kernel, Q[i], Q[j])
        for i in range(len(qw))
        for j in range(len(qw))
    )
    return t_pp - 2.0 * t_pq + t_qq


def hsic_loops(kernel_x, kernel_y, X, Y) -> float:
    """Three-expectation expansion of the dependence V-statistic."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    Y = np.atleast_2d(np.asarray(Y, dtype=float))
    n = X.shape[0]
    K = [[kernel_value(kernel_x, X[i], X[j]) for j in range(n)] for i in range(n)]
    L = [[kernel_value(kernel_y, Y[i], Y[j]) for j in range(n)] for i in range(n)]
    term_joint = sum(K[i][j] * L[i][j] for i in range(n) for j in range(n)) / n**2
    term_cross = (
        sum(K[i][j] * L[i][m] for i in range(n) for j in range(n) for m in range(n))
        / n**3
    )
    term_marginal = (
        sum(K[i][j] for i in range(n) for j in range(n))
        * sum(L[i][j] for i in range(n) for j in range(n))
        / n**4
    )
    return term_joint - 2.0 * term_cross + term_marginal


def dcov_loops(X, Y) -> float:
    """Classical squared distance covariance via double-centered matrices."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    Y = np.atleast_2d(np.asarray(Y, dtype=float))
    n = X.shape[0]

    def centered(points):
        raw = [[euclidean(points[i], points[j]) for j in range(n)] for i in range(n)]
        rows = [sum(r) / n for r in raw]
        cols = [sum(raw[i][j] for i in range(n)) / n for j in range(n)]
        grand = sum(rows) / n
        return [
            [raw[i][j] - rows[i] - cols[j] + grand for j in range(n)]
            for i in range(n)
        ]

    A = centered(X)
    B = centered(Y)
    return sum(A[i][j] * B[i][j] for i in range(n) for j in range(n)) / n**2


def krr_objective(kernel, X, Y, lam, coefficients) -> float:
    """Regularized empirical risk of ``f = sum_j c_j k(., x_j)``."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    n = X.shape[0]
    fit = sum(
        (expansion_value(kernel, X, coefficients, X[i]) - float(Y[i])) ** 2
        for i in range(n)
    )
    return fit / n + lam * expansion_norm_squared(kernel, X, coefficients)


def weight_objective(kernel, X, x, noise_variance, weights) -> float:
    """Worst-case error squared plus the noise-weighted penalty."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    w = [float(v) for v in weights]
    n = X.shape[0]
    wce_sq = kernel_value(kernel, x, x)
    for i in range(n):
        wce_sq -= 2.0 * w[i] * kernel_value(kernel, X[i], x)
        for j in range(n):
            wce_sq += w[i] * w[j] * kernel_value(kernel, X[i], X[j])
    return wce_sq + noise_variance * sum(v * v for v in w)


def skme_objective(kernel, X, lam, weights) -> float:
    """Embedding-distance objective minimized by the shrinkage weights.

    ``|| sum_i w_i k(., x_i) - (1/n) sum_j k(., x_j) ||^2 + n lam ||w||^2``
    expanded entirely through scalar kernel evaluations.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    n = X.shape[0]
    empirical = np.full(n, 1.0 / n)
    distance_sq = mmd_squared_loops(kernel, X, weights, X, empirical)
    return distance_sq + n * lam * sum(float(v) ** 2 for v in weights)


def quadrature_objective(kernel, nodes, weights, target_atoms, target_weights) -> float:
    """Squared embedding distance between a weighted rule and its target."""
    return mmd_squared_loops(kernel, nodes, weights, target_atoms, target_weights)


def matern_bessel_value(alpha: float, h: float, r: float) -> float:
    """General-order Matern value through the Bessel-function definition.

    Evaluated in log space so large orders stay finite; used only to probe
    the large-order limit against the squared-exponential family.
    """
    from scipy.special import gammaln, kve

    if r == 0.0:
        return 1.0
    z = math.sqrt(2.0 * alpha) * r / h
    log_val = (
        (1.0 - alpha) * math.log(2.0)
        - gammaln(alpha)
        + alpha * math.log(z)
        + math.log(float(kve(alpha, z)))
        - z
    )
    return math.exp(log_val)


def product_moment_se(cov_ii: float, cov_jj: float, cov_ij: float, count: int) -> float:
    """Standard error of an empirical second moment of a Gaussian pair.

    For centered jointly Gaussian variables, ``var(Z_i Z_j)`` equals
    ``cov_ii cov_jj + cov_ij^2``.
    """
    return math.sqrt((cov_ii * cov_jj + cov_ij**2) / count)


def fill_distance_grid(lo, hi, nodes, x, rho, resolution) -> float:
    """Brute-force local fill distance on the line, from below.

    The largest distance to the nearest node over the lattice points
    ``lo + k resolution`` of ``[lo, hi]``, and ``hi`` itself, that lie
    within ``rho`` of ``x``. Once the window is at least ``resolution`` long
    every point of it lies within ``resolution`` of a kept lattice point, so
    the true supremum exceeds this value by at most ``resolution``.
    """
    nodes = [float(v) for v in np.ravel(nodes)]
    lattice = [lo + resolution * k for k in range(math.floor((hi - lo) / resolution) + 1)]
    if lattice[-1] < hi - 1e-12 * max(1.0, abs(hi)):
        lattice.append(hi)
    return max(min(abs(t - v) for v in nodes) for t in lattice if abs(t - x) <= rho)
