"""Gaussian-process sampling and posterior conditioning.

The prior is the zero-mean process with the given kernel as its
covariance, the GP side of the kernel ridge correspondence. The posterior
object stores the :class:`~kernelbridge.linalg.Cholesky` of
``K_XX + noise * I`` (the lower factor and the jitter its factorization
needed) and the weights ``(K_XX + noise * I)^{-1} Y``; every query is a
pair of kernel evaluations plus triangular solves against that factor.

With zero noise, or noise lost to roundoff on every diagonal entry, the
Gram matrix must pass the numerical invertibility gate of
:func:`~kernelbridge.linalg.factor_system`: conditioning on duplicated
inputs raises :class:`~kernelbridge.errors.NumericalError` instead of
silently regularizing. An empty dataset runs the same formulas at n = 0:
the factor is 0 x 0, the sums are empty, and the posterior is the prior.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .kernels import Dataset, Kernel, as_count, as_point, as_points, gram
from .kernels import eval as kernel_value
from .linalg import (
    Cholesky,
    _solve_lower,
    cholesky_with_jitter,
    factor_system,
    normals_times,
)

__all__ = [
    "GPPosterior",
    "sample_prior",
    "condition",
    "posterior_mean",
    "posterior_cov",
    "posterior_cov_raw",
    "posterior_mean_at",
]


@dataclass(frozen=True, eq=False)
class GPPosterior:
    """A conditioned zero-mean GP, stored in factorized form.

    ``cholesky.factor @ cholesky.factor.T`` reconstructs ``K_XX + noise * I``
    plus ``cholesky.jitter * I``, the jitter the factorization needed, and
    ``weights`` solves that system against ``Y``.
    """

    kernel: Kernel
    X: np.ndarray
    cholesky: Cholesky
    weights: np.ndarray


def sample_prior(kernel: Kernel, X, count: int, seed: int) -> np.ndarray:
    """Draw ``count`` joint samples of the zero-mean prior at the rows of ``X``.

    Each returned row is ``L u`` with ``u`` standard normal and ``L`` the
    (jittered, if necessary) lower Cholesky factor of the Gram matrix.
    Deterministic for a fixed seed.
    """
    P = as_points(X)
    count = as_count(count)
    K = gram(kernel, P, P)
    # Ungated: prior draws on duplicated inputs are legal, and only L is used.
    L = cholesky_with_jitter(K, name="K_XX").factor
    return normals_times(np.random.default_rng(seed), L, count)


def condition(kernel: Kernel, data: Dataset, noise_variance: float) -> GPPosterior:
    """Condition the zero-mean GP prior with covariance ``kernel`` on data.

    The posterior mean and covariance, with ``Y = data.Y``, are

    ``k_xX (K_XX + s2 I)^{-1} Y`` and
    ``k(x, x') - k_xX (K_XX + s2 I)^{-1} k_Xx'``.

    With ``noise_variance == 0``, or a noise variance that leaves every
    diagonal entry of ``K_XX`` unchanged, the Gram matrix must be
    numerically invertible. An empty dataset is the case n = 0: its
    posterior reproduces the prior exactly.
    """
    if not np.isfinite(noise_variance) or noise_variance < 0:
        raise InputError("noise variance must be nonnegative and finite")
    K = gram(kernel, data.X, data.X)
    chol = factor_system(K, noise_variance, name="K_XX")
    return GPPosterior(kernel, data.X, chol, chol.solve(data.Y))


def _cross(post: GPPosterior, points) -> np.ndarray:
    """Kernel matrix between query points and the training inputs."""
    return gram(post.kernel, points, post.X)


def posterior_mean(post: GPPosterior, x) -> float:
    """Posterior mean at a single point."""
    return float(posterior_mean_at(post, as_point(x)[None, :])[0])


def posterior_mean_at(post: GPPosterior, points) -> np.ndarray:
    """Posterior mean at every row of a point set."""
    return _cross(post, points) @ post.weights


def posterior_cov_raw(post: GPPosterior, x, y) -> float:
    """Posterior covariance without the diagonal clamp.

    Exposed for diagnostics. A noise-free variance can fall below
    ``-1e-10`` from roundoff alone: ``run_suite("posterior-variance",
    1654615998, 200)`` reads down to ``-3.92e-10`` inside the query search
    of ``suites._variance_query``. ROADMAP item 4 would report the smallest
    such value.
    """
    xv = as_point(x)
    yv = as_point(y)
    k_xy = kernel_value(post.kernel, xv, yv)
    a = _solve_lower(post.cholesky.factor, _cross(post, xv[None, :]).T)[:, 0]
    if xv.tobytes() == yv.tobytes():
        # The same point: b would be a again, bit for bit.
        return k_xy - float(a @ a)
    b = _solve_lower(post.cholesky.factor, _cross(post, yv[None, :]).T)[:, 0]
    return k_xy - float(a @ b)


def posterior_cov(post: GPPosterior, x, y) -> float:
    """Posterior covariance; the variance (x == y exactly) is clamped at 0."""
    value = posterior_cov_raw(post, x, y)
    xv = as_point(x)
    yv = as_point(y)
    if xv.shape == yv.shape and np.all(xv == yv):
        return max(value, 0.0)
    return value
