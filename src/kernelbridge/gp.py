"""Gaussian-process priors, sampling, and posterior conditioning.

The posterior object stores the :class:`~kernelbridge.linalg.Cholesky` of
``K_XX + noise * I`` (the lower factor and the jitter its factorization
needed) and the residual weights ``(K_XX + noise * I)^{-1} (Y - m_X)``;
every query is a pair of kernel evaluations plus triangular solves against
that factor.

With zero noise, or noise lost to roundoff on every diagonal entry, the
Gram matrix must pass the numerical invertibility gate of
:func:`~kernelbridge.linalg.factor_system`: conditioning on duplicated
inputs raises :class:`~kernelbridge.errors.NumericalError` instead of
silently regularizing. An empty dataset runs the same formulas at n = 0:
the factor is 0 x 0, the sums are empty, and the posterior is the prior.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

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
    "GPPrior",
    "GPPosterior",
    "sample_prior",
    "condition",
    "posterior_mean",
    "posterior_cov",
    "posterior_cov_raw",
    "posterior_mean_at",
]


@dataclass(frozen=True, eq=False)
class GPPrior:
    """A GP prior: a kernel plus a mean function (default zero).

    The mean is a callable taking a d-vector and returning a float; ``None``
    means the zero function.
    """

    kernel: Kernel
    mean: Callable[[np.ndarray], float] | None = None

    def mean_at(self, points) -> np.ndarray:
        """Evaluate the prior mean at every row of a point set."""
        P = as_points(points)
        if self.mean is None:
            return np.zeros(P.shape[0])
        values = np.array([float(self.mean(row)) for row in P])
        if not np.all(np.isfinite(values)):
            raise InputError("prior mean function returned a non-finite value")
        return values


@dataclass(frozen=True, eq=False)
class GPPosterior:
    """A conditioned GP, stored in factorized form.

    ``cholesky.factor @ cholesky.factor.T`` reconstructs
    ``K_XX + noise_variance * I`` plus ``cholesky.jitter * I``, the jitter the
    factorization needed, and ``residual_weights`` solves that system
    against ``Y - m_X``.
    """

    prior: GPPrior
    X: np.ndarray
    cholesky: Cholesky
    residual_weights: np.ndarray
    noise_variance: float


def sample_prior(prior: GPPrior, X, count: int, seed: int) -> np.ndarray:
    """Draw ``count`` joint samples of the prior at the rows of ``X``.

    Each returned row is ``m_X + L u`` with ``u`` standard normal and ``L``
    the (jittered, if necessary) lower Cholesky factor of the Gram matrix.
    Deterministic for a fixed seed.
    """
    P = as_points(X)
    count = as_count(count)
    K = gram(prior.kernel, P, P)
    # Ungated: prior draws on duplicated inputs are legal, and only L is used.
    L = cholesky_with_jitter(K, name="K_XX").factor
    draws = normals_times(np.random.default_rng(seed), L, count)
    draws += prior.mean_at(P)
    return draws


def condition(prior: GPPrior, data: Dataset, noise_variance: float) -> GPPosterior:
    """Condition a GP prior on observed data.

    The posterior mean and covariance are

    ``m(x) + k_xX (K_XX + s2 I)^{-1} (Y - m_X)`` and
    ``k(x, x') - k_xX (K_XX + s2 I)^{-1} k_Xx'``.

    With ``noise_variance == 0``, or a noise variance that leaves every
    diagonal entry of ``K_XX`` unchanged, the Gram matrix must be
    numerically invertible. An empty dataset is the case n = 0: its
    posterior reproduces the prior exactly.
    """
    if not np.isfinite(noise_variance) or noise_variance < 0:
        raise InputError("noise variance must be nonnegative and finite")
    if data.Y is None:
        raise InputError("conditioning requires a dataset with outputs")
    K = gram(prior.kernel, data.X, data.X)
    chol = factor_system(K, noise_variance, name="K_XX")
    weights = chol.solve(data.Y - prior.mean_at(data.X))
    return GPPosterior(
        prior=prior,
        X=data.X,
        cholesky=chol,
        residual_weights=weights,
        noise_variance=float(noise_variance),
    )


def _cross(post: GPPosterior, points: np.ndarray) -> np.ndarray:
    """Kernel matrix between query points and the training inputs."""
    return gram(post.prior.kernel, points, post.X)


def posterior_mean(post: GPPosterior, x) -> float:
    """Posterior mean at a single point."""
    return float(posterior_mean_at(post, as_point(x)[None, :])[0])


def posterior_mean_at(post: GPPosterior, points) -> np.ndarray:
    """Posterior mean at every row of a point set."""
    P = as_points(points)
    return post.prior.mean_at(P) + _cross(post, P) @ post.residual_weights


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
    k_xy = kernel_value(post.prior.kernel, xv, yv)
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
