"""Kernel dependence measures on paired samples.

The empirical criterion is the V-statistic
``(1/n^2) trace(K H L H)`` with ``H = I - (1/n) 1 1^T``: it vanishes when
either sample is constant and grows with dependence between the two
coordinates. The same number is the expected squared covariance between
``f(X)`` and ``g(Y)`` under independent centered Gaussian processes with
covariances ``K`` and ``L``, which gives both an exact evaluation through
a second matrix route and a Monte Carlo estimator that samples the two
processes. The estimator holds the draws of ``f`` whole and reduces those
of ``g`` block by block as they are drawn: ``g``'s normals follow all of
``f``'s in the one generator's stream, so ``f`` must be drawn in full
first, while each block of ``g`` meets only its own rows of ``f``. With
the distance-induced kernel on both sides the statistic is the squared
sample distance covariance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError, NumericalError
from .kernels import Kernel, as_count, as_points, gram
from .linalg import covariance_root, draw_blocks, sample_gaussian

__all__ = [
    "PairedSample",
    "hsic_empirical",
    "hsic_gp_exact",
    "hsic_gp_monte_carlo",
]


@dataclass(frozen=True, eq=False)
class PairedSample:
    """Two observation matrices with matched rows."""

    X: np.ndarray
    Y: np.ndarray

    def __init__(self, X, Y):
        Xv = as_points(X)
        Yv = as_points(Y)
        if Xv.shape[0] != Yv.shape[0]:
            raise InputError(
                f"paired sample needs matched rows, got {Xv.shape[0]} and "
                f"{Yv.shape[0]}"
            )
        object.__setattr__(self, "X", Xv)
        object.__setattr__(self, "Y", Yv)

    @property
    def n(self) -> int:
        return self.X.shape[0]


def _grams(kernel_x: Kernel, kernel_y: Kernel, sample: PairedSample):
    """Check ``n >= 2``; return ``n``, ``K``, ``L`` and the centering matrix ``H``."""
    n = sample.n
    if n < 2:
        raise InputError("the dependence statistic needs at least two pairs")
    K = gram(kernel_x, sample.X, sample.X)
    L = gram(kernel_y, sample.Y, sample.Y)
    return n, K, L, np.eye(n) - np.full((n, n), 1.0 / n)


def _clamp_roundoff(value: float) -> float:
    """Clamp roundoff at 0; a statistic not finite or below -1e-12 raises."""
    if not np.isfinite(value):
        raise NumericalError(f"dependence statistic evaluated to {value}")
    if value < -1e-12:
        raise NumericalError(
            f"dependence statistic evaluated to {value:.3e}; the Gram "
            "matrices are not positive semidefinite"
        )
    return max(value, 0.0)


def hsic_empirical(kernel_x: Kernel, kernel_y: Kernel, sample: PairedSample) -> float:
    """V-statistic dependence measure ``(1/n^2) trace(K H L H)``."""
    n, K, L, H = _grams(kernel_x, kernel_y, sample)
    Kc = H @ K @ H
    return _clamp_roundoff(float((Kc * L).sum()) / (n * n))


def hsic_gp_exact(kernel_x: Kernel, kernel_y: Kernel, sample: PairedSample) -> float:
    """Expected squared process covariance, evaluated in closed form.

    Centers the second Gram matrix instead of the first, so the arithmetic
    path differs from :func:`hsic_empirical` while the value agrees.
    """
    n, K, L, H = _grams(kernel_x, kernel_y, sample)
    Lc = H @ L @ H
    return _clamp_roundoff(float((Lc * K).sum()) / (n * n))


def hsic_gp_monte_carlo(
    kernel_x: Kernel,
    kernel_y: Kernel,
    sample: PairedSample,
    draws: int = 10_000,
    seed: int = 0,
):
    """Monte Carlo estimate of the dependence measure via process draws.

    Draws independent centered processes ``H f`` and ``H g`` with
    covariances ``H K H`` and ``H L H`` and averages the squared empirical
    covariance ``((H f) . (H g) / n)^2``. Directions with no variance
    carry exactly zero, so a constant sample yields an estimate of
    exactly ``0.0``.

    Returns ``(estimate, standard_error, exact_standard_error)``: the
    sample standard error of the mean, and ``sqrt(Var s / draws)`` from
    the closed-form variance of one draw's value ``s`` (Isserlis),
    ``Var s = (2 tr(A)^2 + 6 tr(A^2)) / n^4`` with ``A = (H K H)(H L H)``.
    The sample standard deviation of the heavy-tailed ``s`` runs low
    exactly when the estimate does, so a check of the estimate against
    the exact value should use the exact standard error.

    The draws of ``g`` are never held whole: each block is reduced against
    its rows of ``f`` as it is drawn, with the bits of drawing ``g`` whole
    with :func:`sample_gaussian`.
    """
    n, K, L, H = _grams(kernel_x, kernel_y, sample)
    draws = as_count(draws)
    if draws < 2:
        raise InputError("at least two draws are needed for a standard error")
    Kc, Lc = H @ K @ H, H @ L @ H
    A = Kc @ Lc
    variance = (2.0 * np.trace(A) ** 2 + 6.0 * np.einsum("ij,ji->", A, A)) / n**4
    rng = np.random.default_rng(seed)
    fc = sample_gaussian(rng, Kc, draws, K)
    covariances = np.empty(draws)
    for rows, gc in draw_blocks(rng, covariance_root(Lc, L), draws):
        covariances[rows] = np.einsum("ij,ij->i", fc[rows], gc)
    covariances /= n
    samples = covariances * covariances
    estimate = float(samples.mean())
    se = float(samples.std(ddof=1) / np.sqrt(draws))
    return estimate, se, float(np.sqrt(max(variance, 0.0) / draws))
