"""Kernel ridge regression and minimum-norm interpolation.

``fit_krr`` solves ``(K_XX + n lambda I) alpha = Y``; ``fit_interpolant`` is
the ``lambda = 0`` limit, defined only when the Gram matrix is numerically
invertible. Both return the RKHS element ``f = sum_i alpha_i k(., x_i)``
itself, a :class:`~kernelbridge.kernels.RepresenterFunction`: ``f(x)``,
``f.at(points)`` and ``f.norm()`` evaluate it and take its norm. The two
sit on the frequentist side of the GP correspondence: with
``noise = n * lambda`` the KRR prediction coincides with the GP posterior
mean, which the verification suites check to 1e-8.
"""

from __future__ import annotations

import numpy as np

from .errors import InputError
from .kernels import Dataset, Kernel, RepresenterFunction, gram
from .linalg import factor_system

__all__ = ["fit_krr", "fit_interpolant"]


def fit_krr(kernel: Kernel, data: Dataset, lam: float) -> RepresenterFunction:
    """Fit kernel ridge regression with regularization ``lam > 0``.

    The system ``K_XX + n lam I`` is strictly positive definite, so this
    never fails on rank-deficient Gram matrices (duplicate inputs are
    allowed).
    """
    if not np.isfinite(lam) or lam <= 0:
        raise InputError("regularization lambda must be positive and finite")
    return _fit(kernel, data, data.n * lam, "fitting")


def fit_interpolant(kernel: Kernel, data: Dataset) -> RepresenterFunction:
    """Fit the minimum-RKHS-norm interpolant of the data.

    Requires a numerically invertible Gram matrix; duplicated inputs raise
    :class:`~kernelbridge.errors.NumericalError`.
    """
    return _fit(kernel, data, 0.0, "interpolation")


def _fit(kernel: Kernel, data: Dataset, ridge: float, what: str):
    """Solve ``(K_XX + ridge I) alpha = Y``; a ridge of 0.0 is gated."""
    if data.n < 1:
        raise InputError(f"{what} requires at least one observation")
    if data.Y is None:
        raise InputError(f"{what} requires a dataset with outputs")
    K = gram(kernel, data.X, data.X)
    alpha = factor_system(K, ridge, name="K_XX").solve(data.Y)
    return RepresenterFunction(kernel, data.X, alpha)
