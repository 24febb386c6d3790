"""Kernel ridge regression and minimum-norm interpolation.

``fit_krr`` solves ``(K_XX + n lambda I) alpha = Y`` and predicts with
``f(x) = sum_i alpha_i k(x, x_i)``; ``fit_interpolant`` is the ``lambda = 0``
limit, defined only when the Gram matrix is numerically invertible. The two
sit on the frequentist side of the GP correspondence: with
``noise = n * lambda`` the KRR prediction coincides with the GP posterior
mean, which the verification suites check to 1e-8.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .kernels import Dataset, Kernel, RepresenterFunction, as_point, gram
from .linalg import factor_system

__all__ = [
    "KRREstimator",
    "fit_krr",
    "fit_interpolant",
    "predict",
    "predict_at",
    "rkhs_norm",
]


@dataclass(frozen=True, eq=False)
class KRREstimator:
    """A fitted kernel ridge regressor / interpolant."""

    kernel: Kernel
    X: np.ndarray
    coefficients: np.ndarray
    regularization: float


def fit_krr(kernel: Kernel, data: Dataset, lam: float) -> KRREstimator:
    """Fit kernel ridge regression with regularization ``lam > 0``.

    The system ``K_XX + n lam I`` is strictly positive definite, so this
    never fails on rank-deficient Gram matrices (duplicate inputs are
    allowed).
    """
    if not np.isfinite(lam) or lam <= 0:
        raise InputError("regularization lambda must be positive and finite")
    if data.n < 1:
        raise InputError("fitting requires at least one observation")
    if data.Y is None:
        raise InputError("fitting requires a dataset with outputs")
    K = gram(kernel, data.X, data.X)
    alpha = factor_system(K, data.n * lam, name="K_XX").solve(data.Y)
    return KRREstimator(
        kernel=kernel,
        X=data.X,
        coefficients=alpha,
        regularization=float(lam),
    )


def fit_interpolant(kernel: Kernel, data: Dataset) -> KRREstimator:
    """Fit the minimum-RKHS-norm interpolant of the data.

    Requires a numerically invertible Gram matrix; duplicated inputs raise
    :class:`~kernelbridge.errors.NumericalError`.
    """
    if data.n < 1:
        raise InputError("interpolation requires at least one observation")
    if data.Y is None:
        raise InputError("interpolation requires a dataset with outputs")
    K = gram(kernel, data.X, data.X)
    alpha = factor_system(K, 0.0, name="K_XX").solve(data.Y)
    return KRREstimator(
        kernel=kernel,
        X=data.X,
        coefficients=alpha,
        regularization=0.0,
    )


def predict_at(estimator: KRREstimator, points) -> np.ndarray:
    """Predict at every row of a point set."""
    return gram(estimator.kernel, points, estimator.X) @ estimator.coefficients


def predict(estimator: KRREstimator, x) -> float:
    """Predict at a single point."""
    return float(predict_at(estimator, as_point(x)[None, :])[0])


def rkhs_norm(estimator: KRREstimator) -> float:
    """RKHS norm of the fitted function, ``sqrt(alpha^T K_XX alpha)``."""
    return RepresenterFunction(
        estimator.kernel, estimator.X, estimator.coefficients
    ).norm()
