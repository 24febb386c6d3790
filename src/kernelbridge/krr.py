"""Kernel ridge regression, and minimum-norm interpolation as its limit.

``fit_krr`` solves ``(K_XX + n lambda I) alpha = Y``. At ``lambda = 0`` that
is the minimum-RKHS-norm interpolant, defined only when the Gram matrix is
numerically invertible. The fit is the RKHS element
``f = sum_i alpha_i k(., x_i)`` itself, a
:class:`~kernelbridge.kernels.RepresenterFunction`: ``f(x)``,
``f.at(points)`` and ``f.norm()`` evaluate it and take its norm. It sits on
the frequentist side of the GP correspondence: with ``noise = n * lambda``
(0 included) the KRR prediction coincides with the GP posterior mean, which
the verification suites check to 1e-8.
"""

from __future__ import annotations

import numpy as np

from .errors import InputError
from .kernels import Dataset, Kernel, RepresenterFunction, gram
from .linalg import factor_system

__all__ = ["fit_krr"]


def fit_krr(kernel: Kernel, data: Dataset, lam: float) -> RepresenterFunction:
    """Fit kernel ridge regression with regularization ``lam >= 0``.

    For ``lam > 0`` the system ``K_XX + n lam I`` is strictly positive
    definite, so duplicate inputs are allowed. ``lam = 0`` gives the
    minimum-norm interpolant: the Gram matrix is gated first, and duplicated
    inputs raise :class:`~kernelbridge.errors.NumericalError`. The targets
    are ``data.Y``, which every :class:`~kernelbridge.kernels.Dataset`
    carries. An empty dataset gives the zero function, the expansion with no
    centers.
    """
    if not np.isfinite(lam) or lam < 0:
        raise InputError("regularization lambda must be nonnegative and finite")
    K = gram(kernel, data.X, data.X)
    alpha = factor_system(K, data.n * lam, name="K_XX").solve(data.Y)
    return RepresenterFunction(kernel, data.X, alpha)
