"""Kernel ridge coefficients for Matern kernels on the line, in O(n).

A zero-mean process with a Matern kernel of order ``alpha`` in {1/2, 3/2,
5/2} on the real line is the first component of a linear Gaussian
state-space model with ``p = alpha + 1/2`` components (Hartikainen and
Sarkka, MLSP 2010). Its drift ``F`` is the companion matrix of
``(s + lam)^p`` with ``lam = sqrt(2 alpha) / h``. Since ``N = F + lam I`` is
nilpotent, the transition over a step ``dt`` is the finite sum
``A(dt) = exp(-lam dt) sum_{j<p} (N dt)^j / j!``, and its process noise is
``Q = P_inf - A P_inf A^T`` with ``P_inf`` the stationary covariance of the
kernel's unit variance.

:func:`krr_coefficients` returns ``(K_XX + ridge I)^{-1} y``, the weights of
both the ridge regressor and the posterior mean. It sorts the inputs, runs
a Kalman filter over them that keeps each innovation ``v_i``, its variance
``S_i`` and gain ``G_i``, then a backward modified Bryson-Frazier pass. With
the adjoint ``l_i`` of the observations after ``i``, carried back through
``A^T``, the coefficients are ``v_i / S_i - G_i^T l_i``: the transpose of
the filter's own lower-triangular whitening, applied to ``v / S``. This
avoids dividing the smoothed residual ``y - f`` by the ridge, which loses
all digits as the ridge goes to 0. The work is O(n) per dataset, and a
batch of datasets of one size runs as one loop.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InputError, NumericalError, UnsupportedOperationError
from .kernels import _MATERN_T_CAP, Matern

__all__ = ["krr_coefficients"]


def _transitions(kernel: Matern, gaps: np.ndarray):
    """Transition matrices ``A``, process noise ``Q`` per gap, and ``P_inf``."""
    p = int(kernel.alpha + 0.5)
    # A numpy scalar, so an extreme h overflows to inf instead of raising.
    lam = np.sqrt(2.0 * kernel.alpha) / kernel.h
    N = np.eye(p, k=1) + lam * np.eye(p)
    N[-1] -= [math.comb(p, j) * lam ** (p - j) for j in range(p)]
    terms = [np.eye(p)]
    for j in range(1, p):
        terms.append(terms[-1] @ N / j)
    l2 = lam * lam
    p_inf = np.array({
        1: [[1.0]],
        2: [[1.0, 0.0], [0.0, l2]],
        3: [[1.0, 0.0, -l2 / 3.0], [0.0, l2 / 3.0, 0.0], [-l2 / 3.0, 0.0, l2 * l2]],
    }[p])
    # Past the kernel's own cap exp(-lam dt) is 0; capping dt keeps dt^j finite.
    dt = np.minimum(gaps, _MATERN_T_CAP / lam)
    A = np.einsum("...j,jab->...ab", dt[..., None] ** np.arange(p), np.array(terms))
    A *= np.exp(-lam * dt)[..., None, None]
    Q = p_inf - A @ p_inf @ np.swapaxes(A, -1, -2)
    return A, Q, p_inf


def krr_coefficients(kernel, X, Y, ridge: float) -> np.ndarray:
    """Solve ``(K_XX + ridge I) c = y`` for a batch of datasets on the line.

    ``X`` has shape ``(batch, n, 1)`` and ``Y`` shape ``(batch, n)``; the
    result has ``Y``'s shape and the inputs' original order. ``kernel`` must
    be a :class:`~kernelbridge.kernels.Matern` and ``ridge`` positive and
    finite. Raises :class:`NumericalError` if an innovation variance is not
    positive and finite.
    """
    if not isinstance(kernel, Matern):
        raise UnsupportedOperationError("state-space fits need a Matern kernel")
    if not np.isfinite(ridge) or ridge <= 0:
        raise InputError("the state-space ridge must be positive and finite")
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)
    if X.ndim != 3 or X.shape[2] != 1:
        raise InputError(f"state-space fits need inputs of shape (batch, n, 1), got {X.shape}")
    if Y.shape != X.shape[:2]:
        raise InputError(f"outputs of shape {Y.shape} for inputs of shape {X.shape}")
    if not (np.all(np.isfinite(X)) and np.all(np.isfinite(Y))):
        raise InputError("state-space inputs and outputs must be finite")
    order = np.argsort(X[:, :, 0], axis=1, kind="stable")
    x = np.take_along_axis(X[:, :, 0], order, axis=1)
    y = np.take_along_axis(Y, order, axis=1)
    # Step-major arrays, so each step's slice is contiguous.
    A, Q, p_inf = _transitions(kernel, np.diff(x, axis=1).T)
    At = np.swapaxes(A, -1, -2)
    b, n = y.shape
    p = p_inf.shape[0]
    v = np.empty((n, b))
    S = np.empty((n, b))
    G = np.empty((n, b, p))
    m = np.zeros((b, p))
    P = np.broadcast_to(p_inf, (b, p, p))
    for i in range(n):
        if i:
            m = (A[i - 1] @ m[:, :, None])[:, :, 0]
            P = A[i - 1] @ P @ At[i - 1] + Q[i - 1]
        S[i] = P[:, 0, 0] + ridge
        v[i] = y[:, i] - m[:, 0]
        G[i] = P[:, :, 0] / S[i][:, None]
        m = m + G[i] * v[i][:, None]
        P = P - G[i][:, :, None] * P[:, None, 0, :]
    if not np.all(np.isfinite(S) & (S > 0.0)):
        raise NumericalError("a state-space innovation variance is not positive and finite")
    coefficients = np.empty((n, b))
    adjoint = np.zeros((b, p))
    white = v / S
    for i in reversed(range(n)):
        if i < n - 1:
            adjoint = (At[i] @ adjoint[:, :, None])[:, :, 0]
        coefficients[i] = white[i] - np.einsum("bj,bj->b", G[i], adjoint)
        adjoint[:, 0] += coefficients[i]
    out = np.empty_like(y)
    np.put_along_axis(out, order, coefficients.T, axis=1)
    return out
