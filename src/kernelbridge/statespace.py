"""Kernel ridge fits for Matern kernels on the line, in O(n).

A zero-mean process with a Matern kernel of order ``alpha`` in {1/2, 3/2,
5/2} on the real line is the first component of a linear Gaussian
state-space model with ``p = alpha + 1/2`` components (Hartikainen and
Sarkka, MLSP 2010). Its drift ``F`` is the companion matrix of
``(s + lam)^p`` with ``lam = sqrt(2 alpha) / h``. Since ``N = F + lam I`` is
nilpotent, the transition over a step ``dt`` is the finite sum
``A(dt) = exp(-lam dt) sum_{j<p} (N dt)^j / j!``, and its process noise is
``Q = P_inf - A P_inf A^T`` with ``P_inf`` the stationary covariance of the
kernel's unit variance. So ``k(s, t) = e1^T A(t - s) P_inf e1`` for s <= t.

:func:`krr_coefficients` returns ``(K_XX + ridge I)^{-1} y``, the weights of
both the ridge regressor and the posterior mean. It sorts the inputs, runs
a Kalman filter over them that keeps each innovation ``v_i``, its variance
``S_i`` and gain ``G_i``, then a backward modified Bryson-Frazier pass. With
the adjoint ``l_i`` of the observations after ``i``, carried back through
``A^T``, the coefficients are ``v_i / S_i - G_i^T l_i``: the transpose of
the filter's own lower-triangular whitening, applied to ``v / S``. This
avoids dividing the smoothed residual ``y - f`` by the ridge, which loses
all digits as the ridge goes to 0.

:func:`predict` evaluates ``f(t) = sum_i c_i k(t, x_i)`` without a cross-Gram.
Over the sorted inputs, a forward sweep carries
``s_i = A(x_i - x_{i-1}) s_{i-1} + P_inf e1 c_i`` and a backward sweep the
same adjoint ``b_i = e1 c_i + A(x_{i+1} - x_i)^T b_{i+1}``. With ``x_j`` the
last input at or below ``t``, ``f(t) = e1^T A(t - x_j) s_j +
(A(x_{j+1} - t) P_inf e1) . b_{j+1}``, either term dropped past an end.

Both functions are O(n) per dataset, plus O(m) for ``m`` points, and a
batch of datasets of one size runs as one loop.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InputError, NumericalError, UnsupportedOperationError
from .kernels import _MATERN_T_CAP, Matern

__all__ = ["krr_coefficients", "predict"]


def _transitions(kernel: Matern, gaps: np.ndarray):
    """Transition matrices ``A`` per gap, and ``P_inf``."""
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
    return A, p_inf


def _sorted(kernel, X, V, what: str):
    """Check a batch of inputs with one value each; sort both by input."""
    if not isinstance(kernel, Matern):
        raise UnsupportedOperationError("state-space fits need a Matern kernel")
    X = np.asarray(X, dtype=float)
    V = np.asarray(V, dtype=float)
    if X.ndim != 3 or X.shape[2] != 1:
        raise InputError(f"state-space fits need inputs of shape (batch, n, 1), got {X.shape}")
    if V.shape != X.shape[:2]:
        raise InputError(f"{what} of shape {V.shape} for inputs of shape {X.shape}")
    if not (np.all(np.isfinite(X)) and np.all(np.isfinite(V))):
        raise InputError(f"state-space inputs and {what} must be finite")
    order = np.argsort(X[:, :, 0], axis=1, kind="stable")
    x = np.take_along_axis(X[:, :, 0], order, axis=1)
    return order, x, np.take_along_axis(V, order, axis=1)


def krr_coefficients(kernel, X, Y, ridge: float) -> np.ndarray:
    """Solve ``(K_XX + ridge I) c = y`` for a batch of datasets on the line.

    ``X`` has shape ``(batch, n, 1)`` and ``Y`` shape ``(batch, n)``; the
    result has ``Y``'s shape and the inputs' original order. ``kernel`` must
    be a :class:`~kernelbridge.kernels.Matern` and ``ridge`` positive and
    finite. Raises :class:`NumericalError` if an innovation variance is not
    positive and finite.
    """
    order, x, y = _sorted(kernel, X, Y, "outputs")
    if not np.isfinite(ridge) or ridge <= 0:
        raise InputError("the state-space ridge must be positive and finite")
    # Step-major arrays, so each step's slice is contiguous.
    A, p_inf = _transitions(kernel, np.diff(x, axis=1).T)
    At = np.swapaxes(A, -1, -2)
    Q = p_inf - A @ p_inf @ At
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


def predict(kernel, X, coefficients, points) -> np.ndarray:
    """Evaluate ``sum_i c_i k(t, x_i)`` at ``points`` for a batch of fits.

    ``X`` has shape ``(batch, n, 1)``, ``coefficients`` shape ``(batch, n)``
    and ``points`` shape ``(m,)``; the result has shape ``(batch, m)``.
    ``kernel`` must be a :class:`~kernelbridge.kernels.Matern`. Raises
    :class:`NumericalError` if a value is not finite.
    """
    _, x, c = _sorted(kernel, X, coefficients, "coefficients")
    t = np.asarray(points, dtype=float)
    if t.ndim != 1 or not np.all(np.isfinite(t)):
        raise InputError(f"state-space predictions need finite points of shape (m,), got {t.shape}")
    A, p_inf = _transitions(kernel, np.diff(x, axis=1).T)
    At = np.swapaxes(A, -1, -2)
    b, n = c.shape
    # Index k holds what a point with k inputs at or below it needs: the
    # state s_{k-1} and the adjoint b_k, zero past either end. Step i of the
    # loop finishes s_i and b_{n-1-i}.
    state = np.zeros((n + 1, b, p_inf.shape[0]))
    state[1:] = p_inf[0] * c.T[:, :, None]
    adjoint = np.zeros_like(state)
    adjoint[:n, :, 0] = c.T
    for i in range(1, n):
        state[i + 1] += (A[i - 1] @ state[i][:, :, None])[:, :, 0]
        j = n - 1 - i
        adjoint[j] += (At[j] @ adjoint[j + 1][:, :, None])[:, :, 0]
    k = np.stack([np.searchsorted(row, t, side="right") for row in x])
    rows = np.arange(b)[:, None]
    padded = np.pad(x, ((0, 0), (1, 1)))
    below = _transitions(kernel, np.where(k > 0, t - padded[rows, k], 0.0))[0]
    above = _transitions(kernel, np.where(k < n, padded[rows, k + 1] - t, 0.0))[0]
    out = np.einsum("bmj,bmj->bm", below[..., 0, :], state[k, rows])
    out += np.einsum("bmij,j,bmi->bm", above, p_inf[0], adjoint[k, rows])
    if not np.all(np.isfinite(out)):
        raise NumericalError("a state-space prediction is not finite")
    return out
