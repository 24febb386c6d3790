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

Both functions are O(n) per input set, plus O(m) for ``m`` points, and one
loop of ``max n`` steps serves sets of any sizes: sorted longest first and
right-aligned on the steps, the sets with an input at a step are a prefix,
so each set goes through the operations it would go through alone.
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
    # The largest entry of P_inf is lam^(2p - 2), and A P_inf A^T forms
    # products up to about 100 times it: keep a factor 1024 below overflow.
    with np.errstate(over="ignore"):
        lam = np.sqrt(2.0 * kernel.alpha) / kernel.h
        fits = np.isfinite(lam) and np.isfinite(1024.0 * lam ** (2 * p - 2))
    if not fits:
        raise NumericalError(
            f"the Matern length scale h = {kernel.h:g} is too small for the "
            "state-space model: its stationary covariance leaves the float range"
        )
    N = np.eye(p, k=1) + lam * np.eye(p)
    N[-1] -= [math.comb(p, j) * lam ** (p - j) for j in range(p)]
    terms = [np.eye(p)]
    for j in range(1, p):
        terms.append(terms[-1] @ N / j)
    p_inf = np.ones((1, 1))
    if p > 1:
        l2 = lam * lam
        p_inf = np.diag([1.0, l2]) if p == 2 else np.array(
            [[1.0, 0.0, -l2 / 3.0], [0.0, l2 / 3.0, 0.0], [-l2 / 3.0, 0.0, l2 * l2]]
        )
    # Past the kernel's own cap exp(-lam dt) is 0; capping dt keeps dt^j finite.
    dt = np.minimum(gaps, _MATERN_T_CAP / lam)
    A = np.einsum("...j,jab->...ab", dt[..., None] ** np.arange(p), np.array(terms))
    A *= np.exp(-lam * dt)[..., None, None]
    return A, p_inf


def _layout(kernel, X, V, what: str):
    """Check input sets with one value per input; lay them out by step.

    In the sets' ``order`` (longest first, stable), right-aligned on the
    steps, the ``r``-th set's input at step ``i`` has the flat row
    ``offsets[i] + r``, as does the transition to its next input. Returns
    ``order``, ``offsets``, the sets, the flat transitions, ``P_inf`` and
    the flat values.
    """
    if not isinstance(kernel, Matern):
        raise UnsupportedOperationError("state-space fits need a Matern kernel")
    X = [np.asarray(x, dtype=float) for x in X]
    V = [np.asarray(v, dtype=float) for v in V]
    if len(V) != len(X):
        raise InputError(f"{len(V)} sets of {what} for {len(X)} input sets")
    for x, v in zip(X, V):
        if x.ndim != 2 or x.shape[1] != 1:
            raise InputError(f"state-space fits need input sets of shape (n, 1), got {x.shape}")
        if v.shape != x.shape[:1]:
            raise InputError(f"{what} of shape {v.shape} for inputs of shape {x.shape}")
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(v))):
            raise InputError(f"state-space inputs and {what} must be finite")
    sizes = np.array([len(x) for x in X], dtype=int)
    order = np.argsort(-sizes, kind="stable")
    n = sizes.max(initial=0)
    active = np.sum(sizes[:, None] >= n - np.arange(n), axis=0)  # sets with an input, per step
    offsets = np.concatenate(([0], np.cumsum(active)))
    gaps = np.empty(offsets[max(n - 1, 0)])
    values = np.empty(offsets[-1])
    for r, s in enumerate(order):
        rows = offsets[n - sizes[s] : n] + r
        sort = np.argsort(X[s][:, 0], kind="stable")
        gaps[rows[:-1]] = np.diff(X[s][sort, 0])
        values[rows] = V[s][sort]
    return order, offsets.tolist(), X, *_transitions(kernel, gaps), values


def krr_coefficients(kernel, X, Y, ridge) -> list:
    """Solve ``(K_XX + ridge I) c = y`` for each of several datasets on the line.

    ``X`` is a sequence of input sets of shapes ``(n_r, 1)`` and any sizes (a
    ``(batch, n, 1)`` array is one), ``Y`` the outputs of shapes ``(n_r,)``,
    and ``ridge`` one positive finite value or one per set. One loop of
    ``max n_r`` steps serves every set. Returns one coefficient array per
    set, in the sets' and inputs' given order. ``kernel`` must be a
    :class:`~kernelbridge.kernels.Matern`. Raises :class:`NumericalError`
    if ``h`` is too small for the model or an innovation variance is not
    positive and finite.
    """
    order, offsets, X, A, p_inf, v = _layout(kernel, X, Y, "outputs")
    ridge = np.asarray(ridge, dtype=float)
    if ridge.shape not in ((), order.shape) or not np.all(np.isfinite(ridge) & (ridge > 0)):
        raise InputError("the state-space ridge must be one positive finite value or one per set")
    ridge = np.broadcast_to(ridge, order.shape)[order]
    At = np.swapaxes(A, -1, -2)
    n, p = len(offsets) - 1, p_inf.shape[0]
    S, G = np.empty_like(v), np.empty((v.size, p))
    m, P = np.zeros((order.size, p)), np.tile(p_inf, (order.size, 1, 1))
    # In place, v holds the outputs, the innovations, v / S, the coefficients.
    for i in range(n):
        o, a = offsets[i], offsets[i + 1] - offsets[i]
        if i:
            t, b = offsets[i - 1], o - offsets[i - 1]
            if i % 256 == 1:  # Q for 256 steps at a time, to keep it small
                q, end = t, offsets[min(i + 256, n) - 1]
                Q = p_inf - A[q:end] @ p_inf @ At[q:end]
            m[:b] = (A[t : t + b] @ m[:b, :, None])[:, :, 0]
            np.add(A[t : t + b] @ P[:b] @ At[t : t + b], Q[t - q : t - q + b], out=P[:b])
        Si, vi, Gi, Pi = S[o : o + a], v[o : o + a], G[o : o + a], P[:a]
        np.add(Pi[:, 0, 0], ridge[:a], out=Si)
        vi -= m[:a, 0]
        np.divide(Pi[:, :, 0], Si[:, None], out=Gi)
        m[:a] += Gi * vi[:, None]
        Pi -= Gi[:, :, None] * Pi[:, None, 0, :]
    if not np.all(np.isfinite(S) & (S > 0.0)):
        raise NumericalError("a state-space innovation variance is not positive and finite")
    v /= S
    adjoint = np.zeros((order.size, p))
    for i in reversed(range(n)):
        o, a = offsets[i], offsets[i + 1] - offsets[i]
        if i < n - 1:
            adjoint[:a] = (At[o : o + a] @ adjoint[:a, :, None])[:, :, 0]
        v[o : o + a] -= np.einsum("bj,bj->b", G[o : o + a], adjoint[:a])
        adjoint[:a, 0] += v[o : o + a]
    coefficients = [np.empty(len(x)) for x in X]
    for r, s in enumerate(order):
        sort = np.argsort(X[s][:, 0], kind="stable")
        coefficients[s][sort] = v[np.array(offsets[n - sort.size : n], dtype=int) + r]
    return coefficients


def predict(kernel, X, coefficients, points) -> np.ndarray:
    """Evaluate ``sum_i c_i k(t, x_i)`` at ``points`` for several fits on the line.

    ``X`` is a sequence of input sets of shapes ``(n_r, 1)`` and any sizes (a
    ``(batch, n, 1)`` array is one), ``coefficients`` the coefficients of
    shapes ``(n_r,)``, and ``points`` has shape ``(m,)``. One loop of
    ``max n_r`` steps serves every set. Returns shape ``(sets, m)``.
    ``kernel`` must be a :class:`~kernelbridge.kernels.Matern`. Raises
    :class:`NumericalError` if ``h`` is too small for the model or a value
    is not finite.
    """
    order, offsets, X, A, p_inf, c = _layout(kernel, X, coefficients, "coefficients")
    t = np.asarray(points, dtype=float)
    if t.ndim != 1 or not np.all(np.isfinite(t)):
        raise InputError(f"state-space predictions need finite points of shape (m,), got {t.shape}")
    At = np.swapaxes(A, -1, -2)
    n, end = len(offsets) - 1, offsets[-1]
    # Each input's row holds its state s_i and adjoint b_i; row ``end`` holds
    # the zeros past either end of a set.
    state = np.zeros((end + 1, p_inf.shape[0]))
    np.multiply(p_inf[0], c[:, None], out=state[:end])
    adjoint = np.zeros_like(state)
    adjoint[:end, 0] = c
    del c
    for i in range(1, n):
        o, b = offsets[i - 1], offsets[i] - offsets[i - 1]
        state[o + b : o + 2 * b] += (A[o : o + b] @ state[o : o + b, :, None])[:, :, 0]
        o, a = offsets[n - 1 - i], offsets[n - i] - offsets[n - 1 - i]
        adjoint[o : o + a] += (At[o : o + a] @ adjoint[o + a : o + 2 * a, :, None])[:, :, 0]
    del A, At
    out = np.empty((order.size, t.size))
    # Set by set, so that the gather's arrays stay (m, p, p).
    for r, s in enumerate(order):
        size = len(X[s])
        x = X[s][np.argsort(X[s][:, 0], kind="stable"), 0]
        k = np.searchsorted(x, t, side="right")
        x = np.pad(x, 1)
        rows = np.pad(np.array(offsets[n - size : n], dtype=int) + r, 1, constant_values=end)
        below = _transitions(kernel, np.where(k > 0, t - x[k], 0.0))[0]
        out[s] = np.einsum("mj,mj->m", below[:, 0, :], state[rows[k]])
        above = _transitions(kernel, np.where(k < size, x[k + 1] - t, 0.0))[0]
        out[s] += np.einsum("mij,j,mi->m", above, p_inf[0], adjoint[rows[k + 1]])
    if not np.all(np.isfinite(out)):
        raise NumericalError("a state-space prediction is not finite")
    return out
