"""Kernel ridge fits for Matern kernels on the line, in O(n).

A zero-mean process with a Matern kernel of order ``alpha`` in {1/2, 3/2,
5/2} on the real line is the first component of a linear Gaussian
state-space model with ``p = alpha + 1/2`` components (Hartikainen and
Sarkka, MLSP 2010), here in units of the length scale: with ``lam =
sqrt(2 alpha) / h`` the state is ``(f, f' / lam, f'' / lam^2)``, and in time
``z = lam t`` the drift ``F`` is the companion matrix of ``(s + 1)^p``. Since
``N = F + I`` is nilpotent, the transition over a gap ``d`` is ``A(d) =
exp(-z) sum_{j<p} (N z)^j / j!`` at ``z = lam d``, and its process noise is
``Q = P_inf - A P_inf A^T``, ``P_inf`` the stationary covariance ``[[1]]``,
``I_2`` or ``[[1, 0, -1/3], [0, 1/3, 0], [-1/3, 0, 1]]``. So ``k(s, t) = e1^T
A(t - s) P_inf e1`` for s <= t. Only ``z`` depends on ``h``, capped where
``exp(-z)`` is 0: the fits hold for every ``h`` with a finite ``lam``.

:func:`krr_coefficients` returns ``(K_XX + ridge I)^{-1} y`` from a Kalman
filter's innovations ``v_i``, variances ``S_i`` and gains ``G_i`` as
``v_i / S_i - G_i^T l_i``, ``l_i`` the adjoint of the outputs after ``i``
carried back through ``A^T``: a modified Bryson-Frazier pass, which keeps
its digits as the ridge goes to 0. :func:`predict` sweeps ``s_i = A(x_i -
x_{i-1}) s_{i-1} + P_inf e1 c_i`` forward and ``b_i = e1 c_i + A(x_{i+1} -
x_i)^T b_{i+1}`` back; with ``x_j`` the last input at or below ``t``,
``f(t) = e1^T A(t - x_j) s_j + (A(x_{j+1} - t) P_inf e1) . b_{j+1}``.

Every pass runs parallel in time. Each set's sorted inputs fill chunks of
``_CHUNK`` rows, padded with dead rows; the transition into a set's first
row or a dead row is a reset, ``A = 0`` with noise ``P_inf``, so a set in a
batch gets bitwise what it gets alone. All chunks step at once, and a pass
over each set's chunk boundaries joins them. The filter folds each chunk
into an associative element (Sarkka and Garcia-Fernandez, IEEE TAC 2021),
applies the elements across the boundaries and reruns each chunk from its
start; the linear sweeps carry ``[Phi | x]`` through each chunk and chain
``u = Phi u' + x``. Every test passes at 16, 32 and 64 rows per chunk, but
the fold's rounding is not bounded beyond that, so ``_CHUNK`` stays small.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InputError, NumericalError
from .kernels import _MATERN_T_CAP, Matern
from .linalg import solve_stacked

__all__ = ["krr_coefficients", "predict"]

_CHUNK = 16  # rows per chunk; see the module docstring for why it stays small


def _model(kernel: Matern):
    """``lam``, and ``P_inf`` and the terms ``N^j / j!`` in units of the length scale."""
    p = int(kernel.alpha + 0.5)
    with np.errstate(over="ignore"):
        lam = np.sqrt(2.0 * kernel.alpha) / kernel.h
    if not np.isfinite(lam):
        raise NumericalError(
            f"the Matern length scale h = {kernel.h:g} is too small for the "
            "state-space model: lam = sqrt(2 alpha) / h overflows"
        )
    N = np.eye(p, k=1) + np.eye(p)
    N[-1] -= [math.comb(p, j) for j in range(p)]
    terms = [np.eye(p)]
    for j in range(1, p):
        terms.append(terms[-1] @ N / j)
    p_inf = np.eye(p) if p < 3 else np.array([[3, 0, -1], [0, 1, 0], [-1, 0, 3]]) / 3.0
    return lam, p_inf, np.array(terms)


def _transitions(lam, terms, gaps):
    """``A`` over each gap, or the same part of it, from the same part of ``terms``."""
    # Past the kernel's own cap exp(-z) is 0; capping dt keeps z^j finite. At
    # h above about 1e305 the cap overflows to inf, which caps no gap.
    with np.errstate(over="ignore"):
        z = np.minimum(gaps, _MATERN_T_CAP / lam)[:, None, None]
    z *= lam
    A = np.repeat(terms[-1:], z.size, axis=0)
    for term in terms[-2::-1]:
        A *= z
        A += term
    A *= np.exp(np.negative(z, out=z), out=z)
    return A


def _layout(kernel, X, V, what: str):
    """Check input sets with one value per input; lay them out in chunks.

    Set ``s`` takes the rows from ``starts[s]``: its inputs sorted, then dead rows.
    Returns the sets, ``starts``, the chunks with a predecessor in their set per
    boundary step, by chunk and row the transitions into and (transposed) out of
    each row, ``P_inf``, and the values, 0 at dead rows."""
    if not isinstance(kernel, Matern):
        raise InputError("state-space fits need a Matern kernel")
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
    chunks = -(-np.array([len(x) for x in X], dtype=int) // _CHUNK)
    first = np.cumsum(chunks) - chunks
    gaps = np.zeros(_CHUNK * chunks.sum() + 1)
    live, values = np.zeros(gaps.size, dtype=bool), np.zeros(gaps.size - 1)
    for o, x, v in zip(_CHUNK * first, X, V):
        sort = np.argsort(x[:, 0], kind="stable")
        values[o : o + x.size] = v[sort]
        with np.errstate(over="ignore"):  # a gap past the float range is inf
            gaps[o + 1 : o + x.size] = np.diff(x[sort, 0])
        live[o + 1 : o + x.size] = True
    lam, p_inf, terms = _model(kernel)
    A = _transitions(lam, terms, gaps)
    A[~live] = 0.0
    steps = [first[chunks > k] + k for k in range(1, chunks.max(initial=0))]
    shape = (chunks.sum(), _CHUNK) + A.shape[1:]
    into, out_t = A[:-1].reshape(shape), np.swapaxes(A[1:].reshape(shape), -1, -2)
    return X, _CHUNK * first, steps, into, out_t, p_inf, values.reshape(shape[:2])


def _filter_step(W, A, p_inf, y, r):
    """Step ``W = [.. | m | P]`` as a Kalman filter, columns left of ``m`` as for outputs 0;
    return ``W``, ``S``, the gains, and ``W``'s predicted first row less ``y``."""
    p = p_inf.shape[0]
    At = np.swapaxes(A, -1, -2).copy()  # matmul is 3 times slower on a view
    W = A @ W
    W[:, :, -p:] = W[:, :, -p:] @ At + (p_inf - A @ p_inf @ At)
    S = W[:, 0, -p] + r
    gain = W[:, :, -p] / S[:, None]
    g = W[:, 0].copy()
    g[:, -p - 1] -= y
    W -= gain[:, :, None] * g[:, None, :]
    return W, S, gain, g


def _starts(step, shape, steps, backward: bool):
    """The value each chunk starts ``U <- step(j, U)`` from, 0 at a set's first (last if
    ``backward``), via ``[Phi | x]`` carried per chunk; ``step`` adds constants to column -1."""
    chunks, p = shape
    T = np.zeros((chunks, p, p + 1))
    T[:, :, :p] = np.eye(p)
    for j in reversed(range(_CHUNK)) if backward else range(_CHUNK):
        T = step(j, T)
    u = np.zeros(shape)
    for k in reversed(steps) if backward else steps:
        src, dst = (k, k - 1) if backward else (k - 1, k)
        u[dst] = (T[src, :, :p] @ u[src, :, None])[:, :, 0] + T[src, :, p]
    return u


def krr_coefficients(kernel, X, Y, ridge) -> list:
    """Solve ``(K_XX + ridge I) c = y`` for each of several datasets on the line.

    ``X`` is a sequence of input sets of shapes ``(n_r, 1)`` (a ``(batch, n,
    1)`` array is one), ``Y`` the outputs of shapes ``(n_r,)``, ``ridge`` one
    positive finite value or one per set. Returns the coefficients per set,
    in the given orders. ``kernel`` must be a :class:`Matern`. Raises
    :class:`NumericalError` if ``lam = sqrt(2 alpha) / h`` overflows (a
    subnormal ``h``) or an innovation variance is not positive and finite.
    """
    X, starts, steps, into, out_t, p_inf, y = _layout(kernel, X, Y, "outputs")
    ridge = np.asarray(ridge, dtype=float)
    if ridge.shape not in ((), (len(X),)) or not np.all(np.isfinite(ridge) & (ridge > 0)):
        raise InputError("the state-space ridge must be one positive finite value or one per set")
    # The noise per chunk: its set's ridge, at dead rows too.
    r = np.repeat(np.broadcast_to(ridge, (len(X),)), [-(-len(x) // _CHUNK) for x in X])
    chunks, p = y.shape[0], p_inf.shape[0]
    # Each chunk's element: given the state x before it, its last state is
    # N(A x + b, C) and its outputs weigh x by exp(eta^T x - x^T J x / 2).
    # W holds [A | b | C] and E holds [J | -eta].
    W, E = np.zeros((chunks, p, 2 * p + 1)), np.zeros((chunks, p, p + 1))
    W[:, :, :p] = np.eye(p)
    for j in range(_CHUNK):
        W, S, _, g = _filter_step(W, into[:, j], p_inf, y[:, j], r)
        E += (g[:, :p] / S[:, None])[:, :, None] * g[:, None, : p + 1]
    # A chunk starts where its predecessor's element takes the latter's start.
    U = np.zeros((chunks, p, p + 1))
    for k in steps:
        w, e, u = W[k - 1], E[k - 1], U[k - 1]
        a, P = w[:, :, :p], u[:, :, 1:]
        rhs = np.concatenate([u[:, :, :1] - P @ e[:, :, p:], P @ np.swapaxes(a, -1, -2)], axis=-1)
        U[k] = a @ solve_stacked(np.eye(p) + P @ e[:, :, :p], rhs) + w[:, :, p:]
    del W, E
    S, G = np.empty(y.shape), np.empty(y.shape + (p,))
    # In place, y holds the outputs, the innovations, y / S, the coefficients.
    for j in range(_CHUNK):
        U, S[:, j], G[:, j], g = _filter_step(U, into[:, j], p_inf, y[:, j], r)
        y[:, j] = -g[:, 0]
    if not np.all(np.isfinite(S) & (S > 0.0)):
        raise NumericalError("a state-space innovation variance is not positive and finite")
    y /= S

    def adjoint(j, U):  # l <- (I - e1 G^T) A^T l + e1 y / S
        U = out_t[:, j].copy() @ U
        c = -np.einsum("ci,cik->ck", G[:, j], U)
        c[:, -1] += y[:, j]
        U[:, 0] += c
        G[:, j], y[:, j] = c[:, :-1], c[:, -1]
        return U

    # Row j's coefficient is y_j + G_j . l, l the adjoint its chunk starts
    # from. Unlike a rerun from l, it agrees with the adjoint the boundary
    # pass sums to the ulp, which the large gains of a small ridge need.
    y += np.einsum("cji,ci->cj", G, _starts(adjoint, (chunks, p), steps, backward=True))
    coefficients = [np.empty(len(x)) for x in X]
    for c, o, x in zip(coefficients, starts, X):
        c[np.argsort(x[:, 0], kind="stable")] = y.reshape(-1)[o : o + len(x)]
    return coefficients


def predict(kernel, X, coefficients, points) -> np.ndarray:
    """Evaluate ``sum_i c_i k(t, x_i)`` at ``points`` for several fits on the line.

    ``X`` and ``coefficients`` are as in :func:`krr_coefficients`, ``points`` of shape
    ``(m,)``. Returns shape ``(sets, m)``. Raises :class:`NumericalError` if ``lam`` overflows,
    as in :func:`krr_coefficients`, or a value is not finite.
    """
    X, starts, steps, into, out_t, p_inf, c = _layout(kernel, X, coefficients, "coefficients")
    t = np.asarray(points, dtype=float)
    if t.ndim != 1 or not np.all(np.isfinite(t)):
        raise InputError(f"state-space predictions need finite points of shape (m,), got {t.shape}")

    def forward(j, U):  # s <- A s + P_inf e1 c
        U = into[:, j] @ U
        U[:, :, -1] += p_inf[0] * c[:, j, None]
        return U

    def backward(j, U):  # b <- A^T b + e1 c
        U = out_t[:, j].copy() @ U
        U[:, 0, -1] += c[:, j]
        return U

    # Row i holds s_i and b_i; row ``end`` the zeros past either end of a set.
    p, end = p_inf.shape[0], c.size
    state, adjoint = np.zeros((2, end + 1, p))
    for step, rows, back in ((forward, state, False), (backward, adjoint, True)):
        u = _starts(step, (len(c), p), steps, back)[:, :, None]
        for j in reversed(range(_CHUNK)) if back else range(_CHUNK):
            u = step(j, u)
            rows[:end].reshape(c.shape + (p,))[:, j] = u[:, :, 0]
    del into, out_t
    lam, _, terms = _model(kernel)
    out = np.empty((len(X), t.size))
    for s, (x, o) in enumerate(zip(X, starts)):
        n, x = len(x), x[np.argsort(x[:, 0], kind="stable"), 0]
        k = np.searchsorted(x, t, side="right")
        x = np.pad(x, 1)
        rows = np.pad(np.arange(o, o + n), 1, constant_values=end)
        with np.errstate(over="ignore"):  # a gap past the float range is inf
            below = _transitions(lam, terms[:, :1], np.where(k > 0, t - x[k], 0.0))  # e1^T A
            above = _transitions(lam, terms @ p_inf[:, :1], np.where(k < n, x[k + 1] - t, 0.0))
        out[s] = np.einsum("mj,mj->m", below[:, 0], state[rows[k]])
        out[s] += np.einsum("mi,mi->m", above[:, :, 0], adjoint[rows[k + 1]])
    if not np.all(np.isfinite(out)):
        raise NumericalError("a state-space prediction is not finite")
    return out
