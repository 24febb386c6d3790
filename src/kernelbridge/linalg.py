"""Dense symmetric linear algebra helpers.

Everything here operates on small-to-medium matrices (n up to a few
thousand) and prefers explicit, predictable failure over silent
regularization. The jitter schedule exists to absorb roundoff-level
indefiniteness when factorizing a PSD matrix; it is never allowed to make a
genuinely singular system look invertible. The invertibility verdict is a
separate, eigenvalue-based check.

:func:`factor_system` is the one entry point for the systems
``(K + ridge * I) x = b`` that the GP and RKHS sides both solve. The gate
rule: a noise-free system (``ridge == 0.0``, or a ridge lost to roundoff on
every diagonal entry) must pass :func:`require_invertible`; a ridged one is
factored without the gate. The result, a :class:`Cholesky`, keeps the
jitter next to the factor.

Solves against a Cholesky factor are blocked triangular substitutions in
plain numpy: O(n^2) work per right-hand side, rather than a pivoted LU of
the already triangular factor. The diagonal blocks are solved with
``np.linalg.solve``; at n up to one block (64) each triangle is a single
``np.linalg.solve`` on the whole factor. The block must stay at least the
largest n a verify suite draws (50, in :mod:`kernelbridge.suites`), so that
verify reports stay byte-identical.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import NumericalError

# Jitter is scaled by the mean diagonal, trace(K)/n, so the schedule is
# invariant under rescaling the kernel.
JITTER_INITIAL = 1e-12
JITTER_CEILING = 1e-6

# A symmetric PSD system counts as numerically invertible when its condition
# number, after the baseline jitter, stays below this.
CONDITION_LIMIT = 1e12

# Column block of the triangular substitutions; at least the largest suite n
# (see the module docstring).
_BLOCK = 64


class Cholesky(NamedTuple):
    """Lower factor with ``factor @ factor.T`` = the matrix + ``jitter * I``."""

    factor: np.ndarray
    jitter: float

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Solve against the factored matrix; see :func:`solve_cholesky`."""
        return solve_cholesky(self.factor, rhs)


def symmetrize(matrix: np.ndarray) -> np.ndarray:
    """Average a matrix with its transpose."""
    return 0.5 * (matrix + matrix.T)


def shift_diagonal(matrix: np.ndarray, value: float) -> np.ndarray:
    """A float copy of the square ``matrix`` with ``value`` added to its diagonal.

    The diagonal is bitwise that of ``matrix`` plus ``value`` times the
    identity, but no identity is built; ``matrix`` is not modified.
    """
    out = np.array(matrix, dtype=float)
    out.flat[:: out.shape[0] + 1] += value
    return out


def _require_finite(matrix: np.ndarray, name: str) -> None:
    """Raise unless every entry is finite; a finite sum proves it without a mask."""
    with np.errstate(over="ignore", invalid="ignore"):
        total = matrix.sum()
    if not np.isfinite(total) and not np.isfinite(matrix).all():
        raise NumericalError(f"{name} has a non-finite entry")


def cholesky_with_jitter(matrix: np.ndarray, name: str = "matrix") -> Cholesky:
    """Lower Cholesky factor of a PSD matrix, with escalating diagonal jitter.

    The first attempt adds nothing. On failure, ``1e-12 * trace/n`` is added
    to the diagonal and escalated by factors of 10 up to ``1e-6 * trace/n``,
    after which a :class:`NumericalError` naming the matrix is raised.

    Returns
    -------
    Cholesky(factor, jitter) : the factor with ``L @ L.T`` reconstructing the
    (possibly jittered) input, and the amount actually added to the diagonal.
    """
    a = np.asarray(matrix, dtype=float)
    _require_finite(a, name)
    n = a.shape[0]
    if n == 0:
        return Cholesky(np.zeros((0, 0)), 0.0)
    try:
        return Cholesky(np.linalg.cholesky(a), 0.0)
    except np.linalg.LinAlgError:
        pass
    base = float(np.trace(a)) / n
    if not np.isfinite(base) or base <= 0.0:
        raise NumericalError(
            f"Cholesky factorization of {name} failed and its trace admits no "
            "jitter scale"
        )
    jitter = JITTER_INITIAL * base
    ceiling = JITTER_CEILING * base
    while jitter <= ceiling * (1.0 + 1e-12):
        try:
            return Cholesky(np.linalg.cholesky(shift_diagonal(a, jitter)), jitter)
        except np.linalg.LinAlgError:
            jitter *= 10.0
    raise NumericalError(
        f"Cholesky factorization of {name} failed with jitter up to "
        f"{ceiling:.3e}"
    )


def _solve_lower(factor: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Forward substitution ``L y = rhs`` over column blocks of ``_BLOCK``.

    Returns a new array of ``rhs``'s shape; ``rhs`` itself is not modified.
    """
    y = np.array(rhs, dtype=float)
    n = factor.shape[0]
    for s in range(0, n, _BLOCK):
        e = min(s + _BLOCK, n)
        if s:
            y[s:e] -= factor[s:e, :s] @ y[:s]
        y[s:e] = np.linalg.solve(factor[s:e, s:e], y[s:e])
    return y


def solve_cholesky(factor: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve ``(L L^T) x = rhs`` given the lower factor ``L``.

    Forward substitution ``L y = rhs``, then back substitution ``L^T x = y``,
    each over column blocks of ``_BLOCK``: the part already solved is
    subtracted from the block's right-hand side, then the diagonal block is
    solved with ``np.linalg.solve``. For n up to ``_BLOCK`` this is exactly
    ``np.linalg.solve(L.T, np.linalg.solve(L, rhs))``, bit for bit, so the
    block must stay at least the largest suite n (50) for verify reports to
    stay byte-identical. ``rhs`` is a vector or a matrix of columns; it is not
    modified, and the result has its shape.
    """
    x = _solve_lower(factor, rhs)
    n = factor.shape[0]
    for s in reversed(range(0, n, _BLOCK)):
        e = min(s + _BLOCK, n)
        if e < n:
            x[s:e] -= factor[e:, s:e].T @ x[e:]
        x[s:e] = np.linalg.solve(factor[s:e, s:e].T, x[s:e])
    return x


def spd_stats(matrix: np.ndarray):
    """Eigenvalue statistics backing the invertibility verdict.

    Returns ``(lam_min_effective, lam_max, cond)`` where the effective
    smallest eigenvalue includes the baseline jitter ``1e-12 * trace/n``.
    """
    a = symmetrize(np.asarray(matrix, dtype=float))
    n = a.shape[0]
    if n == 0:
        return 0.0, 0.0, 1.0
    lam = np.linalg.eigvalsh(a)
    baseline = JITTER_INITIAL * float(np.trace(a)) / n
    lam_min = float(lam[0]) + max(baseline, 0.0)
    lam_max = float(lam[-1])
    if lam_min <= 0.0:
        return lam_min, lam_max, np.inf
    return lam_min, lam_max, lam_max / lam_min


def require_invertible(matrix: np.ndarray, name: str = "matrix") -> None:
    """Raise :class:`NumericalError` unless the PSD matrix is invertible.

    The verdict is eigenvalue-based and independent of the jitter escalation
    used for factorization: a matrix with an exactly repeated row (duplicate
    inputs) fails here no matter how much jitter would let a Cholesky
    succeed.
    """
    _require_finite(np.asarray(matrix, dtype=float), name)
    lam_min, lam_max, cond = spd_stats(matrix)
    if not np.isfinite(cond) or lam_min <= 0.0:
        raise NumericalError(f"{name} is singular (smallest eigenvalue {lam_min:.3e})")
    if cond > CONDITION_LIMIT:
        raise NumericalError(
            f"{name} is numerically singular (condition number {cond:.3e} "
            f"exceeds {CONDITION_LIMIT:.1e})"
        )


def factor_system(gram: np.ndarray, ridge: float, name: str = "matrix") -> Cholesky:
    """Factor ``gram + ridge * I``; with ``ridge == 0.0`` gate ``gram`` first.

    The ridge is added as given, so the factored matrix is bit for bit the
    one a caller would assemble itself. A ridge that leaves every diagonal
    entry bitwise unchanged (1e-300 next to entries of order 1) is gated
    like a ridge of 0.0, since the system it gives is ``gram`` itself.
    """
    diagonal = np.diagonal(gram)
    if ridge == 0.0 or (diagonal.size and np.array_equal(diagonal + ridge, diagonal)):
        require_invertible(gram, name=name)
        return cholesky_with_jitter(gram, name=name)
    system = shift_diagonal(gram, ridge)
    return cholesky_with_jitter(system, name=f"{name} + ridge")


def nonnegative(value: float, what: str) -> float:
    """Clamp a nonnegative-in-exact-arithmetic ``value`` at 0.

    A value that is not finite, or below -1e-10, is not roundoff, and raises.
    """
    if not np.isfinite(value):
        raise NumericalError(f"{what} evaluated to {value}")
    if value < -1e-10:
        raise NumericalError(f"{what} evaluated to {value:.3e} < -1e-10")
    return max(value, 0.0)


def sample_gaussian(
    rng: np.random.Generator,
    covariance: np.ndarray,
    count: int,
    reference: np.ndarray,
) -> np.ndarray:
    """Draw ``count`` vectors from N(0, covariance) by eigendecomposition.

    Eigenvalues below ``JITTER_INITIAL * trace/n`` of the ``reference``
    matrix (the covariance itself, or the Gram matrix it was derived from)
    are set to zero, so degenerate directions carry exactly zero sample
    mass. This is what makes identities such as "a measure minus itself has
    Monte-Carlo estimate exactly 0" hold bitwise rather than to tolerance.
    """
    cov = symmetrize(np.asarray(covariance, dtype=float))
    n = cov.shape[0]
    if n == 0:
        return np.zeros((count, 0))
    clamp = JITTER_INITIAL * float(np.trace(reference)) / n
    lam, vec = np.linalg.eigh(cov)
    lam = np.where(lam < max(clamp, 0.0), 0.0, lam)
    root = vec * np.sqrt(lam)[None, :]
    z = rng.standard_normal((count, n))
    return z @ root.T
