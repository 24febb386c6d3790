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
jitter next to the factor. The 0 x 0 matrix, the system of an empty data
set, passes the gate and factors to the 0 x 0 factor, so the GP, ridge,
worst-case and quadrature callers run their general formulas at n = 0 with
no branch of their own.

Gating and factoring hold the matrix plus one working copy. The gate hands
a bitwise symmetric matrix to ``eigvalsh`` as it is, and the factorization
is a left-looking blocked Cholesky that overwrites one copy of its input
(``np.linalg.cholesky`` would hold its own work buffer and a separate
output). It runs over column blocks of ``_BLOCK``, factoring each diagonal
block with ``np.linalg.cholesky`` and solving the panel below it with
``np.linalg.solve``; a blocked Cholesky is as backward stable as the
unblocked one (Higham, *Accuracy and Stability of Numerical Algorithms*,
ch. 10). At n up to one block it is a single ``np.linalg.cholesky`` call.

Solves against a Cholesky factor are blocked triangular substitutions in
plain numpy: O(n^2) work per right-hand side, rather than a pivoted LU of
the already triangular factor. The diagonal blocks are solved with
``np.linalg.solve``; at n up to one block (64) each triangle is a single
``np.linalg.solve`` on the whole factor. The block must stay at least the
largest n a verify suite draws (50, in :mod:`kernelbridge.suites`), so that
verify reports, whose factorizations and solves are then single calls,
stay byte-identical.

Large arrays are produced in row blocks of at most ``_BLOCK_ENTRIES``
float64 entries (2^14, 128 KiB), so their temporaries stay in cache and
few fresh pages are faulted in; :func:`row_blocks` splits the rows.
:func:`draw_blocks` is the one product of standard normals with a root. It
draws the normals into one reused block and multiplies each block by the
root; the normals are the values of one ``rng.standard_normal((count, r))``
call, in the same order, and the generator ends in the same state.
:func:`normals_times` has it write each block into its slice of the whole
result. A caller that needs only a reduction of the draws takes each block
in a second reused buffer and reduces it there, so no ``count x n`` array
of draws exists: the HSIC Monte Carlo check does this for its second
process. :func:`covariance_root` is the one root of a sampled covariance
and owns the clamp rule. :func:`kernelbridge.kernels.gram`
fills its result one row block at a time.

Blocks split the rows evenly and never hold a single row, because OpenBLAS
rounds a product of a few rows by other kernels (numpy sends one row to
``gemv``). The sampler splits only roots of at most ``_DRAW_WIDTH`` (64)
columns, which holds every verify suite's (n <= 50): there each block's
product is bitwise the rows of the one-shot product under 1 and 2 BLAS
threads. On wider roots OpenBLAS can round the last rows of a call
differently from the same rows inside a larger call (seen at r = 300), so
their draws stay one product.
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

# Column block of the factorization and the triangular substitutions; at
# least the largest suite n (see the module docstring).
_BLOCK = 64

# Entries in one row block of a large array (see the module docstring). At
# most 2^15: larger blocks bring back the page faults that blocking removes,
# and smaller ones slow Gram assembly (CHANGES.md has the measurements).
_BLOCK_ENTRIES = 1 << 14

# Widest root whose draws are split into row blocks (see the module docstring).
_DRAW_WIDTH = 64


class Cholesky(NamedTuple):
    """Lower factor with ``factor @ factor.T`` = the matrix + ``jitter * I``."""

    factor: np.ndarray
    jitter: float

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Solve against the factored matrix; see :func:`solve_cholesky`."""
        return solve_cholesky(self.factor, rhs)


def symmetrize(matrix: np.ndarray) -> np.ndarray:
    """Average a matrix with its transpose."""
    out = matrix + matrix.T
    out *= 0.5
    return out


def row_blocks(rows: int, width: int) -> list:
    """Slices that split ``rows`` rows of ``width`` entries into row blocks.

    Each block holds at most ``_BLOCK_ENTRIES`` entries or four rows,
    whichever is more, and the blocks differ in size by at most one row, so
    no block of a split has a single row (numpy sends a one-row product to
    ``gemv``, which rounds differently from ``gemm``). ``rows == 0`` gives
    no block.
    """
    per_block = max(4, _BLOCK_ENTRIES // max(width, 1))
    count = -(-rows // per_block)
    return [slice(i * rows // count, (i + 1) * rows // count) for i in range(count)]


def draw_blocks(
    rng: np.random.Generator, root: np.ndarray, count: int, out: np.ndarray | None = None
):
    """Yield ``(rows, draws)``, the rows of ``standard_normal((count, r)) @ root.T``.

    For an ``(n, r)`` root of at most ``_DRAW_WIDTH`` columns the rows come
    in the blocks of :func:`row_blocks`, otherwise in one block. The normals
    are drawn into one reused block; the draws are written into
    ``out[rows]`` when ``out`` is given, else into a second reused block,
    valid until the next one is drawn. See the module docstring for the
    bits this keeps.
    """
    width = root.shape[1]
    blocks = row_blocks(count, width) if width <= _DRAW_WIDTH else [slice(0, count)]
    if not blocks:
        return
    size = -(-count // len(blocks))
    normals = np.empty((size, width))
    reused = np.empty((size, root.shape[0])) if out is None else None
    for rows in blocks:
        z = normals[: rows.stop - rows.start]
        rng.standard_normal(out=z)
        target = reused[: len(z)] if out is None else out[rows]
        yield rows, np.matmul(z, root.T, out=target)


def normals_times(rng: np.random.Generator, root: np.ndarray, count: int) -> np.ndarray:
    """``rng.standard_normal((count, r)) @ root.T`` for an ``(n, r)`` root.

    The blocks of :func:`draw_blocks` are written straight into their
    slices of the result, so no ``count x r`` array of normals exists.
    """
    out = np.empty((count, root.shape[0]))
    for _ in draw_blocks(rng, root, count, out):
        pass
    return out


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


def _factor_in_place(a: np.ndarray) -> np.ndarray:
    """Overwrite the symmetric ``a`` with its lower Cholesky factor and return it.

    Left-looking over column blocks of ``_BLOCK``: each block column takes
    the product of the finished columns to its left off itself, its diagonal
    block is factored with ``np.linalg.cholesky``, the panel below is solved
    against that factor, and the entries above the block are zeroed. Only
    the lower triangle is read. Raises ``np.linalg.LinAlgError`` when a
    diagonal block is not positive definite, leaving ``a`` part-factored.
    """
    n = a.shape[0]
    for s in range(0, n, _BLOCK):
        e = min(s + _BLOCK, n)
        if s:
            a[s:, s:e] -= a[s:, :s] @ a[s:e, :s].T
        diagonal = np.linalg.cholesky(a[s:e, s:e])
        a[s:e, s:e] = diagonal
        if e < n:
            a[e:, s:e] = np.linalg.solve(diagonal, a[e:, s:e].T).T
        a[:s, s:e] = 0.0
    return a


def cholesky_with_jitter(matrix: np.ndarray, name: str = "matrix") -> Cholesky:
    """Lower Cholesky factor of a PSD matrix, with escalating diagonal jitter.

    The first attempt adds nothing. On failure, ``1e-12 * trace/n`` is added
    to the diagonal and escalated by factors of 10 up to ``1e-6 * trace/n``,
    after which a :class:`NumericalError` naming the matrix is raised.

    Each attempt factors one working copy in place (see the module
    docstring), so the call holds the input and one n x n array; the input
    is not modified. Up to n = ``_BLOCK`` the factor is bit for bit
    ``np.linalg.cholesky`` of the (jittered) input.

    Returns
    -------
    Cholesky(factor, jitter) : the factor with ``L @ L.T`` reconstructing the
    (possibly jittered) input, and the amount actually added to the diagonal.
    """
    a = np.asarray(matrix, dtype=float)
    _require_finite(a, name)
    try:
        return Cholesky(_factor_in_place(np.array(a)), 0.0)
    except np.linalg.LinAlgError:
        pass
    with np.errstate(over="ignore"):
        base = float(np.trace(a)) / a.shape[0]
    if not np.isfinite(base) or base <= 0.0:
        raise NumericalError(
            f"Cholesky factorization of {name} failed and its trace admits no "
            "jitter scale"
        )
    jitter = JITTER_INITIAL * base
    ceiling = JITTER_CEILING * base
    while jitter <= ceiling * (1.0 + 1e-12):
        try:
            return Cholesky(_factor_in_place(shift_diagonal(a, jitter)), jitter)
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


def solve_stacked(matrices: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve each small system ``matrices[i] x = rhs[i]`` by pivoted LU.

    For the ``p x p`` systems (``p <= 3``) at the chunk boundaries of the
    state-space filter, which are not Gram matrices: no gate, no jitter.
    """
    return np.linalg.solve(matrices, rhs)


def spd_stats(matrix: np.ndarray):
    """Eigenvalue statistics backing the invertibility verdict.

    Returns ``(lam_min_effective, lam_max, cond)`` where the effective
    smallest eigenvalue includes the baseline jitter ``1e-12 * trace/n``.
    The 0 x 0 matrix gives ``(inf, 0.0, 1.0)``: the smallest of no
    eigenvalues is +inf, so the gate accepts it. A matrix whose trace
    overflows has no baseline, and gets an infinite condition number.

    A bitwise symmetric matrix goes to ``eigvalsh`` as it is, with no copy;
    any other is averaged with its transpose first. Averaging gives a
    symmetric matrix back bit for bit unless ``x + x`` overflows (entries
    above half the largest float), so below that no value moves.
    """
    a = np.asarray(matrix, dtype=float)
    if not np.array_equal(a, a.T):
        a = symmetrize(a)
    n = a.shape[0]
    if n == 0:
        return np.inf, 0.0, 1.0
    lam = np.linalg.eigvalsh(a)
    with np.errstate(over="ignore"):
        baseline = JITTER_INITIAL * float(np.trace(a)) / n
    lam_min = float(lam[0]) + max(baseline, 0.0)
    lam_max = float(lam[-1])
    if not 0.0 < lam_min < np.inf:
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
    if ridge == 0.0 or np.array_equal(diagonal + ridge, diagonal):
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


def covariance_root(covariance: np.ndarray, reference: np.ndarray) -> np.ndarray:
    """A root ``R`` of the clamped covariance, ``R @ R.T``, by eigendecomposition.

    Eigenvalues below ``JITTER_INITIAL * trace/n`` of the ``reference``
    matrix (the covariance itself, or the Gram matrix it was derived from)
    are set to zero, so degenerate directions carry exactly zero sample
    mass. This is what makes identities such as "a measure minus itself has
    Monte-Carlo estimate exactly 0" hold bitwise rather than to tolerance.
    The 0 x 0 covariance has the 0 x 0 root.
    """
    cov = np.asarray(covariance, dtype=float)
    _require_finite(cov, "the covariance")
    cov = symmetrize(cov)
    n = cov.shape[0]
    if n == 0:
        return cov
    with np.errstate(over="ignore"):
        clamp = JITTER_INITIAL * float(np.trace(reference)) / n
    lam, vec = np.linalg.eigh(cov)
    lam = np.where(lam < max(clamp, 0.0), 0.0, lam)
    return vec * np.sqrt(lam)[None, :]


def sample_gaussian(
    rng: np.random.Generator,
    covariance: np.ndarray,
    count: int,
    reference: np.ndarray,
) -> np.ndarray:
    """Draw ``count`` vectors from N(0, covariance): the normals times
    :func:`covariance_root` of the covariance, clamped by ``reference``."""
    return normals_times(rng, covariance_root(covariance, reference), count)
