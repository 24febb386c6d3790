"""Positive definite kernel families and Gram-matrix assembly.

A kernel is an immutable descriptor object. Pointwise evaluation goes
through :func:`eval`, matrix assembly through :func:`gram`. :class:`Sum` is
the one combinator: the noise-augmented kernel of the worst-case identity.

Conventions
-----------
Point sets are ``(n, d)`` float arrays; a 1-d array of length n is read as
n points on the real line. Single points are d-vectors (scalars are read
as 1-d points). All inputs must be finite.

The implemented families, writing ``r = ||x - y||``:

==================  =====================================================
SquaredExponential  ``exp(-r^2 / gamma^2)``
Matern              ``alpha = 1/2``: ``exp(-r/h)``;
                    ``alpha = 3/2``: ``(1 + t) exp(-t)``, ``t = sqrt(3) r/h``;
                    ``alpha = 5/2``: ``(1 + t + t^2/3) exp(-t)``,
                    ``t = sqrt(5) r/h``
Polynomial          ``(x . y + c)^m``
KroneckerDelta      ``scale`` if ``x == y`` exactly, else ``0``
BrownianDistance    ``||x|| + ||y|| - ||x - y||``
==================  =====================================================

The delta kernel compares coordinates by exact floating-point equality;
callers needing tolerance must canonicalize their inputs first.

Exactness of Gram assembly
--------------------------
Distances are built from the per-coordinate differences ``a_k - b_k``
only, never as ``|a|^2 + |b|^2 - 2 a.b``: that form cancels, so duplicate
points would not get distance exactly 0, and the bitwise delta kernel and
the duplicate checks depend on it. The layout of the work depends on ``d``
alone:

- ``d == 1``: the distance is ``|a - b|``, exact. It equals
  ``sqrt(fl((a - b)^2))`` bit for bit except where that square underflows
  (``|a - b|`` below about ``1.5e-154``) or overflows, and there ``|a - b|``
  is the correct value. The Brownian kernel's norms are ``|a|`` to match.
- ``d == 2``: the squares are summed coordinate by coordinate into one
  ``(n, m)`` array, which is the order ``einsum`` uses, so the result is
  bitwise the ``einsum`` one.
- ``d >= 3``: ``einsum`` over the ``(n, m, d)`` difference tensor. Its
  SIMD summation order is not coordinate order (at ``d == 3`` it is
  ``(x0^2 + x2^2) + x1^2`` on current numpy builds), so a coordinate loop
  would change the last bits, and with them seeded reports.

Kernel tails then run in place on that array (Matern 3/2 and 5/2 add one
more, for ``exp(-t)``, and leave the result in it), with the operations of
the closed forms above in the same order, so every Gram entry is the value
the plain expression gives. There are four exceptions:

- Matern 3/2 and 5/2 cap ``t`` at a value past which ``exp(-t)`` is
  already 0, so an overflowing distance gives 0 where the plain expression
  gives ``inf * 0 = nan``.
- Matern 5/2 caps its result at 1. For ``t`` near ``2e-8`` the roundings
  of ``1 + t + t^2/3`` and ``exp(-t)`` can land the product one ulp above
  ``k(x, x) = 1``; every value at or below 1 keeps its bits.
- BrownianDistance and Matern in ``d >= 2`` scale the coordinates by a
  power of two where the squares would overflow or underflow, and then scale
  back the result (Brownian) or the distances (Matern).
- SquaredExponential, where ``gamma**2`` or the squared coordinates would
  underflow or overflow, scales the coordinates by a power of two (in any
  ``d``), then divides the distances by ``gamma`` and squares them.

In all three, coordinate differences below about ``1e-154`` times the
largest coordinate still lose their squares to underflow.

A Gram matrix larger than one block of
:func:`~kernelbridge.linalg.row_blocks` (2^14 entries) is filled one row
block at a time, each block through the same ``_gram``, so its
temporaries stay in cache. The steps above are per entry, the polynomial
kernel's inner products are one BLAS product per block of at least two
rows, and the power-of-two exponent is that of the whole point sets, so
every entry is bitwise the one a single ``_gram`` call on the whole sets
gives, at any scale.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .linalg import nonnegative, row_blocks

__all__ = [
    "Kernel",
    "SquaredExponential",
    "Matern",
    "Polynomial",
    "KroneckerDelta",
    "BrownianDistance",
    "Sum",
    "Dataset",
    "RepresenterFunction",
    "eval",
    "gram",
    "parse_kernel",
    "format_kernel",
    "as_point",
    "as_points",
    "as_values",
    "as_count",
]

_MATERN_ORDERS = (0.5, 1.5, 2.5)
# exp(-t) rounds to 0 for t above about 745.13, so capping the scaled
# distance here changes no finite Gram value; it keeps the 3/2 and 5/2
# tails from forming inf * 0 = nan once t (or t^2) overflows.
_MATERN_T_CAP = 750.0
# While the binary exponent of the largest coordinate is at most this in size,
# squared coordinates neither overflow nor leave the normal range.
_SAFE_EXPONENT = 500
# The length scales whose square is a normal float; see the module docstring.
_SE_NORMAL_GAMMA = (math.sqrt(sys.float_info.min), math.sqrt(sys.float_info.max))


def as_point(x) -> np.ndarray:
    """Coerce a scalar or 1-d array-like to a finite d-vector."""
    arr = np.asarray(x, dtype=float)
    if arr.ndim == 0:
        arr = arr.reshape(1)
    if arr.ndim != 1:
        raise InputError(f"expected a point (d-vector), got shape {arr.shape}")
    if arr.size == 0:
        raise InputError("points must have dimension >= 1")
    if not np.all(np.isfinite(arr)):
        raise InputError("point coordinates must be finite")
    return arr


def as_points(A) -> np.ndarray:
    """Coerce an array-like to a finite ``(n, d)`` point-set array.

    A 1-d input of length n is interpreted as n points in one dimension.
    """
    arr = np.asarray(A, dtype=float)
    if arr.ndim == 1:
        arr = arr[:, None]
    if arr.ndim != 2:
        raise InputError(f"expected a point set (n x d array), got shape {arr.shape}")
    if arr.shape[1] == 0:
        raise InputError("points must have dimension >= 1")
    if not np.all(np.isfinite(arr)):
        raise InputError("point coordinates must be finite")
    return arr


def as_values(values, count: int, what: str, per: str) -> np.ndarray:
    """Coerce an array-like to a finite float vector of ``count`` values.

    ``what`` names the values and ``per`` the points they belong to, as in
    ``"3 weights for 4 atoms"``.
    """
    arr = np.asarray(values, dtype=float).reshape(-1)
    if arr.shape[0] != count:
        raise InputError(f"{arr.shape[0]} {what} for {count} {per}")
    if not np.all(np.isfinite(arr)):
        raise InputError(f"{what} must be finite")
    return arr


def as_count(count) -> int:
    """Check a sample count: an integer (not a bool), at least 0."""
    if not isinstance(count, (int, np.integer)) or isinstance(count, bool):
        raise InputError("sample count must be an integer")
    if count < 0:
        raise InputError("sample count must be nonnegative")
    return int(count)


def _pairwise_sqdist(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Squared distances from the per-coordinate differences.

    For ``d`` of 1 or 2 the squares are summed one coordinate at a time into
    one ``(n, m)`` array. Otherwise ``einsum`` sums them in its own order,
    which a coordinate loop would not reproduce bit for bit at ``d >= 3``
    (see the module docstring).
    """
    if A.shape[1] not in (1, 2):
        diff = A[:, None, :] - B[None, :, :]
        return np.einsum("ijk,ijk->ij", diff, diff)
    out = np.subtract.outer(A[:, 0], B[:, 0])
    out *= out
    for k in range(1, A.shape[1]):
        term = np.subtract.outer(A[:, k], B[:, k])
        term *= term
        out += term
    return out


def _pairwise_dist(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Euclidean distances; exactly ``|a - b|`` on the line."""
    if A.shape[1] == 1:
        with np.errstate(over="ignore"):  # a gap past the float range is inf
            out = np.subtract.outer(A[:, 0], B[:, 0])
        return np.abs(out, out=out)
    out = _pairwise_sqdist(A, B)
    return np.sqrt(out, out=out)


def _scale_exponent(A: np.ndarray, B: np.ndarray) -> int:
    """The ``e`` that brings the largest coordinate of both sets to [0.5, 1)
    by ``2^-e``, or 0 where no square would leave the normal range."""
    largest = max(np.abs(A).max(initial=0.0), np.abs(B).max(initial=0.0))
    e = int(np.frexp(largest)[1])
    return e if abs(e) > _SAFE_EXPONENT else 0


def _power_of_two_scaled(A: np.ndarray, B: np.ndarray, e: int | None):
    """``(A 2^-e, B 2^-e, e)``, exact; ``e`` is :func:`_scale_exponent` of
    ``A`` and ``B`` unless given (the exponent of the whole point sets, for a
    row block of a Gram matrix)."""
    if e is None:
        e = _scale_exponent(A, B)
    if not e:
        return A, B, 0
    return np.ldexp(A, -e), np.ldexp(B, -e), e


def _require_param(condition: bool, message: str) -> None:
    if not condition:
        raise InputError(message)


class Kernel:
    """Base class for kernel descriptors.

    Subclasses implement ``_gram`` on validated ``(n, d)`` arrays, returning
    a new array that shares no memory with its inputs (:class:`Sum` writes
    into it); the public entry points :func:`eval` and :func:`gram` handle
    coercion and shape checks. ``e`` is the power-of-two scaling exponent
    of the whole point sets when ``A`` is a row block of them, and ``None``
    when ``A`` and ``B`` are the whole sets; kernels that scale no
    coordinates ignore it.
    """

    def _gram(self, A: np.ndarray, B: np.ndarray, e: int | None = None) -> np.ndarray:
        raise NotImplementedError


@dataclass(frozen=True)
class SquaredExponential(Kernel):
    """Gaussian radial kernel ``exp(-||x - y||^2 / gamma^2)``."""

    gamma: float = 1.0

    def __post_init__(self):
        _require_param(
            np.isfinite(self.gamma) and self.gamma > 0,
            "SquaredExponential length scale gamma must be positive and finite",
        )

    def _gram(self, A, B, e=None):
        A, B, e = _power_of_two_scaled(A, B, e)
        if not e and _SE_NORMAL_GAMMA[0] <= self.gamma <= _SE_NORMAL_GAMMA[1]:
            out = _pairwise_sqdist(A, B)
            np.negative(out, out=out)
            out /= self.gamma**2
            return np.exp(out, out=out)
        # r / gamma = (r 2^-e / m) 2^(e - f), with gamma = m 2^f and m in
        # [0.5, 1): only the last step can leave the normal range.
        m, f = math.frexp(self.gamma)
        out = _pairwise_dist(A, B)
        out /= m
        with np.errstate(over="ignore"):
            np.ldexp(out, e - f, out=out)
            np.square(out, out=out)
        return np.exp(np.negative(out, out=out), out=out)


@dataclass(frozen=True)
class Matern(Kernel):
    """Matern kernel at the half-integer orders 1/2, 3/2 and 5/2.

    These orders have elementary closed forms (a polynomial times an
    exponential), so no Bessel functions are involved. As ``alpha`` grows
    the family approaches ``SquaredExponential(gamma = sqrt(2) h)``; that
    limit is exercised in the test suite through an independent
    Bessel-function oracle.
    """

    alpha: float = 1.5
    h: float = 1.0

    def __post_init__(self):
        _require_param(
            self.alpha in _MATERN_ORDERS,
            "Matern order alpha must be one of 0.5, 1.5, 2.5",
        )
        _require_param(
            np.isfinite(self.h) and self.h > 0,
            "Matern length scale h must be positive and finite",
        )

    def _gram(self, A, B, e=None):
        # In place on the distance array and, for 3/2 and 5/2, on exp(-t),
        # with the operations of the closed forms in the module docstring,
        # in the same order. In d >= 2 the distance is taken on coordinates
        # scaled by 2^-e and scaled back, exactly, as the Brownian kernel does.
        if A.shape[1] > 1:
            A, B, e = _power_of_two_scaled(A, B, e)
        else:
            e = 0
        t = _pairwise_dist(A, B)
        with np.errstate(over="ignore"):  # a scaled distance past the float range is inf
            if e:
                np.ldexp(t, e, out=t)
            if self.alpha == 0.5:
                np.negative(t, out=t)
                t /= self.h
                return np.exp(t, out=t)
            t *= math.sqrt(3.0 if self.alpha == 1.5 else 5.0) / self.h
        np.minimum(t, _MATERN_T_CAP, out=t)
        e = np.negative(t)
        np.exp(e, out=e)
        if self.alpha == 1.5:
            t += 1.0
        else:
            q = t * t
            q /= 3.0
            t += 1.0
            t += q
        # The product goes into e, the later of the two allocations, so the
        # distance array is the one freed on return. Freed in the other
        # order, an allocation made while the result lives can land between
        # the two blocks and keep both resident on the heap (about 63 MB
        # across repeated `rates` runs in one process).
        e *= t
        if self.alpha == 2.5:
            np.minimum(e, 1.0, out=e)
        return e


@dataclass(frozen=True)
class Polynomial(Kernel):
    """Polynomial kernel ``(x . y + c)^m`` with integer degree m >= 1."""

    degree: int = 1
    c: float = 0.0

    def __post_init__(self):
        _require_param(
            not isinstance(self.degree, bool)
            and float(self.degree) == int(self.degree)
            and int(self.degree) >= 1,
            "Polynomial degree must be an integer >= 1",
        )
        object.__setattr__(self, "degree", int(self.degree))
        _require_param(
            np.isfinite(self.c) and self.c >= 0,
            "Polynomial offset c must be nonnegative and finite",
        )

    def _gram(self, A, B, e=None):
        # An overflow leaves inf, or nan where infinities of both signs meet
        # in the dot product, and linalg rejects either with a named error.
        with np.errstate(over="ignore", invalid="ignore"):
            out = A @ B.T
            out += self.c
            out **= self.degree
        return out


@dataclass(frozen=True)
class KroneckerDelta(Kernel):
    """White-noise kernel: ``scale`` when x equals y exactly, else 0."""

    scale: float = 1.0

    def __post_init__(self):
        _require_param(
            np.isfinite(self.scale) and self.scale >= 0,
            "KroneckerDelta scale must be nonnegative and finite",
        )

    def _gram(self, A, B, e=None):
        equal = np.ones((A.shape[0], B.shape[0]), dtype=bool)
        for k in range(A.shape[1]):
            equal &= np.equal.outer(A[:, k], B[:, k])
        return self.scale * equal.astype(float)


@dataclass(frozen=True)
class BrownianDistance(Kernel):
    """Distance-induced kernel ``||x|| + ||y|| - ||x - y||``.

    This is the covariance of Brownian motion when restricted to the half
    line. The cross term carries coefficient 1; any larger coefficient
    breaks positive semi-definiteness already on two points.
    """

    def _gram(self, A, B, e=None):
        # On the line the norms are |a|, exact like the distances |a - b|:
        # a squared norm could underflow where the distance does not, and
        # the matrix would lose positive semi-definiteness.
        if A.shape[1] == 1:
            e = 0
            na, nb = np.abs(A[:, 0]), np.abs(B[:, 0])
        else:
            # Scaled by 2^-e here and back by 2^e below: exact, as the kernel
            # is homogeneous of degree 1.
            A, B, e = _power_of_two_scaled(A, B, e)
            na, nb = np.linalg.norm(A, axis=1), np.linalg.norm(B, axis=1)
        r = _pairwise_dist(A, B)
        # Past the float range (d = 1 only) this leaves inf or nan, which linalg rejects by name.
        with np.errstate(over="ignore", invalid="ignore"):
            out = np.subtract(np.add.outer(na, nb), r, out=r)
        return np.ldexp(out, e, out=out) if e else out


@dataclass(frozen=True)
class Sum(Kernel):
    """Pointwise sum of two kernels."""

    left: Kernel
    right: Kernel

    def __post_init__(self):
        _require_param(
            isinstance(self.left, Kernel) and isinstance(self.right, Kernel),
            "Sum operands must be kernels",
        )

    def _gram(self, A, B, e=None):
        out = self.left._gram(A, B, e)
        out += self.right._gram(A, B, e)
        return out


def eval(kernel: Kernel, x, y) -> float:
    """Evaluate ``k(x, y)`` for two d-vectors."""
    xv = as_point(x)
    yv = as_point(y)
    if xv.shape != yv.shape:
        raise InputError(
            f"point dimensions differ: {xv.shape[0]} vs {yv.shape[0]}"
        )
    return float(kernel._gram(xv[None, :], yv[None, :])[0, 0])


def gram(kernel: Kernel, A, B) -> np.ndarray:
    """Assemble the matrix with entries ``k(a_i, b_j)``.

    A matrix larger than one block is filled one row block at a time, bitwise
    equal to one ``_gram`` call on the whole sets (see the module docstring).
    """
    Am = as_points(A)
    Bm = as_points(B)
    if Am.shape[1] != Bm.shape[1]:
        raise InputError(
            f"point dimensions differ: {Am.shape[1]} vs {Bm.shape[1]}"
        )
    blocks = row_blocks(Am.shape[0], Bm.shape[0])
    if len(blocks) <= 1:
        return kernel._gram(Am, Bm)
    e = _scale_exponent(Am, Bm)
    out = np.empty((Am.shape[0], Bm.shape[0]))
    for rows in blocks:
        out[rows] = kernel._gram(Am[rows], Bm, e)
    return out


@dataclass(frozen=True, eq=False)
class Dataset:
    """Input locations ``X`` (n x d) and their required outputs ``Y`` (length n)."""

    X: np.ndarray
    Y: np.ndarray

    def __post_init__(self):
        X = as_points(self.X)
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "Y", as_values(self.Y, X.shape[0], "outputs", "inputs"))

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def d(self) -> int:
        return self.X.shape[1]


@dataclass(frozen=True, eq=False)
class RepresenterFunction:
    """A finite kernel expansion ``f = sum_i c_i k(., z_i)``.

    These are the functions whose RKHS norm is computable in closed form:
    ``||f||^2 = c^T K_ZZ c``.
    """

    kernel: Kernel
    centers: np.ndarray
    coefficients: np.ndarray

    def __post_init__(self):
        Z = as_points(self.centers)
        c = as_values(self.coefficients, Z.shape[0], "coefficients", "centers")
        object.__setattr__(self, "centers", Z)
        object.__setattr__(self, "coefficients", c)

    def __call__(self, x) -> float:
        xv = as_point(x)
        row = gram(self.kernel, xv[None, :], self.centers)[0]
        return float(row @ self.coefficients)

    def at(self, points) -> np.ndarray:
        """Evaluate at every row of a point set."""
        P = as_points(points)
        return gram(self.kernel, P, self.centers) @ self.coefficients

    def norm(self) -> float:
        """RKHS norm ``sqrt(c^T K_ZZ c)``; the square is clamped at 0, or
        raises, by the rule of :func:`~kernelbridge.linalg.nonnegative`."""
        K = gram(self.kernel, self.centers, self.centers)
        value = float(self.coefficients @ K @ self.coefficients)
        return math.sqrt(nonnegative(value, "squared RKHS norm"))


# --- flat text form -------------------------------------------------------
#
# The CLI's kernel grammar is `family` or `family:key=value,key=value`.
# Only leaf families are representable; a Sum cannot be spelled in a flat
# string and stays API-only.

_TEXT_FAMILIES = {
    "se": (SquaredExponential, {"gamma": float}),
    "matern": (Matern, {"alpha": float, "h": float}),
    "poly": (Polynomial, {"degree": int, "c": float}),
    "delta": (KroneckerDelta, {"scale": float}),
    "brownian": (BrownianDistance, {}),
}


def parse_kernel(text: str) -> Kernel:
    """Parse the flat text form, e.g. ``matern:alpha=2.5,h=0.5``.

    Omitted parameters take the family defaults. Unknown families or
    parameters, and malformed values, raise :class:`InputError`.
    """
    if not isinstance(text, str) or not text.strip():
        raise InputError("empty kernel text")
    head, _, tail = text.strip().partition(":")
    family = head.strip().lower()
    if family not in _TEXT_FAMILIES:
        known = ", ".join(sorted(_TEXT_FAMILIES))
        raise InputError(f"unknown kernel family {family!r} (known: {known})")
    cls, schema = _TEXT_FAMILIES[family]
    kwargs = {}
    if tail.strip():
        for piece in tail.split(","):
            key, sep, raw = piece.partition("=")
            key = key.strip()
            if not sep or not key:
                raise InputError(
                    f"malformed kernel parameter {piece!r} (expected key=value)"
                )
            if key not in schema:
                raise InputError(
                    f"unknown parameter {key!r} for kernel family {family!r}"
                )
            try:
                kwargs[key] = schema[key](raw.strip())
            except ValueError as exc:
                raise InputError(
                    f"could not parse value {raw.strip()!r} for parameter "
                    f"{key!r}"
                ) from exc
    return cls(**kwargs)


def format_kernel(kernel: Kernel) -> str:
    """Render a leaf kernel back to the flat text form."""
    for name, (cls, schema) in _TEXT_FAMILIES.items():
        if type(kernel) is cls:
            if not schema:
                return name
            parts = ",".join(
                f"{key}={getattr(kernel, key)!r}" for key in schema
            )
            return f"{name}:{parts}"
    raise InputError(
        f"{type(kernel).__name__} has no flat text form (leaf families only)"
    )
