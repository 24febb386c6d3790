"""Worst-case error identities linking posterior variance and RKHS norms.

For nodes ``X``, weights ``w`` and a query ``x``, the worst-case error of
the approximation ``f(x) ~ sum_i w_i f(x_i)`` over the unit ball of the
RKHS is the norm of the residual representer

    ``|| k(., x) - sum_i w_i k(., x_i) ||``,

whose square expands to ``k(x,x) - 2 w^T k_Xx + w^T K_XX w``.
:func:`verify_worst_case_identity` packages the resulting identity as a
report with an explicit gap, so callers (and the CLI) can assert
tolerances without re-deriving anything: with the optimal weights
``(K_XX + noise I)^{-1} k_Xx``, the worst-case error under the kernel
augmented by a white-noise component of variance ``noise`` equals
``sqrt(var + noise)``; at ``noise = 0`` that is the posterior standard
deviation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError
from . import gp
from .kernels import (
    Dataset,
    Kernel,
    KroneckerDelta,
    Sum,
    as_point,
    as_points,
    as_values,
    gram,
)
from .kernels import eval as kernel_value
from .linalg import factor_system, nonnegative

__all__ = [
    "optimal_weights",
    "worst_case_error",
    "IdentityReport",
    "verify_worst_case_identity",
]

@dataclass(frozen=True)
class IdentityReport:
    """Two sides of an identity and their absolute gap."""

    lhs: float
    rhs: float
    gap: float


def optimal_weights(kernel: Kernel, X, x, noise_variance: float = 0.0) -> np.ndarray:
    """Solve ``(K_XX + noise I) w = k_Xx`` for one query point."""
    nodes = as_points(X)
    xv = as_point(x)
    if not np.isfinite(noise_variance) or noise_variance < 0:
        raise InputError("noise variance must be nonnegative and finite")
    chol = factor_system(gram(kernel, nodes, nodes), noise_variance, name="K_XX")
    return chol.solve(gram(kernel, nodes, xv[None, :])[:, 0])


def worst_case_error(kernel: Kernel, X, weights, x) -> float:
    """Norm of the residual representer ``k(., x) - sum_i w_i k(., x_i)``.

    Equals the supremum, over the RKHS unit ball, of the error
    ``f(x) - sum_i w_i f(x_i)``; the supremum is attained by the normalized
    residual itself, which the tests exercise as an analytic witness.
    """
    nodes = as_points(X)
    xv = as_point(x)
    w = as_values(weights, nodes.shape[0], "weights", "nodes")
    k_xx = kernel_value(kernel, xv, xv)
    k_x = gram(kernel, nodes, xv[None, :])[:, 0]
    K = gram(kernel, nodes, nodes)
    squared = k_xx - 2.0 * float(w @ k_x) + float(w @ K @ w)
    return math.sqrt(nonnegative(squared, "worst-case error squared"))


def verify_worst_case_identity(
    kernel: Kernel, data: Dataset, noise_variance: float, x
) -> IdentityReport:
    """Check sqrt(posterior var + noise) == worst-case error under the
    noise-augmented kernel ``k + noise * delta``.

    Both sides are computed independently: the left from the conditioned
    GP, the right from the quadratic-form expansion with the optimal weights
    ``(K_XX + noise I)^{-1} k_Xx``. At ``noise_variance = 0`` this is the
    noise-free identity, posterior sd == worst-case error. With noise the
    query must differ from every node exactly (the white-noise component
    must not fire at ``x``), so coincidence raises :class:`InputError`.
    Neither side depends on ``data.Y``: outputs of any value serve.
    """
    xv = as_point(x)
    if not np.isfinite(noise_variance) or noise_variance < 0:
        raise InputError("noise variance must be nonnegative and finite")
    if noise_variance > 0:
        if xv.shape[0] != data.d:
            raise InputError(
                f"query dimension {xv.shape[0]} does not match data dimension "
                f"{data.d}"
            )
        coincides = np.all(data.X == xv[None, :], axis=1)
        if bool(np.any(coincides)):
            raise InputError(
                "the noisy identity requires the query point to differ from "
                "every node; it coincides with node "
                f"{int(np.argmax(coincides))}"
            )
    post = gp.condition(kernel, data, noise_variance)
    lhs = math.sqrt(gp.posterior_cov(post, xv, xv) + noise_variance)
    augmented = Sum(kernel, KroneckerDelta(noise_variance))
    w = optimal_weights(kernel, data.X, xv, noise_variance)
    rhs = worst_case_error(augmented, data.X, w, xv)
    return IdentityReport(lhs=lhs, rhs=rhs, gap=abs(lhs - rhs))
