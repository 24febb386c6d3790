"""Worst-case error identities linking posterior variance and RKHS norms.

For nodes ``X``, weights ``w`` and a query ``x``, the worst-case error of
the approximation ``f(x) ~ sum_i w_i f(x_i)`` over the unit ball of the
RKHS is the norm of the residual representer

    ``|| k(., x) - sum_i w_i k(., x_i) ||``,

whose square expands to ``k(x,x) - 2 w^T k_Xx + w^T K_XX w``. The
``verify_*`` operations package the resulting identities as reports with an
explicit gap, so callers (and the CLI) can assert tolerances without
re-deriving anything:

- with the optimal weights ``(K_XX + noise I)^{-1} k_Xx``, the worst-case
  error under the kernel augmented by a white-noise component of variance
  ``noise`` equals ``sqrt(var + noise)``; at ``noise = 0`` that is the
  posterior standard deviation;
- for any ``f`` in the span of representers, the interpolation error at
  ``x`` is bounded by ``||f|| sqrt(var(x))``;
- the noisy optimal weights minimize
  ``(worst-case error)^2 + noise * ||w||^2``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError, PreconditionError
from . import gp
from .kernels import (
    Dataset,
    Kernel,
    KroneckerDelta,
    RepresenterFunction,
    Sum,
    as_point,
    as_points,
    as_values,
    gram,
)
from .kernels import eval as kernel_value
from .linalg import factor_system, nonnegative, shift_diagonal

__all__ = [
    "optimal_weights",
    "worst_case_error",
    "IdentityReport",
    "BoundReport",
    "ObjectiveReport",
    "verify_worst_case_identity",
    "verify_error_bound",
    "verify_weight_objective",
]

@dataclass(frozen=True)
class IdentityReport:
    """Two sides of an identity and their absolute gap."""

    lhs: float
    rhs: float
    gap: float


@dataclass(frozen=True)
class BoundReport:
    """An inequality check: ``holds`` means ``lhs <= rhs`` up to roundoff."""

    lhs: float
    rhs: float
    holds: bool


@dataclass(frozen=True)
class ObjectiveReport:
    """Stationarity and perturbation evidence for a minimization claim."""

    objective: float
    gradient_norm: float
    perturbations: int
    is_minimal: bool


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
    if nodes.shape[0] == 0:
        squared = k_xx
    else:
        k_x = gram(kernel, nodes, xv[None, :])[:, 0]
        K = gram(kernel, nodes, nodes)
        squared = k_xx - 2.0 * float(w @ k_x) + float(w @ K @ w)
    return math.sqrt(nonnegative(squared, "worst-case error squared"))


def _conditioned(kernel: Kernel, data: Dataset, noise_variance: float):
    """Condition on the data, substituting zero outputs when absent.

    The posterior variance does not depend on Y, and these verifications
    only query variances.
    """
    if data.Y is None:
        data = Dataset(data.X, np.zeros(data.n))
    prior = gp.GPPrior(kernel)
    return gp.condition(prior, data, noise_variance)


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
    must not fire at ``x``), so coincidence raises :class:`PreconditionError`.
    """
    xv = as_point(x)
    if not np.isfinite(noise_variance) or noise_variance < 0:
        raise InputError("noise variance must be nonnegative and finite")
    if noise_variance > 0 and data.n > 0:
        if xv.shape[0] != data.d:
            raise InputError(
                f"query dimension {xv.shape[0]} does not match data dimension "
                f"{data.d}"
            )
        coincides = np.all(data.X == xv[None, :], axis=1)
        if bool(np.any(coincides)):
            raise PreconditionError(
                "the noisy identity requires the query point to differ from "
                "every node; it coincides with node "
                f"{int(np.argmax(coincides))}"
            )
    post = _conditioned(kernel, data, noise_variance)
    lhs = math.sqrt(gp.posterior_cov(post, xv, xv) + noise_variance)
    augmented = Sum(kernel, KroneckerDelta(noise_variance))
    w = optimal_weights(kernel, data.X, xv, noise_variance)
    rhs = worst_case_error(augmented, data.X, w, xv)
    return IdentityReport(lhs=lhs, rhs=rhs, gap=abs(lhs - rhs))


def verify_error_bound(
    kernel: Kernel, X, f: RepresenterFunction, x
) -> BoundReport:
    """Check ``(mean(x) - f(x))^2 <= ||f||^2 var(x)`` for the interpolant
    of ``f``'s values at the nodes.
    """
    nodes = as_points(X)
    xv = as_point(x)
    data = Dataset(nodes, f.at(nodes))
    post = _conditioned(kernel, data, 0.0)
    residual = gp.posterior_mean(post, xv) - f(xv)
    lhs = residual * residual
    rhs = f.norm() ** 2 * gp.posterior_cov(post, xv, xv)
    return BoundReport(lhs=lhs, rhs=rhs, holds=bool(lhs <= rhs + 1e-10))


def verify_weight_objective(
    kernel: Kernel,
    X,
    noise_variance: float,
    x,
    perturbations: int = 100,
    seed: int = 0,
) -> ObjectiveReport:
    """Check that the noisy optimal weights minimize
    ``wce(w)^2 + noise ||w||^2``.

    Evidence is twofold: the closed-form gradient
    ``2 (K_XX + noise I) w - 2 k_Xx`` vanishes at the solution, and random
    unit perturbations at two step sizes never decrease the objective.
    """
    nodes = as_points(X)
    xv = as_point(x)
    if not np.isfinite(noise_variance) or noise_variance <= 0:
        raise InputError("noise variance must be positive and finite")
    n = nodes.shape[0]
    K = gram(kernel, nodes, nodes)
    k_x = gram(kernel, nodes, xv[None, :])[:, 0]
    k_xx = kernel_value(kernel, xv, xv)
    w_star = factor_system(K, noise_variance, name="K_XX").solve(k_x)

    def objective(w: np.ndarray) -> float:
        wce_sq = k_xx - 2.0 * float(w @ k_x) + float(w @ K @ w)
        return wce_sq + noise_variance * float(w @ w)

    base = objective(w_star)
    gradient = 2.0 * (shift_diagonal(K, noise_variance) @ w_star) - 2.0 * k_x
    gradient_norm = float(np.linalg.norm(gradient))
    rng = np.random.default_rng(seed)
    minimal = True
    for _ in range(int(perturbations)):
        u = rng.standard_normal(n)
        norm = np.linalg.norm(u)
        if norm == 0.0:
            continue
        u /= norm
        for eps in (1e-2, 1e-3):
            if objective(w_star + eps * u) < base:
                minimal = False
    return ObjectiveReport(
        objective=base,
        gradient_norm=gradient_norm,
        perturbations=int(perturbations),
        is_minimal=minimal,
    )
