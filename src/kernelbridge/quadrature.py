"""Kernel and Bayesian quadrature, fill distance, and the contraction
experiment.

A quadrature rule approximates ``integral of f against P`` by
``sum_i w_i f(x_i)``. The kernel-optimal weights solve
``(K_XX + n lam I) w = mu_X`` where ``mu_X`` is the embedding of the target
measure evaluated at the nodes; with ``lam = 0`` they minimize the MMD
between the weighted node measure and the target. The Bayesian posterior
over the integral has mean ``mu_X^T (K_XX + s2 I)^{-1} f_X`` and variance
``integral k dP dP - mu_X^T (K_XX + s2 I)^{-1} mu_X`` with ``s2 = n lam``;
at ``lam = 0`` that variance equals the squared MMD of the rule, which
:func:`verify_bq_kq_identity` reports.

Targets are discrete measures throughout, so every integral is a finite
sum and the identities are exact rather than asymptotic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError, UnsupportedOperationError
from . import gp
from .duality import IdentityReport
from .embeddings import DiscreteMeasure, mean_embed, mmd
from .kernels import Dataset, Kernel, Matern, _pairwise_dist, as_point, as_points
from .kernels import as_values, gram
from .linalg import cholesky_with_jitter, factor_system, nonnegative, shift_diagonal

__all__ = [
    "QuadratureRule",
    "kq_weights",
    "bq_posterior",
    "verify_bq_kq_identity",
    "fill_distance",
    "ContractionReport",
    "variance_contraction_experiment",
]


@dataclass(frozen=True, eq=False)
class QuadratureRule:
    """Nodes, weights, and the target-measure quantities they were built
    from."""

    kernel: Kernel
    nodes: np.ndarray
    weights: np.ndarray
    target: DiscreteMeasure
    target_mean_at_nodes: np.ndarray
    target_double_integral: float
    regularization: float

    @property
    def n(self) -> int:
        return self.nodes.shape[0]


def kq_weights(
    kernel: Kernel, nodes, target: DiscreteMeasure, lam: float = 0.0
) -> QuadratureRule:
    """Kernel-optimal quadrature weights for a discrete target measure.

    ``lam = 0`` requires a numerically invertible Gram matrix; ``lam > 0``
    gives the regularized weights ``(K_XX + n lam I)^{-1} mu_X``. No nodes
    give the empty rule, whose posterior variance is ``integral k dP dP``.
    """
    P = as_points(nodes)
    n = P.shape[0]
    if not np.isfinite(lam) or lam < 0:
        raise InputError("regularization lambda must be nonnegative and finite")
    if P.shape[1] != target.atoms.shape[1]:
        raise InputError(
            f"nodes and target atoms live in different dimensions: "
            f"{P.shape[1]} vs {target.atoms.shape[1]}"
        )
    K = gram(kernel, P, P)
    mu_x = mean_embed(kernel, target).at(P)
    w = factor_system(K, n * lam, name="K_XX").solve(mu_x)
    K_tt = gram(kernel, target.atoms, target.atoms)
    double_integral = float(target.weights @ K_tt @ target.weights)
    return QuadratureRule(
        kernel=kernel,
        nodes=P,
        weights=w,
        target=target,
        target_mean_at_nodes=mu_x,
        target_double_integral=double_integral,
        regularization=float(lam),
    )


def bq_posterior(rule: QuadratureRule, f_values):
    """Posterior mean and variance of the integral given function values.

    The noise variance of the Bayesian model is ``n * lam``, with ``lam``
    the regularization the rule was built with. Returns ``(mean, variance)``.

    The system is factored without the invertibility gate: ``kq_weights``
    already gated this Gram matrix when it built the rule.
    """
    f = as_values(f_values, rule.n, "function values", "nodes")
    K = gram(rule.kernel, rule.nodes, rule.nodes)
    noise = rule.n * rule.regularization
    system = shift_diagonal(K, noise) if noise > 0 else K
    # Ungated: kq_weights already gated this K (see the docstring).
    chol = cholesky_with_jitter(system, name="K_XX + noise")
    mu = rule.target_mean_at_nodes
    mean = float(mu @ chol.solve(f))
    variance = rule.target_double_integral - float(mu @ chol.solve(mu))
    return mean, nonnegative(variance, "integral posterior variance")


def verify_bq_kq_identity(rule: QuadratureRule) -> IdentityReport:
    """Check posterior variance == squared MMD of the rule (lambda = 0).

    The left side comes from the Bayesian formula, the right from the
    embedding distance between the weighted node measure and the target.
    """
    if rule.regularization != 0.0:
        raise InputError("the variance identity holds for lambda = 0 rules")
    _, variance = bq_posterior(rule, np.zeros(rule.n))
    node_measure = DiscreteMeasure(rule.nodes, rule.weights)
    discrepancy = mmd(rule.kernel, node_measure, rule.target)
    rhs = discrepancy * discrepancy
    return IdentityReport(lhs=variance, rhs=rhs, gap=abs(variance - rhs))


def fill_distance(domain_lo, domain_hi, X, x, rho: float, resolution: float) -> float:
    """Brute-force local fill distance near ``x``.

    Grids the axis-aligned box ``[lo, hi]`` at the given resolution, keeps
    the grid points within distance ``rho`` of ``x``, and returns the
    largest distance from a kept point to its nearest node. Converges to
    the true supremum from below as the resolution shrinks.
    """
    lo = as_point(domain_lo)
    hi = as_point(domain_hi)
    nodes = as_points(X)
    xv = as_point(x)
    d = lo.shape[0]
    if hi.shape[0] != d or xv.shape[0] != d or nodes.shape[1] != d:
        raise InputError("domain corners, nodes and query must share a dimension")
    if np.any(hi < lo):
        raise InputError("domain upper corner must dominate the lower corner")
    if not np.isfinite(rho) or rho <= 0:
        raise InputError("rho must be positive and finite")
    if not np.isfinite(resolution) or resolution <= 0:
        raise InputError("resolution must be positive and finite")
    axes = []
    for k in range(d):
        count = int(np.floor((hi[k] - lo[k]) / resolution)) + 1
        axis = lo[k] + resolution * np.arange(count)
        if axis[-1] < hi[k] - 1e-12 * max(1.0, abs(hi[k])):
            axis = np.append(axis, hi[k])
        axes.append(axis)
    mesh = np.meshgrid(*axes, indexing="ij")
    candidates = np.stack([m.reshape(-1) for m in mesh], axis=1)
    inside = np.linalg.norm(candidates - xv[None, :], axis=1) <= rho
    candidates = candidates[inside]
    if candidates.shape[0] == 0:
        raise InputError(
            "no grid points fall inside the domain within rho of the query"
        )
    dists = _pairwise_dist(candidates, nodes)
    return float(dists.min(axis=1).max())


@dataclass(frozen=True)
class ContractionReport:
    """Log-log fit of posterior variance against fill distance."""

    grid_sizes: tuple
    fill_distances: tuple
    variances: tuple
    slope: float
    theoretical_exponent: float


def variance_contraction_experiment(
    kernel: Kernel,
    domain_lo: float,
    domain_hi: float,
    x: float,
    grid_sizes,
    rho: float = 0.25,
    resolution: float | None = None,
) -> ContractionReport:
    """Posterior-variance decay against fill distance on midpoint grids.

    For each grid size ``n`` the noise-free posterior variance at ``x`` is
    recorded together with the local fill distance (brute force, shared
    ``rho`` and ``resolution``), and a least-squares slope of
    ``log variance`` against ``log h`` is fitted. For a Matern kernel of
    order ``alpha`` in one dimension the variance is bounded by a constant
    times ``h^{2 alpha}``, so the reference exponent reported alongside the
    slope is ``2 alpha``.

    On the finest grids the variance is a subtraction close to ``k(x, x)``:
    its relative accuracy is about ``eps (1 + ||w||_1)^2 k(x, x) / v`` with
    ``w = K^{-1} k_X(x)``. For ``Matern(alpha=2.5, h=0.3)`` on ``[0, 1]`` at
    ``x = 0.37`` and ``n = 128`` that is ``2.8e-6``, so the slope's digits
    beyond about ``1e-7`` relative depend on the BLAS build and its thread
    count.

    Only one-dimensional domains and Matern kernels are supported; fewer
    than three grid sizes cannot support a slope and raise
    :class:`InputError`.
    """
    if not isinstance(kernel, Matern):
        raise UnsupportedOperationError(
            "the contraction experiment is defined for Matern kernels"
        )
    lo = float(domain_lo)
    hi = float(domain_hi)
    if not (np.isfinite(lo) and np.isfinite(hi)) or hi <= lo:
        raise InputError("domain must be a nondegenerate interval")
    sizes = [int(n) for n in grid_sizes]
    if len(sizes) < 3:
        raise InputError("at least three grid sizes are needed to fit a slope")
    if any(n < 1 for n in sizes):
        raise InputError("grid sizes must be positive")
    span = hi - lo
    step = span / 4096.0 if resolution is None else float(resolution)
    prior = gp.GPPrior(kernel)
    h_values = []
    variances = []
    for n in sizes:
        grid = lo + span * (np.arange(n) + 0.5) / n
        post = gp.condition(prior, Dataset(grid, np.zeros(n)), 0.0)
        variance = gp.posterior_cov(post, [x], [x])
        h = fill_distance([lo], [hi], grid, [x], rho, step)
        h_values.append(h)
        variances.append(variance)
    logs_h = np.log(h_values)
    logs_v = np.log(np.maximum(variances, 1e-300))
    slope = float(np.polyfit(logs_h, logs_v, 1)[0])
    return ContractionReport(
        grid_sizes=tuple(sizes),
        fill_distances=tuple(float(v) for v in h_values),
        variances=tuple(float(v) for v in variances),
        slope=slope,
        theoretical_exponent=2.0 * kernel.alpha,
    )
