"""Kernel and Bayesian quadrature.

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

from .errors import InputError
from .duality import IdentityReport
from .embeddings import DiscreteMeasure, mean_embed, mmd
from .kernels import Kernel, as_points, as_values, gram
from .linalg import cholesky_with_jitter, factor_system, nonnegative, shift_diagonal

__all__ = [
    "QuadratureRule",
    "kq_weights",
    "bq_posterior",
    "verify_bq_kq_identity",
]


@dataclass(frozen=True, eq=False)
class QuadratureRule:
    """Nodes, weights, and the Gram matrix and target-measure quantities
    they were built from."""

    kernel: Kernel
    nodes: np.ndarray
    weights: np.ndarray
    node_gram: np.ndarray
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
        node_gram=K,
        target=target,
        target_mean_at_nodes=mu_x,
        target_double_integral=double_integral,
        regularization=float(lam),
    )


def bq_posterior(rule: QuadratureRule, f_values):
    """Posterior mean and variance of the integral given function values.

    The noise variance of the Bayesian model is ``n * lam``, with ``lam``
    the regularization the rule was built with. Returns ``(mean, variance)``.

    The system is the Gram matrix the rule carries, ``rule.node_gram``,
    plus that noise. It is factored without the invertibility gate: at
    ``lam = 0`` ``kq_weights`` already gated this Gram matrix when it built
    the rule.
    """
    f = as_values(f_values, rule.n, "function values", "nodes")
    K = rule.node_gram
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
