"""Kernel mean embeddings, MMD, and the shrinkage estimator.

A discrete measure ``sum_i w_i delta_{a_i}`` embeds into the RKHS as
``mu(x) = sum_i w_i k(x, a_i)``. The squared MMD between two measures is
the squared RKHS distance of their embeddings, computed here as a quadratic
form ``c^T K_ZZ c`` on the union support with signed coefficients; the same
quadratic form is, exactly, the variance of the Gaussian scalar
``Pf - Qf`` under a centered GP prior, which is what
:func:`verify_average_case` checks (algebraically and by Monte Carlo).

Union supports merge atoms by exact byte equality and sum their signed
weights, so ``mmd(P, P)`` is exactly 0.0, not merely small.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .kernels import Kernel, RepresenterFunction, as_point, as_points, as_values, gram
from .linalg import factor_system, sample_gaussian

__all__ = [
    "DiscreteMeasure",
    "mean_embed",
    "mmd",
    "AverageCaseReport",
    "verify_average_case",
    "skme",
    "bayes_kmean_posterior",
]

@dataclass(frozen=True, eq=False)
class DiscreteMeasure:
    """A weighted point set ``sum_i w_i delta_{a_i}``; weights may be signed."""

    atoms: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        A = as_points(self.atoms)
        w = as_values(self.weights, A.shape[0], "weights", "atoms")
        object.__setattr__(self, "atoms", A)
        object.__setattr__(self, "weights", w)

    @classmethod
    def point_mass(cls, x) -> "DiscreteMeasure":
        return cls(as_point(x)[None, :], np.ones(1))

    @classmethod
    def uniform(cls, atoms) -> "DiscreteMeasure":
        A = as_points(atoms)
        if A.shape[0] == 0:
            raise InputError("a uniform measure needs at least one atom")
        return cls(A, np.full(A.shape[0], 1.0 / A.shape[0]))

    @property
    def m(self) -> int:
        return self.atoms.shape[0]

    def is_probability(self, tolerance: float = 1e-10) -> bool:
        return bool(
            np.all(self.weights >= -tolerance)
            and abs(float(self.weights.sum()) - 1.0) <= tolerance
        )


def mean_embed(kernel: Kernel, measure: DiscreteMeasure) -> RepresenterFunction:
    """Embed a discrete measure: ``mu(x) = sum_i w_i k(x, a_i)``."""
    return RepresenterFunction(kernel, measure.atoms, measure.weights)


def _signed_union(P: DiscreteMeasure, Q: DiscreteMeasure):
    """Union support with coefficients ``+w_P`` and ``-w_Q``.

    Atoms equal byte-for-byte are merged and their signed weights summed,
    in first-appearance order, so identical measures cancel exactly.
    """
    if P.atoms.shape[1] != Q.atoms.shape[1]:
        raise InputError(
            f"measures live in different dimensions: {P.atoms.shape[1]} vs "
            f"{Q.atoms.shape[1]}"
        )
    index: dict[bytes, int] = {}
    rows: list[np.ndarray] = []
    coeffs: list[float] = []
    for atoms, weights, sign in ((P.atoms, P.weights, 1.0), (Q.atoms, Q.weights, -1.0)):
        for row, weight in zip(atoms, weights):
            key = row.tobytes()
            slot = index.get(key)
            if slot is None:
                index[key] = len(rows)
                rows.append(row)
                coeffs.append(sign * weight)
            else:
                coeffs[slot] += sign * weight
    if not rows:
        return np.zeros((0, P.atoms.shape[1])), np.zeros(0)
    return np.vstack(rows), np.asarray(coeffs)


def mmd(kernel: Kernel, P: DiscreteMeasure, Q: DiscreteMeasure) -> float:
    """Maximum mean discrepancy ``|| mu_P - mu_Q ||`` (the norm, not its
    square)."""
    return RepresenterFunction(kernel, *_signed_union(P, Q)).norm()


@dataclass(frozen=True)
class AverageCaseReport:
    """Exact and Monte-Carlo sides of the average-case identity."""

    mmd_squared: float
    gp_variance: float
    gap: float
    mc_estimate: float
    mc_se: float


def verify_average_case(
    kernel: Kernel,
    P: DiscreteMeasure,
    Q: DiscreteMeasure,
    draws: int = 10_000,
    seed: int = 0,
) -> AverageCaseReport:
    """Check mmd^2 == variance of the GP scalar ``Pf - Qf``.

    The squared MMD is computed by the three-term expansion on the separate
    supports; the GP variance is the quadratic form ``c^T K_ZZ c`` on the
    merged union support. The two are algebraically equal but follow
    different floating-point paths, so the reported gap is a real check.
    The Monte-Carlo estimate draws GP values at the union atoms and
    averages the squared scalar; for identical measures the coefficient
    vector is zero and the estimate is exactly 0.0.
    """
    if draws < 2:
        raise InputError("the Monte-Carlo check needs at least 2 draws")
    K_pp = gram(kernel, P.atoms, P.atoms)
    K_pq = gram(kernel, P.atoms, Q.atoms)
    K_qq = gram(kernel, Q.atoms, Q.atoms)
    t_pp = float(P.weights @ K_pp @ P.weights)
    t_pq = float(P.weights @ K_pq @ Q.weights)
    t_qq = float(Q.weights @ K_qq @ Q.weights)
    mmd_squared = t_pp - 2.0 * t_pq + t_qq

    atoms, coeffs = _signed_union(P, Q)
    if atoms.shape[0] == 0:
        gp_variance = 0.0
        samples = np.zeros(int(draws))
    else:
        K_union = gram(kernel, atoms, atoms)
        gp_variance = float(coeffs @ K_union @ coeffs)
        rng = np.random.default_rng(seed)
        f_draws = sample_gaussian(rng, K_union, int(draws), K_union)
        samples = (f_draws @ coeffs) ** 2
    mc_estimate = float(samples.mean())
    mc_se = float(samples.std(ddof=1) / math.sqrt(len(samples)))
    return AverageCaseReport(
        mmd_squared=mmd_squared,
        gp_variance=gp_variance,
        gap=abs(mmd_squared - gp_variance),
        mc_estimate=mc_estimate,
        mc_se=mc_se,
    )


def skme(kernel: Kernel, sample, lam: float) -> RepresenterFunction:
    """Shrinkage estimator of the kernel mean from a sample.

    The empirical embedding has uniform weights ``1/n``; this estimator
    re-weights with ``(K_XX + n lam I)^{-1} mu_X`` where ``mu_X`` is the
    empirical embedding evaluated at the sample points, shrinking the
    estimate toward zero in the RKHS as ``lam`` grows.
    """
    X = as_points(sample)
    n = X.shape[0]
    if n == 0:
        raise InputError("the shrinkage estimator needs at least one point")
    if not np.isfinite(lam) or lam <= 0:
        raise InputError("regularization lambda must be positive and finite")
    K = gram(kernel, X, X)
    mu_x = K @ np.full(n, 1.0 / n)
    w = factor_system(K, n * lam, name="K_XX").solve(mu_x)
    return RepresenterFunction(kernel, X, w)


def bayes_kmean_posterior(
    power_gram: np.ndarray,
    empirical_mean: np.ndarray,
    noise_variance: float,
) -> np.ndarray:
    """Posterior means of a kernel mean under a GP prior.

    The prior covariance is a (possibly spectrally damped) kernel whose
    Gram matrix at the sample points is ``power_gram``; the data are the
    empirical-embedding values ``empirical_mean`` observed with noise
    ``noise_variance``. Returns the posterior means at the n sample points,
    from one factorization of ``power_gram + noise_variance * I``. Each mean
    is its own ``row @ weights`` dot, so it keeps the bits of a one-point
    evaluation.

    With the undamped kernel and ``noise_variance = n * lam``, the
    posterior means reproduce :func:`skme` at the sample points exactly.
    """
    if not np.isfinite(noise_variance) or noise_variance <= 0:
        raise InputError("noise variance must be positive and finite")
    Kt = np.asarray(power_gram, dtype=float)
    if Kt.ndim != 2 or Kt.shape[0] != Kt.shape[1]:
        raise InputError(f"power_gram must be square, got shape {Kt.shape}")
    if not np.all(np.isfinite(Kt)):
        raise InputError("power_gram must be finite")
    mu = as_values(empirical_mean, Kt.shape[0], "empirical-mean values", "sample points")
    weights = factor_system(Kt, noise_variance, name="K_theta").solve(mu)
    return np.array([row @ weights for row in Kt])
