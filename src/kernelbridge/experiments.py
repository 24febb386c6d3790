"""Empirical rate experiments: ridge-regression error decay and
posterior-variance contraction.

With inputs uniform on ``[0, 1]``, observation noise of standard
deviation 0.1, a Matern kernel of order ``alpha``, and the schedule
``lambda_n = c / n``, the squared L2 error of the ridge estimator against
a target drawn from the kernel's own function class decays like
``n^{-2 alpha / (2 alpha + 1)}`` up to constants. The experiment measures
that decay directly: fit at several sample sizes, average squared errors
over replications, and compare the log-log slope with the reference
exponent. The slope is statistical, so it is checked against a band
rather than a tolerance.

The fits are O(n): the Matern kernel on the line is a state-space model,
so :func:`kernelbridge.statespace.krr_coefficients` gets the ridge
coefficients of every size and replication from one Kalman filter and
backward pass, without an n x n Gram matrix or its factorization. The
coefficients are the ones :func:`kernelbridge.krr.fit_krr` solves for
densely, to roundoff. :func:`kernelbridge.statespace.predict` then
evaluates every fit on the m-point error grid with two sweeps over the
inputs, in O(n + m) and without an m x n cross-Gram, so the reported
digits do not depend on the BLAS thread count. Each pass runs parallel in
time: every input set fills chunks of 16 sorted inputs, its first input
and the padding after its last resetting the state, all chunks of all
sets step together, and a pass over each set's chunk boundaries joins
them; the filter folds each chunk into one associative element (Sarkka
and Garcia-Fernandez, IEEE TAC 2021). At the default sizes that is about
160 sequential steps per pass instead of 2048. The chunks stay short
because the fold's rounding is bounded only by tests at short chunks.

The target is one bundled function, ``matern32-mix``: a fixed
combination of five Matern-3/2 representers on ``[0, 1]``, which keeps
its smoothness tied to the kernel family by construction and the whole
run deterministic for a given seed.

The contraction experiment fits the noise-free posterior variance at a
point against the local fill distance ``h`` of midpoint grids. For a
Matern kernel of order ``alpha`` the variance is bounded by a constant
times ``h^{2 alpha}`` (Wendland, *Scattered Data Approximation*, 2005). On
the line the fill distance has a closed form on the sorted nodes, which
:func:`fill_distance` computes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import gp, statespace
from .errors import InputError, UnsupportedOperationError
from .kernels import Dataset, Kernel, Matern, RepresenterFunction, as_count, as_points

_trapezoid = getattr(np, "trapezoid", None) or np.trapz

__all__ = [
    "RateExperimentResult",
    "rate_experiment",
    "DEFAULT_SIZES",
    "DEFAULT_LAMBDA_COEFFICIENT",
    "NOISE_STANDARD_DEVIATION",
    "fill_distance",
    "ContractionReport",
    "variance_contraction_experiment",
]

DEFAULT_SIZES = (64, 128, 256, 512, 1024, 2048)
DEFAULT_LAMBDA_COEFFICIENT = 0.01
NOISE_STANDARD_DEVIATION = 0.1
_EVALUATION_GRID_SIZE = 2001


# The bundled target, matern32-mix (see the module docstring).
_TARGET = RepresenterFunction(
    Matern(alpha=1.5, h=0.2),
    np.array([[0.1], [0.3], [0.5], [0.7], [0.9]]),
    np.array([1.0, -0.7, 0.5, 1.2, -0.8]),
)


@dataclass(frozen=True)
class RateExperimentResult:
    """Per-size errors and the fitted log-log slope."""

    sample_sizes: tuple
    errors: tuple
    fitted_slope: float
    theoretical_slope: float


def rate_experiment(
    kernel: Kernel,
    sizes=DEFAULT_SIZES,
    replications: int = 4,
    seed: int = 0,
    lambda_coefficient: float = DEFAULT_LAMBDA_COEFFICIENT,
) -> RateExperimentResult:
    """Measure the error-decay slope of ridge regression on ``[0, 1]``.

    For each sample size ``n`` and replication the experiment draws ``n``
    uniform inputs, evaluates the bundled target, adds centered Gaussian noise
    with standard deviation 0.1, fits the ridge estimator at
    ``lambda = lambda_coefficient / n`` (all sizes and replications in one
    state-space pass), and records the squared L2 distance to the target
    via the trapezoid rule on a dense grid. Errors are averaged over
    replications before the slope fit.
    """
    if not isinstance(kernel, Matern):
        raise UnsupportedOperationError(
            "the rate experiment needs a Matern kernel; its order sets the "
            "reference exponent"
        )
    sizes = list(sizes)
    if len(sizes) < 3:
        raise InputError("at least three sample sizes are needed to fit a slope")
    if any(b <= a for a, b in zip(sizes, sizes[1:])):
        raise InputError("sample sizes must be strictly increasing")
    if sizes[0] < 2:
        raise InputError("sample sizes must be at least 2")
    sizes = [as_count(n) for n in sizes]
    if replications < 1:
        raise InputError("at least one replication is required")
    replications = as_count(replications)
    if not np.isfinite(lambda_coefficient) or lambda_coefficient <= 0:
        raise InputError("the lambda schedule coefficient must be positive")

    grid = np.linspace(0.0, 1.0, _EVALUATION_GRID_SIZE)
    target_on_grid = _TARGET.at(grid)
    X, Y, ridges = [], [], []
    for size_index, n in enumerate(sizes):
        lam = lambda_coefficient / n
        for rep in range(replications):
            rng = np.random.default_rng(
                np.random.SeedSequence((seed, size_index, rep))
            )
            X.append(rng.uniform(0.0, 1.0, n)[:, None])
            noise = rng.normal(0.0, NOISE_STANDARD_DEVIATION, n)
            Y.append(_TARGET.at(X[-1]) + noise)
            ridges.append(n * lam)
    coefficients = statespace.krr_coefficients(kernel, X, Y, ridges)
    del Y  # not needed while the fits are predicted
    trials = []
    for fit_on_grid in statespace.predict(kernel, X, coefficients, grid):
        residual = fit_on_grid - target_on_grid
        trials.append(float(_trapezoid(residual * residual, grid)))
    mean_errors = [
        float(np.mean(trials[i : i + replications]))
        for i in range(0, len(trials), replications)
    ]
    slope = float(np.polyfit(np.log(sizes), np.log(mean_errors), 1)[0])
    theoretical = -2.0 * kernel.alpha / (2.0 * kernel.alpha + 1.0)
    return RateExperimentResult(
        sample_sizes=tuple(sizes),
        errors=tuple(mean_errors),
        fitted_slope=slope,
        theoretical_slope=theoretical,
    )


def fill_distance(domain_lo: float, domain_hi: float, X, x: float, rho: float) -> float:
    """Local fill distance of the nodes ``X`` on the line near ``x``.

    The supremum, over the window ``[max(lo, x - rho), min(hi, x + rho)]``,
    of the distance to the nearest node. That distance is piecewise linear,
    so the supremum is the larger of two kinds of value: the half-gaps
    between consecutive sorted nodes whose midpoint lies in the window, and
    the distances from the window's two ends to their nearest node.
    """
    lo, hi, x = float(domain_lo), float(domain_hi), float(x)
    nodes = as_points(X)
    if not np.all(np.isfinite([lo, hi, x])):
        raise InputError("domain ends and query must be finite")
    if hi < lo:
        raise InputError("domain upper end must not lie below the lower end")
    if not np.isfinite(rho) or rho <= 0:
        raise InputError("rho must be positive and finite")
    if nodes.shape[1] != 1:
        raise InputError("the fill distance is computed on the line: nodes must be 1-d")
    if nodes.shape[0] == 0:
        raise InputError("the fill distance needs at least one node")
    a, b = max(lo, x - rho), min(hi, x + rho)
    if a > b:
        raise InputError("no point of the domain lies within rho of the query")
    t = np.sort(nodes[:, 0])
    half_gaps = np.diff(t) / 2.0
    midpoints = t[:-1] + half_gaps
    covered = half_gaps[(midpoints >= a) & (midpoints <= b)]
    ends = np.abs(np.subtract.outer(t, [a, b])).min(axis=0)
    return float(max(ends.max(), covered.max(initial=0.0)))


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
) -> ContractionReport:
    """Posterior-variance decay against fill distance on midpoint grids.

    For each grid size ``n`` the noise-free posterior variance at ``x`` is
    recorded together with the local fill distance within ``rho`` of ``x``
    (:func:`fill_distance`), and a least-squares slope of ``log variance``
    against ``log h`` is fitted. For a Matern kernel of order ``alpha`` in
    one dimension the variance is bounded by a constant times
    ``h^{2 alpha}``, so the reference exponent reported alongside the slope
    is ``2 alpha``.

    On the finest grids the variance is a subtraction close to ``k(x, x)``:
    its relative accuracy is about ``eps (1 + ||w||_1)^2 k(x, x) / v`` with
    ``w = K^{-1} k_X(x)``. For ``Matern(alpha=2.5, h=0.3)`` on ``[0, 1]`` at
    ``x = 0.37`` and ``n = 128`` that is ``2.8e-6``, so the slope's digits
    beyond about ``1e-7`` relative depend on the BLAS build and its thread
    count.

    Only Matern kernels on an interval are supported; fewer than three
    grid sizes cannot support a slope and raise :class:`InputError`.
    """
    if not isinstance(kernel, Matern):
        raise UnsupportedOperationError(
            "the contraction experiment is defined for Matern kernels"
        )
    lo = float(domain_lo)
    hi = float(domain_hi)
    if not (np.isfinite(lo) and np.isfinite(hi)) or hi <= lo:
        raise InputError("domain must be a nondegenerate interval")
    sizes = list(grid_sizes)
    if len(sizes) < 3:
        raise InputError("at least three grid sizes are needed to fit a slope")
    if any(n < 1 for n in sizes):
        raise InputError("grid sizes must be positive")
    sizes = [as_count(n) for n in sizes]
    span = hi - lo
    h_values = []
    variances = []
    for n in sizes:
        grid = lo + span * (np.arange(n) + 0.5) / n
        post = gp.condition(kernel, Dataset(grid, np.zeros(n)), 0.0)
        variances.append(gp.posterior_cov(post, [x], [x]))
        h_values.append(fill_distance(lo, hi, grid, x, rho))
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
