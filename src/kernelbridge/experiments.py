"""Empirical convergence-rate experiment for kernel ridge regression.

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
coefficients of all replications of one size from one Kalman filter and
backward pass, without an n x n Gram matrix or its factorization. The
coefficients are the ones :func:`kernelbridge.krr.fit_krr` solves for
densely, to roundoff, and each fit is evaluated on the error grid as the
:class:`~kernelbridge.kernels.RepresenterFunction` that ``fit_krr`` would
return.

Targets are fixed representer combinations registered by name, which
keeps their smoothness tied to the kernel family by construction and the
whole run deterministic for a given seed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import statespace
from .errors import InputError, UnsupportedOperationError
from .kernels import Kernel, Matern, RepresenterFunction

_trapezoid = getattr(np, "trapezoid", None) or np.trapz

__all__ = [
    "RateExperimentResult",
    "target_function",
    "target_ids",
    "rate_experiment",
    "DEFAULT_SIZES",
    "DEFAULT_LAMBDA_COEFFICIENT",
    "NOISE_STANDARD_DEVIATION",
]

DEFAULT_SIZES = (64, 128, 256, 512, 1024, 2048)
DEFAULT_LAMBDA_COEFFICIENT = 0.01
NOISE_STANDARD_DEVIATION = 0.1
_EVALUATION_GRID_SIZE = 2001


def _matern32_mix() -> RepresenterFunction:
    centers = np.array([[0.1], [0.3], [0.5], [0.7], [0.9]])
    coefficients = np.array([1.0, -0.7, 0.5, 1.2, -0.8])
    return RepresenterFunction(Matern(alpha=1.5, h=0.2), centers, coefficients)


_TARGETS = {
    "matern32-mix": _matern32_mix,
}


def target_ids() -> tuple:
    """Names of the registered target functions."""
    return tuple(sorted(_TARGETS))


def target_function(target_id: str) -> RepresenterFunction:
    """Look up a registered target by name."""
    try:
        factory = _TARGETS[target_id]
    except KeyError:
        known = ", ".join(target_ids())
        raise InputError(
            f"unknown target function {target_id!r}; known targets: {known}"
        ) from None
    return factory()


@dataclass(frozen=True)
class RateExperimentResult:
    """Per-size errors and the fitted log-log slope."""

    sample_sizes: tuple
    errors: tuple
    fitted_slope: float
    theoretical_slope: float


def rate_experiment(
    target_id: str,
    kernel: Kernel,
    sizes=DEFAULT_SIZES,
    replications: int = 4,
    seed: int = 0,
    lambda_coefficient: float = DEFAULT_LAMBDA_COEFFICIENT,
) -> RateExperimentResult:
    """Measure the error-decay slope of ridge regression on ``[0, 1]``.

    For each sample size ``n`` and replication the experiment draws ``n``
    uniform inputs, evaluates the target, adds centered Gaussian noise
    with standard deviation 0.1, fits the ridge estimator at
    ``lambda = lambda_coefficient / n`` (all replications of a size in one
    state-space pass), and records the squared L2 distance to the target
    via the trapezoid rule on a dense grid. Errors are averaged over
    replications before the slope fit.
    """
    if not isinstance(kernel, Matern):
        raise UnsupportedOperationError(
            "the rate experiment needs a Matern kernel; its order sets the "
            "reference exponent"
        )
    target = target_function(target_id)
    if target.centers.shape[1] != 1:
        raise InputError("rate experiment targets must be one-dimensional")
    sizes = [int(n) for n in sizes]
    if len(sizes) < 3:
        raise InputError("at least three sample sizes are needed to fit a slope")
    if any(b <= a for a, b in zip(sizes, sizes[1:])):
        raise InputError("sample sizes must be strictly increasing")
    if sizes[0] < 2:
        raise InputError("sample sizes must be at least 2")
    replications = int(replications)
    if replications < 1:
        raise InputError("at least one replication is required")
    if not np.isfinite(lambda_coefficient) or lambda_coefficient <= 0:
        raise InputError("the lambda schedule coefficient must be positive")

    grid = np.linspace(0.0, 1.0, _EVALUATION_GRID_SIZE)
    target_on_grid = target.at(grid)
    mean_errors = []
    for size_index, n in enumerate(sizes):
        X = np.empty((replications, n, 1))
        Y = np.empty((replications, n))
        for rep in range(replications):
            rng = np.random.default_rng(
                np.random.SeedSequence((seed, size_index, rep))
            )
            X[rep, :, 0] = rng.uniform(0.0, 1.0, n)
            noise = rng.normal(0.0, NOISE_STANDARD_DEVIATION, n)
            Y[rep] = target.at(X[rep]) + noise
        lam = lambda_coefficient / n
        coefficients = statespace.krr_coefficients(kernel, X, Y, n * lam)
        trials = []
        for inputs, alpha in zip(X, coefficients):
            fit = RepresenterFunction(kernel, inputs, alpha)
            residual = fit.at(grid) - target_on_grid
            trials.append(float(_trapezoid(residual * residual, grid)))
        mean_errors.append(float(np.mean(trials)))
    slope = float(np.polyfit(np.log(sizes), np.log(mean_errors), 1)[0])
    theoretical = -2.0 * kernel.alpha / (2.0 * kernel.alpha + 1.0)
    return RateExperimentResult(
        sample_sizes=tuple(sizes),
        errors=tuple(mean_errors),
        fitted_slope=slope,
        theoretical_slope=theoretical,
    )
