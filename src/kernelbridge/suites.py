"""Randomized verification suites.

Each suite draws seeded random instances of one of the library's exact
identities, evaluates both sides through their independent code paths,
and emits one row per check with the inputs digested for traceability.
Instances are generated from ``SeedSequence((seed, salt, trial, attempt))``
so a given seed always produces the same cases, including inside the
redraw loop that keeps noise-free instances numerically invertible. A
suite's salt is its position in the suite table, counted from 1, so new
suites go at the end.

Monte Carlo cross-checks (average-case variance, process-covariance
dependence) ride along as extra rows whose tolerance is five standard
errors: statistical in principle, but deterministic for a fixed seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import duality, embeddings, gp, krr, quadrature, spectral
from .dependence import PairedSample, hsic_empirical, hsic_gp_exact, hsic_gp_monte_carlo
from .errors import InputError, NumericalError
from .kernels import (
    BrownianDistance,
    Dataset,
    Kernel,
    Matern,
    Polynomial,
    SquaredExponential,
    gram,
)
from .kernels import eval as kernel_value
from .linalg import spd_stats
from .reporting import stable_digest

__all__ = ["Case", "SUITE_NAMES", "run_suite"]

_MC_DRAWS = 10_000

# Redraw gate for instances that will be solved without regularization.
# Stricter than the library's invertibility limit so that identity gaps
# stay far below the 1e-8 suite tolerance.
_GENERATOR_CONDITION_LIMIT = 1e8

# Queries where the noise-free posterior variance underflows make the
# standard-deviation identity meaningless (both sides are roundoff), so
# the generator keeps the variance a safe multiple of the prior variance.
_VARIANCE_FLOOR = 1e-6


@dataclass(frozen=True)
class Case:
    """One verified check: two sides, their gap, and the verdict."""

    case_id: str
    inputs_digest: str
    lhs: float
    rhs: float
    gap: float
    tolerance: float
    passed: bool


def _rng(key: tuple, attempt: int = 0):
    """The generator for one attempt; ``key`` is ``(seed, salt, trial)``."""
    return np.random.default_rng(np.random.SeedSequence((*key, attempt)))


def _stationary(family: int, scale: float) -> Kernel:
    """Family 0 is the squared exponential, 1-3 are Matern 1/2, 3/2, 5/2."""
    if family == 0:
        return SquaredExponential(gamma=scale)
    return Matern(alpha=(0.5, 1.5, 2.5)[family - 1], h=scale)


def _polynomial(rng) -> Polynomial:
    return Polynomial(degree=int(rng.integers(1, 4)), c=float(rng.uniform(0.2, 2.0)))


def _free_scale_kernel(rng, families: int = 5, family_4=_polynomial) -> Kernel:
    """A kernel with length scales independent of the node layout."""
    family = int(rng.integers(0, families))
    if family == 4:
        return family_4(rng)
    return _stationary(family, float(rng.uniform(0.3, 1.5)))


def _interpolation_instance(rng, max_n: int):
    """Kernel plus node set whose Gram matrix is safely invertible.

    Length scales are tied to the typical node separation, and polynomial
    degrees cap the node count at the feature-space dimension; the caller
    still re-checks conditioning and redraws on failure.
    """
    d = int(rng.integers(1, 4))
    family = int(rng.integers(0, 5))
    n = int(rng.integers(1, max_n + 1))
    if family == 4:
        kernel = _polynomial(rng)
        n = min(n, math.comb(d + kernel.degree, kernel.degree))
    else:
        separation = 0.25 / n ** (1.0 / d)
        kernel = _stationary(family, 2.0 * separation * float(rng.uniform(0.8, 1.6)))
    return kernel, rng.uniform(0.0, 1.0, (n, d))


def _variance_query(rng, kernel: Kernel, X: np.ndarray):
    """A query with non-degenerate noise-free posterior variance, or None.

    Polynomial node sets at full feature rank interpolate their whole
    function class, making the posterior variance identically zero; those
    instances (and near-node queries under smooth kernels) find none.
    """
    post = gp.condition(gp.GPPrior(kernel), Dataset(X, np.zeros(X.shape[0])), 0.0)
    for _ in range(50):
        x = rng.uniform(-0.25, 1.25, X.shape[1])
        if bool(np.any(np.all(X == x[None, :], axis=1))):
            continue
        prior_var = kernel_value(kernel, x, x)
        if gp.posterior_cov(post, x, x) >= _VARIANCE_FLOOR * prior_var:
            return x
    return None


def _draw_instance(
    key: tuple,
    max_n: int,
    attempts: int,
    condition_limit: float = _GENERATOR_CONDITION_LIMIT,
    pick=None,
):
    """Redraw until the instance's Gram matrix passes the conditioning gate.

    With ``pick``, the instance must also give ``pick(rng, kernel, X)`` a
    value other than None. Returns ``(rng, kernel, X, picked)``. The
    benchmark tracer counts the returns of ``_draw*`` functions as accepted
    draws, so this returns once per accepted instance.
    """
    for attempt in range(attempts):
        rng = _rng(key, attempt)
        kernel, X = _interpolation_instance(rng, max_n)
        lam_min, _, cond = spd_stats(gram(kernel, X, X))
        if not (lam_min > 0 and cond <= condition_limit):
            continue
        if pick is None:
            return rng, kernel, X, None
        picked = pick(rng, kernel, X)
        if picked is not None:
            return rng, kernel, X, picked
    raise NumericalError(f"could not draw a usable instance for trial {key[2]}")


def _random_probability_measure(rng, d: int, max_atoms: int):
    m = int(rng.integers(1, max_atoms + 1))
    atoms = rng.uniform(0.0, 1.0, (m, d))
    weights = rng.uniform(0.1, 1.0, m)
    return embeddings.DiscreteMeasure(atoms, weights / weights.sum())


# Each suite is a generator over one trial's checks. It yields
# ``(case-id suffix, payload to digest, lhs, rhs, tolerance)``.


def _gp_krr(key: tuple):
    rng = _rng(key)
    kernel = _free_scale_kernel(rng)
    d = int(rng.integers(1, 4))
    n = int(rng.integers(1, 41))
    X = rng.uniform(0.0, 1.0, (n, d))
    Y = rng.normal(0.0, 1.0, n)
    lam = float(10.0 ** rng.uniform(-3.0, 0.0))
    queries = rng.uniform(-0.2, 1.2, (20, d))
    data = Dataset(X, Y)
    post = gp.condition(gp.GPPrior(kernel), data, n * lam)
    gp_values = gp.posterior_mean_at(post, queries)
    krr_values = krr.predict_at(krr.fit_krr(kernel, data, lam), queries)
    worst = int(np.argmax(np.abs(gp_values - krr_values)))
    payload = {"kernel": repr(kernel), "X": X, "Y": Y, "lam": lam, "queries": queries}
    yield "", payload, float(gp_values[worst]), float(krr_values[worst]), 1e-8


def _posterior_variance(key: tuple):
    rng, kernel, X, x = _draw_instance(key, max_n=30, attempts=64, pick=_variance_query)
    Y = rng.normal(0.0, 1.0, X.shape[0])
    noise = float(10.0 ** rng.uniform(-2.0, 0.5))
    data = Dataset(X, Y)
    payload = {"kernel": repr(kernel), "X": X, "x": x, "noise": noise}
    free = duality.verify_noise_free_identity(kernel, data, x)
    yield "-noisefree", payload, free.lhs, free.rhs, 1e-8
    noisy = duality.verify_noisy_identity(kernel, data, noise, x)
    yield "-noisy", payload, noisy.lhs, noisy.rhs, 1e-8


def _mmd_average_case(key: tuple):
    rng = _rng(key)
    kernel = _free_scale_kernel(rng)
    d = int(rng.integers(1, 4))
    P = _random_probability_measure(rng, d, 7)
    style = float(rng.uniform())
    if style < 0.1:
        Q = P
    elif style < 0.3:
        weights = rng.uniform(0.1, 1.0, P.m)
        Q = embeddings.DiscreteMeasure(P.atoms, weights / weights.sum())
    else:
        Q = _random_probability_measure(rng, d, 7)
    mc_seed = int(rng.integers(0, 2**63))
    report = embeddings.verify_average_case(kernel, P, Q, draws=_MC_DRAWS, seed=mc_seed)
    payload = {
        "kernel": repr(kernel),
        "P_atoms": P.atoms,
        "P_weights": P.weights,
        "Q_atoms": Q.atoms,
        "Q_weights": Q.weights,
    }
    yield "-exact", payload, report.mmd_squared, report.gp_variance, 1e-10
    yield "-mc", payload, report.mc_estimate, report.mmd_squared, 5.0 * report.mc_se


def _bq_kq(key: tuple):
    # The mean agreement check runs at an absolute 1e-10, so these
    # instances get a much stricter conditioning gate than the rest.
    rng, kernel, X, _ = _draw_instance(key, max_n=12, attempts=200, condition_limit=1e5)
    target = _random_probability_measure(rng, X.shape[1], 10)
    rule = quadrature.kq_weights(kernel, X, target, 0.0)
    payload = {
        "kernel": repr(kernel),
        "nodes": X,
        "target_atoms": target.atoms,
        "target_weights": target.weights,
    }
    identity = quadrature.verify_bq_kq_identity(rule)
    yield "-variance", payload, identity.lhs, identity.rhs, 1e-8
    f_values = rng.normal(0.0, 1.0, rule.n)
    mean, _ = quadrature.bq_posterior(rule, f_values)
    yield "-mean", {**payload, "f": f_values}, mean, float(rule.weights @ f_values), 1e-10


def _hsic_gp(key: tuple):
    rng = _rng(key)
    kx = _free_scale_kernel(rng, family_4=lambda _: BrownianDistance())
    ky = _free_scale_kernel(rng, family_4=lambda _: BrownianDistance())
    n = int(rng.integers(2, 51))
    dx = int(rng.integers(1, 4))
    dy = int(rng.integers(1, 4))
    X = rng.uniform(0.0, 1.0, (n, dx))
    if rng.uniform() < 0.5:
        base = np.sin(3.0 * X[:, 0])
        Y = base[:, None] + 0.1 * rng.normal(0.0, 1.0, (n, dy))
    else:
        Y = rng.uniform(0.0, 1.0, (n, dy))
    sample = PairedSample(X, Y)
    payload = {"kx": repr(kx), "ky": repr(ky), "X": X, "Y": Y}
    exact = hsic_gp_exact(kx, ky, sample)
    yield "-exact", payload, exact, hsic_empirical(kx, ky, sample), 1e-10
    mc_seed = int(rng.integers(0, 2**63))
    estimate, se = hsic_gp_monte_carlo(kx, ky, sample, _MC_DRAWS, mc_seed)
    yield "-mc", payload, estimate, exact, 5.0 * se


def _shrinkage_bayes(key: tuple):
    rng = _rng(key)
    kernel = _free_scale_kernel(rng, families=4)
    d = int(rng.integers(1, 4))
    n = int(rng.integers(2, 21))
    X = rng.uniform(0.0, 1.0, (n, d))
    lam = float(10.0 ** rng.uniform(-3.0, 1.0))
    direct = embeddings.skme(kernel, X, lam).at(X)
    power_gram = spectral.power_kernel(spectral.nystrom_eigensystem(kernel, X), 1.0)
    empirical_mean = embeddings.mean_embed(
        kernel, embeddings.DiscreteMeasure.uniform(X)
    ).at(X)
    through_bayes = embeddings.bayes_kmean_posterior(power_gram, empirical_mean, n * lam)
    worst = int(np.argmax(np.abs(direct - through_bayes)))
    payload = {"kernel": repr(kernel), "X": X, "lam": lam}
    yield "", payload, float(direct[worst]), float(through_bayes[worst]), 1e-8


# The suites in run order; a suite's salt is its position plus one.
_SUITES = {
    "gp-krr": _gp_krr,
    "posterior-variance": _posterior_variance,
    "mmd-average-case": _mmd_average_case,
    "bq-kq": _bq_kq,
    "hsic-gp": _hsic_gp,
    "shrinkage-bayes": _shrinkage_bayes,
}

SUITE_NAMES = tuple(_SUITES)


def run_suite(name: str, seed: int, trials: int) -> list:
    """Run one suite, or every suite for ``name = "all"``."""
    if trials < 0:
        raise InputError("trials must be nonnegative")
    if name != "all" and name not in _SUITES:
        known = ", ".join(SUITE_NAMES + ("all",))
        raise InputError(f"unknown suite {name!r}; known suites: {known}")
    cases = []
    for salt, (suite, checks) in enumerate(_SUITES.items(), start=1):
        if name not in ("all", suite):
            continue
        for trial in range(trials):
            # Checks on the same inputs share one payload object: digest it once.
            digested = digest = None
            for suffix, payload, lhs, rhs, tolerance in checks((seed, salt, trial)):
                if payload is not digested:
                    digested, digest = payload, stable_digest(payload)
                gap = abs(lhs - rhs)
                cases.append(
                    Case(
                        case_id=f"{suite}-{trial:04d}{suffix}",
                        inputs_digest=digest,
                        lhs=float(lhs),
                        rhs=float(rhs),
                        gap=float(gap),
                        tolerance=float(tolerance),
                        passed=bool(gap <= tolerance),
                    )
                )
    return cases
