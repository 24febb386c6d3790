"""Randomized verification suites.

Each suite draws seeded random instances of one of the library's exact
identities, evaluates both sides through their independent code paths,
and emits one row per check with the inputs digested for traceability.
Instances are generated from ``SeedSequence((seed, salt, trial))`` so a
given seed always produces the same cases, including inside the
redraw loops that keep noise-free instances numerically invertible.

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
from .linalg import spd_stats
from .reporting import stable_digest

__all__ = ["Case", "SUITE_NAMES", "run_suite"]

SUITE_NAMES = (
    "gp-krr",
    "posterior-variance",
    "mmd-average-case",
    "bq-kq",
    "hsic-gp",
    "shrinkage-bayes",
)

_SALTS = {name: index + 1 for index, name in enumerate(SUITE_NAMES)}

_MC_DRAWS = 10_000

# Redraw gate for instances that will be solved without regularization.
# Stricter than the library's invertibility limit so that identity gaps
# stay far below the 1e-8 suite tolerance.
_GENERATOR_CONDITION_LIMIT = 1e8


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


def _case(case_id: str, payload, lhs: float, rhs: float, tolerance: float) -> Case:
    gap = abs(lhs - rhs)
    return Case(
        case_id=case_id,
        inputs_digest=stable_digest(payload),
        lhs=float(lhs),
        rhs=float(rhs),
        gap=float(gap),
        tolerance=float(tolerance),
        passed=bool(gap <= tolerance),
    )


def _rng(seed: int, salt: int, trial: int, attempt: int = 0):
    return np.random.default_rng(np.random.SeedSequence((seed, salt, trial, attempt)))


def _free_scale_kernel(rng) -> Kernel:
    """A kernel with length scales independent of the node layout."""
    family = int(rng.integers(0, 5))
    if family == 0:
        return SquaredExponential(gamma=float(rng.uniform(0.3, 1.5)))
    if family in (1, 2, 3):
        alpha = (0.5, 1.5, 2.5)[family - 1]
        return Matern(alpha=alpha, h=float(rng.uniform(0.3, 1.5)))
    return Polynomial(degree=int(rng.integers(1, 4)), c=float(rng.uniform(0.2, 2.0)))


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
        degree = int(rng.integers(1, 4))
        n = min(n, math.comb(d + degree, degree))
        kernel: Kernel = Polynomial(degree=degree, c=float(rng.uniform(0.2, 2.0)))
    else:
        separation = 0.25 / n ** (1.0 / d)
        scale = 2.0 * separation * float(rng.uniform(0.8, 1.6))
        if family == 0:
            kernel = SquaredExponential(gamma=scale)
        else:
            alpha = (0.5, 1.5, 2.5)[family - 1]
            kernel = Matern(alpha=alpha, h=scale)
    X = rng.uniform(0.0, 1.0, (n, d))
    return kernel, X


def _draw_invertible(
    seed: int,
    salt: int,
    trial: int,
    max_n: int,
    condition_limit: float = _GENERATOR_CONDITION_LIMIT,
):
    """Redraw until the instance's Gram matrix passes the conditioning gate."""
    for attempt in range(200):
        rng = _rng(seed, salt, trial, attempt)
        kernel, X = _interpolation_instance(rng, max_n)
        lam_min, _, cond = spd_stats(gram(kernel, X, X))
        if lam_min > 0 and cond <= condition_limit:
            return rng, kernel, X
    raise NumericalError(
        f"could not draw a well-conditioned instance for trial {trial}"
    )


# Queries where the noise-free posterior variance underflows make the
# standard-deviation identity meaningless (both sides are roundoff), so
# the generator keeps the variance a safe multiple of the prior variance.
_VARIANCE_FLOOR = 1e-6


def _draw_variance_instance(seed: int, salt: int, trial: int, max_n: int):
    """An invertible instance plus a query with non-degenerate variance.

    Polynomial node sets at full feature rank interpolate their whole
    function class, making the posterior variance identically zero; those
    instances (and near-node queries under smooth kernels) are redrawn.
    """
    for attempt in range(64):
        rng = _rng(seed, salt, trial, attempt)
        kernel, X = _interpolation_instance(rng, max_n)
        lam_min, _, cond = spd_stats(gram(kernel, X, X))
        if not (lam_min > 0 and cond <= _GENERATOR_CONDITION_LIMIT):
            continue
        d = X.shape[1]
        post = gp.condition(
            gp.GPPrior(kernel), Dataset(X, np.zeros(X.shape[0])), 0.0
        )
        for _ in range(50):
            x = rng.uniform(-0.25, 1.25, d)
            if bool(np.any(np.all(X == x[None, :], axis=1))):
                continue
            prior_var = float(gram(kernel, x[None, :], x[None, :])[0, 0])
            if gp.posterior_cov(post, x, x) >= _VARIANCE_FLOOR * prior_var:
                return rng, kernel, X, x
    raise NumericalError(
        f"could not draw a non-degenerate variance instance for trial {trial}"
    )


def _suite_gp_krr(seed: int, trials: int) -> list:
    salt = _SALTS["gp-krr"]
    cases = []
    for trial in range(trials):
        rng = _rng(seed, salt, trial)
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
        cases.append(
            _case(
                f"gp-krr-{trial:04d}",
                payload,
                float(gp_values[worst]),
                float(krr_values[worst]),
                1e-8,
            )
        )
    return cases


def _suite_posterior_variance(seed: int, trials: int) -> list:
    salt = _SALTS["posterior-variance"]
    cases = []
    for trial in range(trials):
        rng, kernel, X, x = _draw_variance_instance(seed, salt, trial, max_n=30)
        n = X.shape[0]
        Y = rng.normal(0.0, 1.0, n)
        noise = float(10.0 ** rng.uniform(-2.0, 0.5))
        data = Dataset(X, Y)
        payload = {"kernel": repr(kernel), "X": X, "x": x, "noise": noise}
        free = duality.verify_noise_free_identity(kernel, data, x)
        cases.append(
            _case(
                f"posterior-variance-{trial:04d}-noisefree",
                payload,
                free.lhs,
                free.rhs,
                1e-8,
            )
        )
        noisy = duality.verify_noisy_identity(kernel, data, noise, x)
        cases.append(
            _case(
                f"posterior-variance-{trial:04d}-noisy",
                payload,
                noisy.lhs,
                noisy.rhs,
                1e-8,
            )
        )
    return cases


def _random_probability_measure(rng, d: int, max_atoms: int):
    m = int(rng.integers(1, max_atoms + 1))
    atoms = rng.uniform(0.0, 1.0, (m, d))
    weights = rng.uniform(0.1, 1.0, m)
    return embeddings.DiscreteMeasure(atoms, weights / weights.sum())


def _suite_mmd_average_case(seed: int, trials: int) -> list:
    salt = _SALTS["mmd-average-case"]
    cases = []
    for trial in range(trials):
        rng = _rng(seed, salt, trial)
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
        report = embeddings.verify_average_case(
            kernel, P, Q, draws=_MC_DRAWS, seed=mc_seed
        )
        payload = {
            "kernel": repr(kernel),
            "P_atoms": P.atoms,
            "P_weights": P.weights,
            "Q_atoms": Q.atoms,
            "Q_weights": Q.weights,
        }
        cases.append(
            _case(
                f"mmd-average-case-{trial:04d}-exact",
                payload,
                report.mmd_squared,
                report.gp_variance,
                1e-10,
            )
        )
        cases.append(
            _case(
                f"mmd-average-case-{trial:04d}-mc",
                payload,
                report.mc_estimate,
                report.mmd_squared,
                5.0 * report.mc_se,
            )
        )
    return cases


def _suite_bq_kq(seed: int, trials: int) -> list:
    salt = _SALTS["bq-kq"]
    cases = []
    for trial in range(trials):
        # The mean agreement check runs at an absolute 1e-10, so these
        # instances get a much stricter conditioning gate than the rest.
        rng, kernel, X = _draw_invertible(
            seed, salt, trial, max_n=12, condition_limit=1e5
        )
        d = X.shape[1]
        target = _random_probability_measure(rng, d, 10)
        rule = quadrature.kq_weights(kernel, X, target, 0.0)
        payload = {
            "kernel": repr(kernel),
            "nodes": X,
            "target_atoms": target.atoms,
            "target_weights": target.weights,
        }
        identity = quadrature.verify_bq_kq_identity(rule)
        cases.append(
            _case(
                f"bq-kq-{trial:04d}-variance",
                payload,
                identity.lhs,
                identity.rhs,
                1e-8,
            )
        )
        f_values = rng.normal(0.0, 1.0, rule.n)
        mean, _ = quadrature.bq_posterior(rule, f_values, 0.0)
        cases.append(
            _case(
                f"bq-kq-{trial:04d}-mean",
                {**payload, "f": f_values},
                mean,
                float(rule.weights @ f_values),
                1e-10,
            )
        )
    return cases


def _hsic_kernel(rng) -> Kernel:
    family = int(rng.integers(0, 5))
    if family == 0:
        return SquaredExponential(gamma=float(rng.uniform(0.3, 1.5)))
    if family == 4:
        return BrownianDistance()
    alpha = (0.5, 1.5, 2.5)[family - 1]
    return Matern(alpha=alpha, h=float(rng.uniform(0.3, 1.5)))


def _suite_hsic_gp(seed: int, trials: int) -> list:
    salt = _SALTS["hsic-gp"]
    cases = []
    for trial in range(trials):
        rng = _rng(seed, salt, trial)
        kx = _hsic_kernel(rng)
        ky = _hsic_kernel(rng)
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
        empirical = hsic_empirical(kx, ky, sample)
        cases.append(
            _case(f"hsic-gp-{trial:04d}-exact", payload, exact, empirical, 1e-10)
        )
        mc_seed = int(rng.integers(0, 2**63))
        estimate, se = hsic_gp_monte_carlo(kx, ky, sample, _MC_DRAWS, mc_seed)
        cases.append(
            _case(f"hsic-gp-{trial:04d}-mc", payload, estimate, exact, 5.0 * se)
        )
    return cases


def _suite_shrinkage_bayes(seed: int, trials: int) -> list:
    salt = _SALTS["shrinkage-bayes"]
    cases = []
    for trial in range(trials):
        rng = _rng(seed, salt, trial)
        family = int(rng.integers(0, 4))
        if family == 0:
            kernel: Kernel = SquaredExponential(gamma=float(rng.uniform(0.3, 1.5)))
        else:
            alpha = (0.5, 1.5, 2.5)[family - 1]
            kernel = Matern(alpha=alpha, h=float(rng.uniform(0.3, 1.5)))
        d = int(rng.integers(1, 4))
        n = int(rng.integers(2, 21))
        X = rng.uniform(0.0, 1.0, (n, d))
        lam = float(10.0 ** rng.uniform(-3.0, 1.0))
        noise = n * lam
        shrunk = embeddings.skme(kernel, X, lam)
        direct = shrunk.at(X)
        eig = spectral.nystrom_eigensystem(kernel, X)
        power_gram = spectral.power_kernel(eig, 1.0)
        empirical_mean = embeddings.mean_embed(
            kernel, embeddings.DiscreteMeasure.uniform(X)
        ).at(X)
        through_bayes = np.array(
            [
                embeddings.bayes_kmean_posterior(
                    power_gram,
                    empirical_mean,
                    noise,
                    power_gram[i],
                    float(power_gram[i, i]),
                )[0]
                for i in range(n)
            ]
        )
        worst = int(np.argmax(np.abs(direct - through_bayes)))
        payload = {"kernel": repr(kernel), "X": X, "lam": lam}
        cases.append(
            _case(
                f"shrinkage-bayes-{trial:04d}",
                payload,
                float(direct[worst]),
                float(through_bayes[worst]),
                1e-8,
            )
        )
    return cases


_RUNNERS = {
    "gp-krr": _suite_gp_krr,
    "posterior-variance": _suite_posterior_variance,
    "mmd-average-case": _suite_mmd_average_case,
    "bq-kq": _suite_bq_kq,
    "hsic-gp": _suite_hsic_gp,
    "shrinkage-bayes": _suite_shrinkage_bayes,
}


def run_suite(name: str, seed: int, trials: int) -> list:
    """Run one suite, or every suite for ``name = "all"``."""
    if trials < 0:
        raise InputError("trials must be nonnegative")
    if name == "all":
        cases = []
        for suite in SUITE_NAMES:
            cases.extend(_RUNNERS[suite](seed, trials))
        return cases
    try:
        runner = _RUNNERS[name]
    except KeyError:
        known = ", ".join(SUITE_NAMES + ("all",))
        raise InputError(f"unknown suite {name!r}; known suites: {known}") from None
    return runner(seed, trials)
