"""Discrete measures, kernel mean embeddings, MMD, shrinkage estimation."""

import math
from dataclasses import asdict

import numpy as np
import pytest

import _oracles as oracles
from kernelbridge.embeddings import (
    DiscreteMeasure,
    _signed_union,
    bayes_kmean_posterior,
    mean_embed,
    mmd,
    skme,
    verify_average_case,
)
from kernelbridge.errors import InputError, NumericalError
from kernelbridge.kernels import (
    Matern,
    Polynomial,
    RepresenterFunction,
    SquaredExponential,
    eval as kernel_eval,
    gram,
)
from kernelbridge.spectral import nystrom_eigensystem, power_kernel


def random_measure(seed, m, d=1, signed=False):
    rng = np.random.default_rng(seed)
    atoms = rng.uniform(-1.0, 1.0, (m, d))
    if signed:
        weights = rng.normal(size=m)
    else:
        weights = rng.uniform(0.1, 1.0, m)
        weights /= weights.sum()
    return DiscreteMeasure(atoms, weights)


# ----------------------------------------------------------------------
# measures
# ----------------------------------------------------------------------


def test_point_mass_and_uniform_constructors():
    p = DiscreteMeasure([[0.5]], [1.0])
    assert p.m == 1
    np.testing.assert_array_equal(p.weights, [1.0])
    u = DiscreteMeasure.uniform(np.array([[0.0], [1.0], [2.0], [3.0]]))
    np.testing.assert_array_equal(u.weights, np.full(4, 0.25))


def test_measure_validation():
    with pytest.raises(InputError):
        DiscreteMeasure(np.array([[0.0], [1.0]]), [1.0])
    with pytest.raises(InputError):
        DiscreteMeasure(np.array([[np.nan]]), [1.0])
    with pytest.raises(InputError):
        DiscreteMeasure(np.array([[0.0]]), [np.inf])


# ----------------------------------------------------------------------
# embeddings
# ----------------------------------------------------------------------


def test_point_mass_embedding_is_a_kernel_section():
    kernel = Matern(alpha=1.5, h=0.6)
    embedding = mean_embed(kernel, DiscreteMeasure([[0.3]], [1.0]))
    for q in (-0.5, 0.0, 0.8):
        assert embedding(np.array([q])) == pytest.approx(
            kernel_eval(kernel, 0.3, q), rel=1e-14
        )


def test_duplicated_atoms_act_through_their_total_weight():
    kernel = SquaredExponential(gamma=0.8)
    split = mean_embed(
        kernel, DiscreteMeasure(np.array([[0.4], [0.4]]), [0.3, 0.2])
    )
    merged = mean_embed(kernel, DiscreteMeasure(np.array([[0.4]]), [0.5]))
    grid = np.linspace(-1.0, 1.0, 9).reshape(-1, 1)
    np.testing.assert_allclose(split.at(grid), merged.at(grid), rtol=1e-12)


def test_embedding_values_match_the_weighted_sum_oracle():
    kernel = Matern(alpha=2.5, h=0.9)
    measure = random_measure(0, 5, d=2, signed=True)
    embedding = mean_embed(kernel, measure)
    rng = np.random.default_rng(1)
    for _ in range(6):
        q = rng.uniform(-1.0, 1.0, 2)
        direct = sum(
            w * oracles.kernel_value(kernel, a, q)
            for a, w in zip(measure.atoms, measure.weights)
        )
        assert embedding(q) == pytest.approx(direct, rel=1e-12)


# ----------------------------------------------------------------------
# maximum mean discrepancy
# ----------------------------------------------------------------------


def test_mmd_between_a_measure_and_its_copy_is_exactly_zero():
    kernel = SquaredExponential(gamma=0.7)
    P = random_measure(2, 6, d=2)
    Q = DiscreteMeasure(P.atoms.copy(), P.weights.copy())
    assert mmd(kernel, P, Q) == 0.0


def test_mmd_between_point_masses_has_a_closed_form():
    kernel = Matern(alpha=0.5, h=0.8)
    x, y = np.array([0.1]), np.array([0.9])
    value = mmd(kernel, DiscreteMeasure([x], [1.0]), DiscreteMeasure([y], [1.0]))
    expected = math.sqrt(
        kernel_eval(kernel, x, x)
        - 2.0 * kernel_eval(kernel, x, y)
        + kernel_eval(kernel, y, y)
    )
    assert value == pytest.approx(expected, rel=1e-12)


def test_mmd_matches_the_three_term_loop_oracle():
    kernel = SquaredExponential(gamma=0.9)
    P = random_measure(3, 4, d=2)
    Q = random_measure(4, 6, d=2)
    expected = oracles.mmd_squared_loops(
        kernel, P.atoms, P.weights, Q.atoms, Q.weights
    )
    assert mmd(kernel, P, Q) ** 2 == pytest.approx(expected, rel=1e-10)


def test_mmd_is_symmetric_and_satisfies_the_triangle_inequality():
    kernel = Matern(alpha=1.5, h=0.7)
    P = random_measure(5, 4)
    Q = random_measure(6, 5)
    R = random_measure(7, 3)
    assert mmd(kernel, P, Q) == pytest.approx(mmd(kernel, Q, P), abs=1e-12)
    assert mmd(kernel, P, R) <= mmd(kernel, P, Q) + mmd(kernel, Q, R) + 1e-10


@pytest.mark.parametrize("signed", [False, True])
def test_mmd_is_the_norm_of_the_signed_union(signed):
    kernel = Matern(alpha=2.5, h=0.7)
    P = random_measure(21, 7, d=2, signed=signed)
    Q = random_measure(22, 5, d=2, signed=signed)
    atoms, coeffs = _signed_union(P, Q)
    expected = RepresenterFunction(kernel, atoms, coeffs).norm()
    assert mmd(kernel, P, Q).hex() == expected.hex()
    # ... which is the square root of the quadratic form on the union, bit for bit.
    quadratic_form = float(coeffs @ gram(kernel, atoms, atoms) @ coeffs)
    assert expected.hex() == math.sqrt(quadratic_form).hex()


def test_an_mmd_that_is_not_finite_raises():
    # (x y)^3 overflows at these atoms, and the quadratic form turns inf into nan.
    P = DiscreteMeasure.uniform([[1e120]])
    Q = DiscreteMeasure.uniform([[2e120]])
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NumericalError, match="^squared RKHS norm evaluated to nan$"):
            mmd(Polynomial(degree=3), P, Q)


def test_mmd_rejects_measures_in_different_dimensions():
    with pytest.raises(InputError):
        mmd(
            SquaredExponential(),
            random_measure(8, 3, d=1),
            random_measure(9, 3, d=2),
        )


# ----------------------------------------------------------------------
# the average-case identity
# ----------------------------------------------------------------------


def test_identical_measures_give_an_exact_zero_report():
    kernel = SquaredExponential(gamma=0.8)
    P = random_measure(10, 5)
    Q = DiscreteMeasure(P.atoms.copy(), P.weights.copy())
    report = verify_average_case(kernel, P, Q, draws=100, seed=0)
    assert report.mmd_squared == pytest.approx(0.0, abs=1e-15)
    assert report.gp_variance == 0.0
    assert report.mc_estimate == 0.0
    assert report.gap == report.mmd_squared


def test_two_empty_measures_give_an_all_zero_report():
    empty = DiscreteMeasure(np.zeros((0, 2)), np.zeros(0))
    report = verify_average_case(SquaredExponential(), empty, empty, draws=50)
    assert asdict(report) == {
        "mmd_squared": 0.0,
        "gp_variance": 0.0,
        "gap": 0.0,
        "mc_estimate": 0.0,
        "mc_se": 0.0,
    }


def test_two_point_report_matches_the_closed_form():
    kernel = Matern(alpha=2.5, h=1.0)
    x, y = np.array([0.2]), np.array([0.7])
    report = verify_average_case(
        kernel,
        DiscreteMeasure([x], [1.0]),
        DiscreteMeasure([y], [1.0]),
        draws=40_000,
        seed=1,
    )
    expected = (
        kernel_eval(kernel, x, x)
        - 2.0 * kernel_eval(kernel, x, y)
        + kernel_eval(kernel, y, y)
    )
    assert report.mmd_squared == pytest.approx(expected, rel=1e-12)
    assert report.gap <= 1e-10
    assert abs(report.mc_estimate - report.mmd_squared) <= 5.0 * report.mc_se


def test_average_case_reports_agree_for_random_signed_measures():
    kernel = SquaredExponential(gamma=0.6)
    for seed in range(5):
        P = random_measure(20 + seed, 4, d=2, signed=True)
        Q = random_measure(40 + seed, 5, d=2, signed=True)
        report = verify_average_case(kernel, P, Q, draws=10_000, seed=seed)
        assert report.gap <= 1e-10
        assert abs(report.mc_estimate - report.mmd_squared) <= 5.0 * report.mc_se


def test_the_squared_scalar_has_twice_the_squared_variance():
    # c^T f is N(0, v) with v = c^T K_Z c, so its square has variance 2 v^2,
    # the spread the verify suite's tolerance uses; over 200000 draws the
    # sample standard error lands within 1% of it on seeds 0-4.
    P = random_measure(60, 4, d=2, signed=True)
    Q = random_measure(61, 3, d=2, signed=True)
    draws = 200_000
    report = verify_average_case(SquaredExponential(gamma=0.6), P, Q, draws=draws)
    spread = np.sqrt(2.0 * report.gp_variance**2 / draws)
    assert report.mc_se == pytest.approx(spread, rel=0.05)


def test_average_case_check_is_deterministic_in_the_seed():
    kernel = Matern(alpha=1.5, h=0.9)
    P = random_measure(11, 3)
    Q = random_measure(12, 4)
    a = verify_average_case(kernel, P, Q, draws=500, seed=7)
    b = verify_average_case(kernel, P, Q, draws=500, seed=7)
    assert asdict(a) == asdict(b)
    c = verify_average_case(kernel, P, Q, draws=500, seed=8)
    assert c.mc_estimate != a.mc_estimate


def test_average_case_check_needs_at_least_two_draws():
    with pytest.raises(InputError):
        verify_average_case(
            SquaredExponential(),
            random_measure(13, 2),
            random_measure(14, 2),
            draws=1,
        )


@pytest.mark.parametrize(
    "draws,message",
    [
        (10.7, "^sample count must be an integer$"),
        ("10", "^sample count must be an integer$"),
        (True, "^sample count must be an integer$"),
        (-3, "^sample count must be nonnegative$"),
        (1, "^the Monte-Carlo check needs at least 2 draws$"),
    ],
)
def test_average_case_draws_are_a_sample_count_of_at_least_two(draws, message):
    P, Q = random_measure(13, 2), random_measure(14, 2)
    with pytest.raises(InputError, match=message):
        verify_average_case(SquaredExponential(), P, Q, draws=draws)
    ten = verify_average_case(SquaredExponential(), P, Q, draws=np.int64(10), seed=3)
    assert ten == verify_average_case(SquaredExponential(), P, Q, draws=10, seed=3)


# ----------------------------------------------------------------------
# shrinkage estimation of the mean embedding
# ----------------------------------------------------------------------


def test_vanishing_regularization_recovers_the_empirical_embedding():
    kernel = SquaredExponential(gamma=0.9)
    rng = np.random.default_rng(15)
    X = rng.uniform(-1.0, 1.0, (6, 1))
    estimator = skme(kernel, X, lam=1e-12)
    empirical = mean_embed(kernel, DiscreteMeasure.uniform(X))
    gap = np.abs(estimator.at(X) - empirical.at(X)).max()
    assert gap <= 1e-6


def test_heavy_regularization_shrinks_the_embedding_to_zero():
    kernel = SquaredExponential(gamma=0.9)
    rng = np.random.default_rng(16)
    X = rng.uniform(-1.0, 1.0, (5, 1))
    estimator = skme(kernel, X, lam=1e6)
    assert np.abs(estimator.at(X)).max() <= 1e-5


def test_shrinkage_weights_minimize_the_penalized_distance():
    kernel = Matern(alpha=1.5, h=0.7)
    rng = np.random.default_rng(17)
    X = rng.uniform(-1.0, 1.0, (6, 1))
    lam = 0.05
    estimator = skme(kernel, X, lam)
    w_star = estimator.coefficients
    base = oracles.skme_objective(kernel, X, lam, w_star)
    for _ in range(50):
        direction = rng.normal(size=6)
        direction /= np.linalg.norm(direction)
        for eps in (1e-2, 1e-3):
            nearby = w_star + eps * direction
            assert oracles.skme_objective(kernel, X, lam, nearby) >= base


def test_shrinkage_estimator_validates_its_inputs():
    with pytest.raises(InputError):
        skme(SquaredExponential(), np.zeros((0, 1)), 0.1)
    with pytest.raises(InputError):
        skme(SquaredExponential(), np.zeros((3, 1)), 0.0)
    with pytest.raises(InputError):
        skme(SquaredExponential(), np.zeros((3, 1)), -1.0)


# ----------------------------------------------------------------------
# the GP view of shrinkage
# ----------------------------------------------------------------------


def test_undamped_posterior_mean_reproduces_the_shrinkage_estimator():
    kernel = SquaredExponential(gamma=0.8)
    rng = np.random.default_rng(18)
    X = rng.uniform(-1.0, 1.0, (7, 1))
    n, lam = 7, 0.04
    estimator = skme(kernel, X, lam)

    eig = nystrom_eigensystem(kernel, X)
    Kt = power_kernel(eig, 1.0)
    mu = gram(kernel, X, X) @ np.full(n, 1.0 / n)
    means = bayes_kmean_posterior(Kt, mu, n * lam)
    assert means.shape == (n,)
    np.testing.assert_allclose(means, estimator.at(X), rtol=0.0, atol=1e-8)


def test_huge_observation_noise_returns_the_prior():
    kernel = Matern(alpha=2.5, h=0.8)
    rng = np.random.default_rng(19)
    X = rng.uniform(-1.0, 1.0, (5, 1))
    K = gram(kernel, X, X)
    mu = K @ np.full(5, 0.2)
    means = bayes_kmean_posterior(K, mu, 1e12)
    assert np.all(np.abs(means) <= 1e-8)


def test_posterior_validates_shapes_and_noise():
    K = np.eye(3)
    mu = np.zeros(3)
    with pytest.raises(InputError):
        bayes_kmean_posterior(K, mu, 0.0)
    with pytest.raises(InputError):
        bayes_kmean_posterior(np.zeros((3, 2)), mu, 0.1)
    with pytest.raises(InputError):
        bayes_kmean_posterior(K, np.zeros(2), 0.1)


def test_posterior_rejects_a_non_finite_empirical_mean():
    with pytest.raises(InputError, match="must be finite"):
        bayes_kmean_posterior(np.eye(2), [np.nan, 0.0], 0.1)


def test_posterior_rejects_a_non_finite_power_gram():
    with pytest.raises(InputError, match="power_gram must be finite"):
        bayes_kmean_posterior(np.array([[np.inf, 0.0], [0.0, 1.0]]), [0.0, 0.0], 0.1)
