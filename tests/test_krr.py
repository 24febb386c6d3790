"""Regularized and interpolating kernel regression and norms."""

import math

import numpy as np
import pytest

import _oracles as oracles
from kernelbridge.errors import InputError, NumericalError
from kernelbridge.gp import condition, posterior_mean, posterior_mean_at
from kernelbridge.kernels import (
    BrownianDistance,
    Dataset,
    Matern,
    Polynomial,
    SquaredExponential,
    RepresenterFunction,
    eval as kernel_eval,
    gram,
)
from kernelbridge.krr import fit_krr

KERNELS = [
    SquaredExponential(gamma=0.8),
    Matern(alpha=0.5, h=0.7),
    Matern(alpha=1.5, h=0.5),
    Matern(alpha=2.5, h=1.0),
    Polynomial(degree=2, c=1.0),
]


def make_data(seed, n, d=1):
    rng = np.random.default_rng(seed)
    X = rng.uniform(-1.0, 1.0, (n, d))
    Y = np.sin(3.0 * X[:, 0]) + 0.1 * rng.normal(size=n)
    return Dataset(X, Y)


# ----------------------------------------------------------------------
# scalar and limiting cases
# ----------------------------------------------------------------------


def test_single_point_fit_divides_by_the_regularized_kernel_value():
    # (k + n*lambda) alpha = y with n = 1, k(0,0) = 1, lambda = 1 gives 1/2
    data = Dataset(np.array([[0.0]]), np.array([1.0]))
    estimator = fit_krr(SquaredExponential(gamma=1.0), data, lam=1.0)
    np.testing.assert_allclose(estimator.coefficients, [0.5], rtol=1e-14)
    assert estimator(np.array([0.0])) == pytest.approx(0.5, rel=1e-14)


def test_heavy_regularization_shrinks_the_fit_towards_zero():
    data = make_data(0, 10)
    estimator = fit_krr(SquaredExponential(gamma=0.8), data, lam=1e6)
    values = estimator.at(data.X)
    assert np.abs(values).max() <= 1e-3


def test_interpolant_reproduces_the_observations():
    data = make_data(1, 9)
    estimator = fit_krr(Matern(alpha=2.5, h=0.9), data, 0.0)
    np.testing.assert_allclose(estimator.at(data.X), data.Y, atol=1e-8)


def test_single_point_interpolant_norm_is_the_value_over_the_root_diagonal():
    kernel = Matern(alpha=1.5, h=0.4)
    data = Dataset(np.array([[0.3]]), np.array([-2.0]))
    estimator = fit_krr(kernel, data, 0.0)
    k00 = kernel_eval(kernel, 0.3, 0.3)
    assert estimator.norm() == pytest.approx(2.0 / math.sqrt(k00), rel=1e-12)


def test_interpolating_conflicting_duplicates_fails():
    data = Dataset(np.array([[0.0], [0.0]]), np.array([0.0, 1.0]))
    with pytest.raises(NumericalError):
        fit_krr(SquaredExponential(), data, 0.0)


@pytest.mark.parametrize("lam", [-1.0, math.nan])
def test_nonpositive_regularization_is_rejected(lam):
    with pytest.raises(InputError):
        fit_krr(SquaredExponential(), make_data(2, 4), lam)


def test_fitting_requires_data():
    # A dataset carries one output per input, so the fit always has targets.
    with pytest.raises(InputError, match="2 outputs for 3 inputs"):
        fit_krr(SquaredExponential(), Dataset(np.zeros((3, 1)), np.zeros(2)), 0.1)
    # No observations at all is n = 0: the expansion with no centers.
    f = fit_krr(SquaredExponential(), Dataset(np.zeros((0, 1)), np.zeros(0)), 0.1)
    assert f.centers.shape == (0, 1)
    np.testing.assert_array_equal(f.at([[0.3], [-2.0]]), [0.0, 0.0], strict=True)
    assert f(0.3) == 0.0
    assert f.norm() == 0.0


@pytest.mark.parametrize("lam", [0.0, 0.1])
def test_an_empty_dataset_gives_zero_on_both_sides(lam):
    kernel = Matern(alpha=1.5, h=0.5)
    empty = Dataset(np.zeros((0, 2)), np.zeros(0))
    queries = np.array([[0.1, 0.2], [-0.7, 0.4], [3.0, 0.0]])
    ridge = fit_krr(kernel, empty, lam).at(queries)
    post = condition(kernel, empty, empty.n * lam)
    mean = posterior_mean_at(post, queries)
    np.testing.assert_array_equal(ridge, np.zeros(3), strict=True)
    np.testing.assert_array_equal(mean, np.zeros(3), strict=True)


# ----------------------------------------------------------------------
# optimality of the fitted coefficients
# ----------------------------------------------------------------------


def test_fitted_coefficients_beat_nearby_expansions_on_the_objective():
    kernel = Matern(alpha=1.5, h=0.6)
    data = make_data(3, 8)
    lam = 0.05
    estimator = fit_krr(kernel, data, lam)
    best = oracles.krr_objective(kernel, data.X, data.Y, lam, estimator.coefficients)
    rng = np.random.default_rng(4)
    for _ in range(50):
        direction = rng.normal(size=8)
        direction /= np.linalg.norm(direction)
        nearby = estimator.coefficients + 1e-3 * direction
        assert oracles.krr_objective(kernel, data.X, data.Y, lam, nearby) >= best


def test_interpolant_has_the_smallest_norm_among_interpolants():
    # adding any kernel section that vanishes on the nodes leaves the values
    # fixed but can only grow the norm
    kernel = SquaredExponential(gamma=0.7)
    data = make_data(5, 6)
    estimator = fit_krr(kernel, data, 0.0)
    base = estimator.norm() ** 2

    rng = np.random.default_rng(6)
    for _ in range(20):
        z = rng.uniform(-1.0, 1.0, (1, 1))
        # interpolate the section k(., z) on the nodes, then subtract
        section_values = gram(kernel, data.X, z)[:, 0]
        beta = np.linalg.solve(gram(kernel, data.X, data.X), section_values)
        centers = np.vstack([data.X, z])
        coefficients = np.concatenate([estimator.coefficients - beta, [1.0]])
        competitor = oracles.expansion_norm_squared(kernel, centers, coefficients)
        assert competitor >= base - 1e-10


def test_the_norm_of_a_fit_matches_the_quadratic_form_oracle():
    kernel = Matern(alpha=0.5, h=0.8)
    data = make_data(7, 7)
    estimator = fit_krr(kernel, data, 0.02)
    by_oracle = oracles.expansion_norm_squared(
        kernel, data.X, estimator.coefficients
    )
    assert estimator.norm() == pytest.approx(math.sqrt(by_oracle), rel=1e-10)


def test_the_norm_of_the_zero_expansion_is_zero():
    zero = RepresenterFunction(SquaredExponential(), np.zeros((2, 1)), np.zeros(2))
    assert zero.norm() == 0.0


def test_a_fit_is_the_representer_function_of_its_coefficients():
    kernel = Matern(alpha=1.5, h=0.6)
    data = make_data(11, 9)
    for fit in (fit_krr(kernel, data, 0.05), fit_krr(kernel, data, 0.0)):
        assert type(fit) is RepresenterFunction
        assert fit.kernel is kernel
        np.testing.assert_array_equal(fit.centers, data.X, strict=True)


# ----------------------------------------------------------------------
# agreement with the Gaussian process view
# ----------------------------------------------------------------------


@pytest.mark.parametrize("kernel", KERNELS)
def test_ridge_fit_equals_the_posterior_mean_with_matched_noise(kernel):
    rng = np.random.default_rng(8)
    data = make_data(9, 12, d=2)
    lam = 0.03
    estimator = fit_krr(kernel, data, lam)
    post = condition(kernel, data, noise_variance=12 * lam)
    queries = rng.uniform(-1.0, 1.0, (20, 2))
    for q in queries:
        assert estimator(q) == pytest.approx(
            posterior_mean(post, q), abs=1e-8
        )


def test_the_equivalence_survives_duplicated_inputs():
    X = np.array([[0.2], [0.2], [0.7]])
    Y = np.array([1.0, 0.0, -1.0])
    data = Dataset(X, Y)
    lam = 0.1
    estimator = fit_krr(SquaredExponential(), data, lam)
    post = condition(SquaredExponential(), data, noise_variance=3 * lam)
    for q in np.linspace(-0.5, 1.0, 7):
        assert estimator(np.array([q])) == pytest.approx(
            posterior_mean(post, np.array([q])), abs=1e-8
        )


def test_the_interpolant_equals_the_noise_free_posterior_mean():
    kernel = BrownianDistance()
    rng = np.random.default_rng(10)
    X = rng.uniform(0.1, 2.0, (6, 1))
    data = Dataset(X, rng.normal(size=6))
    estimator = fit_krr(kernel, data, 0.0)
    post = condition(kernel, data, noise_variance=0.0)
    for q in rng.uniform(0.1, 2.0, (10, 1)):
        assert estimator(q) == pytest.approx(
            posterior_mean(post, q), abs=1e-8
        )
