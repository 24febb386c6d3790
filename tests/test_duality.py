"""Worst-case error of weighted rules and its link to posterior uncertainty."""

import math

import numpy as np
import pytest

import _oracles as oracles
from kernelbridge import gp
from kernelbridge.duality import (
    optimal_weights,
    verify_worst_case_identity,
    worst_case_error,
)
from kernelbridge.errors import InputError, PreconditionError
from kernelbridge.kernels import (
    Dataset,
    Matern,
    RepresenterFunction,
    SquaredExponential,
    eval as kernel_eval,
    gram,
)

KERNELS = [
    SquaredExponential(gamma=0.8),
    Matern(alpha=0.5, h=0.7),
    Matern(alpha=1.5, h=0.6),
    Matern(alpha=2.5, h=0.9),
]


def make_nodes(seed, n, d=1):
    rng = np.random.default_rng(seed)
    return rng.uniform(-1.0, 1.0, (n, d))


# ----------------------------------------------------------------------
# the worst-case error functional
# ----------------------------------------------------------------------


def test_reproducing_the_query_exactly_gives_zero_error():
    X = np.array([[0.0], [1.0]])
    assert worst_case_error(SquaredExponential(), X, [1.0, 0.0], [0.0]) == 0.0


def test_zero_weights_leave_the_full_kernel_diagonal():
    kernel = Matern(alpha=1.5, h=0.5)
    X = make_nodes(0, 4)
    x = np.array([0.3])
    expected = math.sqrt(kernel_eval(kernel, x, x))
    assert worst_case_error(kernel, X, np.zeros(4), x) == pytest.approx(
        expected, rel=1e-14
    )


def test_worst_case_error_is_invariant_under_node_permutations():
    kernel = SquaredExponential(gamma=0.6)
    X = make_nodes(1, 5, d=2)
    rng = np.random.default_rng(2)
    w = rng.normal(size=5)
    x = np.array([0.1, -0.4])
    base = worst_case_error(kernel, X, w, x)
    for _ in range(5):
        perm = rng.permutation(5)
        assert worst_case_error(kernel, X[perm], w[perm], x) == pytest.approx(
            base, abs=1e-12
        )


def test_the_supremum_is_attained_by_the_residual_witness():
    # every unit-norm expansion gives a lower bound on the worst-case error;
    # the normalized residual itself closes the gap
    kernel = Matern(alpha=2.5, h=0.8)
    X = make_nodes(3, 6)
    x = np.array([0.25])
    rng = np.random.default_rng(4)
    w = rng.normal(scale=0.5, size=6)
    wce = worst_case_error(kernel, X, w, x)

    centers = np.vstack([x[None, :], X])
    best_seen = 0.0
    for _ in range(200):
        coefficients = rng.normal(size=7)
        f = RepresenterFunction(kernel, centers, coefficients)
        norm = f.norm()
        if norm < 1e-12:
            continue
        achieved = abs(f(x) - float(w @ f.at(X))) / norm
        best_seen = max(best_seen, achieved)
        assert achieved <= wce + 1e-10
    assert best_seen <= wce + 1e-10

    witness = RepresenterFunction(kernel, centers, np.concatenate([[1.0], -w]))
    attained = abs(witness(x) - float(w @ witness.at(X))) / witness.norm()
    assert attained == pytest.approx(wce, abs=1e-6)


def test_optimal_error_never_grows_when_a_node_is_added():
    kernel = SquaredExponential(gamma=0.9)
    X = make_nodes(5, 4)
    x = np.array([0.4])
    small = worst_case_error(kernel, X, optimal_weights(kernel, X, x), x)
    bigger_set = np.vstack([X, [[-0.6]]])
    grown = worst_case_error(
        kernel, bigger_set, optimal_weights(kernel, bigger_set, x), x
    )
    assert grown <= small + 1e-10


def test_weight_count_must_match_the_node_count():
    with pytest.raises(InputError):
        worst_case_error(SquaredExponential(), np.zeros((3, 1)), [1.0, 2.0], [0.0])


# ----------------------------------------------------------------------
# identity between posterior spread and optimal worst-case error
# ----------------------------------------------------------------------


def test_noise_free_identity_collapses_at_a_node():
    kernel = SquaredExponential()
    data = Dataset(np.array([[0.0], [1.0]]), np.array([0.0, 0.0]))
    report = verify_worst_case_identity(kernel, data, 0.0, np.array([1.0]))
    assert report.lhs == pytest.approx(0.0, abs=1e-7)
    assert report.rhs == pytest.approx(0.0, abs=1e-7)


def test_noise_free_identity_single_node_closed_form():
    # with one node at 0 and k(0,1) = e^{-1}, both sides are sqrt(1 - e^{-2})
    kernel = SquaredExponential(gamma=1.0)
    data = Dataset(np.array([[0.0]]), np.array([0.0]))
    report = verify_worst_case_identity(kernel, data, 0.0, np.array([1.0]))
    expected = math.sqrt(1.0 - math.exp(-2.0))
    assert report.lhs == pytest.approx(expected, rel=1e-10)
    assert report.gap <= 1e-10


@pytest.mark.parametrize("noise", [0.0, 0.3])
def test_worst_case_identity_on_no_nodes_is_the_prior_sd(noise):
    kernel = Matern(alpha=2.5, h=0.9)
    x = np.array([0.4, -0.2])
    empty = Dataset(np.zeros((0, 2)), np.zeros(0))
    assert optimal_weights(kernel, empty.X, x, noise).shape == (0,)
    report = verify_worst_case_identity(kernel, empty, noise, x)
    expected = math.sqrt(kernel_eval(kernel, x, x) + noise)
    assert report.lhs == report.rhs == expected
    assert report.gap == 0.0


@pytest.mark.parametrize("kernel", KERNELS)
def test_noise_free_identity_holds_for_random_instances(kernel):
    rng = np.random.default_rng(6)
    for trial in range(5):
        X = rng.uniform(-1.0, 1.0, (5, 2))
        data = Dataset(X, rng.normal(size=5))
        x = rng.uniform(-1.0, 1.0, 2)
        report = verify_worst_case_identity(kernel, data, 0.0, x)
        assert report.gap <= 1e-8
        assert report.gap == abs(report.lhs - report.rhs)


@pytest.mark.parametrize("kernel", KERNELS)
def test_noisy_identity_holds_for_random_instances(kernel):
    rng = np.random.default_rng(7)
    for trial in range(5):
        X = rng.uniform(-1.0, 1.0, (6, 1))
        data = Dataset(X, rng.normal(size=6))
        x = rng.uniform(1.001, 1.4, 1)
        report = verify_worst_case_identity(kernel, data, 0.3, x)
        assert report.gap <= 1e-8


def test_noisy_identity_approaches_the_noise_free_one_as_noise_vanishes():
    kernel = Matern(alpha=1.5, h=0.7)
    rng = np.random.default_rng(8)
    X = rng.uniform(-1.0, 1.0, (5, 1))
    data = Dataset(X, rng.normal(size=5))
    x = np.array([1.2])
    noisy = verify_worst_case_identity(kernel, data, 1e-10, x)
    clean = verify_worst_case_identity(kernel, data, 0.0, x)
    assert noisy.lhs == pytest.approx(clean.lhs, abs=1e-5)


def test_noisy_identity_refuses_a_query_at_a_node():
    kernel = SquaredExponential()
    X = np.array([[0.0], [0.7]])
    data = Dataset(X, np.array([1.0, -1.0]))
    with pytest.raises(PreconditionError):
        verify_worst_case_identity(kernel, data, 0.1, np.array([0.7]))


@pytest.mark.parametrize("noise", [-0.1, math.nan])
def test_worst_case_identity_rejects_negative_or_nan_noise(noise):
    data = Dataset(np.array([[0.0]]), np.array([1.0]))
    with pytest.raises(InputError):
        verify_worst_case_identity(SquaredExponential(), data, noise, np.array([1.0]))


# ----------------------------------------------------------------------
# the deterministic error bound
# ----------------------------------------------------------------------


def error_bound_sides(kernel, X, f, x):
    """``(mean(x) - f(x))^2`` and ``||f||^2 var(x)`` for the noise-free
    interpolant of ``f``'s values at the nodes."""
    post = gp.condition(kernel, Dataset(X, f.at(X)), 0.0)
    residual = gp.posterior_mean(post, x) - f(x)
    return residual * residual, f.norm() ** 2 * gp.posterior_cov(post, x, x)


def test_error_bound_is_trivial_for_the_zero_function():
    kernel = SquaredExponential(gamma=0.7)
    X = make_nodes(9, 4)
    f = RepresenterFunction(kernel, X, np.zeros(4))
    lhs, rhs = error_bound_sides(kernel, X, f, np.array([0.5]))
    assert lhs <= rhs + 1e-10
    assert lhs == pytest.approx(0.0, abs=1e-12)


def test_error_bound_is_tight_at_an_interpolation_node():
    kernel = Matern(alpha=2.5, h=0.6)
    X = make_nodes(10, 5)
    rng = np.random.default_rng(11)
    f = RepresenterFunction(kernel, make_nodes(12, 3), rng.normal(size=3))
    lhs, rhs = error_bound_sides(kernel, X, f, X[0])
    assert lhs <= rhs + 1e-10
    assert lhs <= 1e-10


@pytest.mark.parametrize("kernel", KERNELS)
def test_error_bound_holds_for_random_members_of_the_space(kernel):
    rng = np.random.default_rng(13)
    for trial in range(25):
        X = rng.uniform(-1.0, 1.0, (5, 1))
        centers = rng.uniform(-1.0, 1.0, (4, 1))
        f = RepresenterFunction(kernel, centers, rng.normal(size=4))
        x = rng.uniform(-1.0, 1.0, 1)
        lhs, rhs = error_bound_sides(kernel, X, f, x)
        assert lhs <= rhs + 1e-10, (kernel, trial)


# ----------------------------------------------------------------------
# the regularized weight objective
# ----------------------------------------------------------------------


def test_huge_noise_shrinks_the_optimal_weights():
    kernel = SquaredExponential()
    X = make_nodes(14, 5)
    x = np.array([0.2])
    noise = 1e6
    wv = optimal_weights(kernel, X, x, noise_variance=noise)
    k_x = gram(kernel, X, x[None, :])[:, 0]
    assert np.linalg.norm(wv) <= np.linalg.norm(k_x) / noise


def test_single_node_weight_closed_form():
    kernel = Matern(alpha=0.5, h=1.0)
    X = np.array([[0.0]])
    x = np.array([0.8])
    noise = 0.5
    wv = optimal_weights(kernel, X, x, noise_variance=noise)
    k00 = kernel_eval(kernel, 0.0, 0.0)
    k0x = kernel_eval(kernel, 0.0, 0.8)
    assert wv[0] == pytest.approx(k0x / (k00 + noise), rel=1e-12)


@pytest.mark.parametrize("kernel", KERNELS)
def test_regularized_weights_minimize_the_penalized_error(kernel):
    # the objective is wce(w)^2 + noise ||w||^2; at the optimal weights it
    # is the posterior variance under that noise
    rng = np.random.default_rng(15)
    X = rng.uniform(-1.0, 1.0, (6, 1))
    x = rng.uniform(-1.0, 1.0, 1)
    noise = 0.2
    wv = optimal_weights(kernel, X, x, noise_variance=noise)

    def objective(w):
        return oracles.weight_objective(kernel, X, x, noise, w)

    base = objective(wv)
    K = gram(kernel, X, X)
    k_x = gram(kernel, X, x[None, :])[:, 0]
    gradient = 2.0 * ((K + noise * np.eye(6)) @ wv) - 2.0 * k_x
    assert np.linalg.norm(gradient) <= 1e-8
    directions = np.random.default_rng(3).standard_normal((100, 6))
    for u in directions / np.linalg.norm(directions, axis=1, keepdims=True):
        for eps in (1e-2, -1e-2, 1e-3, -1e-3):
            assert objective(wv + eps * u) >= base
    library = worst_case_error(kernel, X, wv, x) ** 2 + noise * float(wv @ wv)
    assert library == pytest.approx(base, rel=1e-10)
    post = gp.condition(kernel, Dataset(X, np.zeros(6)), noise)
    assert gp.posterior_cov(post, x, x) == pytest.approx(base, rel=1e-12)
