"""Weighted eigensystems, truncated series, damped power kernels, sampling."""

import numpy as np
import pytest

from kernelbridge.errors import InputError
from kernelbridge.kernels import (
    BrownianDistance,
    KroneckerDelta,
    Matern,
    Polynomial,
    SquaredExponential,
    Sum,
    gram,
)
from kernelbridge.spectral import (
    hs_inclusion_diagnostic,
    kl_sample,
    mercer_kernel_eval,
    nystrom_eigensystem,
    power_kernel,
)

KERNELS = [
    SquaredExponential(gamma=0.8),
    Matern(alpha=0.5, h=0.7),
    Matern(alpha=1.5, h=0.5),
    Matern(alpha=2.5, h=1.1),
    Polynomial(degree=2, c=0.5),
    KroneckerDelta(scale=1.0),
    Sum(SquaredExponential(gamma=1.0), Matern(alpha=0.5, h=0.9)),
]


def make_nodes(seed, n, d=1):
    rng = np.random.default_rng(seed)
    return rng.uniform(-1.0, 1.0, (n, d))


def weight_matrix(eig):
    return np.diag(eig.node_weights)


# ----------------------------------------------------------------------
# eigensystem construction
# ----------------------------------------------------------------------


@pytest.mark.parametrize("kernel", KERNELS)
@pytest.mark.parametrize("seed,n,d", [(0, 8, 1), (1, 25, 2), (2, 50, 1)])
def test_eigenfunctions_are_orthonormal_and_reconstruct_the_gram(kernel, seed, n, d):
    nodes = make_nodes(seed, n, d)
    eig = nystrom_eigensystem(kernel, nodes)
    phi = eig.eigenfunctions_at_nodes
    W = weight_matrix(eig)
    np.testing.assert_allclose(phi.T @ W @ phi, np.eye(n), atol=1e-8)
    np.testing.assert_allclose(
        (phi * eig.eigenvalues[None, :]) @ phi.T,
        gram(kernel, nodes, nodes),
        atol=1e-8,
    )
    assert np.all(np.diff(eig.eigenvalues) <= 0.0)
    assert eig.eigenvalues.min() >= 0.0


def test_white_kernel_spectrum_is_flat_at_one_over_n():
    eig = nystrom_eigensystem(KroneckerDelta(scale=1.0), make_nodes(3, 6))
    np.testing.assert_allclose(eig.eigenvalues, np.full(6, 1.0 / 6.0), rtol=1e-12)


def test_linear_kernel_in_one_dimension_is_rank_one():
    nodes = make_nodes(4, 7)
    eig = nystrom_eigensystem(Polynomial(degree=1, c=0.0), nodes)
    expected_top = float(np.sum(eig.node_weights * nodes[:, 0] ** 2))
    assert eig.eigenvalues[0] == pytest.approx(expected_top, rel=1e-12)
    assert np.abs(eig.eigenvalues[1:]).max() <= 1e-10


def test_node_weights_are_normalized_so_scaling_changes_nothing():
    nodes = make_nodes(5, 3)
    kernel = Matern(alpha=1.5, h=0.8)
    uniform = nystrom_eigensystem(kernel, nodes)
    scaled = nystrom_eigensystem(kernel, nodes, node_weights=[2.0, 2.0, 2.0])
    np.testing.assert_array_equal(uniform.node_weights, scaled.node_weights)
    np.testing.assert_array_equal(uniform.eigenvalues, scaled.eigenvalues)
    np.testing.assert_array_equal(
        uniform.eigenfunctions_at_nodes, scaled.eigenfunctions_at_nodes
    )


def test_smooth_kernel_spectrum_frozen_head_and_fast_decay():
    nodes = np.linspace(0.0, 1.0, 20).reshape(-1, 1)
    eig = nystrom_eigensystem(SquaredExponential(gamma=0.5), nodes)
    assert eig.eigenvalues[0] == pytest.approx(0.6331713866936789, rel=1e-10)
    assert eig.eigenvalues[9] / eig.eigenvalues[0] <= 1e-6


def test_eigensystem_rejects_bad_nodes_and_weights():
    with pytest.raises(InputError):
        nystrom_eigensystem(SquaredExponential(), np.zeros((0, 1)))
    with pytest.raises(InputError):
        nystrom_eigensystem(
            SquaredExponential(), np.array([[0.5], [0.5], [1.0]])
        )
    nodes = make_nodes(6, 3)
    with pytest.raises(InputError):
        nystrom_eigensystem(SquaredExponential(), nodes, node_weights=[1.0, 0.0, 1.0])
    with pytest.raises(InputError):
        nystrom_eigensystem(SquaredExponential(), nodes, node_weights=[1.0, -1.0, 1.0])
    with pytest.raises(InputError):
        nystrom_eigensystem(
            SquaredExponential(), nodes, node_weights=[1.0, np.nan, 1.0]
        )
    with pytest.raises(InputError):
        nystrom_eigensystem(SquaredExponential(), nodes, node_weights=[1.0, 1.0])


# ----------------------------------------------------------------------
# truncated series evaluation
# ----------------------------------------------------------------------


def test_full_series_reproduces_the_gram_entries():
    kernel = Matern(alpha=2.5, h=0.7)
    nodes = make_nodes(7, 9, d=2)
    eig = nystrom_eigensystem(kernel, nodes)
    K = gram(kernel, nodes, nodes)
    for i in range(9):
        for j in range(9):
            assert mercer_kernel_eval(eig, 9, i, j) == pytest.approx(
                K[i, j], abs=1e-8
            )


def test_rank_one_kernel_needs_a_single_term():
    nodes = make_nodes(8, 5)
    kernel = Polynomial(degree=1, c=0.0)
    eig = nystrom_eigensystem(kernel, nodes)
    K = gram(kernel, nodes, nodes)
    for i in range(5):
        for j in range(5):
            assert mercer_kernel_eval(eig, 1, i, j) == pytest.approx(
                K[i, j], abs=1e-10
            )


def test_truncation_error_respects_the_tail_bound():
    kernel = SquaredExponential(gamma=0.6)
    nodes = make_nodes(9, 10)
    eig = nystrom_eigensystem(kernel, nodes)
    K = gram(kernel, nodes, nodes)
    phi = eig.eigenfunctions_at_nodes
    peaks = np.abs(phi).max(axis=0)
    for r in range(1, 11):
        tail = float(np.sum(eig.eigenvalues[r:] * peaks[r:] ** 2))
        for i in range(10):
            for j in range(10):
                truncated = mercer_kernel_eval(eig, r, i, j)
                assert abs(K[i, j] - truncated) <= tail + 1e-10


def test_series_evaluation_validates_truncation_and_indices():
    eig = nystrom_eigensystem(SquaredExponential(), make_nodes(10, 4))
    with pytest.raises(InputError):
        mercer_kernel_eval(eig, 0, 0, 0)
    with pytest.raises(InputError):
        mercer_kernel_eval(eig, 5, 0, 0)
    with pytest.raises(InputError):
        mercer_kernel_eval(eig, 4, 4, 0)
    with pytest.raises(InputError):
        mercer_kernel_eval(eig, 4, 0, -1)


# ----------------------------------------------------------------------
# damped power kernels
# ----------------------------------------------------------------------


def test_power_one_returns_the_original_gram():
    kernel = Matern(alpha=1.5, h=0.9)
    nodes = make_nodes(11, 12, d=2)
    eig = nystrom_eigensystem(kernel, nodes)
    np.testing.assert_allclose(
        power_kernel(eig, 1.0), gram(kernel, nodes, nodes), atol=1e-8
    )


def test_power_kernel_of_the_white_kernel_is_a_scaled_identity():
    n = 5
    eig = nystrom_eigensystem(KroneckerDelta(scale=1.0), make_nodes(12, n))
    theta = 0.5
    np.testing.assert_allclose(
        power_kernel(eig, theta), n ** (1.0 - theta) * np.eye(n) / 1.0, rtol=1e-10
    )


def test_power_kernel_diagonalizes_in_the_weighted_basis():
    # the damped matrix is not similar to Lam^theta in the plain sense, but
    # conjugating with the weighted eigenvector frame recovers exactly the
    # powered eigenvalues
    kernel = SquaredExponential(gamma=0.7)
    nodes = make_nodes(13, 8)
    weights = np.random.default_rng(14).uniform(0.5, 2.0, 8)
    eig = nystrom_eigensystem(kernel, nodes, node_weights=weights)
    theta = 0.6
    P = power_kernel(eig, theta)
    root_w = np.sqrt(eig.node_weights)
    U = eig.eigenfunctions_at_nodes * root_w[:, None]
    conjugated = U.T @ (P * np.outer(root_w, root_w)) @ U
    np.testing.assert_allclose(
        conjugated, np.diag(eig.eigenvalues**theta), atol=1e-8
    )


@pytest.mark.parametrize("theta", [0.0, -0.5, 1.5, np.nan])
def test_power_kernel_rejects_exponents_outside_the_unit_interval(theta):
    eig = nystrom_eigensystem(SquaredExponential(), make_nodes(15, 3))
    with pytest.raises(InputError):
        power_kernel(eig, theta)


# ----------------------------------------------------------------------
# trace diagnostic
# ----------------------------------------------------------------------


def test_trace_diagnostic_grows_monotonically_with_the_truncation():
    eig = nystrom_eigensystem(Matern(alpha=0.5, h=0.5), make_nodes(16, 12))
    values = [hs_inclusion_diagnostic(eig, 0.3, r) for r in range(1, 13)]
    assert all(b >= a for a, b in zip(values, values[1:]))


def test_trace_diagnostic_of_a_rank_one_kernel_is_a_single_power():
    nodes = make_nodes(17, 6)
    eig = nystrom_eigensystem(Polynomial(degree=1, c=0.0), nodes)
    theta = 0.4
    assert hs_inclusion_diagnostic(eig, theta, 6) == pytest.approx(
        eig.eigenvalues[0] ** (1.0 - theta), rel=1e-10
    )


def test_trace_diagnostic_plateaus_for_smooth_kernels_but_not_rough_ones():
    nodes = np.linspace(0.0, 1.0, 40).reshape(-1, 1)

    def relative_increment(eig, r):
        total = hs_inclusion_diagnostic(eig, 0.5, r)
        previous = hs_inclusion_diagnostic(eig, 0.5, r - 1)
        return (total - previous) / total

    smooth = nystrom_eigensystem(SquaredExponential(gamma=0.5), nodes)
    assert relative_increment(smooth, 15) < 1e-6
    assert relative_increment(smooth, 40) == 0.0

    rough = nystrom_eigensystem(Matern(alpha=0.5, h=0.5), nodes)
    assert relative_increment(rough, 15) > 1e-3
    assert relative_increment(rough, 40) > 1e-3


@pytest.mark.parametrize("theta", [0.0, 1.0, -0.2, np.inf])
def test_trace_diagnostic_requires_theta_strictly_inside_the_interval(theta):
    eig = nystrom_eigensystem(SquaredExponential(), make_nodes(18, 3))
    with pytest.raises(InputError):
        hs_inclusion_diagnostic(eig, theta, 3)


# ----------------------------------------------------------------------
# truncated series sampling
# ----------------------------------------------------------------------


def test_sampling_is_bitwise_deterministic_in_the_seed():
    eig = nystrom_eigensystem(Matern(alpha=1.5, h=0.8), make_nodes(19, 5))
    np.testing.assert_array_equal(
        kl_sample(eig, 3, 10, seed=2), kl_sample(eig, 3, 10, seed=2)
    )
    assert not np.array_equal(
        kl_sample(eig, 3, 10, seed=2), kl_sample(eig, 3, 10, seed=3)
    )


def test_samples_are_bitwise_the_normals_times_the_scaled_basis():
    # 10000 draws of 5 terms span several blocks of normals.
    eig = nystrom_eigensystem(Matern(alpha=1.5, h=0.8), make_nodes(19, 30))
    basis = eig.eigenfunctions_at_nodes[:, :5] * np.sqrt(eig.eigenvalues[:5])[None, :]
    z = np.random.default_rng(8).standard_normal((10_000, 5))
    np.testing.assert_array_equal(kl_sample(eig, 5, 10_000, seed=8), z @ basis.T, strict=True)


def test_full_series_samples_match_the_kernel_covariance():
    kernel = Matern(alpha=1.5, h=0.8)
    nodes = make_nodes(20, 5)
    eig = nystrom_eigensystem(kernel, nodes)
    count = 200_000
    draws = kl_sample(eig, 5, count, seed=4)
    empirical = draws.T @ draws / count
    K = gram(kernel, nodes, nodes)
    se = np.sqrt((np.outer(np.diag(K), np.diag(K)) + K**2) / count)
    assert np.all(np.abs(empirical - K) <= 5.0 * se + 1e-8)


def test_single_term_samples_match_the_leading_eigencomponent():
    kernel = SquaredExponential(gamma=0.9)
    nodes = make_nodes(21, 4)
    eig = nystrom_eigensystem(kernel, nodes)
    count = 200_000
    draws = kl_sample(eig, 1, count, seed=5)
    empirical = draws.T @ draws / count
    phi1 = eig.eigenfunctions_at_nodes[:, 0]
    C = eig.eigenvalues[0] * np.outer(phi1, phi1)
    se = np.sqrt((np.outer(np.diag(C), np.diag(C)) + C**2) / count)
    assert np.all(np.abs(empirical - C) <= 5.0 * se + 1e-12)


def test_truncating_a_shared_draw_leaves_the_predicted_residual_power():
    # recover the latent normal coefficients from full-rank draws, rebuild
    # the truncated series from the same coefficients, and compare the
    # residual second moment to the eigenvalue tail at every node
    kernel = Matern(alpha=0.5, h=1.0)
    nodes = np.array([[0.0], [1.1], [2.3], [3.6], [4.9]])
    eig = nystrom_eigensystem(kernel, nodes)
    assert eig.eigenvalues.min() > 0.0

    count = 100_000
    full = kl_sample(eig, 5, count, seed=6)
    basis = eig.eigenfunctions_at_nodes * np.sqrt(eig.eigenvalues)[None, :]
    z = full @ np.linalg.inv(basis.T)

    r = 2
    truncated = z[:, :r] @ basis[:, :r].T
    residual = full - truncated
    second_moment = (residual**2).mean(axis=0)
    phi = eig.eigenfunctions_at_nodes
    tail = (eig.eigenvalues[r:] * phi[:, r:] ** 2).sum(axis=1)
    slack = 5.0 * tail * np.sqrt(2.0 / count)
    assert np.all(np.abs(second_moment - tail) <= slack + 1e-12)


def test_sampling_validates_truncation_and_count():
    eig = nystrom_eigensystem(SquaredExponential(), make_nodes(22, 3))
    with pytest.raises(InputError):
        kl_sample(eig, 0, 5, seed=0)
    with pytest.raises(InputError):
        kl_sample(eig, 4, 5, seed=0)
    with pytest.raises(InputError):
        kl_sample(eig, 2, -1, seed=0)
    with pytest.raises(InputError):
        kl_sample(eig, 2, True, seed=0)
    assert kl_sample(eig, 2, 0, seed=0).shape == (0, 3)


def test_brownian_kernel_supports_the_full_pipeline():
    nodes = np.array([[0.2], [0.9], [1.7]])
    eig = nystrom_eigensystem(BrownianDistance(), nodes)
    K = gram(BrownianDistance(), nodes, nodes)
    phi = eig.eigenfunctions_at_nodes
    np.testing.assert_allclose(
        (phi * eig.eigenvalues[None, :]) @ phi.T, K, atol=1e-8
    )
    np.testing.assert_allclose(power_kernel(eig, 1.0), K, atol=1e-8)
