"""Zero-mean Gaussian processes: prior sampling, conditioning, variances."""

import numpy as np
import pytest

from kernelbridge import gp as gp_module
from kernelbridge import linalg
from kernelbridge.errors import InputError, NumericalError
from kernelbridge.gp import (
    condition,
    posterior_cov,
    posterior_cov_raw,
    posterior_mean,
    posterior_mean_at,
    sample_prior,
)
from kernelbridge.kernels import (
    Dataset,
    KroneckerDelta,
    Matern,
    SquaredExponential,
    eval as kernel_eval,
    gram,
)


def make_data(seed, n, d=1):
    rng = np.random.default_rng(seed)
    X = rng.uniform(-1.0, 1.0, (n, d))
    Y = rng.normal(size=n)
    return Dataset(X, Y)


# ----------------------------------------------------------------------
# prior sampling
# ----------------------------------------------------------------------


def test_prior_samples_under_a_white_kernel_are_standard_normal():
    X = np.array([[0.0], [1.0], [2.0], [3.0]])
    draws = sample_prior(KroneckerDelta(scale=1.0), X, 100_000, seed=0)
    assert draws.shape == (100_000, 4)
    assert np.abs(draws.mean(axis=0)).max() < 0.02
    assert np.abs(draws.var(axis=0) - 1.0).max() < 0.03


def test_prior_draws_are_bitwise_normals_times_the_factor():
    # 2000 draws at 40 points span several blocks of normals.
    kernel = Matern(alpha=2.5, h=0.5)
    X = np.linspace(0.0, 2.0, 40)[:, None]
    L = linalg.cholesky_with_jitter(gram(kernel, X, X)).factor
    u = np.random.default_rng(4).standard_normal((2000, 40))
    draws = sample_prior(kernel, X, 2000, seed=4)
    np.testing.assert_array_equal(draws, u @ L.T, strict=True)


def test_prior_sampling_with_zero_count_returns_an_empty_block():
    draws = sample_prior(SquaredExponential(), np.zeros((3, 1)), 0, seed=0)
    assert draws.shape == (0, 3)


def test_prior_sampling_is_bitwise_deterministic_in_the_seed():
    kernel = Matern(alpha=1.5, h=0.7)
    X = np.linspace(0.0, 1.0, 5).reshape(-1, 1)
    np.testing.assert_array_equal(
        sample_prior(kernel, X, 4, seed=9), sample_prior(kernel, X, 4, seed=9)
    )
    assert not np.array_equal(
        sample_prior(kernel, X, 4, seed=9), sample_prior(kernel, X, 4, seed=10)
    )


@pytest.mark.parametrize("count", [-1, 2.5, True])
def test_prior_sampling_rejects_bad_draw_counts(count):
    with pytest.raises(InputError):
        sample_prior(SquaredExponential(), np.zeros((2, 1)), count, seed=0)


# ----------------------------------------------------------------------
# conditioning edge cases
# ----------------------------------------------------------------------


def test_conditioning_on_no_data_reproduces_the_prior():
    kernel = SquaredExponential(gamma=0.8)
    post = condition(kernel, Dataset(np.zeros((0, 1)), np.zeros(0)), noise_variance=0.5)
    x, y = np.array([0.4]), np.array([-0.3])
    assert posterior_mean(post, x) == 0.0
    assert posterior_cov(post, x, y) == pytest.approx(
        kernel_eval(kernel, x, y), rel=1e-14
    )
    assert posterior_cov(post, x, x) == pytest.approx(1.0, rel=1e-14)


def test_conditioning_requires_observations_when_points_are_present():
    kernel = SquaredExponential()
    with pytest.raises(InputError, match="0 outputs for 2 inputs"):
        condition(kernel, Dataset(np.zeros((2, 1)), np.zeros(0)), noise_variance=0.1)


@pytest.mark.parametrize("noise", [-0.1, np.nan, np.inf])
def test_conditioning_rejects_bad_noise_levels(noise):
    kernel = SquaredExponential()
    with pytest.raises(InputError):
        condition(kernel, make_data(0, 3), noise)


def test_noise_free_conditioning_on_conflicting_duplicates_fails():
    kernel = SquaredExponential()
    X = np.array([[0.5], [0.5]])
    Y = np.array([0.0, 1.0])
    with pytest.raises(NumericalError):
        condition(kernel, Dataset(X, Y), noise_variance=0.0)


def test_a_ridge_lost_to_roundoff_is_gated_like_no_ridge():
    # 1e-300 vanishes next to k(x, x) = 1: the system is K_XX itself.
    kernel = SquaredExponential()
    data = Dataset(np.array([[0.5], [0.5]]), np.array([0.0, 1.0]))
    with pytest.raises(NumericalError) as noise_free:
        condition(kernel, data, noise_variance=0.0)
    with pytest.raises(NumericalError) as lost:
        condition(kernel, data, noise_variance=1e-300)
    assert str(lost.value) == str(noise_free.value)


def test_the_posterior_keeps_the_jitter_of_its_factorization(monkeypatch):
    # factor_system reaches cholesky_with_jitter through linalg's module
    # globals; this stand-in always needs jitter 1e-9.
    factor = linalg.cholesky_with_jitter

    def jittered(matrix, name="matrix"):
        return linalg.Cholesky(factor(linalg.shift_diagonal(matrix, 1e-9), name).factor, 1e-9)

    kernel = SquaredExponential()
    X = np.array([[0.5], [0.5]])
    with monkeypatch.context() as patch:
        patch.setattr(linalg, "cholesky_with_jitter", jittered)
        post = condition(kernel, Dataset(X, np.array([0.0, 1.0])), noise_variance=0.25)
    assert post.cholesky.jitter > 0.0
    assert condition(kernel, make_data(0, 4), 0.1).cholesky.jitter == 0.0


def test_noisy_conditioning_tolerates_duplicated_inputs():
    kernel = SquaredExponential()
    X = np.array([[0.5], [0.5]])
    Y = np.array([0.0, 1.0])
    post = condition(kernel, Dataset(X, Y), noise_variance=0.25)
    assert np.isfinite(posterior_mean(post, np.array([0.5])))


# ----------------------------------------------------------------------
# posterior values
# ----------------------------------------------------------------------


def test_single_observation_posterior_mean_is_the_shrunk_value():
    # k(0,0) = 1 and sigma^2 = 1, so the posterior mean at the node is y/2
    kernel = SquaredExponential(gamma=1.0)
    post = condition(
        kernel, Dataset(np.array([[0.0]]), np.array([2.0])), noise_variance=1.0
    )
    assert posterior_mean(post, np.array([0.0])) == pytest.approx(1.0, rel=1e-14)


def test_two_point_posterior_matches_the_frozen_hand_computation():
    kernel = SquaredExponential(gamma=1.0)
    data = Dataset(np.array([[0.0], [1.0]]), np.array([0.0, 1.0]))
    post = condition(kernel, data, noise_variance=0.1)
    x = np.array([0.5])
    assert posterior_mean(post, x) == pytest.approx(0.5305618167455784, rel=1e-12)
    assert posterior_cov(post, x, x) == pytest.approx(0.17359608330151261, rel=1e-12)


def test_noise_free_posterior_interpolates_the_observations():
    data = make_data(5, 8)
    post = condition(Matern(alpha=2.5, h=0.9), data, noise_variance=0.0)
    means = posterior_mean_at(post, data.X)
    np.testing.assert_allclose(means, data.Y, atol=1e-8)
    variances = np.array([posterior_cov(post, x, x) for x in data.X])
    assert np.all(variances >= 0.0)
    assert variances.max() <= 1e-8


def test_posterior_covariance_is_symmetric_and_dominated_by_the_prior():
    data = make_data(6, 10, d=2)
    kernel = Matern(alpha=1.5, h=0.8)
    post = condition(kernel, data, noise_variance=0.05)
    rng = np.random.default_rng(7)
    for _ in range(10):
        x = rng.uniform(-1.0, 1.0, 2)
        y = rng.uniform(-1.0, 1.0, 2)
        assert posterior_cov(post, x, y) == pytest.approx(
            posterior_cov(post, y, x), abs=1e-12
        )
        assert posterior_cov(post, x, x) <= kernel_eval(kernel, x, x) + 1e-10


def test_posterior_variances_beyond_one_solve_block_match_the_dense_formula():
    # 150 nodes span three column blocks of the triangular solves
    data = make_data(14, 150)
    kernel = Matern(alpha=1.5, h=0.5)
    noise = 0.1
    post = condition(kernel, data, noise_variance=noise)
    queries = np.linspace(-1.2, 1.2, 9).reshape(-1, 1)
    K_n = gram(kernel, data.X, data.X) + noise * np.eye(150)
    K_qn = gram(kernel, queries, data.X)
    want = np.diag(gram(kernel, queries, queries)) - np.einsum(
        "ij,ji->i", K_qn, np.linalg.solve(K_n, K_qn.T)
    )
    raw = np.array([posterior_cov_raw(post, q, q) for q in queries])
    np.testing.assert_allclose(raw, want, rtol=1e-9, atol=1e-12)
    cross = posterior_cov_raw(post, queries[2], queries[5])
    k_25 = gram(kernel, queries[2:3], queries[5:6])[0, 0]
    want_cross = k_25 - K_qn[2] @ np.linalg.solve(K_n, K_qn[5])
    assert cross == pytest.approx(want_cross, rel=1e-9, abs=1e-12)


def test_a_variance_query_solves_once_with_the_bits_of_two_solves(monkeypatch):
    kernel = Matern(alpha=1.5, h=0.5)
    post = condition(kernel, make_data(3, 80), noise_variance=0.1)
    q = np.array([0.3])
    r = np.array([-0.4])
    L = post.cholesky.factor
    a = linalg._solve_lower(L, gram(kernel, q[None, :], post.X).T)[:, 0]
    b = linalg._solve_lower(L, gram(kernel, q.copy()[None, :], post.X).T)[:, 0]
    solves = []

    def counted(factor, rhs):
        solves.append(rhs.shape)
        return linalg._solve_lower(factor, rhs)

    monkeypatch.setattr(gp_module, "_solve_lower", counted)
    assert posterior_cov_raw(post, q, q.copy()) == kernel_eval(kernel, q, q) - float(a @ b)
    assert len(solves) == 1
    posterior_cov_raw(post, q, r)
    assert len(solves) == 3


def test_posterior_variance_clamp_never_reports_negative_values():
    data = make_data(8, 12)
    post = condition(SquaredExponential(gamma=0.3), data, noise_variance=0.0)
    grid = np.linspace(-1.0, 1.0, 101).reshape(-1, 1)
    assert min(posterior_cov(post, x, x) for x in grid) >= 0.0


def test_posterior_moments_match_the_empirical_law_of_conditioned_draws():
    # Isserlis' identity gives the standard error of an empirical second
    # moment of a Gaussian vector, which bounds the sampling check
    kernel = Matern(alpha=1.5, h=0.8)
    nodes = np.array([[-0.8], [-0.3], [0.1], [0.6], [1.0]])
    data = Dataset(nodes[:3], np.array([0.5, -0.2, 0.9]))
    post = condition(kernel, data, noise_variance=0.04)

    queries = nodes[3:]
    mean = posterior_mean_at(post, queries)
    cov = np.array(
        [[posterior_cov(post, a, b) for b in queries] for a in queries]
    )

    # simulate the same law directly: joint prior draw, then the exact
    # conditional distribution evaluated with plain dense algebra
    K_nn = gram(kernel, data.X, data.X) + 0.04 * np.eye(3)
    K_qn = gram(kernel, queries, data.X)
    K_qq = gram(kernel, queries, queries)
    solve = np.linalg.solve(K_nn, K_qn.T)
    want_mean = K_qn @ np.linalg.solve(K_nn, data.Y)
    want_cov = K_qq - K_qn @ solve
    np.testing.assert_allclose(mean, want_mean, atol=1e-10)
    np.testing.assert_allclose(cov, want_cov, atol=1e-10)

    count = 200_000
    rng = np.random.default_rng(11)
    L = np.linalg.cholesky(want_cov + 1e-14 * np.eye(2))
    draws = want_mean + rng.normal(size=(count, 2)) @ L.T
    centred = draws - draws.mean(axis=0)
    empirical = centred.T @ centred / count
    se = np.sqrt(
        (np.outer(np.diag(want_cov), np.diag(want_cov)) + want_cov**2) / count
    )
    assert np.all(np.abs(empirical - cov) <= 5.0 * se)


def test_sequential_conditioning_agrees_with_joint_conditioning():
    # condition on the first block, then fold in the second block with
    # dense formulas applied to the intermediate posterior
    kernel = SquaredExponential(gamma=0.9)
    rng = np.random.default_rng(12)
    X1 = rng.uniform(-1.0, 1.0, (4, 1))
    X2 = rng.uniform(-1.0, 1.0, (3, 1))
    Y1 = rng.normal(size=4)
    Y2 = rng.normal(size=3)
    noise = 0.2

    joint = condition(
        kernel,
        Dataset(np.vstack([X1, X2]), np.concatenate([Y1, Y2])),
        noise_variance=noise,
    )

    first = condition(kernel, Dataset(X1, Y1), noise_variance=noise)
    K1 = np.array([[posterior_cov(first, a, b) for b in X2] for a in X2])
    m1 = posterior_mean_at(first, X2)
    queries = rng.uniform(-1.0, 1.0, (5, 1))
    for q in queries:
        k1q = np.array([posterior_cov(first, q, b) for b in X2])
        correction = k1q @ np.linalg.solve(K1 + noise * np.eye(3), Y2 - m1)
        two_step = posterior_mean(first, q) + correction
        assert posterior_mean(joint, q) == pytest.approx(two_step, abs=1e-8)
