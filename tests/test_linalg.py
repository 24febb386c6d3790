"""Factorization, jitter escalation, conditioning checks, Gaussian sampling."""

import numpy as np
import pytest

from kernelbridge.errors import NumericalError
from kernelbridge.linalg import (
    _solve_lower,
    cholesky_with_jitter,
    require_invertible,
    sample_gaussian,
    solve_cholesky,
    spd_stats,
    symmetrize,
)


def random_spd(seed, n):
    rng = np.random.default_rng(seed)
    A = rng.normal(size=(n, n))
    return A @ A.T + n * np.eye(n)


def test_symmetrize_averages_the_off_diagonal():
    M = np.array([[1.0, 2.0], [4.0, 3.0]])
    np.testing.assert_array_equal(symmetrize(M), [[1.0, 3.0], [3.0, 3.0]])


def test_cholesky_reconstructs_a_well_conditioned_matrix_without_jitter():
    M = random_spd(0, 8)
    L, jitter = cholesky_with_jitter(M, "M")
    assert jitter == 0.0
    np.testing.assert_allclose(L @ L.T, M, rtol=1e-10)


def test_cholesky_rescues_a_singular_psd_matrix_with_positive_jitter():
    v = np.array([[1.0], [2.0], [3.0]])
    M = v @ v.T
    L, jitter = cholesky_with_jitter(M, "M")
    assert jitter > 0.0
    np.testing.assert_allclose(L @ L.T, M + jitter * np.eye(3), rtol=1e-8, atol=1e-12)


def test_cholesky_gives_up_on_an_indefinite_matrix():
    M = np.diag([1.0, -1.0])
    with pytest.raises(NumericalError, match="indefinite"):
        cholesky_with_jitter(M, "indefinite_example")


def test_cholesky_failure_names_the_matrix():
    with pytest.raises(NumericalError, match="indefinite_example"):
        cholesky_with_jitter(np.diag([1.0, -1.0]), "indefinite_example")


def test_cholesky_handles_the_empty_matrix():
    L, jitter = cholesky_with_jitter(np.zeros((0, 0)), "empty")
    assert L.shape == (0, 0)
    assert jitter == 0.0


def test_solve_cholesky_inverts_the_factored_system():
    M = random_spd(3, 6)
    L, _ = cholesky_with_jitter(M, "M")
    rng = np.random.default_rng(4)
    b = rng.normal(size=6)
    x = solve_cholesky(L, b)
    np.testing.assert_allclose(M @ x, b, rtol=1e-9, atol=1e-12)
    B = rng.normal(size=(6, 2))
    np.testing.assert_allclose(M @ solve_cholesky(L, B), B, rtol=1e-9, atol=1e-12)


def two_lu_reference(L, b):
    return np.linalg.solve(L.T, np.linalg.solve(L, b))


@pytest.mark.parametrize("columns", [None, 3])
def test_blocked_solve_matches_dense_solves_across_a_ragged_block(columns):
    # n = 200 is three full blocks of 64 plus a ragged block of 8
    n = 200
    M = random_spd(10, n)
    L, _ = cholesky_with_jitter(M, "M")
    rng = np.random.default_rng(11)
    b = rng.normal(size=n if columns is None else (n, columns))
    np.testing.assert_allclose(_solve_lower(L, b), np.linalg.solve(L, b), rtol=1e-10)
    x = solve_cholesky(L, b)
    np.testing.assert_allclose(x, two_lu_reference(L, b), rtol=1e-10)
    residual = np.linalg.norm(M @ x - b) / (np.linalg.norm(M, 2) * np.linalg.norm(x))
    assert residual <= 1e-14


@pytest.mark.parametrize("n", range(1, 65))
def test_blocked_solve_is_bitwise_the_dense_solve_up_to_one_block(n):
    # verify suites draw n <= 50, so this is what keeps their reports
    # byte-identical
    L, _ = cholesky_with_jitter(random_spd(n, n), "M")
    rng = np.random.default_rng(n)
    for b in (rng.normal(size=n), rng.normal(size=(n, 2))):
        np.testing.assert_array_equal(_solve_lower(L, b), np.linalg.solve(L, b))
        np.testing.assert_array_equal(solve_cholesky(L, b), two_lu_reference(L, b))


def test_blocked_solve_keeps_the_shape_and_leaves_the_input_alone():
    n = 130
    L, _ = cholesky_with_jitter(random_spd(12, n), "M")
    rng = np.random.default_rng(13)
    # a transposed view, as the posterior queries pass it
    for b in (rng.normal(size=n), rng.normal(size=(4, n)).T):
        before = b.copy()
        for solve in (_solve_lower, solve_cholesky):
            out = solve(L, b)
            assert out.shape == b.shape
            assert out is not b
            np.testing.assert_array_equal(b, before)


def test_blocked_solve_of_an_empty_system_returns_zeros():
    empty = np.zeros((0, 0))
    for b in (np.zeros(0), np.zeros((0, 3))):
        for solve in (_solve_lower, solve_cholesky):
            out = solve(empty, b)
            assert out.shape == b.shape
            assert out.dtype == float


def test_spd_stats_reports_the_spectrum_of_a_diagonal_matrix():
    lam_min, lam_max, cond = spd_stats(np.diag([4.0, 1.0]))
    assert lam_max == pytest.approx(4.0, rel=1e-12)
    assert lam_min == pytest.approx(1.0, rel=1e-9)
    assert cond == pytest.approx(4.0, rel=1e-9)


def test_require_invertible_accepts_the_identity():
    require_invertible(np.eye(5), "I")


def test_require_invertible_rejects_a_duplicated_row_gram_matrix():
    # two identical kernel rows make the Gram matrix exactly singular
    K = np.array([[1.0, 1.0, 0.5], [1.0, 1.0, 0.5], [0.5, 0.5, 1.0]])
    with pytest.raises(NumericalError):
        require_invertible(K, "K_XX")


def test_require_invertible_rejects_extreme_conditioning():
    with pytest.raises(NumericalError):
        require_invertible(np.diag([1.0, 1e-14]), "K")


def test_sample_gaussian_zeroes_clamped_directions_exactly():
    # rank-one covariance: the orthogonal direction must carry no noise at all
    v = np.array([1.0, 1.0]) / np.sqrt(2.0)
    C = np.outer(v, v)
    rng = np.random.default_rng(0)
    draws = sample_gaussian(rng, C, 1000, clamp_scale=1e-12)
    residual = draws @ np.array([1.0, -1.0]) / np.sqrt(2.0)
    np.testing.assert_array_equal(residual, np.zeros(1000))


def test_sample_gaussian_matches_the_covariance_at_scale():
    C = random_spd(9, 3)
    rng = np.random.default_rng(1)
    draws = sample_gaussian(rng, C, 200_000, clamp_scale=1e-12)
    empirical = draws.T @ draws / draws.shape[0]
    se = np.sqrt((np.outer(np.diag(C), np.diag(C)) + C**2) / draws.shape[0])
    assert np.all(np.abs(empirical - C) <= 5.0 * se)


def test_sample_gaussian_is_deterministic_for_a_fixed_generator_state():
    C = random_spd(9, 3)
    a = sample_gaussian(np.random.default_rng(7), C, 10, clamp_scale=1e-12)
    b = sample_gaussian(np.random.default_rng(7), C, 10, clamp_scale=1e-12)
    np.testing.assert_array_equal(a, b)
