"""Factorization, jitter escalation, conditioning checks, Gaussian sampling."""

from pathlib import Path

import numpy as np
import pytest

import kernelbridge
from kernelbridge.errors import NumericalError
from kernelbridge.kernels import Matern, gram
from kernelbridge.linalg import (
    Cholesky,
    _solve_lower,
    cholesky_with_jitter,
    factor_system,
    nonnegative,
    require_invertible,
    sample_gaussian,
    shift_diagonal,
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


def test_factor_system_gates_only_the_noise_free_system():
    v = np.array([[1.0], [2.0], [3.0]])
    M = v @ v.T
    with pytest.raises(NumericalError, match="M is numerically singular"):
        factor_system(M, 0.0, "M")
    # 1e-300 is lost to roundoff against entries of order 1, so the ridged
    # system is still singular and the jitter schedule rescues it.
    L, jitter = factor_system(M, 1e-300, "M")
    assert jitter > 0.0
    np.testing.assert_allclose(L @ L.T, M + jitter * np.eye(3), rtol=1e-8, atol=1e-12)


@pytest.mark.parametrize("ridge", [0.0, 1e-3, 0.7])
@pytest.mark.parametrize("n", [5, 200])
def test_factor_system_is_bitwise_the_hand_assembled_factorization(n, ridge):
    X = np.linspace(-1.0, 1.0, n)[:, None]
    K = gram(Matern(alpha=1.5, h=0.3 if n == 5 else 0.05), X, X)
    K_before = K.copy()
    result = factor_system(K, ridge, "K")
    np.testing.assert_array_equal(K, K_before)
    assert isinstance(result, Cholesky)
    system = K + ridge * np.eye(n) if ridge else K
    L, jitter = cholesky_with_jitter(system, "K")
    np.testing.assert_array_equal(result.factor, L)
    assert result.jitter == jitter == result[1]
    rng = np.random.default_rng(n)
    for rhs in (rng.normal(size=n), rng.normal(size=(n, 3))):
        np.testing.assert_array_equal(result.solve(rhs), solve_cholesky(L, rhs))


@pytest.mark.parametrize("n", [0, 1, 6])
def test_shift_diagonal_is_bitwise_the_identity_sum_on_a_copy(n):
    M = random_spd(n, n) if n else np.zeros((0, 0))
    M_before = M.copy()
    shifted = shift_diagonal(M, 0.37)
    np.testing.assert_array_equal(shifted, M + 0.37 * np.eye(n), strict=True)
    np.testing.assert_array_equal(M, M_before)
    assert not np.shares_memory(shifted, M)
    # column-major input: the diagonal is still the diagonal
    np.testing.assert_array_equal(shift_diagonal(np.asfortranarray(M), 0.37), shifted)


def test_nonnegative_raises_below_the_roundoff_floor_and_clamps_above_it():
    with pytest.raises(NumericalError, match="squared norm evaluated to -2.000e-10"):
        nonnegative(-2e-10, "squared norm")
    assert nonnegative(-1e-11, "squared norm") == 0.0
    assert nonnegative(0.25, "squared norm") == 0.25


def test_only_linalg_factors_gates_or_solves():
    # Every other module reaches these through factor_system and Cholesky.
    forbidden = ("np.linalg.cholesky", "np.linalg.solve", "require_invertible(", "solve_cholesky")
    package = Path(kernelbridge.__file__).parent
    offenders = [
        (path.name, token)
        for path in sorted(package.glob("*.py"))
        if path.name != "linalg.py"
        for token in forbidden
        if token in path.read_text()
    ]
    assert offenders == []
    # Only two callers factor without factor_system, each saying why.
    direct = [
        path.name
        for path in sorted(package.glob("*.py"))
        if path.name != "linalg.py" and "cholesky_with_jitter(" in path.read_text()
    ]
    assert direct == ["gp.py", "quadrature.py"]


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
