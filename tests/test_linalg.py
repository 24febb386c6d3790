"""Factorization, jitter escalation, conditioning checks, Gaussian sampling."""

import ast
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import kernelbridge
from kernelbridge.errors import NumericalError
from kernelbridge.kernels import Matern, gram
from kernelbridge.linalg import (
    _BLOCK_ENTRIES,
    Cholesky,
    _solve_lower,
    cholesky_with_jitter,
    factor_system,
    nonnegative,
    normals_times,
    require_invertible,
    row_blocks,
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


def test_symmetrize_is_bitwise_the_halved_sum_and_leaves_its_input():
    M = np.random.default_rng(3).normal(size=(9, 9)) * 1e300
    before = M.copy()
    np.testing.assert_array_equal(symmetrize(M), 0.5 * (M + M.T), strict=True)
    np.testing.assert_array_equal(M, before)


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


def matern_gram(n):
    # a jittered 1-d grid: cond(K) grows with n, from 2e5 at n = 65 to 8e7 at 300
    rng = np.random.default_rng(n)
    X = (np.arange(n) + rng.uniform(-0.25, 0.25, n))[:, None] / n
    return gram(Matern(alpha=1.5, h=0.2), X, X)


@pytest.mark.parametrize("n", [0, 1, 2, 7, 50, 64])
def test_the_factor_is_bitwise_numpys_up_to_one_block(n):
    # verify suites draw n <= 50, so this is what keeps their reports
    # byte-identical
    for M in (random_spd(n, n), matern_gram(n)):
        before = M.copy()
        L, jitter = cholesky_with_jitter(M, "M")
        assert jitter == 0.0
        np.testing.assert_array_equal(L, np.linalg.cholesky(M), strict=True)
        np.testing.assert_array_equal(M, before)


@pytest.mark.parametrize("n", [65, 130, 300])
def test_the_blocked_factor_is_lower_triangular_and_backward_stable(n):
    for M in (random_spd(n, n), matern_gram(n)):
        before = M.copy()
        L, jitter = cholesky_with_jitter(M, "M")
        assert jitter == 0.0
        np.testing.assert_array_equal(M, before)
        assert not np.triu(L, 1).any()
        assert (np.diagonal(L) > 0.0).all()
        # Backward error of a Cholesky factorization, blocked or not, is
        # O(n eps ||A||) (Higham, ch. 10); c = 1 here, in the Frobenius norm.
        error = np.linalg.norm(L @ L.T - M)
        assert error <= n * np.finfo(float).eps * np.linalg.norm(M)


def _numpy_jitter(M):
    """The jitter the schedule settles on when each attempt is np.linalg.cholesky."""
    jitter, step = 0.0, 1e-12 * float(np.trace(M)) / len(M)
    for _ in range(8):  # no jitter, then 1e-12 ... 1e-6 times trace/n
        try:
            np.linalg.cholesky(shift_diagonal(M, jitter))
            return jitter
        except np.linalg.LinAlgError:
            jitter, step = step, step * 10.0
    return None


def test_a_rank_deficient_matrix_is_rescued_with_the_same_jitter_schedule():
    V = np.random.default_rng(5).normal(size=(130, 5))
    M = V @ V.T
    L, jitter = cholesky_with_jitter(M, "M")
    assert jitter > 0.0
    assert jitter == _numpy_jitter(M)
    assert not np.triu(L, 1).any()
    np.testing.assert_allclose(L @ L.T, shift_diagonal(M, jitter), rtol=1e-8, atol=1e-10)


def test_an_indefinite_matrix_beyond_one_block_raises_the_same_message():
    d = np.ones(130)
    d[100] = -1.0
    ceiling = 1e-6 * float(np.trace(np.diag(d))) / 130
    message = f"Cholesky factorization of M failed with jitter up to {ceiling:.3e}$"
    with pytest.raises(NumericalError, match=message):
        cholesky_with_jitter(np.diag(d), "M")
    with pytest.raises(NumericalError, match="trace admits no jitter scale"):
        cholesky_with_jitter(-np.eye(130), "M")


def test_the_gate_judges_a_symmetric_matrix_near_the_float_limit_by_its_eigenvalues():
    # A symmetric matrix is not averaged with its transpose, which would
    # overflow entries above half the largest float to inf; the verdict comes
    # from the matrix's own eigenvalues.
    require_invertible(np.array([[1e308]]), "M")
    require_invertible(np.diag([1e308, 0.5e308]), "M")
    with pytest.raises(NumericalError, match="M is numerically singular"):
        require_invertible(np.diag([1e308, 1.0]), "M")
    # When the trace overflows there is no baseline jitter, and the gate
    # still rejects, as before, with no overflow warning.
    for M in ([[1e308, 1e308], [1e308, 1e308]], [[1e308, 0.5e308], [0.5e308, 1e308]]):
        assert spd_stats(np.array(M))[2] == np.inf
        with pytest.raises(NumericalError, match=r"M is singular \(smallest eigenvalue inf\)"):
            require_invertible(np.array(M), "M")


def _traced_peak(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_gating_and_factoring_hold_at_most_one_working_copy():
    K = matern_gram(512)
    assert np.array_equal(K, K.T)
    # the factor itself, plus panel temporaries of 64 columns
    assert _traced_peak(cholesky_with_jitter, K) <= 1.25 * K.nbytes
    # a boolean symmetry test and the eigenvalues; no copy of K
    assert _traced_peak(spd_stats, K) <= 0.25 * K.nbytes


def test_one_factorization_path_calls_numpys_cholesky():
    # Only the blocked helper reaches np.linalg.cholesky, for its diagonal
    # blocks: no fallback to the unblocked call, and no switch between them.
    found = []

    def visit(node, module, function):
        if isinstance(node, ast.FunctionDef):
            function = node.name
        if isinstance(node, ast.Attribute) and ast.unparse(node) == "np.linalg.cholesky":
            found.append((module, function))
        for child in ast.iter_child_nodes(node):
            visit(child, module, function)

    for path in sorted(Path(kernelbridge.__file__).parent.glob("*.py")):
        visit(ast.parse(path.read_text()), path.name, None)
    assert found == [("linalg.py", "_factor_in_place")]


def test_the_gate_accepts_the_empty_matrix():
    empty = np.zeros((0, 0))
    assert spd_stats(empty) == (np.inf, 0.0, 1.0)
    require_invertible(empty, "empty")
    for ridge in (0.0, 0.5):
        L, jitter = factor_system(empty, ridge, "empty")
        assert L.shape == (0, 0) and jitter == 0.0


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
    # 1e-300 is lost to roundoff on every diagonal entry, so the system is M
    # itself and is gated like ridge 0.
    with pytest.raises(NumericalError, match="M is numerically singular"):
        factor_system(M, 1e-300, "M")
    # 2e-16 moves the entry 1 by one ulp but not 4 or 9: the ridged system is
    # factored ungated, is still singular, and the jitter schedule rescues it.
    L, jitter = factor_system(M, 2e-16, "M")
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


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_nonnegative_raises_on_a_value_that_is_not_finite(value):
    with pytest.raises(NumericalError, match="^squared norm evaluated to "):
        nonnegative(value, "squared norm")


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
    draws = sample_gaussian(rng, C, 1000, C)
    residual = draws @ np.array([1.0, -1.0]) / np.sqrt(2.0)
    np.testing.assert_array_equal(residual, np.zeros(1000))


def test_sample_gaussian_matches_the_covariance_at_scale():
    C = random_spd(9, 3)
    rng = np.random.default_rng(1)
    draws = sample_gaussian(rng, C, 200_000, C)
    empirical = draws.T @ draws / draws.shape[0]
    se = np.sqrt((np.outer(np.diag(C), np.diag(C)) + C**2) / draws.shape[0])
    assert np.all(np.abs(empirical - C) <= 5.0 * se)


def test_sample_gaussian_is_deterministic_for_a_fixed_generator_state():
    C = random_spd(9, 3)
    a = sample_gaussian(np.random.default_rng(7), C, 10, C)
    b = sample_gaussian(np.random.default_rng(7), C, 10, C)
    np.testing.assert_array_equal(a, b)


@pytest.mark.parametrize("rows", [0, 1, 3, 257, 10_000])
@pytest.mark.parametrize("width", [0, 7, 64, 20_000])
def test_row_blocks_split_rows_evenly_within_the_block_size(rows, width):
    blocks = row_blocks(rows, width)
    sizes = [block.stop - block.start for block in blocks]
    assert [b.start for b in blocks] == ([0] + [b.stop for b in blocks])[: len(blocks)]
    assert sum(sizes) == rows and (not blocks or blocks[-1].stop == rows)
    assert all(size * width <= _BLOCK_ENTRIES or size <= 4 for size in sizes)
    if rows:
        assert max(sizes) - min(sizes) <= 1
        # numpy sends a one-row product to gemv, which rounds unlike gemm.
        assert len(blocks) == 1 or min(sizes) >= 2


# 300 is past the widest root whose draws are split: one product, as before.
_DRAW_SIZES = (1, 2, 7, 50, 64, 300)


def _draw_counts(n):
    """No draw, one draw, one block of rows less one, one block, one more, 10000."""
    rows = _BLOCK_ENTRIES // n
    return (0, 1, rows - 1, rows, rows + 1, 10_000)


def _one_shot_mismatches(n, count):
    """What of blocked draws differs from the one-shot product of all normals."""
    root = np.linalg.cholesky(random_spd(n, n))
    blocked, one_shot = np.random.default_rng(n), np.random.default_rng(n)
    draws = normals_times(blocked, root, count)
    expected = one_shot.standard_normal((count, n)) @ root.T
    found = []
    if draws.shape != expected.shape or draws.tobytes() != expected.tobytes():
        found.append("draws")
    if blocked.bit_generator.state != one_shot.bit_generator.state:
        found.append("generator state")
    return found


@pytest.mark.parametrize("threads", ["1", "2"])
def test_blocked_draws_are_bitwise_the_one_shot_product_under_one_and_two_blas_threads(
    threads,
):
    src = str(Path(kernelbridge.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, str(Path(__file__).parent), env.get("PYTHONPATH")])
    )
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = threads
    code = (
        "import test_linalg as t\n"
        "print([(n, c) for n in t._DRAW_SIZES for c in t._draw_counts(n)"
        " if t._one_shot_mismatches(n, c)])"
    )
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=False
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


@pytest.mark.parametrize("n,count", [(7, 10_000), (50, 10_000), (64, 3_000)])
def test_sampling_holds_the_draws_and_one_block_of_normals(n, count):
    C = random_spd(n, n)
    tracemalloc.start()
    try:
        draws = sample_gaussian(np.random.default_rng(0), C, count, C)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # The n x n work (covariance, eigenvectors, root) is a few n^2 floats.
    assert peak < draws.nbytes + 8 * _BLOCK_ENTRIES + 8 * 8 * n * n + 16_384
