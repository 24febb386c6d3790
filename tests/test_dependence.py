"""Empirical dependence measures and their process-average counterparts."""

import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import _oracles as oracles
import kernelbridge
from kernelbridge import dependence
from kernelbridge.dependence import (
    PairedSample,
    hsic_empirical,
    hsic_gp_exact,
    hsic_gp_monte_carlo,
)
from kernelbridge.errors import InputError, NumericalError
from kernelbridge.kernels import (
    BrownianDistance,
    KroneckerDelta,
    Matern,
    Polynomial,
    SquaredExponential,
    Sum,
)
from kernelbridge.linalg import _BLOCK_ENTRIES, sample_gaussian


def random_sample(seed, n, dx=1, dy=1):
    rng = np.random.default_rng(seed)
    X = rng.uniform(-1.0, 1.0, (n, dx))
    Y = np.tanh(X[:, :dy]) + 0.3 * rng.normal(size=(n, dy))
    return PairedSample(X, Y)


# ----------------------------------------------------------------------
# the empirical statistic
# ----------------------------------------------------------------------


def test_a_constant_coordinate_gives_a_vanishing_statistic():
    # centering kills the constant column; only roundoff can remain and the
    # estimator clamps it at zero from below
    n = 10
    rng = np.random.default_rng(0)
    sample = PairedSample(np.full((n, 1), 0.7), rng.normal(size=(n, 1)))
    value = hsic_empirical(SquaredExponential(), SquaredExponential(), sample)
    assert 0.0 <= value <= 1e-15
    exact = hsic_gp_exact(SquaredExponential(), SquaredExponential(), sample)
    assert 0.0 <= exact <= 1e-15


def test_two_point_statistic_has_a_closed_form():
    # with n = 2 the double centering leaves (Delta K)(Delta L)/16 where the
    # deltas are the gaps between the two kernel cross terms and diagonals
    kx = Matern(alpha=1.5, h=0.8)
    ky = SquaredExponential(gamma=0.6)
    sample = PairedSample(np.array([[0.0], [1.0]]), np.array([[0.2], [-0.4]]))
    from kernelbridge.kernels import eval as kernel_eval

    dk = (
        kernel_eval(kx, 0.0, 0.0)
        + kernel_eval(kx, 1.0, 1.0)
        - 2.0 * kernel_eval(kx, 0.0, 1.0)
    )
    dl = (
        kernel_eval(ky, 0.2, 0.2)
        + kernel_eval(ky, -0.4, -0.4)
        - 2.0 * kernel_eval(ky, 0.2, -0.4)
    )
    value = hsic_empirical(kx, ky, sample)
    assert value == pytest.approx(dk * dl / 16.0, rel=1e-12)


def test_statistic_matches_the_quadruple_loop_oracle():
    kx = SquaredExponential(gamma=0.9)
    ky = Matern(alpha=0.5, h=0.7)
    sample = random_sample(1, 8)
    expected = oracles.hsic_loops(kx, ky, sample.X, sample.Y)
    assert hsic_empirical(kx, ky, sample) == pytest.approx(expected, abs=1e-10)


def test_white_kernels_on_distinct_points_give_the_degenerate_value():
    # with identity Gram matrices on both sides the statistic collapses to
    # (n - 1) / n^2 regardless of the data
    n = 7
    rng = np.random.default_rng(2)
    sample = PairedSample(
        rng.uniform(size=(n, 1)), rng.uniform(size=(n, 1))
    )
    value = hsic_empirical(KroneckerDelta(), KroneckerDelta(), sample)
    assert value == pytest.approx((n - 1) / n**2, rel=1e-12)


def test_statistic_is_invariant_under_joint_row_permutations():
    kx = SquaredExponential(gamma=0.8)
    ky = Matern(alpha=2.5, h=0.9)
    sample = random_sample(3, 9)
    base = hsic_empirical(kx, ky, sample)
    rng = np.random.default_rng(4)
    for _ in range(5):
        perm = rng.permutation(9)
        shuffled = PairedSample(sample.X[perm], sample.Y[perm])
        assert hsic_empirical(kx, ky, shuffled) == pytest.approx(base, abs=1e-12)


def test_statistic_is_symmetric_in_the_two_coordinates():
    kx = SquaredExponential(gamma=0.7)
    ky = Matern(alpha=1.5, h=0.6)
    sample = random_sample(5, 8)
    swapped = PairedSample(sample.Y, sample.X)
    assert hsic_empirical(kx, ky, sample) == pytest.approx(
        hsic_empirical(ky, kx, swapped), abs=1e-14
    )


def test_scaling_one_kernel_scales_the_statistic_bitwise():
    kx = Matern(alpha=1.5, h=0.8)
    ky = SquaredExponential(gamma=0.9)
    sample = random_sample(6, 10)
    base = hsic_empirical(kx, ky, sample)
    doubled = hsic_empirical(Sum(kx, kx), ky, sample)
    assert doubled == 2.0 * base


@pytest.mark.parametrize("statistic", [hsic_empirical, hsic_gp_exact])
def test_negative_statistics_raise_unless_they_are_roundoff(monkeypatch, statistic):
    kx, ky = SquaredExponential(), Matern()
    sample = random_sample(0, 4)
    # With K = scale * I and L = I the statistic is scale * (n - 1) / n^2.
    grams = {kx: -1.0 * np.eye(4), ky: np.eye(4)}
    monkeypatch.setattr(dependence, "gram", lambda kernel, A, B: grams[kernel])
    with pytest.raises(NumericalError, match="evaluated to -1.875e-01; the Gram"):
        statistic(kx, ky, sample)
    grams[kx] = -1e-14 * np.eye(4)
    assert statistic(kx, ky, sample) == 0.0


@pytest.mark.parametrize("statistic", [hsic_empirical, hsic_gp_exact])
def test_a_statistic_that_is_not_finite_raises(statistic):
    # (x y)^3 overflows at these atoms, and centering turns inf into nan.
    k = Polynomial(degree=3)
    sample = PairedSample([[1e120], [2e120]], [[1e120], [2e120]])
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NumericalError, match="^dependence statistic evaluated to nan$"):
            statistic(k, k, sample)


def test_paired_samples_validate_their_shapes():
    with pytest.raises(InputError):
        PairedSample(np.zeros((3, 1)), np.zeros((4, 1)))
    with pytest.raises(InputError):
        hsic_empirical(
            SquaredExponential(),
            SquaredExponential(),
            PairedSample(np.zeros((1, 1)), np.zeros((1, 1))),
        )


# ----------------------------------------------------------------------
# the process-average view
# ----------------------------------------------------------------------


def test_exact_process_average_equals_the_empirical_statistic():
    kx = SquaredExponential(gamma=0.8)
    ky = Matern(alpha=1.5, h=0.7)
    for seed in range(5):
        sample = random_sample(10 + seed, 12)
        empirical = hsic_empirical(kx, ky, sample)
        exact = hsic_gp_exact(kx, ky, sample)
        assert exact == pytest.approx(empirical, abs=1e-10)


def test_monte_carlo_process_average_is_deterministic_and_consistent():
    kx = SquaredExponential(gamma=0.9)
    ky = Matern(alpha=0.5, h=0.8)
    sample = random_sample(20, 20)
    estimate, se, spread = hsic_gp_monte_carlo(kx, ky, sample, draws=10_000, seed=5)
    again = hsic_gp_monte_carlo(kx, ky, sample, draws=10_000, seed=5)
    assert again == (estimate, se, spread)
    exact = hsic_gp_exact(kx, ky, sample)
    assert abs(estimate - exact) <= 5.0 * spread
    other, _, _ = hsic_gp_monte_carlo(kx, ky, sample, draws=10_000, seed=6)
    assert other != estimate


def test_the_exact_standard_error_matches_the_spread_of_the_draws():
    # Isserlis gives Var s = (2 tr(A)^2 + 6 tr(A^2)) / n^4, A = (HKH)(HLH),
    # for one draw's value s; over 200000 draws at n = 4 the sample standard
    # error lands within 3% of it on seeds 0-9.
    kx, ky = SquaredExponential(gamma=0.9), Matern(alpha=1.5, h=0.7)
    sample = random_sample(3, 4)
    _, se, spread = hsic_gp_monte_carlo(kx, ky, sample, draws=200_000, seed=0)
    assert se == pytest.approx(spread, rel=0.05)
    K = dependence.gram(kx, sample.X, sample.X)
    L = dependence.gram(ky, sample.Y, sample.Y)
    H = np.eye(4) - 0.25
    A = H @ K @ H @ H @ L @ H
    variance = (2.0 * np.trace(A) ** 2 + 6.0 * np.trace(A @ A)) / 4**4
    assert spread == pytest.approx(np.sqrt(variance / 200_000), rel=1e-12)


def test_monte_carlo_collapses_exactly_for_a_constant_coordinate():
    rng = np.random.default_rng(7)
    sample = PairedSample(np.full((8, 1), 0.3), rng.normal(size=(8, 1)))
    estimate, se, _ = hsic_gp_monte_carlo(
        SquaredExponential(), SquaredExponential(), sample, draws=200, seed=0
    )
    assert estimate == 0.0
    assert se == 0.0


def test_monte_carlo_needs_at_least_two_draws():
    with pytest.raises(InputError):
        hsic_gp_monte_carlo(
            SquaredExponential(), SquaredExponential(), random_sample(8, 5), draws=1
        )


@pytest.mark.parametrize(
    "draws,message",
    [
        (2.5, "^sample count must be an integer$"),
        ("10", "^sample count must be an integer$"),
        (True, "^sample count must be an integer$"),
        (-3, "^sample count must be nonnegative$"),
        (1, "^at least two draws are needed for a standard error$"),
    ],
)
def test_monte_carlo_draws_are_a_sample_count_of_at_least_two(draws, message):
    k, sample = SquaredExponential(), random_sample(8, 5)
    with pytest.raises(InputError, match=message):
        hsic_gp_monte_carlo(k, k, sample, draws=draws)
    ten = hsic_gp_monte_carlo(k, k, sample, draws=np.int64(10), seed=3)
    assert ten == hsic_gp_monte_carlo(k, k, sample, draws=10, seed=3)


_MC_SIZES = (2, 7, 50, 64, 80)


def _mc_draw_counts(n):
    """Two draws, one block of rows less one, one block, one more, 10000."""
    rows = _BLOCK_ENTRIES // n
    return (2, rows - 1, rows, rows + 1, 10_000)


def _two_array_mismatches(n, draws):
    """Whether the estimate differs from drawing f and g whole, then reducing."""
    kx, ky = SquaredExponential(gamma=0.9), Matern(alpha=1.5, h=0.7)
    sample = random_sample(n, n)
    K = dependence.gram(kx, sample.X, sample.X)
    L = dependence.gram(ky, sample.Y, sample.Y)
    H = np.eye(n) - np.full((n, n), 1.0 / n)
    rng = np.random.default_rng(draws)
    fc = sample_gaussian(rng, H @ K @ H, draws, K)
    gc = sample_gaussian(rng, H @ L @ H, draws, L)
    covariances = np.einsum("ij,ij->i", fc, gc) / n
    samples = covariances * covariances
    expected = (float(samples.mean()), float(samples.std(ddof=1) / np.sqrt(draws)))
    found = hsic_gp_monte_carlo(kx, ky, sample, draws, seed=draws)[:2]
    return np.array(found).tobytes() != np.array(expected).tobytes()


@pytest.mark.parametrize("threads", ["1", "2"])
def test_blocked_monte_carlo_is_bitwise_the_two_array_formula_under_one_and_two_blas_threads(
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
        "import test_dependence as t\n"
        "print([(n, d) for n in t._MC_SIZES for d in t._mc_draw_counts(n)"
        " if t._two_array_mismatches(n, d)])"
    )
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=False
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def test_monte_carlo_holds_one_process_draws_and_a_few_blocks():
    n, draws = 50, 10_000
    kx, ky = SquaredExponential(gamma=0.9), Matern(alpha=1.5, h=0.7)
    sample = random_sample(9, n)
    tracemalloc.start()
    try:
        hsic_gp_monte_carlo(kx, ky, sample, draws)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # f's draws whole, g's normals and draws one block each, the per-draw
    # vectors (under a block each), and a few n x n matrices (K, L, H, roots).
    assert peak < 8 * draws * n + 4 * 8 * _BLOCK_ENTRIES + 16 * 8 * n * n + 16_384


# ----------------------------------------------------------------------
# the distance-covariance specialization
# ----------------------------------------------------------------------


def test_distance_covariance_vanishes_for_a_constant_coordinate():
    rng = np.random.default_rng(9)
    sample = PairedSample(rng.normal(size=(6, 1)), np.full((6, 1), 2.0))
    value = hsic_empirical(BrownianDistance(), BrownianDistance(), sample)
    assert value == pytest.approx(0.0, abs=1e-14)


def test_distance_covariance_of_a_perfect_linear_relation():
    # X = (0, 1, 2) against Y = 2X gives the rational value 80/81, worked
    # out by enumerating all index quadruples
    sample = PairedSample(
        np.array([[0.0], [1.0], [2.0]]), np.array([[0.0], [2.0], [4.0]])
    )
    value = hsic_empirical(BrownianDistance(), BrownianDistance(), sample)
    assert value == pytest.approx(80.0 / 81.0, rel=1e-12)
    assert value == pytest.approx(
        oracles.dcov_loops(sample.X, sample.Y), rel=1e-12
    )


def test_distance_covariance_matches_the_loop_oracle_on_random_data():
    for seed in range(4):
        sample = random_sample(30 + seed, 7, dx=2, dy=2)
        value = hsic_empirical(BrownianDistance(), BrownianDistance(), sample)
        expected = oracles.dcov_loops(sample.X, sample.Y)
        assert value == pytest.approx(expected, rel=1e-8, abs=1e-12)


def test_distance_covariance_agrees_with_the_brownian_kernel_statistic():
    # centering kills the additive norm terms of the Brownian kernel, so
    # its centered Gram matrix is exactly the negated centered distance
    # matrix and the two statistics coincide
    sample = random_sample(40, 9)
    via_kernel = hsic_empirical(BrownianDistance(), BrownianDistance(), sample)
    direct = oracles.dcov_loops(sample.X, sample.Y)
    assert via_kernel == pytest.approx(direct, rel=1e-8, abs=1e-12)
