"""Kernel families: closed forms, Gram assembly, text form,
and the shared coercers of per-point values and sample counts."""

import dataclasses
import hashlib
import inspect
import math
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import _oracles as oracles
import kernelbridge
from kernelbridge import duality, gp, kernels, krr, linalg
from kernelbridge.duality import worst_case_error
from kernelbridge.embeddings import DiscreteMeasure, verify_average_case
from kernelbridge.errors import InputError, NumericalError
from kernelbridge.experiments import rate_experiment, variance_contraction_experiment
from kernelbridge.gp import sample_prior
from kernelbridge.kernels import (
    BrownianDistance,
    Dataset,
    Kernel,
    KroneckerDelta,
    Matern,
    Polynomial,
    RepresenterFunction,
    SquaredExponential,
    Sum,
    eval as kernel_eval,
    format_kernel,
    gram,
    parse_kernel,
)
from kernelbridge.linalg import _BLOCK_ENTRIES, factor_system, row_blocks
from kernelbridge.quadrature import bq_posterior, kq_weights
from kernelbridge.spectral import (
    hs_inclusion_diagnostic,
    kl_sample,
    mercer_kernel_eval,
    nystrom_eigensystem,
)

LEAF_FAMILIES = [
    SquaredExponential(gamma=0.7),
    Matern(alpha=0.5, h=0.6),
    Matern(alpha=1.5, h=1.1),
    Matern(alpha=2.5, h=0.4),
    Polynomial(degree=2, c=0.5),
    KroneckerDelta(scale=1.3),
    BrownianDistance(),
]

COMPOSITE_FAMILIES = [
    Sum(SquaredExponential(gamma=0.8), Matern(alpha=1.5, h=0.5)),
    Sum(Polynomial(degree=1, c=1.0), KroneckerDelta(scale=2.5)),
    Sum(Matern(alpha=0.5, h=0.9), BrownianDistance()),
]


def random_points(seed, n, d):
    rng = np.random.default_rng(seed)
    return rng.uniform(-1.0, 1.0, (n, d))


# ----------------------------------------------------------------------
# pointwise evaluation
# ----------------------------------------------------------------------


def test_squared_exponential_at_zero_lag():
    assert kernel_eval(SquaredExponential(gamma=1.0), 0.3, 0.3) == 1.0


def test_matern_half_is_the_exponential_kernel():
    value = kernel_eval(Matern(alpha=0.5, h=1.0), 0.0, 1.0)
    assert value == pytest.approx(math.exp(-1.0), rel=1e-15)


def test_matern_five_halves_closed_form_frozen_value():
    # scalar re-derivation of (1 + t + t^2/3) e^{-t} at t = sqrt(5) * 0.7
    value = kernel_eval(Matern(alpha=2.5, h=1.0), 0.0, 0.7)
    assert value == pytest.approx(0.7069426819040978, rel=1e-13)


def test_kronecker_delta_case_split():
    delta = KroneckerDelta(scale=1.0)
    assert kernel_eval(delta, 0.5, 0.5) == 1.0
    assert kernel_eval(delta, 0.5, 0.5000001) == 0.0


def test_kronecker_delta_equality_is_bitwise():
    delta = KroneckerDelta(scale=2.0)
    # 0.1 + 0.2 differs from 0.3 in the last bit, so the kernel fires only
    # on exact representations
    assert kernel_eval(delta, 0.1 + 0.2, 0.3) == 0.0
    assert kernel_eval(delta, 0.1 + 0.2, 0.1 + 0.2) == 2.0


def test_brownian_kernel_is_twice_the_minimum_on_the_half_line():
    kernel = BrownianDistance()
    rng = np.random.default_rng(5)
    for _ in range(20):
        x, y = rng.uniform(0.0, 3.0, 2)
        assert kernel_eval(kernel, x, y) == pytest.approx(
            2.0 * min(x, y), abs=1e-12
        )


def test_brownian_kernel_is_psd_on_the_two_point_set():
    # the set {0, 1} is the minimal witness separating the coefficient-1
    # cross term from a coefficient-2 variant, which has negative determinant;
    # at {1e-200, 2e-200} squared norms underflow where |a - b| does not, so
    # norms and distances must be taken the same exact way
    for points in ([0.0, 1.0], [1e-200, 2e-200]):
        K = gram(BrownianDistance(), points, points)
        assert np.linalg.det(K) >= 0.0
        assert np.all(np.linalg.eigvalsh(K) >= -1e-12)
    np.testing.assert_array_equal(K, [[2e-200, 2e-200], [2e-200, 4e-200]])


@pytest.mark.parametrize("kernel", LEAF_FAMILIES + COMPOSITE_FAMILIES)
def test_eval_is_symmetric_and_matches_the_scalar_oracle(kernel):
    rng = np.random.default_rng(11)
    for _ in range(10):
        x = rng.uniform(-1.0, 1.0, 3)
        y = rng.uniform(-1.0, 1.0, 3)
        forward = kernel_eval(kernel, x, y)
        assert forward == pytest.approx(kernel_eval(kernel, y, x), rel=1e-12, abs=1e-15)
        assert forward == pytest.approx(
            oracles.kernel_value(kernel, x, y), rel=1e-12, abs=1e-15
        )


@pytest.mark.parametrize("kernel", LEAF_FAMILIES + COMPOSITE_FAMILIES)
def test_self_evaluation_is_nonnegative(kernel):
    rng = np.random.default_rng(13)
    for _ in range(10):
        x = rng.uniform(-2.0, 2.0, 2)
        assert kernel_eval(kernel, x, x) >= 0.0


def test_eval_rejects_dimension_mismatch():
    with pytest.raises(InputError):
        kernel_eval(SquaredExponential(), [0.0, 1.0], [0.0])


def test_eval_rejects_non_finite_input():
    with pytest.raises(InputError):
        kernel_eval(SquaredExponential(), [np.nan], [0.0])
    with pytest.raises(InputError):
        kernel_eval(SquaredExponential(), [0.0], [np.inf])


# ----------------------------------------------------------------------
# hyperparameter validation
# ----------------------------------------------------------------------


@pytest.mark.parametrize(
    "build",
    [
        lambda: SquaredExponential(gamma=0.0),
        lambda: SquaredExponential(gamma=-1.0),
        lambda: Matern(alpha=1.0, h=1.0),
        lambda: Matern(alpha=1.5, h=0.0),
        lambda: Polynomial(degree=0, c=0.0),
        lambda: Polynomial(degree=2, c=-0.1),
        lambda: KroneckerDelta(scale=-1.0),
        lambda: KroneckerDelta(scale=np.inf),
        lambda: Sum(SquaredExponential(), "not a kernel"),
        lambda: Sum("not a kernel", SquaredExponential()),
    ],
)
def test_invalid_hyperparameters_are_rejected(build):
    with pytest.raises(InputError):
        build()


# ----------------------------------------------------------------------
# Gram matrices
# ----------------------------------------------------------------------


def test_delta_gram_on_distinct_points_is_the_identity():
    K = gram(KroneckerDelta(scale=1.0), [0.0, 1.0, 2.5], [0.0, 1.0, 2.5])
    np.testing.assert_array_equal(K, np.eye(3))


def test_linear_kernel_gram_is_the_outer_product():
    X = random_points(7, 6, 3)
    K = gram(Polynomial(degree=1, c=0.0), X, X)
    direct = np.array(
        [[sum(X[i, k] * X[j, k] for k in range(3)) for j in range(6)] for i in range(6)]
    )
    np.testing.assert_allclose(K, direct, rtol=1e-14)


@pytest.mark.parametrize("kernel", LEAF_FAMILIES + COMPOSITE_FAMILIES)
@pytest.mark.parametrize("seed,n,d", [(0, 12, 1), (1, 30, 2), (2, 18, 3)])
def test_gram_matrices_are_symmetric_and_psd(kernel, seed, n, d):
    X = random_points(seed, n, d)
    K = gram(kernel, X, X)
    scale = max(np.abs(K).max(), 1.0)
    assert np.abs(K - K.T).max() <= 1e-12 * scale
    lam = np.linalg.eigvalsh(0.5 * (K + K.T))
    assert lam.min() >= -1e-8 * max(lam.max(), 0.0)


@pytest.mark.parametrize("kernel", LEAF_FAMILIES)
def test_gram_matches_the_loop_oracle(kernel):
    A = random_points(21, 7, 2)
    B = random_points(22, 5, 2)
    np.testing.assert_allclose(
        gram(kernel, A, B), oracles.gram_loops(kernel, A, B), rtol=1e-12, atol=1e-15
    )


def test_composite_grams_equal_their_componentwise_combinations():
    X = random_points(3, 9, 2)
    left = Matern(alpha=1.5, h=0.7)
    right = SquaredExponential(gamma=1.3)
    np.testing.assert_array_equal(
        gram(Sum(left, right), X, X), gram(left, X, X) + gram(right, X, X)
    )
    np.testing.assert_array_equal(
        gram(Sum(Sum(left, right), left), X, X),
        gram(left, X, X) + gram(right, X, X) + gram(left, X, X),
    )


def reference_gram(kernel, A, B):
    """Gram assembly through the full (n, m, d) difference tensor."""
    diff = A[:, None, :] - B[None, :, :]
    sq = np.einsum("ijk,ijk->ij", diff, diff)
    if isinstance(kernel, SquaredExponential):
        return np.exp(-sq / kernel.gamma**2)
    if isinstance(kernel, Matern):
        r = np.sqrt(sq)
        if kernel.alpha == 0.5:
            return np.exp(-r / kernel.h)
        if kernel.alpha == 1.5:
            t = (math.sqrt(3.0) / kernel.h) * r
            return (1.0 + t) * np.exp(-t)
        t = (math.sqrt(5.0) / kernel.h) * r
        return (1.0 + t + t * t / 3.0) * np.exp(-t)
    if isinstance(kernel, Polynomial):
        return (A @ B.T + kernel.c) ** kernel.degree
    if isinstance(kernel, KroneckerDelta):
        equal = np.all(A[:, None, :] == B[None, :, :], axis=-1)
        return kernel.scale * equal.astype(float)
    if isinstance(kernel, BrownianDistance):
        na = np.linalg.norm(A, axis=1)
        nb = np.linalg.norm(B, axis=1)
        return na[:, None] + nb[None, :] - np.sqrt(sq)
    return reference_gram(kernel.left, A, B) + reference_gram(kernel.right, A, B)


@pytest.mark.parametrize("kernel", LEAF_FAMILIES + COMPOSITE_FAMILIES)
@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("n,m", [(0, 4), (1, 1), (7, 5), (64, 33)])
def test_gram_is_bitwise_the_difference_tensor_formula(kernel, d, n, m):
    A = random_points(100 + n, n, d)
    B = random_points(200 + m, m, d)
    if n and m:
        B[0] = A[-1]  # one exact duplicate: distance 0, delta 1
    A_before, B_before = A.copy(), B.copy()
    K = gram(kernel, A, B)
    np.testing.assert_array_equal(K, reference_gram(kernel, A, B), strict=True)
    np.testing.assert_array_equal(A, A_before)
    np.testing.assert_array_equal(B, B_before)
    assert not np.shares_memory(K, A) and not np.shares_memory(K, B)


def test_matern_tails_vanish_where_the_scaled_distance_overflows():
    # sqrt(3) r / h (and its square for 5/2) overflows; the exact value is 0.
    with np.errstate(over="ignore"):
        K32 = gram(Matern(alpha=1.5, h=1.0), [[0.0, 0.0]], [[1e160, 0.0]])
        K52 = gram(Matern(alpha=2.5, h=1.0), [0.0], [1e308])
    np.testing.assert_array_equal(K32, [[0.0]], strict=True)
    np.testing.assert_array_equal(K52, [[0.0]], strict=True)


def test_matern_five_halves_never_exceeds_its_diagonal():
    # At t = sqrt(5) r / h = 2e-8 the plain closed form rounds to 1 + 2^-52.
    K = gram(Matern(alpha=2.5, h=1.0), [0.0], [2e-8 / math.sqrt(5)])
    assert K[0, 0] == 1.0


def test_brownian_grams_are_exact_where_squares_overflow_or_underflow():
    # In d = 2 the norms and distances go through squares, which leave the
    # float range at these scales although the kernel values do not.
    K = gram(BrownianDistance(), [[1e200, 0.0]], [[1e200, 0.0]])
    np.testing.assert_array_equal(K, [[2e200]], strict=True)
    tiny = [[1e-200, 0.0], [2e-200, 0.0]]
    np.testing.assert_array_equal(
        gram(BrownianDistance(), tiny, tiny),
        [[2e-200, 2e-200], [2e-200, 4e-200]],
        strict=True,
    )


@pytest.mark.parametrize(
    "gamma,expected",
    [(1e-300, [[1.0, 0.0], [0.0, 1.0]]), (1e300, [[1.0, 1.0], [1.0, 1.0]])],
)
@pytest.mark.parametrize("d", [1, 2])
def test_squared_exponential_grams_are_exact_where_gamma_squared_leaves_the_float_range(
    gamma, expected, d
):
    # gamma**2 underflows to 0 (0/0 on the diagonal) or overflows.
    X = np.zeros((2, d))
    X[1, 0] = 1.0
    np.testing.assert_array_equal(
        gram(SquaredExponential(gamma=gamma), X, X), expected, strict=True
    )


@pytest.mark.parametrize(
    "gamma,X,off_diagonal",
    [
        # The squared distance 1e400 overflows, but r / gamma = 1e-100.
        (1e300, [[0.0, 3.0], [1e200, 1.0]], 1.0),
        # gamma**2 is a normal float, the squared distance 4e308 is not.
        (1e154, [[0.0, 0.0], [2e154, 0.0]], math.exp(-4.0)),
    ],
)
def test_squared_exponential_grams_are_exact_where_the_squared_distances_overflow(
    gamma, X, off_diagonal
):
    np.testing.assert_array_equal(
        gram(SquaredExponential(gamma=gamma), X, X),
        [[1.0, off_diagonal], [off_diagonal, 1.0]],
        strict=True,
    )


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("shift", [-1000, -600, 600, 1000])
def test_brownian_grams_scale_exactly_by_powers_of_two(d, shift):
    # The kernel is homogeneous of degree 1, so far outside the normal range
    # it must give the normal-range bits scaled by the same power of two.
    A = random_points(41, 9, d)
    B = random_points(42, 6, d)
    K = gram(BrownianDistance(), np.ldexp(A, shift), np.ldexp(B, shift))
    np.testing.assert_array_equal(
        K, np.ldexp(gram(BrownianDistance(), A, B), shift), strict=True
    )


# Coordinates of either sign with magnitudes log-uniform in 1e-300..1e300.
_WIDE_COORDINATE = st.builds(
    lambda sign, exponent: sign * 10.0**exponent,
    st.sampled_from((-1.0, 1.0)),
    st.floats(-300.0, 300.0),
)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(
    alpha=st.sampled_from((0.5, 1.5, 2.5)),
    d=st.sampled_from((1, 2, 3)),
    data=st.data(),
)
def test_matern_grams_stay_finite_and_bounded_across_the_float_range(alpha, d, data):
    points = st.lists(
        st.lists(_WIDE_COORDINATE, min_size=d, max_size=d), min_size=1, max_size=4
    )
    A = data.draw(points)
    B = data.draw(points)
    with np.errstate(over="ignore"):
        K = gram(Matern(alpha=alpha, h=1.0), A, B)
    assert np.all(np.isfinite(K))
    assert np.all((K >= 0.0) & (K <= 1.0))


# Length scales log-uniform in 1e-300..1e300.
_WIDE_SCALE = st.floats(-300.0, 300.0).map(lambda exponent: 10.0**exponent)

# Every leaf family but the polynomial, whose value leaves the float range by
# design, and the one combinator.
_WIDE_LEAF = st.one_of(
    _WIDE_SCALE.map(lambda gamma: SquaredExponential(gamma=gamma)),
    _WIDE_SCALE.map(lambda h: Matern(alpha=2.5, h=h)),
    st.just(BrownianDistance()),
    _WIDE_SCALE.map(lambda scale: KroneckerDelta(scale=scale)),
)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(
    kernel=_WIDE_LEAF | st.builds(Sum, _WIDE_LEAF, _WIDE_LEAF),
    d=st.sampled_from((1, 2, 3)),
    data=st.data(),
)
def test_grams_stay_finite_symmetric_and_psd_across_the_float_range(kernel, d, data):
    A = data.draw(
        st.lists(
            st.lists(_WIDE_COORDINATE, min_size=d, max_size=d), min_size=1, max_size=5
        )
    )
    with np.errstate(over="ignore"):
        K = gram(kernel, A, A)
    assert np.all(np.isfinite(K))
    np.testing.assert_array_equal(K, K.T)
    trace = np.trace(K)
    assert np.linalg.eigvalsh(K).min() >= -8 * np.finfo(float).eps * trace


@settings(max_examples=200, derandomize=True, deadline=None)
@given(
    alpha=st.sampled_from((0.5, 1.5, 2.5)),
    x=_WIDE_COORDINATE,
    y=_WIDE_COORDINATE,
    log_h=st.floats(-300.0, 300.0),
)
def test_matern_grams_off_the_line_match_the_line_bitwise(alpha, x, y, log_h):
    # Points that differ in one coordinate only are at the d = 1 distance,
    # which is exact, whatever the scale of the coordinates and of h.
    kernel = Matern(alpha=alpha, h=10.0**log_h)
    with np.errstate(over="ignore"):
        on_line = gram(kernel, [[x]], [[y]])
        in_plane = gram(kernel, [[x, 0.0]], [[y, 0.0]])
        in_space = gram(kernel, [[0.0, x, 0.0]], [[0.0, y, 0.0]])
    np.testing.assert_array_equal(in_plane, on_line, strict=True)
    np.testing.assert_array_equal(in_space, on_line, strict=True)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(
    degree=st.integers(1, 4),
    c=st.sampled_from((0.0, 0.5, 2.0)),
    d=st.sampled_from((1, 2, 3)),
    data=st.data(),
)
def test_polynomial_grams_are_finite_and_symmetric_or_named_as_not_finite(
    degree, c, d, data
):
    # The polynomial's value leaves the float range by design, so across the
    # range its Gram is either finite or rejected by name where it is used.
    # pyproject.toml turns any RuntimeWarning that escapes into an error.
    A = data.draw(
        st.lists(
            st.lists(_WIDE_COORDINATE, min_size=d, max_size=d), min_size=1, max_size=5
        )
    )
    K = gram(Polynomial(degree=degree, c=c), A, A)
    if np.all(np.isfinite(K)):
        np.testing.assert_array_equal(K, K.T)
        return
    message = "^K_XX has a non-finite entry$"
    with pytest.raises(NumericalError, match=message):
        linalg.require_invertible(K, name="K_XX")
    with pytest.raises(NumericalError, match=message):
        factor_system(K, 0.0, name="K_XX")


def test_polynomial_overflow_gives_inf_without_a_warning():
    # linalg names the non-finite entry; numpy has nothing to add.
    K = gram(Polynomial(degree=3), [[1e120]], [[1e120]])
    np.testing.assert_array_equal(K, [[np.inf]], strict=True)


# Two inputs on the line whose difference overflows.
_FARTHER_THAN_THE_FLOAT_RANGE = np.array([[-1e308], [1e308]])


@pytest.mark.parametrize("alpha", [0.5, 1.5, 2.5])
def test_matern_inputs_farther_apart_than_the_float_range_are_uncorrelated(alpha):
    # pyproject.toml turns any RuntimeWarning that escapes into an error.
    X = _FARTHER_THAN_THE_FLOAT_RANGE
    np.testing.assert_array_equal(gram(Matern(alpha=alpha), X, X), np.eye(2), strict=True)


def test_brownian_norms_past_the_float_range_are_named_as_not_finite():
    X = _FARTHER_THAN_THE_FLOAT_RANGE
    K = gram(BrownianDistance(), X, X)
    with pytest.raises(NumericalError, match="^K_XX has a non-finite entry$"):
        factor_system(K, 0.1, name="K_XX")


@pytest.mark.parametrize("kernel", LEAF_FAMILIES + COMPOSITE_FAMILIES)
@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("n,m", [(300, 129), (37, 5000), (5, 20_000)])
def test_a_gram_of_several_row_blocks_is_bitwise_one_gram_call(kernel, d, n, m):
    A = random_points(300 + n, n, d)
    B = random_points(400 + m, m, d)
    B[0] = A[-1]  # one exact duplicate: distance 0, delta 1
    assert len(row_blocks(n, m)) > 1
    np.testing.assert_array_equal(gram(kernel, A, B), kernel._gram(A, B), strict=True)


@pytest.mark.parametrize(
    "kernel,d",
    [
        (SquaredExponential(gamma=1e-200), 1),
        (SquaredExponential(gamma=1e-200), 2),
        (Matern(alpha=1.5, h=1e-200), 2),
        (BrownianDistance(), 2),
    ],
)
def test_row_blocks_scale_by_the_exponent_of_the_whole_point_sets(kernel, d):
    # Rows of order 1e-200 and, in the last block, one row of 1e200: the
    # whole sets scale by 2^-665, which flushes the small coordinates (the
    # known limit in the module docstring). A block scaled by its own
    # exponent would keep them, and the entries would depend on the blocking.
    A = np.zeros((300, d))
    A[:, 0] = np.arange(1, 301) * 1e-200
    A[-1, 0] = 1e200
    B = np.zeros((200, d))
    B[:, 0] = np.arange(1, 201) * 1e-200
    blocks = row_blocks(len(A), len(B))
    assert len(blocks) > 1 and blocks[-1].start < len(A) - 1
    with np.errstate(over="ignore"):
        K = gram(kernel, A, B)
        np.testing.assert_array_equal(K, kernel._gram(A, B), strict=True)
        assert not np.array_equal(K[blocks[0]], kernel._gram(A[blocks[0]], B))


@pytest.mark.parametrize("kernel", LEAF_FAMILIES + COMPOSITE_FAMILIES)
@pytest.mark.parametrize("d", [1, 3])
def test_a_blocked_gram_holds_its_result_and_a_few_blocks(kernel, d):
    A, B = random_points(5, 600, d), random_points(6, 500, d)
    tracemalloc.start()
    try:
        K = gram(kernel, A, B)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < K.nbytes + 6 * 8 * _BLOCK_ENTRIES


# One kernel per family, as the Gram pins below name them.
PINNED_FAMILIES = {
    "se": SquaredExponential(gamma=0.7),
    "matern-1/2": Matern(alpha=0.5, h=0.6),
    "matern-3/2": Matern(alpha=1.5, h=1.1),
    "matern-5/2": Matern(alpha=2.5, h=0.4),
    "polynomial": Polynomial(degree=3, c=0.5),
    "delta": KroneckerDelta(scale=1.3),
    "brownian": BrownianDistance(),
    "sum": Sum(SquaredExponential(gamma=0.8), Matern(alpha=1.5, h=0.5)),
}

# sha256 of gram(kernel, A, B).tobytes() by (family, d, n): 20 x 15 fits in
# one row block, 300 x 129 spans several. Each is the same under 1 and 2
# BLAS threads, so a change to a family's scaling or blocking that moves a
# bit shows here.
GRAM_DIGESTS = {
    ("se", 1, 20): "34853df9d1a3a63930c7a10e89da3e23b91a5e6cd4b17ba66cd7aaef59a41863",
    ("se", 1, 300): "405bd99da146fa7f40e45d1584e1fe8caec8243958b651a0c86e7e3b33f34881",
    ("se", 2, 20): "7b2c7b756c071609c6d7caef0d7836ea32b4e712c191db3246141a7179f99dcc",
    ("se", 2, 300): "118ba2a92d0639ad4b8911161b98fede06ddd8b18ff0291445dc4ce3cbb8598e",
    ("se", 3, 20): "4b59e563479e03d9ffaea3deb3d17afc65e4323ff119297869d4c78fa248e4fa",
    ("se", 3, 300): "7bf5928c808fdf6f1f523743dde66218574fdf8f6e974f95f2e8be41f2183c92",
    ("matern-1/2", 1, 20): "ef5ca91fce4e1ca3ff23942f1be9de9c3f66d735a7c5ee0a0293965e8980cb81",
    ("matern-1/2", 1, 300): "7c80f8170a82fce2e0ac76a56365b0f723017c1a4b27377d9e379566c1f8a176",
    ("matern-1/2", 2, 20): "d7b94dc9c1680079c40093bb7eb9d621329749f6a75e78dad4695c8913332681",
    ("matern-1/2", 2, 300): "6553a665ee5f204ffc7e3ed483447ccb3809de9c186363856ce1739ddb1d4499",
    ("matern-1/2", 3, 20): "9c6138081226a76181baf4859559661d9bfde40cdcb2edb4b25e549ea58ad88e",
    ("matern-1/2", 3, 300): "24a373380eb0df0ba34e67800e919ea09aa19c85303f5cfb5a36826f3f5969c0",
    ("matern-3/2", 1, 20): "a2348eef831c7402dd3da7cb5f0dd370043f94d03f0b8f9d335e7e38c238360b",
    ("matern-3/2", 1, 300): "c225b649359939cc2849ffb30062b6e7bd99876eb58e5bb8e4b5d5498f8db0e2",
    ("matern-3/2", 2, 20): "2755d6daef3c5fd394d87d8e1a731cc70140434cc787deb5f6c3d7096ed489cc",
    ("matern-3/2", 2, 300): "77617f844c7d165769da171ab6dcc560b7eafb24083ce1293f42d351bcc2d506",
    ("matern-3/2", 3, 20): "12a017ae16e90cefc0b171b76314f76a6a8572772780dcf5c5ae196eabed8a05",
    ("matern-3/2", 3, 300): "53870b02c9f2b6c92e34b0c8456796a9badda97fa735ea9fe8365348b5355a44",
    ("matern-5/2", 1, 20): "fbc0711d7f65957c13102d5974cb484e4dde35fc87cb1fc58b73d261ef9e6fc6",
    ("matern-5/2", 1, 300): "aff7b9cc6d9118e9ec440558797240db4ef26d32baf4d006aa09e64fe7bd4271",
    ("matern-5/2", 2, 20): "e7c82cd7f21a0df3ba5d2fab88babb6a0c8d76d19523df2ffc8e5602bb62ded7",
    ("matern-5/2", 2, 300): "cca5eef9f7b5e8258b0451c14324a2cdc0db04068a9a28b9a015177f747e66a5",
    ("matern-5/2", 3, 20): "3549b979df06c96e7d1b1ea9182f340d6247927086bf27d27a16be4f4dbe96d9",
    ("matern-5/2", 3, 300): "58c2a87ea0ec6d32636ceaf01571fbbde16151383643a8b28a7f1dabc9496b92",
    ("polynomial", 1, 20): "e1b961926f2cfb209f3c783cb87308d411e645dc648721fd127c92f1100403a1",
    ("polynomial", 1, 300): "2b5bfdd8166c41362907f08e2788294f36ea6f1fe281a35223d79a708ecec673",
    ("polynomial", 2, 20): "a7797586c6bd1849f6ca5e66fcfa71b3ac5f45e9ce1865bd82930b2c338f4270",
    ("polynomial", 2, 300): "d17702de199bd782d1fa42f4da768d6daa56e54fc964738d8ac2a3cd2a51064a",
    ("polynomial", 3, 20): "1e004e8bc76ccb16ba6e5090bf6f077126b9a92dcdd2f567c899fbd006fb8699",
    ("polynomial", 3, 300): "d266657627e18074cc32c48783a9a2118991c15d6ccbde4f49ddcd58bf0294d5",
    ("delta", 1, 20): "2a3ff118a09f45bb28d0141ab75784918c7456d66c7fb9a821b7263e0d7186d0",
    ("delta", 1, 300): "4b6e2092a1a034e3887602d96e37ebf2b215e7f3616e5a6194b5060777ff84b0",
    ("delta", 2, 20): "2a3ff118a09f45bb28d0141ab75784918c7456d66c7fb9a821b7263e0d7186d0",
    ("delta", 2, 300): "4b6e2092a1a034e3887602d96e37ebf2b215e7f3616e5a6194b5060777ff84b0",
    ("delta", 3, 20): "2a3ff118a09f45bb28d0141ab75784918c7456d66c7fb9a821b7263e0d7186d0",
    ("delta", 3, 300): "4b6e2092a1a034e3887602d96e37ebf2b215e7f3616e5a6194b5060777ff84b0",
    ("brownian", 1, 20): "c5a2a9a56f738c3d8fe36b06b06e03600a4f170c082b01fc1d0fb2221899ac66",
    ("brownian", 1, 300): "176bbc006b2ad2e840c4d3c9dcc54806465542de555b572955c8d5d224882808",
    ("brownian", 2, 20): "da6272a92a783c2950ecb1387128d096dcbfc1c7e287dfa4f790bef4330bcd43",
    ("brownian", 2, 300): "63588944cbeb672fc19e718364a5bb9dba004ed61141f435fa4af468e955e195",
    ("brownian", 3, 20): "51b02c8d7b19c1da16dbcbc8e2744abcf42b231c935f9b1f656ded353387996a",
    ("brownian", 3, 300): "32d501b204fe346c91010130fc2945eaaf8098b59d86148c021d81023cf1c69f",
    ("sum", 1, 20): "46dfffb52c16f37705f9aac7176140a52d1616eb8ce24801c4aa4fd4ba2a0539",
    ("sum", 1, 300): "09f9775e207bc6b83570a807742d5bc64352cbe48b41d0d3278056ef17a4e847",
    ("sum", 2, 20): "1ccebef99b65e6a1814cf2e20fa433fcca45f227aef970e83be8dfb298a16d76",
    ("sum", 2, 300): "e0380181e0a07700d45d30011c9a0a5ff8acf8f3f1162a32188526c19f8ccdfe",
    ("sum", 3, 20): "986ecf3db7a7cfa48d3d82f73ae9c58ff9a57616b6c76835a004a966156a1daa",
    ("sum", 3, 300): "5a9c10bb1e75c4cead0582c43f38a5bc507c53afb1293cadde00ea7336f0bd6e",
}


@pytest.mark.parametrize("family", PINNED_FAMILIES)
@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("n,m", [(20, 15), (300, 129)])
def test_every_family_gram_keeps_its_bits(family, d, n, m):
    rng = np.random.default_rng(100 * d + n)
    A, B = rng.uniform(-2.0, 2.0, (n, d)), rng.uniform(-2.0, 2.0, (m, d))
    A[1::3] = A[0]  # repeated rows, so the delta kernel fires off the diagonal
    B[::4] = A[0]
    assert (len(row_blocks(n, m)) > 1) == (n == 300)
    K = gram(PINNED_FAMILIES[family], A, B)
    assert hashlib.sha256(K.tobytes()).hexdigest() == GRAM_DIGESTS[family, d, n]


def test_gram_rejects_mismatched_dimensions():
    with pytest.raises(InputError):
        gram(SquaredExponential(), np.zeros((3, 2)), np.zeros((3, 1)))


def test_one_dimensional_input_is_read_as_points_on_the_line():
    K = gram(SquaredExponential(), [0.0, 1.0], [[0.0], [1.0]])
    assert K.shape == (2, 2)


# ----------------------------------------------------------------------
# large-order Matern limit
# ----------------------------------------------------------------------


def test_large_order_matern_approaches_the_squared_exponential():
    # the general-order kernel is evaluated through an independent
    # Bessel-function oracle; the library side is the claimed limit
    h = 0.7
    limit = SquaredExponential(gamma=math.sqrt(2.0) * h)
    radii = np.linspace(1e-3 * h, 3.0 * h, 200)
    worst = 0.0
    for r in radii:
        oracle = oracles.matern_bessel_value(50.0, h, float(r))
        worst = max(worst, abs(oracle - kernel_eval(limit, 0.0, r)))
    assert worst <= 2e-2
    # the gap is genuinely small but nonzero; the frozen reference run put
    # it near 4.6e-3
    assert worst == pytest.approx(4.6e-3, abs=2e-3)


# ----------------------------------------------------------------------
# datasets and representer expansions
# ----------------------------------------------------------------------


def test_dataset_accepts_empty_input_sets():
    data = Dataset(np.zeros((0, 2)), np.zeros(0))
    assert data.n == 0 and data.d == 2
    np.testing.assert_array_equal(data.Y, np.zeros(0), strict=True)
    # The outputs are required, with no default.
    (outputs,) = [f for f in dataclasses.fields(Dataset) if f.name == "Y"]
    assert outputs.default is outputs.default_factory is dataclasses.MISSING
    with pytest.raises(TypeError, match="'Y'"):
        Dataset(np.zeros((0, 2)))


def test_a_point_set_without_dimensions_is_rejected_where_it_comes_in():
    for n in (0, 3):
        with pytest.raises(InputError, match="dimension"):
            Dataset(np.zeros((n, 0)), np.zeros(n))
    assert Dataset(np.zeros(0), np.zeros(0)).d == 1


def test_dataset_validates_shapes_and_finiteness():
    with pytest.raises(InputError):
        Dataset(np.array([[0.0], [1.0]]), np.array([1.0]))
    with pytest.raises(InputError):
        Dataset(np.array([[np.nan]]), np.array([0.0]))
    with pytest.raises(InputError):
        Dataset(np.array([[1.0]]), np.array([np.inf]))


def test_representer_function_matches_the_expansion_oracle():
    kernel = Matern(alpha=1.5, h=0.5)
    centers = random_points(31, 5, 2)
    coefficients = np.array([1.0, -0.7, 0.5, 1.2, -0.8])
    f = RepresenterFunction(kernel, centers, coefficients)
    queries = random_points(32, 4, 2)
    for q in queries:
        assert f(q) == pytest.approx(
            oracles.expansion_value(kernel, centers, coefficients, q), rel=1e-12
        )
    np.testing.assert_allclose(
        f.at(queries), [f(q) for q in queries], rtol=1e-14
    )
    assert f.norm() == pytest.approx(
        math.sqrt(oracles.expansion_norm_squared(kernel, centers, coefficients)),
        rel=1e-12,
    )


def test_representer_function_norm_raises_on_a_negative_square(monkeypatch):
    # A Gram matrix of -I makes c^T K c = -2, far below roundoff.
    monkeypatch.setattr(kernels, "gram", lambda kernel, A, B: -np.eye(len(A)))
    f = RepresenterFunction(SquaredExponential(), _TWO_POINTS, [1.0, 1.0])
    with pytest.raises(NumericalError, match="^squared RKHS norm evaluated to"):
        f.norm()


def test_representer_function_rejects_ragged_coefficients():
    with pytest.raises(InputError):
        RepresenterFunction(SquaredExponential(), np.zeros((3, 1)), np.zeros(2))


# Every vector of one value per point goes through kernels.as_values.
_TWO_POINTS = [[0.0], [1.0]]
_PER_POINT_VALUES = [
    ("outputs", "inputs", lambda v: Dataset(_TWO_POINTS, v)),
    (
        "coefficients",
        "centers",
        lambda v: RepresenterFunction(SquaredExponential(), _TWO_POINTS, v),
    ),
    ("weights", "atoms", lambda v: DiscreteMeasure(_TWO_POINTS, v)),
    (
        "weights",
        "nodes",
        lambda v: worst_case_error(SquaredExponential(), _TWO_POINTS, v, [0.5]),
    ),
    (
        "weights",
        "nodes",
        lambda v: nystrom_eigensystem(SquaredExponential(), _TWO_POINTS, v),
    ),
    (
        "function values",
        "nodes",
        lambda v: bq_posterior(
            kq_weights(
                SquaredExponential(), _TWO_POINTS, DiscreteMeasure([[0.5]], [1.0])
            ),
            v,
        ),
    ),
]


@pytest.mark.parametrize(
    "what,per,build",
    _PER_POINT_VALUES,
    ids=[
        "Dataset",
        "RepresenterFunction",
        "DiscreteMeasure",
        "worst_case_error",
        "nystrom_eigensystem",
        "bq_posterior",
    ],
)
def test_per_point_values_name_the_length_and_finiteness_errors(what, per, build):
    build([0.5, 1.0])
    with pytest.raises(InputError, match=f"^3 {what} for 2 {per}$"):
        build([0.5, 1.0, 2.0])
    with pytest.raises(InputError, match=f"^{what} must be finite$"):
        build([0.5, np.nan])


_SAMPLERS = {
    "gp.sample_prior": lambda count: sample_prior(
        SquaredExponential(), np.zeros((2, 1)), count, seed=0
    ),
    "spectral.kl_sample": lambda count: kl_sample(
        nystrom_eigensystem(SquaredExponential(), [[0.0], [1.0]]), 2, count, seed=0
    ),
}


@pytest.mark.parametrize("sampler", _SAMPLERS)
def test_sample_counts_are_integers_at_least_zero(sampler):
    draw = _SAMPLERS[sampler]
    assert draw(np.int64(3)).shape == (3, 2)
    assert draw(0).shape == (0, 2)
    with pytest.raises(InputError, match="^sample count must be an integer$"):
        draw(True)
    with pytest.raises(InputError, match="^sample count must be nonnegative$"):
        draw(-1)


_THREE_NODES = nystrom_eigensystem(SquaredExponential(), [[0.0], [1.0], [2.0]])
_RATES_KERNEL = Matern(alpha=1.5, h=0.2)

# Counts and sizes outside the samplers, each with a valid value: a
# truncation, a replication count and grid sizes may be 1, sample sizes
# increase from at least 2.
_COUNTS = {
    "kl_sample truncation": (lambda v: kl_sample(_THREE_NODES, v, 2, seed=0), 1),
    "mercer_kernel_eval truncation": (
        lambda v: mercer_kernel_eval(_THREE_NODES, v, 0, 1),
        1,
    ),
    "hs_inclusion_diagnostic truncation": (
        lambda v: hs_inclusion_diagnostic(_THREE_NODES, 0.5, v),
        1,
    ),
    "rate_experiment sizes": (
        lambda v: rate_experiment(_RATES_KERNEL, sizes=(16, 32, v), replications=1),
        64,
    ),
    "rate_experiment replications": (
        lambda v: rate_experiment(_RATES_KERNEL, sizes=(16, 32, 64), replications=v),
        1,
    ),
    "variance_contraction_experiment grid sizes": (
        lambda v: variance_contraction_experiment(
            Matern(alpha=0.5, h=0.3), 0.0, 1.0, 0.37, (v, 16, 32)
        ),
        1,
    ),
}


@pytest.mark.parametrize("site", _COUNTS)
def test_every_count_and_size_is_an_integer(site):
    call, valid = _COUNTS[site]
    call(np.int64(valid))
    for value in [valid + 0.9, True] if valid == 1 else [valid + 0.9]:
        with pytest.raises(InputError, match="^sample count must be an integer$"):
            call(value)


def test_each_primitive_has_one_implementation():
    package = Path(kernelbridge.__file__).parent
    sources = {path.name: path.read_text() for path in sorted(package.glob("*.py"))}
    # Single kernel values go through kernels.eval, not a 1 x 1 Gram matrix.
    one_by_one = re.compile(r"gram\((?:[^()]|\([^()]*\))*\)\[0, 0\]")
    assert [
        name
        for name, text in sources.items()
        if name != "kernels.py" and one_by_one.search(text)
    ] == []
    # Sample counts are checked by kernels.as_count alone.
    assert [
        name for name, text in sources.items() if "sample count must be" in text
    ] == ["kernels.py"]
    # optimal_weights returns the weight array itself.
    assert not hasattr(duality, "WeightVector")
    # Kernel values and Gram matrices are kernels.eval and kernels.gram, not methods.
    assert "__call__" not in vars(Kernel) and "gram" not in vars(Kernel)
    # A ridge fit is a RepresenterFunction: krr defines no public estimator
    # type, evaluator or norm of its own, only fit_krr, whose lambda = 0 is
    # the interpolant.
    assert [
        name
        for name, value in vars(krr).items()
        if getattr(value, "__module__", None) == krr.__name__
        and not name.startswith("_")
    ] == ["fit_krr"]
    # The noise-free worst-case-error identity is the general one at noise 0.
    assert [name for name in vars(duality) if "identity" in name] == [
        "verify_worst_case_identity"
    ]
    # A posterior variance is posterior_cov (posterior_cov_raw unclamped) alone.
    assert [name for name in vars(gp) if "variance" in name] == []
    # An empty data set is the general call at n = 0; only linalg branches on
    # the 0 x 0 matrix.
    empty_branch = re.compile(r"shape\[0\] == 0|\bn (?:== 0|< 1|> 0)")
    general = {
        "gp": sources["gp.py"],
        "krr": sources["krr.py"],
        "duality": sources["duality.py"],
        "verify_average_case": inspect.getsource(verify_average_case),
        "kq_weights": inspect.getsource(kq_weights),
    }
    assert [name for name, text in general.items() if empty_branch.search(text)] == []


# ----------------------------------------------------------------------
# flat text form
# ----------------------------------------------------------------------


def test_parse_kernel_reads_parameters():
    kernel = parse_kernel("matern:alpha=2.5,h=0.5")
    assert kernel == Matern(alpha=2.5, h=0.5)
    assert parse_kernel("se") == SquaredExponential()
    assert parse_kernel("poly:degree=3,c=1.5") == Polynomial(degree=3, c=1.5)
    assert parse_kernel("brownian") == BrownianDistance()


@pytest.mark.parametrize("kernel", LEAF_FAMILIES)
def test_format_kernel_round_trips_every_leaf_family(kernel):
    assert parse_kernel(format_kernel(kernel)) == kernel


def test_format_kernel_rejects_composites():
    message = r"^Sum has no flat text form \(leaf families only\)$"
    with pytest.raises(InputError, match=message):
        format_kernel(Sum(SquaredExponential(), SquaredExponential()))


@pytest.mark.parametrize(
    "text",
    [
        "",
        "   ",
        "gaussian",
        "se:width=1.0",
        "matern:alpha",
        "poly:degree=two",
    ],
)
def test_parse_kernel_rejects_malformed_text(text):
    with pytest.raises(InputError):
        parse_kernel(text)
