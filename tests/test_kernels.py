"""Kernel families: closed forms, Gram assembly, text form,
and the shared coercers of per-point values and sample counts."""

import dataclasses
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
from kernelbridge.errors import InputError, NumericalError, UnsupportedOperationError
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
    with pytest.raises(UnsupportedOperationError):
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
