"""State-space ridge coefficients against the dense KRR and GP formulas.

Each side computes its own formula: ``statespace`` runs a Kalman filter and
a backward Bryson-Frazier pass, ``krr.fit_krr`` factors ``K + ridge I``, and
``gp.posterior_mean_at`` predicts from ``gp.condition``. Agreement is a third
check of the GP = KRR identity.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kernelbridge import experiments, gp, krr, statespace
from kernelbridge.errors import InputError, NumericalError, UnsupportedOperationError
from kernelbridge.kernels import Dataset, Matern, SquaredExponential, gram

EPS = np.finfo(float).eps
# Sizes on either side of one and two chunks of the parallel-in-time passes.
CHUNK = statespace._CHUNK
AT_CHUNKS = [CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 1]


def _inputs(n, seed):
    """Unsorted uniform inputs with an exact duplicate and a 1e-12 near-tie."""
    rng = np.random.default_rng(seed)
    x = rng.uniform(0.0, 1.0, n)
    if n >= 2:
        x[1] = x[0]
    if n >= 4:
        x[3] = x[2] + 1e-12
    return x[:, None], rng.normal(size=n)


@pytest.mark.parametrize("n", [1, 2, *AT_CHUNKS, 64, 1024])
@pytest.mark.parametrize("ridge", [1e-6, 1e-2, 1.0, 100.0])
@pytest.mark.parametrize("h", [0.05, 0.2, 1.0])
@pytest.mark.parametrize("alpha", [0.5, 1.5, 2.5])
def test_coefficients_match_the_dense_krr_and_gp_formulas(alpha, h, ridge, n):
    kernel = Matern(alpha=alpha, h=h)
    X, y = _inputs(n, seed=n)
    data = Dataset(X, y)
    c = statespace.krr_coefficients(kernel, X[None], y[None], ridge)[0]
    dense = krr.fit_krr(kernel, data, ridge / n).coefficients
    system = gram(kernel, X, X) + ridge * np.eye(n)

    def residual(coefficients):
        return np.linalg.norm(system @ coefficients - y) / np.linalg.norm(y)

    # Backward error: within a small factor of the dense Cholesky solve's.
    assert residual(c) <= 4.0 * max(residual(dense), EPS)
    # Forward error: lambda_max(K) <= trace(K) = n bounds the condition number.
    cond = (n + ridge) / ridge
    assert np.linalg.norm(c - dense) <= 16.0 * cond * EPS * np.linalg.norm(dense)
    grid = np.linspace(-0.1, 1.1, 41)
    posterior = gp.condition(kernel, data, ridge)
    np.testing.assert_allclose(
        gram(kernel, grid, X) @ c,
        gp.posterior_mean_at(posterior, grid),
        rtol=0.0,
        atol=16.0 * cond * EPS * np.max(np.abs(y)),
    )


def _residual(kernel, X, y, ridge, coefficients):
    system = gram(kernel, X, X) + ridge * np.eye(len(y))
    return np.linalg.norm(system @ coefficients - y) / np.linalg.norm(y)


def _one_input_at_a_time(kernel, X, y, ridge):
    """The reference: a Kalman filter and Bryson-Frazier pass, input by input."""
    sort = np.argsort(X[:, 0], kind="stable")
    lam, p_inf, terms = statespace._model(kernel)
    A = statespace._transitions(lam, terms, np.diff(X[sort, 0]))
    n, p = y.size, p_inf.shape[0]
    m, P, v, S, G = np.zeros(p), p_inf, y[sort], np.empty(n), np.empty((n, p))
    for i in range(n):
        if i:
            a = A[i - 1]
            m, P = a @ m, a @ P @ a.T + (p_inf - a @ p_inf @ a.T)
        S[i] = P[0, 0] + ridge
        G[i] = P[:, 0] / S[i]
        v[i] -= m[0]
        m, P = m + G[i] * v[i], P - np.outer(G[i], P[0])
    v /= S
    adjoint = np.zeros(p)
    for i in reversed(range(n)):
        if i < n - 1:
            adjoint = A[i].T @ adjoint
        v[i] -= G[i] @ adjoint
        adjoint[0] += v[i]
    c = np.empty(n)
    c[sort] = v
    return c


@settings(max_examples=200, derandomize=True, deadline=None)
@given(
    alpha=st.sampled_from((0.5, 1.5, 2.5)),
    log_h=st.floats(np.log10(0.005), np.log10(2.0)),
    log_ridge=st.floats(-8.0, 2.0),
    n=st.integers(1, 600),
    clusters=st.integers(1, 8),
    log_spread=st.floats(-6.0, -1.0),
    duplicates=st.integers(0, 20),
    seed=st.integers(0, 2**32 - 1),
)
def test_coefficients_are_as_accurate_as_one_input_at_a_time_on_clustered_inputs(
    alpha, log_h, log_ridge, n, clusters, log_spread, duplicates, seed
):
    kernel, ridge = Matern(alpha=alpha, h=10.0**log_h), 10.0**log_ridge
    rng = np.random.default_rng(seed)
    x = rng.choice(rng.uniform(0.0, 1.0, clusters), n) + 10.0**log_spread * rng.normal(size=n)
    copies = rng.integers(0, n, (2, duplicates))
    x[copies[0]] = x[copies[1]]
    X, y = x[:, None], rng.normal(size=n)
    c = statespace.krr_coefficients(kernel, [X], [y], ridge)[0]
    reference = _one_input_at_a_time(kernel, X, y, ridge)
    assert _residual(kernel, X, y, ridge, c) <= 4.0 * max(
        _residual(kernel, X, y, ridge, reference), EPS
    )


def test_a_length_scale_far_past_the_inputs_gives_the_dense_fit():
    # At h = 1e200, lam^2 underflows and a transition over an infinite gap
    # would be inf * 0: the reset to the stationary state must not form one.
    kernel = Matern(alpha=2.5, h=1e200)
    X, y = _inputs(2 * CHUNK + 1, seed=9)
    fit = krr.fit_krr(kernel, Dataset(X, y), 0.1 / len(y))
    c = statespace.krr_coefficients(kernel, [X], [y], 0.1)[0]
    assert np.all(np.isfinite(c))
    dense = _residual(kernel, X, y, 0.1, fit.coefficients)
    assert _residual(kernel, X, y, 0.1, c) <= 4.0 * max(dense, EPS)
    grid = _grid(X)
    values = statespace.predict(kernel, [X], [fit.coefficients], grid)[0]
    assert np.all(np.isfinite(values))
    bound = 8.0 * EPS * np.sum(np.abs(fit.coefficients))
    np.testing.assert_allclose(values, fit.at(grid), rtol=0.0, atol=bound)


def test_a_batch_is_solved_dataset_by_dataset_in_the_original_order():
    kernel = Matern(alpha=1.5, h=0.2)
    rng = np.random.default_rng(5)
    X = rng.uniform(0.0, 1.0, (3, 40, 1))
    Y = rng.normal(size=(3, 40))
    batch = statespace.krr_coefficients(kernel, X, Y, 0.1)
    for b in range(3):
        alone = statespace.krr_coefficients(kernel, X[b : b + 1], Y[b : b + 1], 0.1)
        np.testing.assert_array_equal(batch[b], alone[0])
        dense = krr.fit_krr(kernel, Dataset(X[b], Y[b]), 0.1 / 40).coefficients
        np.testing.assert_allclose(batch[b], dense, rtol=1e-9, atol=1e-12)


def test_inputs_are_validated():
    kernel = Matern(alpha=1.5, h=0.2)
    X = np.linspace(0.0, 1.0, 5)[None, :, None]
    Y = np.ones((1, 5))
    with pytest.raises(InputError):
        statespace.krr_coefficients(kernel, np.repeat(X, 2, axis=2), Y, 0.1)
    with pytest.raises(InputError):
        statespace.krr_coefficients(kernel, X[0], Y, 0.1)
    with pytest.raises(InputError):
        statespace.krr_coefficients(kernel, X, Y[:, :4], 0.1)
    with pytest.raises(InputError):
        statespace.krr_coefficients(kernel, X, np.full((1, 5), np.nan), 0.1)
    for ridge in (0.0, -1.0, np.nan, np.inf):
        with pytest.raises(InputError):
            statespace.krr_coefficients(kernel, X, Y, ridge)
    with pytest.raises(UnsupportedOperationError):
        statespace.krr_coefficients(SquaredExponential(), X, Y, 0.1)


def test_sets_of_any_sizes_are_solved_and_predicted_set_by_set():
    kernel = Matern(alpha=1.5, h=0.2)
    sizes = [0, 1, 2, 64, 2048]
    sets = [_inputs(n, seed=n) for n in sizes]
    ridges = [10.0 ** -(r + 1) for r in range(len(sizes))]
    grid = _grid(sets[-1][0])
    alone = [
        (
            statespace.krr_coefficients(kernel, [X], [y], ridge)[0],
            statespace.predict(kernel, [X], [y], grid)[0],
        )
        for (X, y), ridge in zip(sets, ridges)
    ]
    # Shortest first, then shuffled; the shuffle puts sizes out of order.
    for order in (range(len(sizes)), [3, 0, 4, 2, 1]):
        X = [sets[r][0] for r in order]
        Y = [sets[r][1] for r in order]
        coefficients = statespace.krr_coefficients(kernel, X, Y, [ridges[r] for r in order])
        predictions = statespace.predict(kernel, X, Y, grid)
        assert predictions.shape == (len(sizes), grid.size)
        for c, values, r in zip(coefficients, predictions, order):
            np.testing.assert_array_equal(c, alone[r][0])
            np.testing.assert_array_equal(values, alone[r][1])


def test_sets_of_any_sizes_are_validated():
    kernel = Matern(alpha=1.5, h=0.2)
    X = [np.linspace(0.0, 1.0, n)[:, None] for n in (3, 5)]
    Y = [np.ones(3), np.ones(5)]
    for function in (statespace.krr_coefficients, statespace.predict):
        args = (0.1,) if function is statespace.krr_coefficients else ([0.5],)
        with pytest.raises(InputError, match="2 input sets"):
            function(kernel, X, Y[:1], *args)
        with pytest.raises(InputError, match=r"shape \(n, 1\)"):
            function(kernel, [X[0], X[1][:, 0]], Y, *args)
        for bad in (np.nan, np.inf):
            with pytest.raises(InputError, match="finite"):
                function(kernel, X, [Y[0], np.where(np.arange(5) == 4, bad, 1.0)], *args)
            with pytest.raises(InputError, match="finite"):
                function(kernel, [X[0], np.where(X[1] > 0.9, bad, X[1])], Y, *args)
    for ridges in ([0.1], [0.1, 0.1, 0.1], [[0.1, 0.1]]):
        with pytest.raises(InputError, match="ridge"):
            statespace.krr_coefficients(kernel, X, Y, ridges)
    with pytest.raises(InputError, match="ridge"):
        statespace.krr_coefficients(kernel, X, Y, [0.1, 0.0])


@pytest.mark.parametrize("alpha", [0.5, 1.5, 2.5])
def test_a_length_scale_too_small_for_the_model_raises(alpha):
    # lam = sqrt(2 alpha) / h; P_inf holds lam^2 (3/2) and lam^4 (5/2).
    h = {0.5: 1e-320, 1.5: 1e-160, 2.5: 1e-100}[alpha]
    X = np.linspace(0.0, 1.0, 5)[None, :, None]
    with pytest.raises(NumericalError, match=f"length scale h = {h:g}"):
        statespace.krr_coefficients(Matern(alpha=alpha, h=h), X, np.ones((1, 5)), 0.1)
    with pytest.raises(NumericalError, match=f"length scale h = {h:g}"):
        statespace.predict(Matern(alpha=alpha, h=h), X, np.ones((1, 5)), [0.5])


def test_order_one_half_runs_at_a_tiny_length_scale_without_warnings():
    # lam = 1e300 is finite, and P_inf = [[1]] never squares it. Every kernel
    # value between distinct points is 0, so K + ridge I is (1 + ridge) I.
    kernel = Matern(alpha=0.5, h=1e-300)
    X, y = _inputs(40, seed=4)
    X, y = X[2:], y[2:]  # drop the exact duplicate
    c = statespace.krr_coefficients(kernel, [X], [y], 0.5)[0]
    np.testing.assert_array_equal(c, y / 1.5)
    values = statespace.predict(kernel, [X], [c], X[:, 0])[0]
    np.testing.assert_array_equal(values, c)


def test_the_rate_experiment_builds_no_training_gram_and_factors_nothing(monkeypatch):
    calls = []
    inner = Matern._gram

    def recording(self, A, B):
        calls.append((A, B))
        return inner(self, A, B)

    def refuse(*args, **kwargs):
        raise AssertionError("rate_experiment factored a dense system")

    monkeypatch.setattr(Matern, "_gram", recording)
    monkeypatch.setattr(krr, "factor_system", refuse)
    passes = []
    for name in ("krr_coefficients", "predict"):

        def counting(*args, _name=name, _inner=getattr(statespace, name)):
            passes.append(_name)
            return _inner(*args)

        monkeypatch.setattr(statespace, name, counting)
    centers = experiments._TARGET.centers
    grid_size = experiments._EVALUATION_GRID_SIZE
    kernel = Matern(alpha=1.5, h=0.2)
    for sizes in ((16, 32, 64), (8, 16, 32, 64, 128)):
        calls.clear()
        passes.clear()
        experiments.rate_experiment(kernel, sizes=sizes, replications=2)
        # One state-space pass of each kind serves all sizes and replications.
        assert passes == ["krr_coefficients", "predict"]
        assert calls
        assert not any(A.shape == B.shape and np.array_equal(A, B) for A, B in calls)
        # Only the target is evaluated, on each input set and once on the grid:
        # the fits are predicted on the grid without a cross-Gram.
        assert all(np.array_equal(B, centers) for _, B in calls)
        assert [A.shape[0] for A, _ in calls].count(grid_size) == 1
        assert len(calls) == len(sizes) * 2 + 1


def _grid(X):
    """Points past both ends of the inputs, unsorted, with exact input points."""
    return np.concatenate([np.linspace(1.5, -0.5, 201), X[:8, 0]])


@pytest.mark.parametrize("n", [0, 1, 2, *AT_CHUNKS, 64, 2048])
@pytest.mark.parametrize("alpha", [0.5, 1.5, 2.5])
def test_predictions_match_the_dense_ridge_fit(alpha, n):
    kernel = Matern(alpha=alpha, h=0.2)
    X, y = _inputs(n, seed=n)
    fit = krr.fit_krr(kernel, Dataset(X, y), 1e-4)
    grid = _grid(X)
    values = statespace.predict(kernel, X[None], fit.coefficients[None], grid)
    assert values.shape == (1, grid.size)
    # Forward error: every kernel value is at most 1, so both sides are sums
    # of terms bounded by |c_i|.
    bound = 8.0 * EPS * np.sum(np.abs(fit.coefficients))
    np.testing.assert_allclose(values[0], fit.at(grid), rtol=0.0, atol=bound)


def test_a_batch_is_predicted_fit_by_fit_and_the_input_order_does_not_matter():
    kernel = Matern(alpha=2.5, h=0.2)
    rng = np.random.default_rng(7)
    X = rng.uniform(0.0, 1.0, (3, 40, 1))
    C = rng.normal(size=(3, 40))
    grid = _grid(X[0])
    batch = statespace.predict(kernel, X, C, grid)
    for b in range(3):
        alone = statespace.predict(kernel, X[b : b + 1], C[b : b + 1], grid)
        np.testing.assert_array_equal(batch[b], alone[0])
        shuffled = rng.permutation(40)
        again = statespace.predict(kernel, X[b : b + 1, shuffled], C[b : b + 1, shuffled], grid)
        np.testing.assert_array_equal(batch[b], again[0])


@pytest.mark.parametrize("alpha", [0.5, 1.5, 2.5])
def test_a_gap_past_the_kernel_cap_gives_what_gram_gives(alpha):
    # At h = 1e-4 every kernel value is exactly 0 past a distance of 0.075.
    kernel = Matern(alpha=alpha, h=1e-4)
    rng = np.random.default_rng(3)
    left = rng.uniform(0.0, 0.01, 20)
    right = rng.uniform(0.99, 1.0, 20)
    X = np.concatenate([left, right])[:, None]
    c = rng.normal(size=40)
    far = np.array([0.2, 0.5, 0.8])
    values = statespace.predict(kernel, X[None], c[None], far)[0]
    np.testing.assert_array_equal(values, gram(kernel, far, X) @ c)
    np.testing.assert_array_equal(values, 0.0)
    # Nothing crosses the gap: each cluster predicts as if it were alone.
    near = np.linspace(-0.001, 0.011, 25)
    for cluster, shift in ((slice(0, 20), 0.0), (slice(20, 40), 0.99)):
        alone = statespace.predict(kernel, X[None, cluster], c[None, cluster], near + shift)
        both = statespace.predict(kernel, X[None], c[None], near + shift)
        np.testing.assert_array_equal(both, alone)


def test_predictions_validate_their_inputs():
    kernel = Matern(alpha=1.5, h=0.2)
    X = np.linspace(0.0, 1.0, 5)[None, :, None]
    c = np.ones((1, 5))
    grid = np.linspace(0.0, 1.0, 7)
    with pytest.raises(UnsupportedOperationError):
        statespace.predict(SquaredExponential(), X, c, grid)
    for bad in (
        (X[0], c, grid),
        (np.repeat(X, 2, axis=2), c, grid),
        (X, c[:, :4], grid),
        (X, np.full((1, 5), np.nan), grid),
        (X, c, grid[:, None]),
        (X, c, np.array([0.5, np.inf])),
    ):
        with pytest.raises(InputError):
            statespace.predict(kernel, *bad)


@pytest.mark.parametrize("alpha", [1.5, 2.5])
def test_a_prediction_that_is_not_finite_raises(alpha):
    # Five coefficients of 1e308 on one point sum past the float range.
    X = np.full((1, 5, 1), 0.5)
    with np.errstate(all="ignore"), pytest.raises(NumericalError, match="prediction"):
        statespace.predict(Matern(alpha=alpha, h=0.2), X, np.full((1, 5), 1e308), [0.5])
