"""Optimal quadrature against discrete targets, posterior integrals,
fill distances, variance contraction."""

import math
from dataclasses import asdict, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import _oracles as oracles
from kernelbridge.embeddings import DiscreteMeasure, mean_embed
from kernelbridge.errors import InputError, NumericalError, UnsupportedOperationError
from kernelbridge.kernels import (
    Matern,
    SquaredExponential,
    eval as kernel_eval,
    gram,
)
from kernelbridge.experiments import fill_distance, variance_contraction_experiment
from kernelbridge.quadrature import bq_posterior, kq_weights, verify_bq_kq_identity


def two_node_rule(lam=0.0):
    target = DiscreteMeasure(np.array([[0.25], [0.75]]), [0.3, 0.7])
    return kq_weights(
        SquaredExponential(gamma=1.0), np.array([[0.0], [1.0]]), target, lam
    )


def random_instance(seed, n, m, d=1):
    rng = np.random.default_rng(seed)
    nodes = rng.uniform(-1.0, 1.0, (n, d))
    atoms = rng.uniform(-1.0, 1.0, (m, d))
    weights = rng.uniform(0.1, 1.0, m)
    weights /= weights.sum()
    return nodes, DiscreteMeasure(atoms, weights)


# ----------------------------------------------------------------------
# weights
# ----------------------------------------------------------------------


def test_two_node_rule_matches_the_frozen_hand_solve():
    # the 2x2 system was inverted symbolically and evaluated with scalar
    # arithmetic; every reported quantity is pinned
    rule = two_node_rule()
    np.testing.assert_allclose(
        rule.target_mean_at_nodes,
        [0.6806718961556888, 0.8285239913887099],
        rtol=1e-12,
    )
    np.testing.assert_allclose(
        rule.weights, [0.434706014850996, 0.6686045855714609], rtol=1e-11
    )
    assert rule.target_double_integral == pytest.approx(0.90709632888999, rel=1e-12)


def test_nodes_on_the_target_atoms_recover_the_target_weights():
    rng = np.random.default_rng(0)
    atoms = rng.uniform(-1.0, 1.0, (5, 1))
    weights = rng.uniform(0.1, 1.0, 5)
    weights /= weights.sum()
    target = DiscreteMeasure(atoms, weights)
    rule = kq_weights(Matern(alpha=1.5, h=0.8), atoms, target)
    np.testing.assert_allclose(rule.weights, weights, atol=1e-10)
    report = verify_bq_kq_identity(rule)
    assert report.lhs <= 1e-12
    assert report.rhs <= 1e-12


def test_uniform_target_on_the_nodes_gives_uniform_weights():
    nodes = np.array([[0.0], [0.4], [1.0]])
    rule = kq_weights(
        SquaredExponential(gamma=0.9), nodes, DiscreteMeasure.uniform(nodes)
    )
    np.testing.assert_allclose(rule.weights, np.full(3, 1.0 / 3.0), atol=1e-12)


def test_single_node_weight_is_the_embedding_over_the_diagonal():
    kernel = Matern(alpha=2.5, h=0.7)
    nodes, target = random_instance(1, 1, 4)
    rule = kq_weights(kernel, nodes, target)
    mu = mean_embed(kernel, target)(nodes[0])
    assert rule.weights[0] == pytest.approx(
        mu / kernel_eval(kernel, nodes[0], nodes[0]), rel=1e-12
    )


def test_unregularized_weights_minimize_the_embedding_distance():
    kernel = SquaredExponential(gamma=0.8)
    nodes, target = random_instance(2, 5, 6)
    rule = kq_weights(kernel, nodes, target)
    base = oracles.quadrature_objective(
        kernel, nodes, rule.weights, target.atoms, target.weights
    )
    rng = np.random.default_rng(3)
    for _ in range(100):
        u = rng.normal(size=5)
        u /= np.linalg.norm(u)
        for eps in (1e-2, 1e-3):
            nearby = oracles.quadrature_objective(
                kernel, nodes, rule.weights + eps * u, target.atoms, target.weights
            )
            assert nearby >= base - 1e-14


@pytest.mark.parametrize("lam", [0.0, 0.05])
def test_weights_solve_the_stated_linear_system(lam):
    kernel = Matern(alpha=1.5, h=0.6)
    nodes, target = random_instance(4, 6, 4)
    rule = kq_weights(kernel, nodes, target, lam)
    K = gram(kernel, nodes, nodes)
    system = K + 6 * lam * np.eye(6)
    residual = system @ rule.weights - rule.target_mean_at_nodes
    assert np.linalg.norm(residual) <= 1e-10


def test_weight_construction_validates_inputs():
    _, target = random_instance(5, 3, 3)
    with pytest.raises(InputError):
        kq_weights(SquaredExponential(), np.zeros((3, 1)), target, lam=-0.1)
    with pytest.raises(InputError):
        kq_weights(SquaredExponential(), np.zeros((3, 2)), target)


# ----------------------------------------------------------------------
# the posterior integral
# ----------------------------------------------------------------------


def test_frozen_two_node_posterior_for_the_exponential_integrand():
    rule = two_node_rule()
    mean, variance = bq_posterior(rule, [1.0, math.e])
    assert mean == pytest.approx(2.252161710234289, rel=1e-12)
    assert variance == pytest.approx(0.05724922159261858, rel=1e-11)


def test_constant_functions_integrate_to_the_constant_on_matched_nodes():
    rng = np.random.default_rng(6)
    atoms = rng.uniform(-1.0, 1.0, (4, 1))
    weights = rng.uniform(0.1, 1.0, 4)
    weights /= weights.sum()
    target = DiscreteMeasure(atoms, weights)
    rule = kq_weights(SquaredExponential(gamma=0.9), atoms, target)
    mean, _ = bq_posterior(rule, np.full(4, 2.5))
    assert mean == pytest.approx(2.5, abs=1e-9)


def test_a_negative_integral_variance_beyond_roundoff_raises():
    rule = replace(two_node_rule(), target_double_integral=-1.0)
    with pytest.raises(NumericalError, match="integral posterior variance evaluated"):
        bq_posterior(rule, np.zeros(2))


def test_the_zero_function_has_zero_posterior_mean():
    rule = two_node_rule()
    mean, variance = bq_posterior(rule, np.zeros(2))
    assert mean == 0.0
    assert variance == pytest.approx(0.05724922159261858, rel=1e-11)


@pytest.mark.parametrize("lam", [0.0, 0.02])
def test_posterior_mean_agrees_with_the_weighted_sum(lam):
    # the mean is solved against the function values, the weights against
    # the embedding; symmetry of the system makes the two paths equal
    kernel = Matern(alpha=0.5, h=0.9)
    nodes, target = random_instance(7, 5, 3)
    rule = kq_weights(kernel, nodes, target, lam)
    rng = np.random.default_rng(8)
    f = rng.normal(size=5)
    mean, _ = bq_posterior(rule, f)
    assert mean == pytest.approx(float(rule.weights @ f), abs=1e-10)


def test_posterior_validates_values_and_regularization():
    rule = two_node_rule()
    with pytest.raises(InputError):
        bq_posterior(rule, [1.0])
    with pytest.raises(InputError):
        bq_posterior(rule, [1.0, np.nan])


@pytest.mark.parametrize("lam", [0.0, 0.02])
def test_the_posterior_factors_the_gram_matrix_the_rule_carries(lam, monkeypatch):
    kernel = Matern(alpha=1.5, h=0.7)
    nodes, target = random_instance(11, 6, 4)
    rule = kq_weights(kernel, nodes, target, lam)
    np.testing.assert_array_equal(rule.node_gram, gram(kernel, nodes, nodes))
    f = np.random.default_rng(12).normal(size=6)
    expected = bq_posterior(rule, f)

    def no_gram(*args):
        raise AssertionError("bq_posterior rebuilt the Gram matrix")

    monkeypatch.setattr("kernelbridge.quadrature.gram", no_gram)
    assert bq_posterior(rule, f) == expected


def test_adding_a_node_never_raises_the_posterior_variance():
    kernel = SquaredExponential(gamma=0.8)
    nodes, target = random_instance(9, 4, 5)
    _, small_var = bq_posterior(kq_weights(kernel, nodes, target), np.zeros(4))
    grown = np.vstack([nodes, [[0.05]]])
    _, grown_var = bq_posterior(kq_weights(kernel, grown, target), np.zeros(5))
    assert grown_var <= small_var + 1e-10


# ----------------------------------------------------------------------
# the variance identity
# ----------------------------------------------------------------------


def test_variance_identity_for_random_instances():
    kernel = Matern(alpha=1.5, h=0.7)
    for seed in range(5):
        nodes, target = random_instance(10 + seed, 4, 5)
        report = verify_bq_kq_identity(kq_weights(kernel, nodes, target))
        assert report.gap <= 1e-8


def test_variance_identity_by_hand_for_a_single_node():
    kernel = SquaredExponential(gamma=1.0)
    nodes = np.array([[0.5]])
    target = DiscreteMeasure(np.array([[0.0], [1.0]]), [0.4, 0.6])
    rule = kq_weights(kernel, nodes, target)
    mu = mean_embed(kernel, target)(nodes[0])
    k00 = kernel_eval(kernel, nodes[0], nodes[0])
    expected = rule.target_double_integral - mu * mu / k00
    _, variance = bq_posterior(rule, np.zeros(1))
    assert variance == pytest.approx(expected, rel=1e-12)
    report = verify_bq_kq_identity(rule)
    assert report.lhs == pytest.approx(expected, rel=1e-12)
    assert report.gap <= 1e-12


def test_a_rule_with_no_nodes_reports_the_prior_variance():
    kernel = Matern(alpha=1.5, h=0.7)
    _, target = random_instance(3, 1, 4, d=2)
    rule = kq_weights(kernel, np.zeros((0, 2)), target)
    assert rule.weights.shape == (0,)
    prior = sum(
        wi * wj * oracles.kernel_value(kernel, a, b)
        for a, wi in zip(target.atoms, target.weights)
        for b, wj in zip(target.atoms, target.weights)
    )
    assert rule.target_double_integral == pytest.approx(prior, rel=1e-12)
    assert bq_posterior(rule, []) == (0.0, rule.target_double_integral)
    report = verify_bq_kq_identity(rule)
    assert report.lhs == rule.target_double_integral
    assert report.gap <= 1e-15 * report.lhs


def test_variance_identity_requires_an_unregularized_rule():
    with pytest.raises(InputError):
        verify_bq_kq_identity(two_node_rule(lam=0.1))


# ----------------------------------------------------------------------
# fill distance
# ----------------------------------------------------------------------


def test_fill_distance_of_the_three_point_cover_of_the_unit_interval():
    value = fill_distance(0.0, 1.0, np.array([[0.0], [0.5], [1.0]]), 0.5, 1.0)
    assert value == 0.25


def test_fill_distance_is_bounded_by_the_radius_when_the_query_is_a_node():
    # with the query itself among the nodes, no point of the ball is farther
    # from the node set than the ball radius
    X = np.array([[0.0], [0.37], [1.0]])
    value = fill_distance(0.0, 1.0, X, 0.37, 0.05)
    assert value <= 0.05


def test_fill_distance_shrinks_as_nodes_are_added():
    X = np.array([[0.0], [1.0]])
    coarse = fill_distance(0.0, 1.0, X, 0.5, 1.0)
    refined = fill_distance(0.0, 1.0, np.vstack([X, [[0.5]]]), 0.5, 1.0)
    assert refined < coarse


def test_fill_distance_grid_refinement_converges_from_below():
    # halving the step keeps the old lattice nested inside the new one, so
    # the brute-force supremum can only grow, toward the closed form
    X = np.random.default_rng(11).uniform(0.0, 1.0, 4)
    exact = fill_distance(0.0, 1.0, X, 0.5, 0.3)
    steps = [2.0**-k for k in range(2, 13)]
    grid = [oracles.fill_distance_grid(0.0, 1.0, X, 0.5, 0.3, step) for step in steps]
    assert grid == sorted(grid)
    assert grid[-1] <= exact <= grid[-1] + steps[-1]


@settings(max_examples=200, derandomize=True, deadline=None)
@given(
    nodes=st.lists(st.floats(0.25, 0.75), min_size=1, max_size=8),
    rho=st.floats(0.05, 0.5),
    where=st.sampled_from(("inside", "outside", "node", "low end", "high end")),
    data=st.data(),
)
def test_fill_distance_is_within_one_step_above_the_grid_search(nodes, rho, where, data):
    # Nodes in [0.25, 0.75] of the domain [0, 1]; the query inside their
    # hull, outside it, on a node, or near enough to a domain end that the
    # window is clipped there.
    queries = {
        "inside": st.floats(min(nodes), max(nodes)),
        "outside": st.floats(0.0, 0.2) | st.floats(0.8, 1.0),
        "node": st.sampled_from(nodes),
        "low end": st.floats(0.0, 0.99 * rho),
        "high end": st.floats(1.0 - 0.99 * rho, 1.0),
    }
    x = data.draw(queries[where])
    step = 2.0**-10
    grid = oracles.fill_distance_grid(0.0, 1.0, nodes, x, rho, step)
    assert grid <= fill_distance(0.0, 1.0, nodes, x, rho) <= grid + step


def test_fill_distance_matches_the_grid_search_where_it_holds_every_midpoint():
    # The midpoint grids of the contraction experiment at powers of two: the
    # node midpoints k / n lie on the lattice k / 4096 a grid search used.
    for n in (8, 16, 32, 64, 128):
        X = (np.arange(n) + 0.5) / n
        grid = oracles.fill_distance_grid(0.0, 1.0, X, 0.37, 0.25, 1.0 / 4096.0)
        assert fill_distance(0.0, 1.0, X, 0.37, 0.25) == grid


def test_fill_distance_validates_geometry():
    X = np.array([[0.0], [1.0]])
    with pytest.raises(InputError):
        fill_distance(1.0, 0.0, X, 0.5, 1.0)
    with pytest.raises(InputError):
        fill_distance(0.0, 1.0, X, 0.5, -1.0)
    with pytest.raises(InputError):
        fill_distance(0.0, 1.0, np.array([[0.0, 0.0]]), 0.5, 1.0)
    with pytest.raises(InputError, match="^no point of the domain lies within rho"):
        fill_distance(0.0, 1.0, X, 9.0, 0.5)


def test_fill_distance_without_nodes_raises():
    with pytest.raises(InputError, match="^the fill distance needs at least one node$"):
        fill_distance(0.0, 1.0, np.empty((0, 1)), 0.5, 0.25)


# ----------------------------------------------------------------------
# contraction of the posterior variance
# ----------------------------------------------------------------------


def test_contraction_slopes_track_the_smoothness_order():
    sizes = (8, 16, 32, 64, 128)
    rough = variance_contraction_experiment(
        Matern(alpha=0.5, h=0.3), 0.0, 1.0, 0.37, sizes
    )
    assert rough.theoretical_exponent == 1.0
    assert rough.slope == pytest.approx(1.2766618282460713, rel=1e-9)
    assert 0.8 <= rough.slope <= 1.4

    smooth = variance_contraction_experiment(
        Matern(alpha=2.5, h=0.3), 0.0, 1.0, 0.37, sizes
    )
    assert smooth.theoretical_exponent == 5.0
    # The reference is the slope computed at 60 digits (mpmath) from exact
    # Matern values at the same float64 grid, x and fill distances. float64
    # cannot pin more: v_128 = 4.46e-10 comes from 1 - ||L^-1 k||^2, whose
    # first-order roundoff is eps (1 + ||w||_1)^2 k(x, x) / v = 2.8e-6
    # relative (w = K^-1 k, ||w||_1 = 1.37). The fit weighs log v_128 by
    # 0.289, so the slope moves by up to 8.2e-7, depending on the BLAS build
    # and thread count. The Matern-1/2 bound is 4e-14 relative, hence 1e-9.
    assert smooth.slope == pytest.approx(5.59671200099634, abs=1e-6)
    assert smooth.slope >= 4.0

    assert len(rough.fill_distances) == len(sizes)
    assert all(b < a for a, b in zip(rough.fill_distances, rough.fill_distances[1:]))
    assert all(b < a for a, b in zip(rough.variances, rough.variances[1:]))


def test_contraction_experiment_validates_inputs():
    with pytest.raises(UnsupportedOperationError):
        variance_contraction_experiment(
            SquaredExponential(), 0.0, 1.0, 0.5, (8, 16, 32)
        )
    with pytest.raises(InputError):
        variance_contraction_experiment(
            Matern(alpha=0.5, h=0.5), 0.0, 1.0, 0.5, (8, 16)
        )
    with pytest.raises(InputError):
        variance_contraction_experiment(
            Matern(alpha=0.5, h=0.5), 1.0, 1.0, 0.5, (8, 16, 32)
        )


def test_contraction_fill_distances_are_exact_off_the_grid_search_lattice():
    # At n = 5 the node midpoints 0.2, 0.4 and 0.6 miss the lattice k / 4096,
    # where a grid search found 0.0999512 instead of the half-gap 0.1.
    report = variance_contraction_experiment(
        Matern(alpha=0.5, h=0.3), 0.0, 1.0, 0.37, (5, 10, 20)
    )
    assert report.fill_distances[0] == pytest.approx(0.1, abs=1e-15)


def test_contraction_report_round_trips_to_a_dict():
    report = variance_contraction_experiment(
        Matern(alpha=0.5, h=0.5), 0.0, 1.0, 0.5, (4, 8, 16)
    )
    payload = asdict(report)
    assert list(payload["grid_sizes"]) == [4, 8, 16]
    assert payload["slope"] == report.slope
    assert payload["theoretical_exponent"] == 1.0
