"""Convergence-rate experiment wiring and its target registry."""

from dataclasses import asdict

import numpy as np
import pytest

import _oracles as oracles
from kernelbridge.errors import InputError, UnsupportedOperationError
from kernelbridge.experiments import (
    rate_experiment,
    target_function,
    target_ids,
)
from kernelbridge.kernels import Matern, SquaredExponential

SMALL_SIZES = (16, 32, 64)


def test_the_target_registry_is_sorted_and_resolvable():
    ids = target_ids()
    assert list(ids) == sorted(ids)
    for target_id in ids:
        assert target_function(target_id) is not None


def test_unknown_targets_are_reported_with_the_known_names():
    with pytest.raises(InputError, match="matern32-mix"):
        target_function("no-such-target")


def test_the_bundled_target_is_a_fixed_kernel_expansion():
    f = target_function("matern32-mix")
    assert f.centers.shape == (5, 1)
    rng = np.random.default_rng(0)
    for _ in range(5):
        x = rng.uniform(0.0, 1.0, 1)
        assert f(x) == pytest.approx(
            oracles.expansion_value(f.kernel, f.centers, f.coefficients, x),
            rel=1e-12,
        )


def test_small_experiment_produces_a_coherent_report():
    result = rate_experiment(
        "matern32-mix",
        Matern(alpha=1.5, h=0.2),
        sizes=SMALL_SIZES,
        replications=1,
        seed=0,
    )
    assert tuple(result.sample_sizes) == SMALL_SIZES
    assert len(result.errors) == 3
    assert all(e > 0 for e in result.errors)
    assert result.theoretical_slope == pytest.approx(-0.75, rel=1e-12)
    assert np.isfinite(result.fitted_slope)
    payload = asdict(result)
    assert payload["fitted_slope"] == result.fitted_slope


def test_the_experiment_is_bitwise_deterministic():
    kwargs = dict(sizes=SMALL_SIZES, replications=2, seed=3)
    a = rate_experiment("matern32-mix", Matern(alpha=1.5, h=0.2), **kwargs)
    b = rate_experiment("matern32-mix", Matern(alpha=1.5, h=0.2), **kwargs)
    assert a.errors == b.errors
    assert a.fitted_slope == b.fitted_slope


def test_experiment_validation():
    kernel = Matern(alpha=1.5, h=0.2)
    with pytest.raises(InputError):
        rate_experiment("matern32-mix", kernel, sizes=(16, 32))
    with pytest.raises(InputError):
        rate_experiment("matern32-mix", kernel, sizes=(32, 16, 64))
    with pytest.raises(InputError):
        rate_experiment("matern32-mix", kernel, sizes=(1, 2, 4))
    with pytest.raises(InputError):
        rate_experiment("matern32-mix", kernel, sizes=SMALL_SIZES, replications=0)
    with pytest.raises(InputError):
        rate_experiment(
            "matern32-mix", kernel, sizes=SMALL_SIZES, lambda_coefficient=0.0
        )
    with pytest.raises(UnsupportedOperationError):
        rate_experiment("matern32-mix", SquaredExponential(), sizes=SMALL_SIZES)
    with pytest.raises(InputError):
        rate_experiment("missing", kernel, sizes=SMALL_SIZES)
