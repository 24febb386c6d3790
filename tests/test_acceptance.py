"""Acceptance gate: one test per shipped guarantee, one printed line each.

Every test prints ``[acceptance] <label>: PASS|FAIL (<detail>)`` before
asserting, so a full run always shows the complete scoreboard.
"""

import json
import time

import numpy as np
import pytest

from kernelbridge import cli
from kernelbridge.kernels import (
    KroneckerDelta,
    Matern,
    Polynomial,
    SquaredExponential,
    Sum,
    gram,
)
from kernelbridge.experiments import rate_experiment, variance_contraction_experiment
from kernelbridge.reporting import strip_wall_time
from kernelbridge.spectral import kl_sample, nystrom_eigensystem, power_kernel
from kernelbridge.suites import run_suite

SPECTRAL_FAMILIES = [
    SquaredExponential(gamma=0.8),
    Matern(alpha=0.5, h=0.7),
    Matern(alpha=1.5, h=0.5),
    Matern(alpha=2.5, h=1.1),
    Polynomial(degree=2, c=0.5),
    KroneckerDelta(scale=1.0),
    Sum(SquaredExponential(gamma=1.0), Matern(alpha=0.5, h=0.9)),
]


def report(capsys, label, ok, detail):
    with capsys.disabled():
        status = "PASS" if ok else "FAIL"
        print(f"[acceptance] {label}: {status} ({detail})")


def run_cases(name, trials):
    start = time.perf_counter()
    cases = run_suite(name, seed=0, trials=trials)
    elapsed = time.perf_counter() - start
    worst = max((case.gap for case in cases), default=0.0)
    failed = [case.case_id for case in cases if not case.passed]
    return cases, elapsed, worst, failed


def test_gp_krr_equivalence(capsys):
    cases, elapsed, worst, failed = run_cases("gp-krr", 200)
    ok = not failed and len(cases) == 200 and elapsed < 10.0
    report(
        capsys,
        "gp-krr-equivalence",
        ok,
        f"200 instances, 20 queries each, worst gap {worst:.3e}, {elapsed:.2f}s",
    )
    assert not failed
    assert len(cases) == 200
    assert elapsed < 10.0


def test_posterior_variance_duality(capsys):
    cases, elapsed, worst, failed = run_cases("posterior-variance", 200)
    ok = not failed and len(cases) == 400
    report(
        capsys,
        "posterior-variance-duality",
        ok,
        f"200 noise-free + 200 noisy identities, worst gap {worst:.3e}, {elapsed:.2f}s",
    )
    assert not failed
    assert len(cases) == 400


def test_mmd_average_case(capsys):
    cases, elapsed, worst, failed = run_cases("mmd-average-case", 200)
    exact = [c for c in cases if c.case_id.endswith("-exact")]
    mc = [c for c in cases if c.case_id.endswith("-mc")]
    ok = not failed and len(exact) == 200 and len(mc) == 200
    report(
        capsys,
        "mmd-average-case",
        ok,
        f"200 exact + 200 sampled comparisons, worst gap {worst:.3e}, {elapsed:.2f}s",
    )
    assert not failed
    assert len(exact) == 200 and len(mc) == 200


def test_bq_kq_identity(capsys):
    cases, elapsed, worst, failed = run_cases("bq-kq", 200)
    ok = not failed and len(cases) == 400
    report(
        capsys,
        "bq-kq-identity",
        ok,
        f"200 variance + 200 mean comparisons, worst gap {worst:.3e}, {elapsed:.2f}s",
    )
    assert not failed
    assert len(cases) == 400


def test_hsic_process_average(capsys):
    cases, elapsed, worst, failed = run_cases("hsic-gp", 200)
    ok = not failed and len(cases) == 400
    report(
        capsys,
        "hsic-process-average",
        ok,
        f"200 exact + 200 sampled comparisons, worst gap {worst:.3e}, {elapsed:.2f}s",
    )
    assert not failed
    assert len(cases) == 400


def test_spectral_decomposition(capsys):
    rng = np.random.default_rng(0)
    worst_orthonormal = 0.0
    worst_reconstruction = 0.0
    worst_power = 0.0
    for index, kernel in enumerate(SPECTRAL_FAMILIES):
        n = int(rng.integers(5, 51))
        d = int(rng.integers(1, 4))
        nodes = rng.uniform(-1.0, 1.0, (n, d))
        eig = nystrom_eigensystem(kernel, nodes)
        phi = eig.eigenfunctions_at_nodes
        W = np.diag(eig.node_weights)
        K = gram(kernel, nodes, nodes)
        worst_orthonormal = max(
            worst_orthonormal, float(np.abs(phi.T @ W @ phi - np.eye(n)).max())
        )
        worst_reconstruction = max(
            worst_reconstruction,
            float(np.abs((phi * eig.eigenvalues[None, :]) @ phi.T - K).max()),
        )
        worst_power = max(
            worst_power, float(np.abs(power_kernel(eig, 1.0) - K).max())
        )

    kernel = Matern(alpha=1.5, h=0.8)
    nodes = rng.uniform(-1.0, 1.0, (5, 1))
    eig = nystrom_eigensystem(kernel, nodes)
    count = 200_000
    draws = kl_sample(eig, 5, count, seed=1)
    empirical = draws.T @ draws / count
    K = gram(kernel, nodes, nodes)
    se = np.sqrt((np.outer(np.diag(K), np.diag(K)) + K**2) / count)
    sampling_ok = bool(np.all(np.abs(empirical - K) <= 5.0 * se + 1e-8))

    ok = (
        worst_orthonormal <= 1e-8
        and worst_reconstruction <= 1e-8
        and worst_power <= 1e-8
        and sampling_ok
    )
    report(
        capsys,
        "spectral-decomposition",
        ok,
        f"orthonormality {worst_orthonormal:.3e}, reconstruction "
        f"{worst_reconstruction:.3e}, power {worst_power:.3e}, "
        f"series covariance within 5 SE at {count} draws: {sampling_ok}",
    )
    assert worst_orthonormal <= 1e-8
    assert worst_reconstruction <= 1e-8
    assert worst_power <= 1e-8
    assert sampling_ok


def test_shrinkage_posterior_match(capsys):
    cases, elapsed, worst, failed = run_cases("shrinkage-bayes", 100)
    ok = not failed and len(cases) == 100
    report(
        capsys,
        "shrinkage-posterior-match",
        ok,
        f"100 instances, worst gap {worst:.3e}, {elapsed:.2f}s",
    )
    assert not failed
    assert len(cases) == 100


def test_regression_rate_band(capsys):
    start = time.perf_counter()
    first = rate_experiment(Matern(alpha=1.5, h=0.2), seed=0)
    second = rate_experiment(Matern(alpha=1.5, h=0.2), seed=0)
    elapsed = time.perf_counter() - start
    deviation = abs(first.fitted_slope - first.theoretical_slope)
    deterministic = (
        first.errors == second.errors and first.fitted_slope == second.fitted_slope
    )
    ok = deviation <= 0.3 and deterministic and elapsed < 120.0
    report(
        capsys,
        "regression-rate-band",
        ok,
        f"slope {first.fitted_slope:.4f} vs {first.theoretical_slope:.2f} "
        f"(|dev| {deviation:.3f} <= 0.3), repeat bitwise equal: "
        f"{deterministic}, {elapsed:.1f}s",
    )
    assert deviation <= 0.3
    assert deterministic
    assert elapsed < 120.0


def test_variance_contraction(capsys):
    start = time.perf_counter()
    sizes = (8, 16, 32, 64, 128)
    rough = variance_contraction_experiment(
        Matern(alpha=0.5, h=0.3), 0.0, 1.0, 0.37, sizes
    )
    smooth = variance_contraction_experiment(
        Matern(alpha=2.5, h=0.3), 0.0, 1.0, 0.37, sizes
    )
    elapsed = time.perf_counter() - start
    ok = 0.8 <= rough.slope <= 1.4 and smooth.slope >= 4.0 and elapsed < 60.0
    report(
        capsys,
        "variance-contraction",
        ok,
        f"order-1/2 slope {rough.slope:.4f} in [0.8, 1.4], order-5/2 slope "
        f"{smooth.slope:.4f} >= 4, {elapsed:.2f}s",
    )
    assert 0.8 <= rough.slope <= 1.4
    assert smooth.slope >= 4.0
    assert elapsed < 60.0


def test_cli_determinism(capsys, tmp_path):
    outputs = []
    for name in ("first.json", "second.json"):
        path = tmp_path / name
        code = cli.main(
            [
                "verify",
                "--suite",
                "all",
                "--trials",
                "50",
                "--seed",
                "0",
                "--out",
                str(path),
            ]
        )
        assert code == 0
        outputs.append(path.read_text(encoding="utf-8"))
    identical = strip_wall_time(outputs[0]) == strip_wall_time(outputs[1])
    cases = json.loads(outputs[0])["cases"]
    all_passed = all(case["passed"] for case in cases)
    ok = identical and all_passed
    report(
        capsys,
        "cli-determinism",
        ok,
        f"two full verify runs, {len(cases)} cases each, byte-identical "
        f"apart from wall_time: {identical}",
    )
    assert identical
    assert all_passed
