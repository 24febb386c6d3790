"""Randomized verification suites: coverage, determinism, case structure."""

import hashlib
import inspect
from dataclasses import asdict

import numpy as np
import pytest

from kernelbridge import embeddings, linalg, suites
from kernelbridge.errors import InputError
from kernelbridge.linalg import factor_system, solve_cholesky
from kernelbridge.reporting import stable_digest
from kernelbridge.suites import SUITE_NAMES, run_suite

# sha256 of the "case_id inputs_digest" lines of run_suite("all", 0, 5):
# every suite must keep drawing exactly these instances, in this order.
INSTANCE_STREAM_SHA256 = (
    "b63a93b49498e61bb0b43edae5f539aad4557882e47067dfca32c3a99b13b5bf"
)

CASES_PER_TRIAL = {
    "gp-krr": 1,
    "posterior-variance": 2,
    "mmd-average-case": 2,
    "bq-kq": 2,
    "hsic-gp": 2,
    "shrinkage-bayes": 1,
}


@pytest.mark.parametrize("name", SUITE_NAMES)
def test_every_suite_passes_its_own_cases(name):
    cases = run_suite(name, seed=0, trials=5)
    assert len(cases) == 5 * CASES_PER_TRIAL[name]
    for case in cases:
        assert case.passed, asdict(case)


@pytest.mark.parametrize("name", SUITE_NAMES)
def test_case_records_are_internally_consistent(name):
    for case in run_suite(name, seed=1, trials=3):
        assert case.case_id.startswith(name)
        assert case.gap == abs(case.lhs - case.rhs)
        assert case.passed == (case.gap <= case.tolerance)
        assert len(case.inputs_digest) == 16
        assert all(ch in "0123456789abcdef" for ch in case.inputs_digest)
        payload = asdict(case)
        assert payload["case_id"] == case.case_id
        assert payload["passed"] is case.passed


def test_suites_are_bitwise_deterministic_in_the_seed():
    for name in SUITE_NAMES:
        first = [asdict(case) for case in run_suite(name, seed=4, trials=3)]
        second = [asdict(case) for case in run_suite(name, seed=4, trials=3)]
        assert first == second
        shifted = [asdict(case) for case in run_suite(name, seed=5, trials=3)]
        assert first != shifted


def test_the_instance_stream_is_pinned():
    lines = "".join(
        f"{case.case_id} {case.inputs_digest}\n"
        for case in run_suite("all", seed=0, trials=5)
    )
    assert hashlib.sha256(lines.encode()).hexdigest() == INSTANCE_STREAM_SHA256


def test_the_redraw_loop_is_the_one_plain_draw_function():
    # The benchmark tracer reads suites.spd_stats.accept_ratio by counting the
    # returns of every suites._draw* callable: a rename would make it read 0,
    # and a generator would be counted once per creation.
    assert inspect.isfunction(suites._draw_instance)
    assert not inspect.isgeneratorfunction(suites._draw_instance)
    assert [name for name in vars(suites) if name.startswith("_draw")] == [
        "_draw_instance"
    ]


def test_each_payload_is_digested_once(monkeypatch):
    digested = []

    def counting_digest(payload):
        digested.append(payload)
        return stable_digest(payload)

    monkeypatch.setattr(suites, "stable_digest", counting_digest)
    cases = run_suite("all", seed=0, trials=2)
    assert len(cases) == 2 * sum(CASES_PER_TRIAL.values())
    # One payload per trial and suite, except bq-kq, whose mean check adds
    # the function values to its inputs.
    assert len(digested) == 2 * (len(SUITE_NAMES) + 1)


def test_shrinkage_bayes_factors_once_per_side_and_trial(monkeypatch):
    factored = []

    def counting_factor_system(gram, ridge, name="matrix"):
        factored.append(name)
        return factor_system(gram, ridge, name=name)

    monkeypatch.setattr(embeddings, "factor_system", counting_factor_system)
    run_suite("shrinkage-bayes", seed=0, trials=5)
    # skme factors K_XX once; the Bayes side factors K_theta once for all n points.
    assert factored == ["K_XX", "K_theta"] * 5


def test_shrinkage_bayes_solves_one_column_per_side_and_trial(monkeypatch):
    columns = []

    def counting_solve_cholesky(factor, rhs):
        columns.append(1 if np.ndim(rhs) == 1 else np.shape(rhs)[1])
        return solve_cholesky(factor, rhs)

    monkeypatch.setattr(linalg, "solve_cholesky", counting_solve_cholesky)
    run_suite("shrinkage-bayes", seed=0, trials=5)
    # One weight solve per side and trial; the Bayes side computes no variances.
    assert columns == [1, 1] * 5


def test_the_combined_run_concatenates_in_declaration_order():
    combined = run_suite("all", seed=2, trials=2)
    expected = []
    for name in SUITE_NAMES:
        expected.extend(case.case_id for case in run_suite(name, seed=2, trials=2))
    assert [case.case_id for case in combined] == expected


def test_zero_trials_give_an_empty_case_list():
    assert run_suite("gp-krr", seed=0, trials=0) == []
    assert run_suite("all", seed=0, trials=0) == []


def test_run_suite_validates_name_and_trials():
    with pytest.raises(InputError, match="known suites"):
        run_suite("not-a-suite", seed=0, trials=1)
    with pytest.raises(InputError):
        run_suite("gp-krr", seed=0, trials=-1)


def test_distinct_trials_draw_distinct_instances():
    cases = run_suite("gp-krr", seed=0, trials=4)
    digests = {case.inputs_digest for case in cases}
    assert len(digests) == 4
