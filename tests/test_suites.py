"""Randomized verification suites: coverage, determinism, case structure."""

from dataclasses import asdict

import pytest

from kernelbridge.errors import InputError
from kernelbridge.suites import SUITE_NAMES, run_suite

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
