"""Stable serialization: float text, digests, JSON rendering."""

import json

import numpy as np
import pytest

from kernelbridge.errors import InputError
from kernelbridge.reporting import (
    format_float,
    json_text,
    stable_digest,
    strip_wall_time,
)


def test_float_text_round_trips_exactly():
    rng = np.random.default_rng(0)
    values = list(rng.normal(size=50)) + [0.0, 1.0, -1.0, 1e-300, 1e300, 0.1]
    for value in values:
        assert float(format_float(float(value))) == float(value)


def test_float_text_rejects_non_finite_values():
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(InputError):
            format_float(bad)


def test_digest_is_short_stable_and_sensitive():
    payload = {"a": 1, "b": [1.5, "x"], "c": None}
    digest = stable_digest(payload)
    assert len(digest) == 16
    assert all(ch in "0123456789abcdef" for ch in digest)
    assert digest == stable_digest({"c": None, "b": [1.5, "x"], "a": 1})
    assert digest != stable_digest({"a": 2, "b": [1.5, "x"], "c": None})


def test_digest_distinguishes_types():
    assert stable_digest(1) != stable_digest(1.0)
    assert stable_digest(True) != stable_digest(1)
    assert stable_digest("1") != stable_digest(1)


def test_digest_covers_arrays_by_shape_and_content():
    a = np.arange(6, dtype=float).reshape(2, 3)
    assert stable_digest(a) == stable_digest(a.copy())
    assert stable_digest(a) != stable_digest(a.reshape(3, 2))


def test_digest_rejects_unknown_types():
    with pytest.raises(InputError):
        stable_digest(object())


def test_json_rendering_is_valid_and_float_exact():
    payload = {
        "name": "check",
        "flag": True,
        "none": None,
        "values": [0.1, 2.0, -3.5e-9],
        "grid": np.array([1.0, 0.5]),
        "nested": {"n": 3},
    }
    text = json_text(payload)
    parsed = json.loads(text)
    assert parsed["flag"] is True
    assert parsed["none"] is None
    assert parsed["values"] == [0.1, 2.0, -3.5e-9]
    assert parsed["grid"] == [1.0, 0.5]
    assert parsed["nested"]["n"] == 3


def test_json_rendering_rejects_unknown_types():
    with pytest.raises(InputError):
        json_text({"bad": object()})


def test_wall_time_lines_can_be_stripped_for_comparisons():
    text = json_text({"suite": "x", "wall_time": 1.5, "cases": []})
    stripped = strip_wall_time(text)
    assert "wall_time" not in stripped
    assert "cases" in stripped
    assert strip_wall_time(stripped) == stripped
