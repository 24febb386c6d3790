"""Deterministic report serialization.

Reports are plain dictionaries rendered to JSON by a small writer that
formats every float with 17 significant digits. Rendering the same
payload therefore produces byte-identical text on every run and platform,
which is what the regression-style CLI checks diff against. Every CLI
report opens with ``schema`` and ends with ``wall_time``; the CLI's
``main`` adds both around each command's own keys. ``wall_time`` is the
only nondeterministic field a report carries, and it is emitted on its
own line so :func:`strip_wall_time` can drop it textually.

Input digests are short SHA-256 prefixes over a canonical byte encoding
of nested values, with arrays hashed by shape and little-endian float64
payload.
"""

from __future__ import annotations

import hashlib
import json
import struct

import numpy as np

from .errors import InputError

__all__ = [
    "SCHEMA_VERSION",
    "format_float",
    "stable_digest",
    "json_text",
    "strip_wall_time",
]

SCHEMA_VERSION = 1


def format_float(value: float) -> str:
    """Render a float with 17 significant digits."""
    value = float(value)
    if not np.isfinite(value):
        raise InputError(f"cannot serialize non-finite value {value!r}")
    return "%.17g" % value


def _feed(hasher, value) -> None:
    if value is None:
        hasher.update(b"n")
    elif isinstance(value, bool):
        hasher.update(b"b1" if value else b"b0")
    elif isinstance(value, (int, np.integer)):
        hasher.update(b"i" + str(int(value)).encode())
    elif isinstance(value, (float, np.floating)):
        hasher.update(b"f" + struct.pack("<d", float(value)))
    elif isinstance(value, str):
        hasher.update(b"s" + value.encode("utf-8"))
    elif isinstance(value, bytes):
        hasher.update(b"y" + value)
    elif isinstance(value, np.ndarray):
        arr = np.ascontiguousarray(value, dtype=float)
        hasher.update(b"a" + str(arr.shape).encode())
        hasher.update(arr.astype("<f8").tobytes())
    elif isinstance(value, (list, tuple)):
        hasher.update(b"l" + str(len(value)).encode())
        for item in value:
            _feed(hasher, item)
    elif isinstance(value, dict):
        hasher.update(b"d" + str(len(value)).encode())
        for key in sorted(value):
            _feed(hasher, str(key))
            _feed(hasher, value[key])
    else:
        raise InputError(f"cannot digest value of type {type(value).__name__}")


def stable_digest(payload) -> str:
    """Short deterministic hex digest of a nested value."""
    hasher = hashlib.sha256()
    _feed(hasher, payload)
    return hasher.hexdigest()[:16]


def _render(value, indent: int) -> str:
    pad = "  " * indent
    child = "  " * (indent + 1)
    if isinstance(value, str):
        return json.dumps(value)
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return format_float(float(value))
    if isinstance(value, np.ndarray):
        value = value.tolist()
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        body = ",\n".join(child + _render(item, indent + 1) for item in value)
        return "[\n" + body + "\n" + pad + "]"
    if isinstance(value, dict):
        if not value:
            return "{}"
        body = ",\n".join(
            child + json.dumps(str(key)) + ": " + _render(item, indent + 1)
            for key, item in value.items()
        )
        return "{\n" + body + "\n" + pad + "}"
    raise InputError(f"cannot serialize value of type {type(value).__name__}")


def json_text(payload) -> str:
    """Render a payload as pretty JSON with deterministic float text."""
    return _render(payload, 0) + "\n"


def strip_wall_time(text: str) -> str:
    """Drop the wall-time line, leaving the deterministic remainder."""
    kept = [line for line in text.splitlines() if '"wall_time"' not in line]
    return "\n".join(kept) + "\n"
