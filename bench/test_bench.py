"""Checks of the benchmark itself; run with ``python3 -m pytest bench -q``.

The smoke runs use ``--smoke`` inputs, so the whole file takes well under a
minute. They check that every metric BENCHMARK.json names is emitted with
its unit, and that the output checks reject a tampered output.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import workloads
from tracing import Tracer

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_workloads_match_the_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert [m["name"] for m in SPEC["end_to_end"]] == run.metric_names(trace=False)
    assert [m["name"] for m in SPEC["per_layer"]] == run.metric_names(trace=True)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_smoke_run_emits_every_metric(workload, trace):
    done = _bench(ROOT, "--workload", workload, "--seed", "3", "--seconds", "1",
                  "--trace", str(trace), "--smoke")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 2
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec
    }
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float))
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())
    for name in ("fail_ratio", "wrong_ratio", "op_s.tail", "environment"):
        assert name in done.stdout


def test_traced_counts_follow_the_call_structure():
    done = _bench(ROOT, "--workload", "quadrature-exact", "--seconds", "1",
                  "--trace", "1", "--smoke")
    metrics = json.loads(done.stdout.splitlines()[-1])["metrics"]
    assert metrics["linalg.cholesky_with_jitter.calls"]["value"] == 3
    assert metrics["linalg.spd_stats.calls"]["value"] == 1
    assert metrics["cli.main.calls"]["value"] == 1
    assert metrics["linalg.sample_gaussian.calls"]["value"] == 0


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    done = _bench(tmp_path, "--workload", "rates-default", "--seed", "0",
                  "--seconds", "1", "--trace", "0")
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout


def _cli(tmp_path: Path, argv: list) -> str:
    out = tmp_path / "out.json"
    argv = [str(out) if arg == "{out}" else arg for arg in argv]
    subprocess.run(
        [sys.executable, "-m", "kernelbridge.cli", *argv], check=True,
        env=run.child_env(), cwd=tmp_path, timeout=120,
    )
    return out.read_text(encoding="utf-8")


def _tamper(text: str, edit) -> str:
    report = json.loads(text)
    edit(report)
    return json.dumps(report)


def _scale_first_weight(report):
    report["weights"][0] *= 1.0 + 1e-6


def _fail_a_case(report):
    report["cases"][-1]["passed"] = False


def _shift_an_error(report):
    report["errors"][0] *= 1.5


@pytest.mark.parametrize(
    "workload, edit",
    [("quadrature-exact", _scale_first_weight),
     ("verify-all", _fail_a_case),
     ("rates-default", _shift_an_error)],
)
def test_checks_accept_real_outputs_and_reject_tampered_ones(tmp_path, workload, edit):
    w = workloads.WORKLOADS[workload]
    seed = 7
    if w.prepare is not None:
        w.prepare(seed, tmp_path, True)
    text = _cli(tmp_path, w.argv(seed, tmp_path, "{out}", True))
    assert workloads.check_output(w, text, seed, True) is None
    assert workloads.check_output(w, _tamper(text, edit), seed, True)


def test_tail_needs_ten_samples_beyond_it():
    assert run.tail(list(range(10))) is None
    assert run.tail(list(range(11))) == (100.0 / 11, 0)
    percentile, value = run.tail(list(range(100)))
    assert (percentile, value) == (90.0, 89)


def test_self_time_subtracts_child_spans():
    tracer = Tracer()
    tracer.spans = [
        ("cli.main", "cli", 0.0, 10.0, -1, 0),
        ("kernels.gram", "gp", 1.0, 3.0, 0, 0),
        ("linalg.solve_cholesky", "gp", 4.0, 8.0, 0, 0),
    ]
    assert tracer.self_times() == [4.0, 2.0, 4.0]
    metrics = tracer.metrics([10.0])
    assert metrics["cli.main.self_s"] == (4.0, "s/op")
    assert metrics["linalg.solve_cholesky.share"] == (0.4, "ratio")


def test_cholesky_attempts_are_read_back_from_the_jitter(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    import numpy as np
    from kernelbridge.linalg import JITTER_INITIAL

    tracer = Tracer()
    matrix = 2.0 * np.eye(4)
    tracer._count_cholesky(matrix, 0.0)
    tracer._count_cholesky(matrix, JITTER_INITIAL * 2.0 * 100.0)
    assert tracer.counts["linalg.cholesky_with_jitter.attempts"] == 1 + 4
    assert tracer.counts["linalg.cholesky_with_jitter.jittered"] == 1
