"""The benchmark's workloads: the CLI command each op runs, its inputs and its checks.

Every op is one ``kernelbridge`` command. A run draws ``OP_SEEDS`` op seeds
from the workload seed and cycles through them, so later ops repeat earlier
seeds and their outputs can be compared byte for byte.

Checks recompute what they can independently of the library: the quadrature
check rebuilds the Gram matrix with ``scipy.spatial.distance.cdist`` instead
of the library's own distance code.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

OP_SEEDS = 3

RATE_SIZES = (64, 128, 256, 512, 1024, 2048)
SMOKE_RATE_SIZES = (64, 128, 256, 512, 1024)
# Largest distance between the fitted and the theoretical slope accepted as
# correct; the default experiment stays within 0.16 of theory on 20 random
# seeds and the smoke configuration within 0.24 on seeds 0-59.
RATE_SLOPE_BAND = 0.3

QUAD_KERNEL = "matern:alpha=1.5,h=0.2"
QUAD_GRID = 45
QUAD_ATOMS = 1024
SMOKE_QUAD_GRID = 10
SMOKE_QUAD_ATOMS = 64
# Backward residual ||K w - mu|| / ||mu|| of the noise-free weights, with K
# rebuilt independently; a backward-stable solve gives about 6e-16 here.
QUAD_RESIDUAL_LIMIT = 1e-12
# |mean - w.f| relative to sum |w_i f_i|: the two differ only in the order of
# a solve (mu^T K^-1 f against (K^-1 mu)^T f), so by at most about
# cond(K) * eps = 3e-10; about 1e-15 is seen.
QUAD_MEAN_LIMIT = 1e-9


def op_seeds(seed: int) -> list:
    """The op seeds a run cycles through, drawn from the workload seed."""
    rng = random.Random(seed)
    return [rng.randrange(2**31) for _ in range(OP_SEEDS)]


def strip_wall_time(text: str) -> str:
    """Drop the ``wall_time`` line, the only field allowed to differ."""
    return "".join(
        line for line in text.splitlines(keepends=True) if '"wall_time"' not in line
    )


def output_digest(text: str) -> str:
    return hashlib.sha256(strip_wall_time(text).encode()).hexdigest()


def _write_csv(path: Path, header: list, rows: np.ndarray) -> None:
    lines = [",".join(header)]
    lines += [",".join("%.17g" % v for v in row) for row in np.atleast_2d(rows)]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


# ---------------------------------------------------------------- verify-all


def _verify_argv(seed: int, inputs: Path, out: Path, smoke: bool) -> list:
    trials = 2 if smoke else 200
    return ["verify", "--suite", "all", "--trials", str(trials),
            "--seed", str(seed), "--out", str(out)]


def _verify_check(report: dict, seed: int, smoke: bool) -> str | None:
    trials = 2 if smoke else 200
    if report.get("suite") != "all" or report.get("seed") != seed:
        return "report does not echo the suite and seed"
    cases = report.get("cases", [])
    if len(cases) < 6 * trials:
        return f"only {len(cases)} cases for {trials} trials of 6 suites"
    if len({case["case_id"] for case in cases}) != len(cases):
        return "duplicate case ids"
    for case in cases:
        gap = abs(case["lhs"] - case["rhs"])
        if not case["passed"] or not gap <= case["tolerance"]:
            return f"case {case['case_id']} failed: gap {gap:.3e}"
        if gap != case["gap"]:
            return f"case {case['case_id']} reports gap {case['gap']!r}, not {gap!r}"
    return None


# ------------------------------------------------------------- rates-default


def _rates_argv(seed: int, inputs: Path, out: Path, smoke: bool) -> list:
    argv = ["rates", "--seed", str(seed), "--out", str(out)]
    if smoke:
        argv += ["--sizes", ",".join(map(str, SMOKE_RATE_SIZES)),
                 "--replications", "2"]
    return argv


def _rates_check(report: dict, seed: int, smoke: bool) -> str | None:
    sizes = SMOKE_RATE_SIZES if smoke else RATE_SIZES
    if report.get("seed") != seed or tuple(report["sample_sizes"]) != sizes:
        return "report does not echo the seed and sizes"
    errors = np.asarray(report["errors"], dtype=float)
    if errors.shape != (len(sizes),) or not np.all(np.isfinite(errors) & (errors > 0)):
        return f"errors are not finite and positive: {errors}"
    # Matern-3/2 in d = 1: the squared L2 error decays as n^(-2a/(2a+1)).
    if report["theoretical_slope"] != -0.75:
        return f"theoretical slope {report['theoretical_slope']!r}, expected -0.75"
    slope = float(np.polyfit(np.log(sizes), np.log(errors), 1)[0])
    if not math.isclose(slope, report["fitted_slope"], rel_tol=1e-9):
        return f"fitted slope {report['fitted_slope']!r} does not fit the errors ({slope!r})"
    if abs(slope - report["theoretical_slope"]) > RATE_SLOPE_BAND:
        return f"slope {slope:.4f} is more than {RATE_SLOPE_BAND} from -0.75"
    return None


# ---------------------------------------------------------- quadrature-exact


def _quad_sizes(smoke: bool):
    return (SMOKE_QUAD_GRID, SMOKE_QUAD_ATOMS) if smoke else (QUAD_GRID, QUAD_ATOMS)


def quadrature_inputs(seed: int, smoke: bool):
    """Jittered-grid nodes, a weighted target and f at the nodes, in d = 2.

    Each node moves at most a quarter of the grid spacing from its cell
    centre, so nodes stay half a spacing apart and cond(K) stays near 1e6,
    far inside the library's 1e12 gate.
    """
    grid, atoms = _quad_sizes(smoke)
    rng = np.random.default_rng(seed)
    centres = (np.arange(grid) + 0.5) / grid
    nodes = np.stack(np.meshgrid(centres, centres, indexing="ij"), -1).reshape(-1, 2)
    nodes = nodes + rng.uniform(-0.25, 0.25, nodes.shape) / grid
    target = rng.uniform(0.0, 1.0, (atoms, 2))
    weights = rng.uniform(0.5, 1.5, atoms)
    weights /= weights.sum()
    f = np.sin(2.0 * np.pi * nodes[:, 0]) * np.cos(np.pi * nodes[:, 1]) + nodes[:, 0] * nodes[:, 1]
    return nodes, target, weights, f


def _quad_prepare(seed: int, inputs: Path, smoke: bool) -> None:
    nodes, target, weights, f = quadrature_inputs(seed, smoke)
    _write_csv(inputs / f"nodes-{seed}.csv", ["x1", "x2"], nodes)
    _write_csv(inputs / f"target-{seed}.csv", ["x1", "x2", "w"],
               np.column_stack([target, weights]))
    _write_csv(inputs / f"f-{seed}.csv", ["f"], f[:, None])


def _quad_argv(seed: int, inputs: Path, out: Path, smoke: bool) -> list:
    return ["quadrature", "--kernel", QUAD_KERNEL,
            "--nodes", str(inputs / f"nodes-{seed}.csv"),
            "--target", str(inputs / f"target-{seed}.csv"),
            "--lambda", "0", "--f-values", str(inputs / f"f-{seed}.csv"),
            "--out", str(out)]


def _matern32(r: np.ndarray, h: float = 0.2) -> np.ndarray:
    t = math.sqrt(3.0) * r / h
    return (1.0 + t) * np.exp(-t)


def _quad_check(report: dict, seed: int, smoke: bool) -> str | None:
    from scipy.spatial.distance import cdist

    # %.17g round-trips every float64, so the regenerated inputs are
    # exactly the values the program parsed from the CSVs.
    nodes, target, weights, f = quadrature_inputs(seed, smoke)
    w = np.asarray(report.get("weights", []), dtype=float)
    if report.get("n") != len(nodes) or w.shape != (len(nodes),):
        return f"expected {len(nodes)} weights"
    K = _matern32(cdist(nodes, nodes))
    mu = _matern32(cdist(nodes, target)) @ weights
    residual = float(np.linalg.norm(K @ w - mu) / np.linalg.norm(mu))
    if not residual <= QUAD_RESIDUAL_LIMIT:
        return f"backward residual {residual:.3e} exceeds {QUAD_RESIDUAL_LIMIT:.0e}"
    wf = float(w @ f)
    if not abs(report["mean"] - wf) <= QUAD_MEAN_LIMIT * float(np.abs(w * f).sum()):
        return f"mean {report['mean']!r} differs from w.f = {wf!r}"
    variance = report["variance"]
    if not (math.isfinite(variance) and variance >= 0.0):
        return f"variance {variance!r} is not finite and nonnegative"
    return None


@dataclass(frozen=True)
class Workload:
    name: str
    argv: Callable  # (op_seed, inputs_dir, out_path, smoke) -> CLI argv
    check: Callable  # (report, op_seed, smoke) -> failure reason or None
    prepare: Callable | None = None  # (op_seed, inputs_dir, smoke) -> None


WORKLOADS = {
    w.name: w
    for w in (
        Workload("verify-all", _verify_argv, _verify_check),
        Workload("rates-default", _rates_argv, _rates_check),
        Workload("quadrature-exact", _quad_argv, _quad_check, _quad_prepare),
    )
}


def check_output(workload: Workload, text: str, seed: int, smoke: bool):
    """Failure reason for one op's output text, or None when it is correct."""
    try:
        report = json.loads(text)
    except ValueError as exc:
        return f"output is not JSON: {exc}"
    try:
        return workload.check(report, seed, smoke)
    except (KeyError, TypeError, ValueError) as exc:
        return f"output is malformed: {exc!r}"
