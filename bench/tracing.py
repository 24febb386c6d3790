"""Spans around kernelbridge's layer functions, recorded from outside the library.

:meth:`Tracer.install` replaces each layer function at every module binding
that holds it (``kernelbridge.krr.gram`` and ``kernelbridge.gp.gram`` are
wrapped separately), so each span also records which module called the
layer. Spans are kept in memory and written out once, when the run ends.
Nothing under ``src/`` is changed.
"""

from __future__ import annotations

import importlib
import json
import math
import sys
import time
import tracemalloc
from collections import Counter

import numpy as np

LAYERS = {
    "kernels.gram": ("kernelbridge.kernels", "gram"),
    "linalg.spd_stats": ("kernelbridge.linalg", "spd_stats"),
    "linalg.cholesky_with_jitter": ("kernelbridge.linalg", "cholesky_with_jitter"),
    "linalg.solve_cholesky": ("kernelbridge.linalg", "solve_cholesky"),
    "linalg.sample_gaussian": ("kernelbridge.linalg", "sample_gaussian"),
    "reporting.json_text": ("kernelbridge.reporting", "json_text"),
    "reporting.stable_digest": ("kernelbridge.reporting", "stable_digest"),
    "cli.main": ("kernelbridge.cli", "main"),
}

# (metric suffix, unit) recorded for every layer, then the layer counts.
LAYER_STATS = (
    ("calls", "count/op"),
    ("busy_s", "s/op"),
    ("self_s", "s/op"),
    ("share", "ratio"),
)

COUNTS = (
    ("kernels.gram.bytes_computed", "B/op"),
    ("kernels.gram.peak_bytes", "B"),
    ("linalg.cholesky_with_jitter.attempts", "count/op"),
    ("linalg.cholesky_with_jitter.jittered", "count/op"),
    ("linalg.solve_cholesky.rhs_columns", "count/op"),
    ("linalg.sample_gaussian.normals", "count/op"),
    ("suites.spd_stats.accept_ratio", "ratio"),
)


def _shape(points):
    """(rows, dimension) of a point set as ``kernels.as_points`` reads it."""
    shape = np.shape(points)
    return shape[0], (shape[1] if len(shape) == 2 else 1)


class Tracer:
    """Records spans (layer, binding, start, end, parent, op) and layer counts."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.op = -1
        self.counts = Counter()
        self.gram_peak_bytes = 0
        self._gram_largest = 0
        self._restore = []

    def install(self) -> None:
        for layer, (module_name, attr) in LAYERS.items():
            original = getattr(importlib.import_module(module_name), attr)
            self._replace(original, lambda binding, fn, layer=layer: self._span(layer, binding, fn))
        # Each suite instance draw calls spd_stats once per attempt; counting
        # the draws that return gives the gate's acceptance ratio.
        suites = importlib.import_module("kernelbridge.suites")
        for name, value in list(vars(suites).items()):
            if name.startswith("_draw") and callable(value):
                self._replace(value, lambda binding, fn: self._count_returns(fn))

    def uninstall(self) -> None:
        for module, name, original in reversed(self._restore):
            setattr(module, name, original)
        self._restore.clear()

    def _replace(self, original, make_wrapper) -> None:
        for module_name, module in list(sys.modules.items()):
            if module is None or not module_name.startswith("kernelbridge"):
                continue
            binding = module_name.removeprefix("kernelbridge.")
            for name, value in list(vars(module).items()):
                if value is original:
                    setattr(module, name, make_wrapper(binding, original))
                    self._restore.append((module, name, original))

    def _count_returns(self, fn):
        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            self.counts["suites.draws_accepted"] += 1
            return result

        return counted

    def _span(self, layer, binding, fn):
        spans, stack = self.spans, self.stack
        is_gram = layer == "kernels.gram"

        def traced(*args, **kwargs):
            if is_gram:
                (n, d), (m, _) = _shape(args[1]), _shape(args[2])
                computed = 8 * n * m * (d + 1)
                # Peak memory grows with the work, so only calls at least as
                # large as any seen so far are measured; tracemalloc on every
                # call would add its cost to the caller's self time.
                measure = computed >= self._gram_largest
                if measure:
                    self._gram_largest = computed
                    tracemalloc.start()
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index] = (layer, binding, start, end, parent, self.op)
                if is_gram and measure:
                    peak = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                    self.gram_peak_bytes = max(self.gram_peak_bytes, peak)
            if is_gram:
                self.counts[layer + ".bytes_computed"] += computed
            elif layer == "linalg.cholesky_with_jitter":
                self._count_cholesky(args[0], result[1])
            elif layer == "linalg.solve_cholesky":
                rhs_shape = np.shape(args[1])
                self.counts[layer + ".rhs_columns"] += rhs_shape[1] if len(rhs_shape) == 2 else 1
            elif layer == "linalg.sample_gaussian":
                self.counts[layer + ".normals"] += result.size
            elif layer == "linalg.spd_stats" and binding == "suites":
                self.counts["suites.spd_stats.calls"] += 1
            return result

        return traced

    def _count_cholesky(self, matrix, jitter: float) -> None:
        """Factorization attempts, read back from the jitter that was added.

        The schedule starts at ``JITTER_INITIAL * trace/n`` and grows tenfold
        per retry, so a jitter of ``JITTER_INITIAL * trace/n * 10^k`` took
        ``k + 2`` attempts and no jitter took one.
        """
        layer = "linalg.cholesky_with_jitter"
        attempts = 1
        if jitter > 0.0:
            from kernelbridge.linalg import JITTER_INITIAL

            base = float(np.trace(matrix)) / len(matrix)
            attempts = 2 + round(math.log10(jitter / (JITTER_INITIAL * base)))
            self.counts[layer + ".jittered"] += 1
        self.counts[layer + ".attempts"] += attempts

    def self_times(self) -> list:
        """Each span's duration minus the time its child spans cover."""
        child = [0.0] * len(self.spans)
        for _, _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [end - start - child[i] for i, (_, _, start, end, _, _) in enumerate(self.spans)]

    def metrics(self, op_walls: list) -> dict:
        """Per-layer metrics, averaged over the traced ops.

        ``share`` is a layer's self time over the ops' wall time.
        """
        ops, wall = len(op_walls), sum(op_walls)
        totals = {layer: [0, 0.0, 0.0] for layer in LAYERS}
        for span, own in zip(self.spans, self.self_times()):
            total = totals[span[0]]
            total[0] += 1
            total[1] += span[3] - span[2]
            total[2] += own
        out = {}
        for layer, (calls, busy, own) in totals.items():
            values = (calls / ops, busy / ops, own / ops, own / wall)
            for (stat, unit), value in zip(LAYER_STATS, values):
                out[f"{layer}.{stat}"] = (value, unit)
        units = dict(COUNTS)
        for name, unit in units.items():
            out[name] = (self.counts[name] / ops, unit)
        out["kernels.gram.peak_bytes"] = (self.gram_peak_bytes, units["kernels.gram.peak_bytes"])
        gated = self.counts["suites.spd_stats.calls"]
        accepted = self.counts["suites.draws_accepted"]
        out["suites.spd_stats.accept_ratio"] = (accepted / gated if gated else 0.0, "ratio")
        return out

    def by_binding(self) -> dict:
        """Calls and busy seconds per (layer, calling module), for the summary."""
        table = {}
        for layer, binding, start, end, _, _ in self.spans:
            row = table.setdefault(f"{layer}@{binding}", [0, 0.0])
            row[0] += 1
            row[1] += end - start
        return table

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write('["layer", "binding", "start", "end", "parent", "op"]\n')
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")
