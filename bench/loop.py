"""Closed loop with one client over ``kernelbridge.cli.main``, in its own interpreter.

    python3 bench/loop.py PLAN.json

``run.py`` writes the plan and starts this process with the BLAS thread
count pinned in its environment, so the pin holds before numpy loads. Each
op is a warm in-process call to ``kernelbridge.cli.main(argv)`` writing to
its own ``--out`` file; the next op starts when the previous one returns.
One untimed warm-up op runs first; ops then start until the plan's
``seconds`` have passed. With ``trace`` set, every second op runs with the
tracer installed, so traced and untraced ops see the same host conditions.
The result goes to the plan's ``result`` path.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
from pathlib import Path


def main(plan_path: str) -> int:
    plan = json.loads(Path(plan_path).read_text(encoding="utf-8"))
    import kernelbridge.cli as cli
    import numpy as np

    src = Path(plan["src"]).resolve()
    if src not in Path(cli.__file__).resolve().parents:
        print(f"kernelbridge was loaded from {cli.__file__}, not {src}", file=sys.stderr)
        return 2

    workdir = Path(plan["workdir"])
    argvs = plan["argvs"]
    records = []
    tracer = None

    def run_op(index: int, phase: str) -> None:
        out = str(workdir / f"op-{index:04d}.json")
        argv = [out if arg == "{out}" else arg for arg in argvs[index % len(argvs)]]
        if phase == "traced":
            tracer.op = index
        start = time.perf_counter()
        try:
            code, error = cli.main(argv), None
        except Exception as exc:  # an op that raises is counted as failed
            code, error = None, repr(exc)
        wall = time.perf_counter() - start
        records.append({"op": index, "phase": phase, "code": code, "error": error,
                        "wall_s": wall, "out": out})

    run_op(0, "warmup")
    if plan["trace"]:
        from tracing import Tracer

        tracer = Tracer()
    index = 0
    begin = time.perf_counter()
    while True:
        index += 1
        if tracer is not None and index % 2 == 0:
            tracer.install()
            run_op(index, "traced")
            tracer.uninstall()
        else:
            run_op(index, "plain")
        # A traced run needs at least one op of each kind.
        if time.perf_counter() - begin >= plan["seconds"] and (tracer is None or index >= 2):
            break

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    result = {
        "kernelbridge": cli.__file__,
        "numpy": np.__version__,
        "numpy_blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "ops": records,
    }
    if tracer is not None:
        walls = [r["wall_s"] for r in records if r["phase"] == "traced"]
        result["layers"] = {k: list(v) for k, v in tracer.metrics(walls).items()}
        result["by_binding"] = tracer.by_binding()
        tracer.write_spans(workdir / "spans.jsonl")
    Path(plan["result"]).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
