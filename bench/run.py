"""kernelbridge benchmark: CLI commands timed end to end and, traced, layer by layer.

    python3 bench/run.py --workload verify-all --seed 0 --seconds 30 --trace 0
    python3 bench/run.py --workload all          # every workload in turn
    python3 bench/run.py --workload all --smoke --seconds 1   # tiny inputs

Each workload runs in a fresh interpreter (``loop.py``) with the BLAS thread
count pinned, as a closed loop with one client. ``--trace 0`` measures the
end-to-end metrics; ``--trace 1`` traces every second op and reports the
per-layer metrics. Every op's output is checked.
The last line printed is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. ``--smoke`` shrinks the inputs
so the benchmark's own tests can check that every metric is emitted.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import workloads
from tracing import COUNTS, LAYER_STATS, LAYERS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / ".work"

# At most two BLAS threads: the reference host has two cores. Outputs are
# compared byte for byte at this one thread count only; `rates` output is
# known to change in its last digits with the thread count.
BLAS_THREADS = min(2, len(os.sched_getaffinity(0)))
SETUP_REPEATS = 9
SMOKE_SETUP_REPEATS = 3
CHILD_TIMEOUT_S = 150
IMPORT_TIMER = (
    "import time; t = time.perf_counter(); import kernelbridge.cli; "
    "print(time.perf_counter() - t)"
)

END_TO_END = (
    ("setup_s", "s"),
    ("op_s.p50", "s"),
    ("peak_rss_mb", "MB"),
)


def child_env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    env["PYTHONPATH"] = str(SRC)
    return env


def tail(samples: list):
    """The highest percentile with at least ten samples beyond it.

    Returns ``(percentile, value)``, or None with fewer than 11 samples.
    """
    if len(samples) < 11:
        return None
    ordered = sorted(samples)
    k = len(ordered) - 11
    return 100.0 * (k + 1) / len(ordered), ordered[k]


def measure_setup(repeats: int) -> list:
    """Seconds to import ``kernelbridge.cli`` in fresh interpreters."""
    times = []
    for _ in range(repeats):
        done = subprocess.run(
            [sys.executable, "-c", IMPORT_TIMER], env=child_env(), cwd=ROOT,
            capture_output=True, text=True, timeout=60, check=True,
        )
        times.append(float(done.stdout))
    return times


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment(child: dict) -> dict:
    import scipy

    blas = scipy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "blas_threads_pinned": child["blas_threads"],
        "determinism_scope": (
            f"repeated op seeds are compared byte for byte at {BLAS_THREADS} "
            "BLAS thread(s) only; rates output depends on the thread count"
        ),
        "numpy": child["numpy"],
        "numpy_blas": child["numpy_blas"],
        "scipy": scipy.__version__,
        "scipy_blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "git_commit": git_commit(),
    }


def run_workload(name: str, seed: int, seconds: int, trace: bool, smoke: bool) -> dict:
    workload = workloads.WORKLOADS[name]
    workdir = WORK / (name + ("-smoke" if smoke else ""))
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    seeds = workloads.op_seeds(seed)
    if workload.prepare is not None:
        for op_seed in seeds:
            workload.prepare(op_seed, workdir, smoke)

    setup = measure_setup(SMOKE_SETUP_REPEATS if smoke else SETUP_REPEATS)

    plan = {
        "src": str(SRC),
        "workdir": str(workdir),
        "result": str(workdir / "loop-result.json"),
        "argvs": [workload.argv(s, workdir, "{out}", smoke) for s in seeds],
        "seconds": seconds,
        "trace": trace,
    }
    (workdir / "plan.json").write_text(json.dumps(plan), encoding="utf-8")
    subprocess.run(
        [sys.executable, str(BENCH / "loop.py"), str(workdir / "plan.json")],
        env=child_env(), cwd=ROOT, timeout=CHILD_TIMEOUT_S, check=True,
    )
    child = json.loads((workdir / "loop-result.json").read_text(encoding="utf-8"))

    # Check every op, warm-up included. Ops that repeat an op seed must
    # repeat its output byte for byte once wall_time is stripped; identical
    # output gets the verdict already reached for it.
    first_digest, verdicts, wrong, failed = {}, {}, [], []
    for record in child["ops"]:
        op_seed = seeds[record["op"] % len(seeds)]
        if record["code"] != 0:
            failed.append(record)
            continue
        text = Path(record["out"]).read_text(encoding="utf-8")
        digest = workloads.output_digest(text)
        if first_digest.setdefault(op_seed, digest) != digest:
            reason = f"output for op seed {op_seed} differs from an earlier op's"
        else:
            if digest not in verdicts:
                verdicts[digest] = workloads.check_output(workload, text, op_seed, smoke)
            reason = verdicts[digest]
        if reason is not None:
            wrong.append((record["op"], reason))
    timed = [r for r in child["ops"] if r["phase"] != "warmup"]
    plain = [r["wall_s"] for r in timed if r["phase"] == "plain"]
    traced = [r["wall_s"] for r in timed if r["phase"] == "traced"]

    end_to_end = {
        "setup_s": statistics.median(setup),
        "op_s.p50": statistics.median(plain),
        "peak_rss_mb": child["peak_rss_kb"] / 1024.0,
    }
    layers = {}
    if trace:
        layers = {k: tuple(v) for k, v in child["layers"].items()}
        overhead = statistics.median(traced) - statistics.median(plain)
        layers["trace.overhead_s"] = (overhead, "s")
    return {
        "workload": name,
        "seed": seed,
        "op_seeds": seeds,
        "setup_repeats": len(setup),
        "plain_samples": plain,
        "attempted": len(child["ops"]),
        "failed": len(failed),
        "failures": [(r["op"], r["code"], r["error"]) for r in failed],
        "wrong": wrong,
        "end_to_end": end_to_end,
        "layers": layers,
        "by_binding": child.get("by_binding", {}),
        "environment": environment(child),
    }


def summary(result: dict) -> list:
    """Readable lines: every end-to-end metric with its unit, then the layers."""
    attempted = result["attempted"]
    lines = [f"workload {result['workload']}  seed {result['seed']}  "
             f"op seeds {result['op_seeds']}  ops {attempted} (1 untimed warm-up)"]
    units = dict(END_TO_END)
    notes = {"setup_s": f"(median of {result['setup_repeats']} fresh imports)",
             "op_s.p50": f"(median of {len(result['plain_samples'])} untraced ops)"}
    for name, value in result["end_to_end"].items():
        lines.append(f"  {name:<16} {value:12.6f} {units[name]:<3} {notes.get(name, '')}".rstrip())
    samples = result["plain_samples"]
    found = tail(samples)
    if found is None:
        lines.append(f"  {'op_s.tail':<16} undefined: {len(samples)} untraced samples, "
                     "11 needed for ten beyond a percentile")
    else:
        lines.append(f"  {'op_s.tail':<16} {found[1]:12.6f} s   "
                     f"(p{found[0]:.1f} of {len(samples)} samples, 10 beyond)")
    for label, count in (("fail_ratio", result["failed"]), ("wrong_ratio", len(result["wrong"]))):
        lines.append(f"  {label:<16} {count / attempted:12.6f} ratio ({count}/{attempted})")
    for op, code, error in result["failures"]:
        lines.append(f"  failed op {op}: exit {code} {error or ''}")
    for op, reason in result["wrong"]:
        lines.append(f"  wrong op {op}: {reason}")
    for name, (value, unit) in result["layers"].items():
        lines.append(f"  {name:<44} {value:16.6f} {unit}")
    for key, (calls, busy) in sorted(result["by_binding"].items()):
        lines.append(f"  by caller {key:<40} {calls:8d} calls {busy:10.4f} s")
    lines.append("  environment " + json.dumps(result["environment"], sort_keys=True))
    return lines


def metric_names(trace: bool) -> list:
    """Names the result line carries, in BENCHMARK.json order."""
    if not trace:
        return [name for name, _ in END_TO_END]
    names = [f"{layer}.{stat}" for layer in LAYERS for stat, _ in LAYER_STATS]
    return names + [name for name, _ in COUNTS] + ["trace.overhead_s"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (SRC / "kernelbridge" / "cli.py").is_file():
        print(f"error: no kernelbridge sources at {SRC}", file=sys.stderr)
        return 2

    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    correct, attempted, failed, metrics = True, 0, 0, {}
    units = dict(END_TO_END)
    for name in names:
        result = run_workload(name, args.seed, args.seconds, bool(args.trace), args.smoke)
        print("\n".join(summary(result)), flush=True)
        correct = correct and not result["wrong"]
        attempted += result["attempted"]
        failed += result["failed"]
        prefix = "" if len(names) == 1 else name + "."
        for metric in metric_names(bool(args.trace)):
            if args.trace:
                value, unit = result["layers"][metric]
            else:
                value, unit = result["end_to_end"][metric], units[metric]
            metrics[prefix + metric] = {"value": value, "unit": unit}
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
