"""Command-line interface: exit codes, JSON payloads, CSV handling."""

import inspect
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import kernelbridge
from kernelbridge import cli, reporting
from kernelbridge.dependence import PairedSample, hsic_gp_monte_carlo
from kernelbridge.kernels import parse_kernel
from kernelbridge.reporting import SCHEMA_VERSION, strip_wall_time
from kernelbridge.suites import Case, run_suite


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_csv(path, header, rows):
    lines = [header] + [",".join("%r" % v for v in row) for row in rows]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)


@pytest.fixture
def dataset_csv(tmp_path):
    return write_csv(
        tmp_path / "data.csv",
        "x1,y",
        [(0.0, 0.1), (0.25, 0.7), (0.5, 1.0), (0.75, 0.6), (1.0, 0.2)],
    )


# ----------------------------------------------------------------------
# exit codes and argument handling
# ----------------------------------------------------------------------


def test_no_arguments_is_a_usage_error(capsys):
    code, _, _ = run_cli(capsys)
    assert code == 2


def test_unknown_suite_is_a_usage_error(capsys):
    code, _, _ = run_cli(capsys, "verify", "--suite", "bogus")
    assert code == 2


def test_domain_errors_are_reported_on_stderr(capsys, tmp_path):
    data = write_csv(tmp_path / "d.csv", "x1,y", [(0.0, 1.0)])
    code, _, err = run_cli(
        capsys, "regress", "--data", data, "--kernel", "se", "--mode", "krr"
    )
    assert code == 2
    assert err.startswith("error:")
    assert "--lambda" in err


def test_malformed_cells_are_located_by_file_and_line(capsys, tmp_path):
    path = tmp_path / "broken.csv"
    path.write_text("x1,y\n0.0,1.0\noops,2.0\n", encoding="utf-8")
    code, _, err = run_cli(
        capsys,
        "regress",
        "--data",
        str(path),
        "--kernel",
        "se",
        "--mode",
        "krr",
        "--lambda",
        "0.1",
    )
    assert code == 2
    assert f"{path}:3: could not parse 'oops'" in err


def test_verification_failures_exit_with_one(capsys, monkeypatch):
    failing = Case(
        case_id="gp-krr-0000",
        inputs_digest="0" * 16,
        lhs=1.0,
        rhs=2.0,
        gap=1.0,
        tolerance=1e-8,
        passed=False,
    )
    monkeypatch.setattr(cli, "run_suite", lambda name, seed, trials: [failing])
    code, out, _ = run_cli(capsys, "verify", "--suite", "gp-krr", "--trials", "1")
    assert code == 1
    payload = json.loads(out)
    assert payload["cases"][0]["passed"] is False


# ----------------------------------------------------------------------
# the report envelope
# ----------------------------------------------------------------------


def _envelope_argv(command, tmp_path):
    if command == "verify":
        return ["--suite", "all", "--trials", "2", "--seed", "3"]
    if command == "regress":
        rows = [(0.0, 0.1), (0.5, 1.0), (1.0, 0.2)]
        data = write_csv(tmp_path / "d.csv", "x1,y", rows)
        return ["--data", data, "--kernel", "se", "--lambda", "0.1"]
    if command == "rates":
        return ["--sizes", "16,32,64", "--replications", "1"]
    if command == "sample":
        points = write_csv(tmp_path / "p.csv", "x1", [(0.0,), (1.0,)])
        return ["--kernel", "se", "--points", points]
    if command == "mmd":
        p = write_csv(tmp_path / "p.csv", "x1,w", [(0.0, 0.5), (1.0, 0.5)])
        q = write_csv(tmp_path / "q.csv", "x1,w", [(0.5, 1.0)])
        return ["--kernel", "se", "--p", p, "--q", q]
    if command == "hsic":
        x = write_csv(tmp_path / "x.csv", "x1", [(0.1,), (0.7,), (0.3,)])
        y = write_csv(tmp_path / "y.csv", "x1", [(0.2,), (0.9,), (0.5,)])
        return ["--x", x, "--y", y, "--draws", "20"]
    nodes = write_csv(tmp_path / "nodes.csv", "x1", [(0.0,), (0.5,), (1.0,)])
    target = write_csv(tmp_path / "target.csv", "x1,w", [(0.25, 0.5), (0.75, 0.5)])
    f = write_csv(tmp_path / "f.csv", "f", [(1.0,), (-2.0,), (0.5,)])
    return ["--kernel", "se", "--nodes", nodes, "--target", target, "--f-values", f]


@pytest.mark.parametrize(
    "command", ["verify", "regress", "rates", "sample", "mmd", "hsic", "quadrature"]
)
def test_every_report_opens_with_the_schema_and_ends_with_the_wall_time(
    capsys, tmp_path, command
):
    code, out, _ = run_cli(capsys, command, *_envelope_argv(command, tmp_path))
    assert code == 0
    payload = json.loads(out)
    keys = list(payload)
    assert keys[0] == "schema" and payload["schema"] == SCHEMA_VERSION
    assert keys[-1] == "wall_time" and keys.count("wall_time") == 1
    assert isinstance(payload["wall_time"], float) and payload["wall_time"] >= 0.0
    lines = out.splitlines()
    assert lines[-2].startswith('  "wall_time": ')
    assert strip_wall_time(out).splitlines() == lines[:-2] + lines[-1:]
    if command == "verify":
        assert payload["suite"] == "all" and payload["seed"] == 3
        ids = [case.case_id for case in run_suite("all", 3, 2)]
        assert ids != sorted(ids)
        assert [case["case_id"] for case in payload["cases"]] == sorted(ids)


# Seeded options beyond the envelope's arguments, for the commands that draw.
_SEEDED = {
    "regress": ["--mode", "both"],
    "rates": ["--seed", "4"],
    "sample": ["--count", "3", "--seed", "5"],
    "mmd": [],
    "hsic": ["--seed", "6"],
    "quadrature": [],
}


@pytest.mark.parametrize("command", _SEEDED)
def test_same_arguments_and_seed_give_the_same_bytes_apart_from_wall_time(
    capsys, tmp_path, command
):
    argv = [command, *_envelope_argv(command, tmp_path), *_SEEDED[command]]
    first = run_cli(capsys, *argv)
    second = run_cli(capsys, *argv)
    assert first[0] == second[0] == 0
    assert first[2] == second[2] == ""
    assert strip_wall_time(first[1]) == strip_wall_time(second[1])
    assert first[1] != strip_wall_time(first[1])


def test_only_main_times_and_emits_reports():
    handlers = [
        inspect.getsource(value)
        for name, value in vars(cli).items()
        if name.startswith("_cmd_")
    ]
    assert len(handlers) == 7
    assert not [src for src in handlers if "perf_counter" in src or "json_text(" in src]
    timed = inspect.getsource(cli.main).count("perf_counter")
    assert timed > 0 and inspect.getsource(cli).count("perf_counter") == timed
    # Result records serialize through dataclasses.asdict.
    package = Path(kernelbridge.__file__).parent
    restated = [p.name for p in package.glob("*.py") if "def as_dict" in p.read_text()]
    assert restated == []


# ----------------------------------------------------------------------
# verify
# ----------------------------------------------------------------------


def test_verify_runs_a_suite_and_reports_every_case(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--suite", "gp-krr", "--trials", "50", "--seed", "7"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["suite"] == "gp-krr"
    assert payload["seed"] == 7
    assert len(payload["cases"]) == 50
    assert all(case["passed"] for case in payload["cases"])


def test_verify_with_zero_trials_emits_an_empty_report(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "mmd-average-case", "--trials", "0")
    assert code == 0
    assert json.loads(out)["cases"] == []


def test_verify_output_is_byte_stable_apart_from_wall_time(capsys, tmp_path):
    first = tmp_path / "a.json"
    second = tmp_path / "b.json"
    for path in (first, second):
        code, _, _ = run_cli(
            capsys,
            "verify",
            "--suite",
            "hsic-gp",
            "--trials",
            "3",
            "--seed",
            "1",
            "--out",
            str(path),
        )
        assert code == 0
    a = strip_wall_time(first.read_text(encoding="utf-8"))
    b = strip_wall_time(second.read_text(encoding="utf-8"))
    assert a == b
    assert "wall_time" in first.read_text(encoding="utf-8")


def _cli_process(*args, threads=None):
    """Run the CLI in a fresh interpreter, optionally at a BLAS thread count."""
    src = str(Path(kernelbridge.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    if threads is not None:
        for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            env[name] = threads
    return subprocess.run(
        [sys.executable, "-m", "kernelbridge.cli", *args],
        env=env,
        capture_output=True,
        text=True,
        check=False,
    )


def _outputs_under_one_and_two_blas_threads(*args):
    """The CLI's stdout, ``wall_time`` stripped, under 1 and under 2 BLAS threads."""
    outputs = []
    for threads in ("1", "2"):
        done = _cli_process(*args, threads=threads)
        assert done.returncode == 0, done.stderr
        outputs.append(strip_wall_time(done.stdout))
    return outputs


def test_verify_output_does_not_depend_on_the_blas_thread_count():
    one, two = _outputs_under_one_and_two_blas_threads(
        "verify", "--suite", "all", "--trials", "50", "--seed", "0"
    )
    assert one == two


def test_rates_output_does_not_depend_on_the_blas_thread_count():
    # The default sizes, up to 2048, run the most chunks and boundary steps.
    one, two = _outputs_under_one_and_two_blas_threads("rates", "--seed", "0")
    assert one == two


def test_the_package_imports_no_scipy():
    # scipy is a test-only dependency; importing scipy.linalg alone costs more
    # than the command line's whole start-up.
    src = str(Path(kernelbridge.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = (
        "import importlib, pkgutil, sys\n"
        "import kernelbridge, kernelbridge.cli\n"
        "for module in pkgutil.iter_modules(kernelbridge.__path__):\n"
        "    importlib.import_module('kernelbridge.' + module.name)\n"
        "print(sorted(name for name in sys.modules if name.split('.')[0] == 'scipy'))\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=False
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


# ----------------------------------------------------------------------
# regress
# ----------------------------------------------------------------------


def test_both_mode_reports_a_tiny_discrepancy(capsys, dataset_csv):
    code, out, _ = run_cli(
        capsys,
        "regress",
        "--data",
        dataset_csv,
        "--kernel",
        "matern:alpha=1.5,h=0.4",
        "--lambda",
        "0.05",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["mode"] == "both"
    assert payload["n"] == 5 and payload["d"] == 1
    assert payload["sigma2"] == pytest.approx(5 * 0.05, rel=1e-15)
    assert payload["discrepancy"] <= 1e-8
    assert len(payload["predictions"]) == 5


def _regress(capsys, data, mode, *args):
    kernel = "matern:alpha=1.5,h=0.4"
    return run_cli(
        capsys, "regress", "--data", data, "--kernel", kernel, "--mode", mode, *args
    )


def test_lambda_zero_is_the_noise_free_case_of_both_mode(capsys, dataset_csv):
    code, out, err = _regress(capsys, dataset_csv, "both", "--lambda", "0")
    assert code == 0, err
    both = json.loads(out)
    assert both["sigma2"] == 0.0 and both["discrepancy"] <= 1e-8
    code, out, err = _regress(capsys, dataset_csv, "gp", "--sigma2", "0")
    assert code == 0, err
    assert both["predictions"] == json.loads(out)["predictions"]


def test_both_mode_with_no_queries_reports_a_zero_discrepancy(
    capsys, dataset_csv, tmp_path
):
    queries = write_csv(tmp_path / "q.csv", "x1", [])
    code, out, err = _regress(
        capsys, dataset_csv, "both", "--lambda", "0.05", "--queries", queries
    )
    assert (code, err) == (0, "")
    payload = json.loads(out)
    assert payload["discrepancy"] == 0.0
    assert payload["predictions"] == []


def test_ridge_mode_at_lambda_zero_interpolates(capsys, dataset_csv):
    code, out, err = _regress(capsys, dataset_csv, "krr", "--lambda", "0")
    assert code == 0, err
    np.testing.assert_allclose(
        json.loads(out)["predictions"], [0.1, 0.7, 1.0, 0.6, 0.2], rtol=0, atol=1e-8
    )


def test_every_mode_gates_the_noise_free_system_alike(capsys, tmp_path):
    rows = [(0.2, 1.0), (0.2, 0.0), (0.7, -1.0)]
    data = write_csv(tmp_path / "dup.csv", "x1,y", rows)
    errors = set()
    for mode, noise in [("krr", "--lambda"), ("both", "--lambda"), ("gp", "--sigma2")]:
        code, out, err = _regress(capsys, data, mode, noise, "0")
        assert (code, out) == (2, "")
        errors.add(err)
    [message] = errors
    assert message.startswith("error: K_XX is ") and "singular" in message


def test_single_point_ridge_prediction_matches_the_scalar_solve(capsys, tmp_path):
    data = write_csv(tmp_path / "one.csv", "x1,y", [(0.0, 2.0)])
    code, out, _ = run_cli(
        capsys,
        "regress",
        "--data",
        data,
        "--kernel",
        "se",
        "--mode",
        "krr",
        "--lambda",
        "1.0",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["predictions"][0] == pytest.approx(1.0, rel=1e-12)


def test_gp_mode_on_an_empty_dataset_predicts_the_prior_mean(capsys, tmp_path):
    data = tmp_path / "empty.csv"
    data.write_text("x1,y\n", encoding="utf-8")
    queries = write_csv(tmp_path / "q.csv", "x1", [(0.3,), (0.9,)])
    code, out, _ = run_cli(
        capsys,
        "regress",
        "--data",
        str(data),
        "--kernel",
        "se",
        "--mode",
        "gp",
        "--sigma2",
        "0.1",
        "--queries",
        queries,
    )
    assert code == 0
    assert json.loads(out)["predictions"] == [0.0, 0.0]


@pytest.mark.parametrize("mode", ["krr", "both"])
@pytest.mark.parametrize("lam", ["0.1", "0"])
def test_ridge_modes_on_an_empty_dataset_predict_zero(capsys, tmp_path, mode, lam):
    data = write_csv(tmp_path / "empty.csv", "x1,y", [])
    queries = write_csv(tmp_path / "q.csv", "x1", [(0.3,), (0.9,)])
    code, out, err = run_cli(
        capsys,
        "regress",
        "--data",
        data,
        "--kernel",
        "se",
        "--mode",
        mode,
        "--lambda",
        lam,
        "--queries",
        queries,
    )
    assert (code, err) == (0, "")
    payload = json.loads(out)
    assert payload["n"] == 0
    assert payload["predictions"] == [0.0, 0.0]
    if mode == "both":
        assert payload["sigma2"] == 0.0
        assert payload["discrepancy"] == 0.0


@pytest.mark.parametrize("rows", [[], [(0.3,)]])
def test_gp_mode_without_outputs_is_rejected_at_every_n(capsys, tmp_path, rows):
    # The y column is required where the file is read, in every mode.
    data = write_csv(tmp_path / "x.csv", "x1", rows)
    for mode in ("gp", "krr", "both"):
        code, out, err = run_cli(
            capsys, "regress", "--data", data, "--kernel", "se", "--mode", mode,
            "--sigma2", "0.1", "--lambda", "0.1",
        )
        assert (code, out) == (2, "")
        assert err == f"error: {data}:1: missing required column 'y'\n"


def test_queries_of_another_dimension_are_rejected_on_an_empty_dataset(
    capsys, tmp_path
):
    data = write_csv(tmp_path / "empty.csv", "x1,y", [])
    queries = write_csv(tmp_path / "q.csv", "x1,x2", [(0.3, 0.1)])
    code, _, err = run_cli(
        capsys,
        "regress",
        "--data",
        data,
        "--kernel",
        "se",
        "--mode",
        "gp",
        "--sigma2",
        "0.1",
        "--queries",
        queries,
    )
    assert code == 2
    assert err == "error: queries have dimension 2 but the data has dimension 1\n"


def test_both_mode_rejects_an_inconsistent_noise_override(capsys, dataset_csv):
    code, _, err = run_cli(
        capsys,
        "regress",
        "--data",
        dataset_csv,
        "--kernel",
        "se",
        "--lambda",
        "0.05",
        "--sigma2",
        "99.0",
    )
    assert code == 2
    assert "sigma2" in err


def test_query_dimension_mismatch_is_rejected(capsys, dataset_csv, tmp_path):
    queries = write_csv(tmp_path / "q2.csv", "x1,x2", [(0.0, 0.0)])
    code, _, err = run_cli(
        capsys,
        "regress",
        "--data",
        dataset_csv,
        "--kernel",
        "se",
        "--lambda",
        "0.1",
        "--queries",
        queries,
    )
    assert code == 2
    assert "dimension" in err


def test_predictions_can_be_routed_to_a_csv_file(capsys, dataset_csv, tmp_path):
    out_csv = tmp_path / "pred.csv"
    code, out, _ = run_cli(
        capsys,
        "regress",
        "--data",
        dataset_csv,
        "--kernel",
        "se",
        "--lambda",
        "0.1",
        "--predictions-out",
        str(out_csv),
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["predictions_path"] == str(out_csv)
    assert "predictions" not in payload
    lines = out_csv.read_text(encoding="utf-8").strip().splitlines()
    assert lines[0] == "x1,y"
    assert len(lines) == 6
    assert out_csv.read_bytes().count(b"\r\n") == len(lines)
    reread = [float(line.split(",")[1]) for line in lines[1:]]
    assert all(np.isfinite(reread))


def test_predictions_that_cannot_be_serialized_fail_with_or_without_a_file(
    capsys, tmp_path
):
    data = write_csv(tmp_path / "d.csv", "x1,y", [(0.0, 1.0), (0.5, 2.0), (1.0, 0.5)])
    queries = write_csv(tmp_path / "q.csv", "x1", [(1e120,), (0.3,)])
    out_csv = tmp_path / "pred.csv"
    args = ("regress", "--data", data, "--queries", queries, "--mode", "krr",
            "--kernel", "poly:degree=3,c=1.0", "--lambda", "0.1")
    for extra in ((), ("--predictions-out", str(out_csv))):
        # The cross-Gram row at 1e120 overflows, so its prediction is nan.
        with pytest.warns(RuntimeWarning):
            code, out, err = run_cli(capsys, *args, *extra)
        assert (code, out) == (2, "")
        assert err == "error: cannot serialize non-finite value nan\n"
    assert not out_csv.exists()


# ----------------------------------------------------------------------
# rates
# ----------------------------------------------------------------------


def test_rates_smoke_run_reports_slopes(capsys):
    code, out, _ = run_cli(
        capsys,
        "rates",
        "--sizes",
        "16,32,64",
        "--replications",
        "1",
        "--seed",
        "0",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["command"] == "rates"
    assert payload["sample_sizes"] == [16, 32, 64]
    assert len(payload["errors"]) == 3
    assert payload["theoretical_slope"] == pytest.approx(-0.75)
    assert np.isfinite(payload["fitted_slope"])


def test_rates_rejects_unparseable_sizes(capsys):
    code, _, err = run_cli(capsys, "rates", "--sizes", "16,abc")
    assert code == 2
    assert "sizes" in err


# ----------------------------------------------------------------------
# sample
# ----------------------------------------------------------------------


def test_sample_draws_have_the_requested_shape_and_are_seeded(capsys, tmp_path):
    points = write_csv(tmp_path / "pts.csv", "x1", [(0.0,), (0.5,), (1.0,)])
    args = (
        "sample",
        "--kernel",
        "matern:alpha=2.5,h=0.7",
        "--points",
        points,
        "--count",
        "4",
        "--seed",
        "11",
    )
    code, out, _ = run_cli(capsys, *args)
    assert code == 0
    payload = json.loads(out)
    assert payload["count"] == 4
    draws = payload["draws"]
    assert len(draws) == 4 and all(len(row) == 3 for row in draws)
    code, again, _ = run_cli(capsys, *args)
    assert code == 0
    assert strip_wall_time(again) == strip_wall_time(out)


def test_sample_accepts_a_length_scale_whose_square_overflows(capsys, tmp_path):
    points = write_csv(tmp_path / "pts.csv", "x1", [(0.0,), (1.0,)])
    args = ("sample", "--kernel", "se:gamma=1e300", "--points", points)
    code, out, err = run_cli(capsys, *args)
    assert code == 0, err
    assert np.all(np.isfinite(json.loads(out)["draws"]))


@pytest.mark.parametrize("command", ["sample", "regress", "quadrature"])
def test_a_gram_matrix_that_is_not_finite_is_named(capsys, tmp_path, command):
    # (x y)^3 overflows at these points, so every entry of K_XX is inf.
    points = write_csv(tmp_path / "pts.csv", "x1", [(1e120,), (2e120,)])
    args = {
        "sample": ("--points", points),
        "regress": (
            "--data",
            write_csv(tmp_path / "d.csv", "x1,y", [(1e120, 1.0), (2e120, 2.0)]),
            "--mode",
            "both",
            "--lambda",
            "0.1",
        ),
        "quadrature": (
            "--nodes",
            points,
            "--target",
            write_csv(tmp_path / "t.csv", "x1,w", [(1e120, 0.5), (2e120, 0.5)]),
            "--lambda",
            "0.1",
        ),
    }[command]
    code, out, err = run_cli(capsys, command, "--kernel", "poly:degree=3", *args)
    assert (code, out, err) == (2, "", "error: K_XX has a non-finite entry\n")


@pytest.mark.parametrize("command", ["quadrature", "sample"])
def test_a_trace_that_overflows_leaves_only_the_error_on_stderr(tmp_path, command):
    # Each k(x, x) = x^4 is finite at these nodes, but their sum is not.
    nodes = write_csv(tmp_path / "nodes.csv", "x1", [(1e77,), (1.1e77,)])
    target = write_csv(tmp_path / "target.csv", "x1,w", [(1e77, 1.0)])
    args, message = {
        "quadrature": (
            ("--nodes", nodes, "--target", target, "--lambda", "0"),
            "K_XX is singular (smallest eigenvalue inf)",
        ),
        "sample": (
            ("--points", nodes),
            "Cholesky factorization of K_XX failed and its trace admits no jitter scale",
        ),
    }[command]
    done = _cli_process(command, "--kernel", "poly:degree=2", *args)
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr == f"error: {message}\n"


def test_a_utf8_byte_order_mark_before_the_header_is_accepted(capsys, tmp_path):
    plain = write_csv(tmp_path / "plain.csv", "x1", [(0.0,), (0.5,), (1.0,)])
    marked = tmp_path / "marked.csv"
    marked.write_bytes(b"\xef\xbb\xbf" + Path(plain).read_bytes())
    args = ("sample", "--kernel", "se", "--count", "2", "--seed", "3", "--points")
    code, out, err = run_cli(capsys, *args, str(marked))
    assert code == 0, err
    _, expected, _ = run_cli(capsys, *args, plain)
    assert strip_wall_time(out) == strip_wall_time(expected)


# Each README CSV format, as one command reads it; the command's other inputs
# are valid. Per format, one file per case of _MALFORMED_CASES, and the
# message it gets after "error: <path>" (None: the file is read).
_MALFORMED_CASES = (
    "empty", "wrong-first-column", "extra-trailing-column",
    "missing-required-column", "short-row", "unparsable-cell",
    "non-finite-cell", "utf8-bom-header",
)
_MALFORMED = {
    "training": (
        ("", ":1: missing header row"),
        ("z1,y\n0.0,1.0\n", ":1: header must start with coordinate columns x1,...,xd"),
        ("x1,y,z\n0.0,1.0,2.0\n", ":1: unexpected trailing columns ['y', 'z'] after x1..x1"),
        ("x1\n0.0\n", ":1: missing required column 'y'"),
        ("x1,y\n0.0,1.0\n0.5\n", ":3: expected 2 columns, found 1"),
        ("x1,y\n0.0,oops\n", ":2: could not parse 'oops' as a number"),
        ("x1,y\n0.0,inf\n", ":2: non-finite value 'inf'"),
        ("\ufeffx1,y\n0.0,1.0\n0.5,2.0\n", None),
    ),
    "points": (
        ("", ":1: missing header row"),
        ("x2\n0.0\n", ":1: header must start with coordinate columns x1,...,xd"),
        ("x1,y\n0.0,1.0\n", ":1: unexpected trailing columns ['y'] after x1..x1"),
        ("\n0.0\n", ":1: header must start with coordinate columns x1,...,xd"),
        ("x1\n0.0\n\n", ":3: expected 1 columns, found 0"),
        ("x1,x2\n0.0,0x10\n", ":2: could not parse '0x10' as a number"),
        ("x1,x2\n0.0, nan\n", ":2: non-finite value ' nan'"),
        ("\ufeffx1,x2\n0.0,1.0\n0.5,2.0\n", None),
    ),
    "atoms": (
        ("", ":1: missing header row"),
        ("w,x1\n0.5,0.0\n", ":1: header must start with coordinate columns x1,...,xd"),
        ("x1,w,v\n0.0,1.0,2.0\n", ":1: unexpected trailing columns ['w', 'v'] after x1..x1"),
        ("x1\n0.0\n", ":1: missing required column 'w'"),
        ("x1,x2,w\n0.0,1.0,0.5\n0.5,0.5\n", ":3: expected 3 columns, found 2"),
        ('x1,w\n"1,5",1.0\n', ":2: could not parse '1,5' as a number"),
        ("x1,w\n0.0,-Infinity\n", ":2: non-finite value '-Infinity'"),
        ("\ufeffx1,w\n0.0,0.5\n0.5,0.5\n", None),
    ),
    "values": (
        ("", ":1: expected a single column named 'f'"),
        ("g\n1.0\n2.0\n", ":1: expected a single column named 'f'"),
        ("f,g\n1.0,2.0\n", ":1: expected a single column named 'f'"),
        ("x1\n1.0\n2.0\n", ":1: expected a single column named 'f'"),
        ("f\n1.0\n\n", ":3: expected 1 column, found 0"),
        ("f\n1.0\n1_000\n", ":3: could not parse '1_000' as a number"),
        ("f\nnan\n1.0\n", ":2: non-finite value 'nan'"),
        ("\ufefff\n1.0\n2.0\n", None),
    ),
}


def _command_reading(fmt, tmp_path, path):
    points = write_csv(tmp_path / "nodes.csv", "x1", [(0.0,), (0.5,)])
    atoms = write_csv(tmp_path / "atoms.csv", "x1,w", [(0.0, 0.5), (0.5, 0.5)])
    return {
        "training": ("regress", "--data", path, "--mode", "krr", "--lambda", "0.1"),
        "points": ("sample", "--points", path),
        "atoms": ("mmd", "--p", path, "--q", atoms),
        "values": ("quadrature", "--nodes", points, "--target", atoms, "--f-values", path),
    }[fmt]


def test_csv_files_are_read_in_one_place_and_written_in_another():
    source = inspect.getsource(cli)
    owners = inspect.getsource(cli._read_csv) + inspect.getsource(cli._write)
    assert source.count("open(") == owners.count("open(") == 2
    modules = [p.read_text() for p in Path(kernelbridge.__file__).parent.glob("*.py")]
    assert sum(text.count("csv.reader") for text in modules) == 1
    assert source.count("csv.reader") == 1
    # Every float written to a report or a prediction file comes from one place.
    assert sum(text.count('"%.17g"') for text in modules) == 1
    assert '"%.17g"' in inspect.getsource(reporting.format_float)


@pytest.mark.parametrize("case", range(len(_MALFORMED_CASES)), ids=_MALFORMED_CASES)
@pytest.mark.parametrize("fmt", sorted(_MALFORMED))
def test_every_malformed_file_gets_its_message(capsys, tmp_path, fmt, case):
    text, message = _MALFORMED[fmt][case]
    path = tmp_path / "input.csv"
    path.write_text(text, encoding="utf-8")
    args = _command_reading(fmt, tmp_path, str(path))
    code, out, err = run_cli(capsys, args[0], "--kernel", "se", *args[1:])
    if message is None:
        assert (code, err) == (0, "")
    else:
        assert (code, out, err) == (2, "", f"error: {path}{message}\n")


# ----------------------------------------------------------------------
# mmd
# ----------------------------------------------------------------------


def test_mmd_of_identical_measure_files_is_exactly_zero(capsys, tmp_path):
    rows = [(0.0, 0.5), (1.0, 0.5)]
    p = write_csv(tmp_path / "p.csv", "x1,w", rows)
    q = write_csv(tmp_path / "q.csv", "x1,w", rows)
    code, out, _ = run_cli(capsys, "mmd", "--kernel", "se", "--p", p, "--q", q)
    assert code == 0
    payload = json.loads(out)
    assert payload["mmd"] == 0.0
    assert payload["mmd_squared"] == 0.0
    assert payload["p_atoms"] == 2 and payload["q_atoms"] == 2


def test_mmd_requires_the_weight_column(capsys, tmp_path):
    p = write_csv(tmp_path / "p.csv", "x1", [(0.0,)])
    q = write_csv(tmp_path / "q.csv", "x1,w", [(0.0, 1.0)])
    code, _, err = run_cli(capsys, "mmd", "--kernel", "se", "--p", p, "--q", q)
    assert code == 2
    assert "'w'" in err


# ----------------------------------------------------------------------
# hsic
# ----------------------------------------------------------------------


def test_hsic_on_a_constant_column_collapses_to_zero(capsys, tmp_path):
    x = write_csv(tmp_path / "x.csv", "x1", [(0.5,)] * 6)
    y = write_csv(
        tmp_path / "y.csv", "x1", [(0.1,), (0.4,), (0.9,), (0.2,), (0.8,), (0.3,)]
    )
    code, out, _ = run_cli(
        capsys, "hsic", "--x", x, "--y", y, "--draws", "200", "--seed", "3"
    )
    assert code == 0
    payload = json.loads(out)
    assert 0.0 <= payload["hsic"] <= 1e-15
    assert 0.0 <= payload["gp_exact"] <= 1e-15
    assert payload["mc_estimate"] == 0.0
    assert payload["seed"] == 3


def test_hsic_reports_the_exact_standard_error_after_the_sample_one(capsys, tmp_path):
    xs = [(0.1,), (0.7,), (0.3,), (0.9,), (0.45,)]
    ys = [(0.2,), (0.9,), (0.5,), (0.6,), (0.1,)]
    x = write_csv(tmp_path / "x.csv", "x1", xs)
    y = write_csv(tmp_path / "y.csv", "x1", ys)
    code, out, _ = run_cli(
        capsys, "hsic", "--x", x, "--y", y, "--draws", "300", "--seed", "4"
    )
    assert code == 0
    payload = json.loads(out)
    keys = list(payload)
    assert keys[keys.index("mc_se") + 1] == "mc_exact_se"
    kernel = parse_kernel("se")
    expected = hsic_gp_monte_carlo(kernel, kernel, PairedSample(xs, ys), 300, 4)
    assert (payload["mc_estimate"], payload["mc_se"], payload["mc_exact_se"]) == expected
    assert payload["mc_exact_se"] > 0.0


def test_hsic_without_draws_omits_the_monte_carlo_fields(capsys, tmp_path):
    x = write_csv(tmp_path / "x.csv", "x1", [(0.1,), (0.7,), (0.3,)])
    y = write_csv(tmp_path / "y.csv", "x1", [(0.2,), (0.9,), (0.5,)])
    code, out, _ = run_cli(capsys, "hsic", "--x", x, "--y", y)
    assert code == 0
    payload = json.loads(out)
    assert "mc_estimate" not in payload
    assert "mc_se" not in payload
    assert "mc_exact_se" not in payload
    assert payload["hsic"] == pytest.approx(payload["gp_exact"], abs=1e-10)


# ----------------------------------------------------------------------
# quadrature
# ----------------------------------------------------------------------


def test_quadrature_on_matching_nodes_recovers_uniform_weights(capsys, tmp_path):
    nodes = write_csv(tmp_path / "nodes.csv", "x1", [(0.0,), (0.5,), (1.0,)])
    target = write_csv(
        tmp_path / "target.csv",
        "x1,w",
        [(0.0, 1.0 / 3.0), (0.5, 1.0 / 3.0), (1.0, 1.0 / 3.0)],
    )
    f_values = tmp_path / "f.csv"
    f_values.write_text("f\n1.0\n2.0\n3.0\n", encoding="utf-8")
    code, out, _ = run_cli(
        capsys,
        "quadrature",
        "--kernel",
        "se",
        "--nodes",
        nodes,
        "--target",
        target,
        "--f-values",
        str(f_values),
    )
    assert code == 0
    payload = json.loads(out)
    np.testing.assert_allclose(payload["weights"], [1.0 / 3.0] * 3, atol=1e-10)
    assert 0.0 <= payload["variance"] <= 1e-10
    assert payload["mean"] == pytest.approx(2.0, abs=1e-8)


def test_quadrature_with_no_nodes_reports_the_prior_variance(capsys, tmp_path):
    nodes = tmp_path / "nodes.csv"
    nodes.write_text("x1\n", encoding="utf-8")
    target = write_csv(tmp_path / "target.csv", "x1,w", [(0.0, 0.25), (0.5, 0.75)])
    f_values = tmp_path / "f.csv"
    f_values.write_text("f\n", encoding="utf-8")
    code, out, err = run_cli(
        capsys,
        "quadrature",
        "--kernel",
        "se",
        "--nodes",
        str(nodes),
        "--target",
        target,
        "--f-values",
        str(f_values),
    )
    assert (code, err) == (0, "")
    payload = json.loads(out)
    assert payload["n"] == 0
    assert payload["weights"] == []
    prior = 0.25**2 + 0.75**2 + 2.0 * 0.25 * 0.75 * math.exp(-0.25)
    assert payload["variance"] == pytest.approx(prior, rel=1e-14)
    assert payload["mean"] == 0.0
