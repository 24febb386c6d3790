"""Command-line verification harness and utility commands.

``kernelbridge verify`` runs the randomized identity suites and emits a
JSON report; ``regress`` fits ridge and/or GP predictors to a CSV
dataset; ``rates`` runs the convergence-rate experiment; ``sample``,
``mmd``, ``hsic`` and ``quadrature`` wrap the corresponding library
calls. Every command accepts ``--out`` to write its JSON to a file
instead of stdout, and identical arguments with the same seed produce
byte-identical output apart from the ``wall_time`` line. Each ``_cmd_*``
handler returns its own keys and an exit code; :func:`main` times it and
writes the report with ``schema`` first and ``wall_time`` last.

Exit codes: 0 on success, 1 when a verification check fails, 2 for
usage, parse, or input errors. No other codes are used.

CSV formats: datasets carry a header ``x1,...,xd,y``, measures
``x1,...,xd,w``, point sets ``x1,...,xd`` and function values the single
column ``f``; ``y``, ``w`` and ``f`` are required. Decimal points only; no
thousands separators. :func:`_read_csv` reads every one of them.
"""

from __future__ import annotations

import argparse
import csv
import sys
import time
from dataclasses import asdict

import numpy as np

from . import embeddings, experiments, gp, krr, quadrature
from .dependence import PairedSample, hsic_empirical, hsic_gp_exact, hsic_gp_monte_carlo
from .errors import (
    InputError,
    NumericalError,
    PreconditionError,
    UnsupportedOperationError,
)
from .kernels import Dataset, format_kernel, parse_kernel
from .reporting import SCHEMA_VERSION, format_float, json_text
from .suites import SUITE_NAMES, run_suite

__all__ = ["main", "entrypoint"]

_BOTH_MODE_TOLERANCE = 1e-8


def _parse_cell(path: str, line: int, cell: str) -> float:
    text = cell.strip()
    if "_" in text or "," in text:
        raise InputError(f"{path}:{line}: could not parse {cell!r} as a number")
    try:
        value = float(text)
    except ValueError:
        raise InputError(
            f"{path}:{line}: could not parse {cell!r} as a number"
        ) from None
    if not np.isfinite(value):
        raise InputError(f"{path}:{line}: non-finite value {cell!r}")
    return value


def _read_csv(path: str, last: str | None):
    """Read a CSV as ``(points, values)``, two separate arrays. ``last`` names
    the required column after ``x1..xd``, ``"y"`` or ``"w"``; ``None`` reads
    coordinates alone (``values`` is None), ``"f"`` the single column ``f``.
    """
    try:
        with open(path, newline="", encoding="utf-8-sig") as handle:
            rows = list(csv.reader(handle))
    except OSError as exc:
        raise InputError(f"could not read {path}: {exc}") from None
    header = [cell.strip() for cell in rows[0]] if rows else []
    if last == "f" and header != ["f"]:
        raise InputError(f"{path}:1: expected a single column named 'f'")
    if not rows:
        raise InputError(f"{path}:1: missing header row")
    d = 0
    while d < len(header) and header[d] == f"x{d + 1}":
        d += 1
    if d == 0 and last != "f":
        raise InputError(
            f"{path}:1: header must start with coordinate columns x1,...,xd"
        )
    trailer = header[d:]
    if trailer and trailer != [last]:
        raise InputError(
            f"{path}:1: unexpected trailing columns {trailer!r} after x1..x{d}"
        )
    if last is not None and not trailer:
        raise InputError(f"{path}:1: missing required column {last!r}")
    width = len(header)
    points = np.zeros((len(rows) - 1, d))
    values = None if last is None else np.zeros(len(rows) - 1)
    for i, row in enumerate(rows[1:], start=2):
        if len(row) != width:
            raise InputError(
                f"{path}:{i}: expected {width} column{'s' if d else ''}, found {len(row)}"
            )
        for j in range(d):
            points[i - 2, j] = _parse_cell(path, i, row[j])
        if values is not None:
            values[i - 2] = _parse_cell(path, i, row[d])
    return points, values


def _write(path: str | None, text: str) -> None:
    """Write ``text`` to ``path`` as it is, or to stdout when ``path`` is None."""
    if path is None:
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", newline="", encoding="utf-8") as handle:
            handle.write(text)
    except OSError as exc:
        raise InputError(f"could not write {path}: {exc}") from None


def _cmd_verify(args):
    cases = sorted(
        run_suite(args.suite, args.seed, args.trials), key=lambda case: case.case_id
    )
    body = {
        "suite": args.suite,
        "seed": int(args.seed),
        "cases": [asdict(case) for case in cases],
    }
    return body, 0 if all(case.passed for case in cases) else 1


def _cmd_regress(args):
    kernel = parse_kernel(args.kernel)
    data = Dataset(*_read_csv(args.data, "y"))
    queries = _read_csv(args.queries, None)[0] if args.queries else data.X
    if queries.shape[1] != data.d:
        raise InputError(
            f"queries have dimension {queries.shape[1]} but the data has "
            f"dimension {data.d}"
        )
    if args.mode != "gp" and args.lam is None:
        raise InputError(f"{args.mode} mode requires --lambda")
    sigma2 = args.sigma2
    if args.mode == "both":
        sigma2 = data.n * args.lam
        if args.sigma2 is not None and args.sigma2 != sigma2:
            raise InputError(
                f"both mode requires sigma2 = n * lambda = {sigma2!r}, got "
                f"{args.sigma2!r}"
            )
    if args.mode == "gp" and sigma2 is None:
        raise InputError("gp mode requires --sigma2")
    body: dict = {
        "command": "regress",
        "mode": args.mode,
        "kernel": format_kernel(kernel),
        "n": data.n,
        "d": data.d,
    }
    if args.mode != "gp":
        body["lambda"] = args.lam
        predictions = krr.fit_krr(kernel, data, args.lam).at(queries)
    if args.mode != "krr":
        body["sigma2"] = sigma2
        post = gp.condition(kernel, data, sigma2)
        gp_predictions = gp.posterior_mean_at(post, queries)
    exit_code = 0
    if args.mode == "gp":
        predictions = gp_predictions
    elif args.mode == "both":
        discrepancy = float(np.max(np.abs(predictions - gp_predictions), initial=0.0))
        body["discrepancy"] = discrepancy
        if discrepancy > _BOTH_MODE_TOLERANCE:
            exit_code = 1
    if args.predictions_out:
        rows = [[f"x{j + 1}" for j in range(data.d)] + ["y"]]
        rows += [[format_float(v) for v in (*q, p)] for q, p in zip(queries, predictions)]
        # CRLF row ends, as csv.writer writes them.
        _write(args.predictions_out, "".join(",".join(row) + "\r\n" for row in rows))
        body["predictions_path"] = args.predictions_out
    else:
        body["predictions"] = [float(v) for v in predictions]
    return body, exit_code


def _cmd_rates(args):
    kernel = parse_kernel(args.kernel)
    sizes = _parse_sizes(args.sizes)
    result = experiments.rate_experiment(
        kernel,
        sizes,
        replications=args.replications,
        seed=args.seed,
        lambda_coefficient=args.coefficient,
    )
    body = {
        "command": "rates",
        "target": "matern32-mix",
        "kernel": format_kernel(kernel),
        "replications": args.replications,
        "lambda_coefficient": args.coefficient,
        "seed": args.seed,
        **asdict(result),
    }
    return body, 0


def _cmd_sample(args):
    kernel = parse_kernel(args.kernel)
    points, _ = _read_csv(args.points, None)
    draws = gp.sample_prior(kernel, points, args.count, args.seed)
    body = {
        "command": "sample",
        "kernel": format_kernel(kernel),
        "n": points.shape[0],
        "d": points.shape[1],
        "count": args.count,
        "seed": args.seed,
        "draws": [[float(v) for v in row] for row in draws],
    }
    return body, 0


def _cmd_mmd(args):
    kernel = parse_kernel(args.kernel)
    P = embeddings.DiscreteMeasure(*_read_csv(args.p, "w"))
    Q = embeddings.DiscreteMeasure(*_read_csv(args.q, "w"))
    value = embeddings.mmd(kernel, P, Q)
    body = {
        "command": "mmd",
        "kernel": format_kernel(kernel),
        "p_atoms": P.m,
        "q_atoms": Q.m,
        "mmd": value,
        "mmd_squared": value * value,
    }
    return body, 0


def _cmd_hsic(args):
    kx = parse_kernel(args.kernel_x)
    ky = parse_kernel(args.kernel_y)
    sample = PairedSample(_read_csv(args.x, None)[0], _read_csv(args.y, None)[0])
    body = {
        "command": "hsic",
        "kernel_x": format_kernel(kx),
        "kernel_y": format_kernel(ky),
        "n": sample.n,
        "hsic": hsic_empirical(kx, ky, sample),
        "gp_exact": hsic_gp_exact(kx, ky, sample),
    }
    if args.draws is not None:
        estimate, se, exact_se = hsic_gp_monte_carlo(kx, ky, sample, args.draws, args.seed)
        body["mc_estimate"] = estimate
        body["mc_se"] = se
        body["mc_exact_se"] = exact_se
        body["seed"] = args.seed
    return body, 0


def _cmd_quadrature(args):
    kernel = parse_kernel(args.kernel)
    nodes, _ = _read_csv(args.nodes, None)
    target = embeddings.DiscreteMeasure(*_read_csv(args.target, "w"))
    rule = quadrature.kq_weights(kernel, nodes, target, args.lam)
    _, variance = quadrature.bq_posterior(rule, np.zeros(rule.n))
    body = {
        "command": "quadrature",
        "kernel": format_kernel(kernel),
        "n": rule.n,
        "lambda": args.lam,
        "weights": [float(w) for w in rule.weights],
        "variance": variance,
    }
    if args.f_values:
        _, f = _read_csv(args.f_values, "f")
        mean, _ = quadrature.bq_posterior(rule, f)
        body["mean"] = mean
    return body, 0


def _parse_sizes(text: str):
    try:
        return [int(piece) for piece in text.split(",") if piece.strip()]
    except ValueError:
        raise InputError(
            f"could not parse sizes {text!r}; expected comma-separated integers"
        ) from None


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kernelbridge",
        description="Verification harness for kernel regression identities.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    verify = sub.add_parser("verify", help="run a randomized identity suite")
    verify.add_argument("--suite", choices=SUITE_NAMES + ("all",), default="all")
    verify.add_argument("--trials", type=int, default=200)
    verify.add_argument("--seed", type=int, default=0)
    verify.add_argument("--out")
    verify.set_defaults(handler=_cmd_verify)

    regress = sub.add_parser("regress", help="fit ridge or GP predictors to a CSV")
    regress.add_argument("--data", required=True)
    regress.add_argument("--kernel", required=True)
    regress.add_argument("--mode", choices=("krr", "gp", "both"), default="both")
    regress.add_argument("--lambda", dest="lam", type=float)
    regress.add_argument("--sigma2", type=float)
    regress.add_argument("--queries")
    regress.add_argument("--predictions-out")
    regress.add_argument("--out")
    regress.set_defaults(handler=_cmd_regress)

    rates = sub.add_parser("rates", help="run the convergence-rate experiment")
    rates.add_argument("--kernel", default="matern:alpha=1.5,h=0.2")
    rates.add_argument(
        "--sizes", default=",".join(str(n) for n in experiments.DEFAULT_SIZES)
    )
    rates.add_argument("--replications", type=int, default=4)
    rates.add_argument(
        "--coefficient", type=float, default=experiments.DEFAULT_LAMBDA_COEFFICIENT
    )
    rates.add_argument("--seed", type=int, default=0)
    rates.add_argument("--out")
    rates.set_defaults(handler=_cmd_rates)

    sample = sub.add_parser("sample", help="draw GP prior samples at points")
    sample.add_argument("--kernel", required=True)
    sample.add_argument("--points", required=True)
    sample.add_argument("--count", type=int, default=1)
    sample.add_argument("--seed", type=int, default=0)
    sample.add_argument("--out")
    sample.set_defaults(handler=_cmd_sample)

    mmd_cmd = sub.add_parser("mmd", help="distance between two discrete measures")
    mmd_cmd.add_argument("--kernel", required=True)
    mmd_cmd.add_argument("--p", required=True)
    mmd_cmd.add_argument("--q", required=True)
    mmd_cmd.add_argument("--out")
    mmd_cmd.set_defaults(handler=_cmd_mmd)

    hsic = sub.add_parser("hsic", help="dependence measure on paired samples")
    hsic.add_argument("--x", required=True)
    hsic.add_argument("--y", required=True)
    hsic.add_argument("--kernel-x", default="se")
    hsic.add_argument("--kernel-y", default="se")
    hsic.add_argument("--draws", type=int)
    hsic.add_argument("--seed", type=int, default=0)
    hsic.add_argument("--out")
    hsic.set_defaults(handler=_cmd_hsic)

    quad = sub.add_parser("quadrature", help="kernel quadrature weights and variance")
    quad.add_argument("--kernel", required=True)
    quad.add_argument("--nodes", required=True)
    quad.add_argument("--target", required=True)
    quad.add_argument("--lambda", dest="lam", type=float, default=0.0)
    quad.add_argument("--f-values")
    quad.add_argument("--out")
    quad.set_defaults(handler=_cmd_quadrature)

    return parser


def main(argv=None) -> int:
    """Run the CLI; returns the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return 2 if code not in (0, None) else 0
    try:
        start = time.perf_counter()
        body, exit_code = args.handler(args)
        elapsed = time.perf_counter() - start
        report = {"schema": SCHEMA_VERSION, **body, "wall_time": elapsed}
        _write(args.out, json_text(report))
        return exit_code
    except (
        InputError,
        PreconditionError,
        NumericalError,
        UnsupportedOperationError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    """Console-script entry."""
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
