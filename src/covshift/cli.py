"""Command-line front end.

Subcommands: ``test-uni``, ``test-cov``, ``calibrate``, ``simulate``,
``boundary``. Input is CSV (rows = time points, columns = dimensions, one
optional header row auto-detected by a non-numeric first row, no missing
values). Output is a JSON report with floats at 17 significant digits, so
identical configuration, input, and seed produce byte-identical files.

Exit codes: 0 success, 1 runtime failure (structured error record written),
2 parse or configuration failure.
"""

from __future__ import annotations

import argparse
import csv
import math
import sys

import numpy as np

from . import __version__
from .exceptions import InvalidInputError
from .multivariate import adaptive_sdp_test, adaptive_test, covariance_test
from .simulate import (
    PriorSpec,
    calibrate_lambda,
    detection_boundary_uni,
    monte_carlo_errors,
)
from .sparse_eig import DEFAULT_BUDGET
from .univariate import variance_test

__all__ = ["main"]


class ConfigError(Exception):
    pass


def _format_value(x):
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, (float, np.floating)):
        x = float(x)
        if math.isnan(x):
            return "NaN"
        if math.isinf(x):
            return "Infinity" if x > 0 else "-Infinity"
        return format(x, ".17g")
    if isinstance(x, str):
        return '"' + x.replace("\\", "\\\\").replace('"', '\\"') + '"'
    if x is None:
        return "null"
    raise TypeError(f"unserializable value {x!r}")


def _dump(obj, indent=0):
    pad = "  " * indent
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [
            f'{pad}  "{k}": {_dump(v, indent + 1)}' for k, v in obj.items()
        ]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [f"{pad}  {_dump(v, indent + 1)}" for v in obj]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    return _format_value(obj)


def write_report(payload: dict, path: str | None):
    text = _dump(payload) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def read_csv_series(path: str) -> np.ndarray:
    """Parse a CSV data panel; raises ConfigError with line/column info."""
    rows = []
    header_skipped = False
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        width = None
        for lineno, row in enumerate(reader, start=1):
            if not row or (len(row) == 1 and row[0].strip() == ""):
                continue
            parsed = []
            bad_col = None
            for col, cell in enumerate(row, start=1):
                cell = cell.strip()
                if cell == "":
                    raise ConfigError(f"missing value at line {lineno}, column {col}")
                try:
                    parsed.append(float(cell))
                except ValueError:
                    bad_col = col
                    break
            if bad_col is not None:
                if lineno == 1 and not header_skipped:
                    header_skipped = True
                    continue
                raise ConfigError(
                    f"non-numeric value at line {lineno}, column {bad_col}"
                )
            if width is None:
                width = len(parsed)
            elif len(parsed) != width:
                raise ConfigError(
                    f"row at line {lineno} has {len(parsed)} columns, expected {width}"
                )
            rows.append(parsed)
    if len(rows) < 2:
        raise ConfigError(f"need at least 2 data rows, found {len(rows)}")
    return np.asarray(rows, dtype=float)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="covshift",
        description="Variance/covariance changepoint tests, calibration, and "
        "minimax simulation experiments.",
    )
    parser.add_argument("--version", action="version", version=f"covshift {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(sp, with_input=False):
        if with_input:
            sp.add_argument("--input", required=True, help="CSV data panel")
        sp.add_argument("--output", default=None, help="report file (default: stdout)")
        sp.add_argument("--seed", type=int, default=0)
        sp.add_argument("--delta", type=float, default=0.1)
        sp.add_argument("--reps", type=int, default=1000)
        sp.add_argument("--tol", type=float, default=1e-3)
        sp.add_argument("--budget", type=int, default=DEFAULT_BUDGET,
                        help="largest comb(p, s) the exact sparse-eigenvalue search accepts")

    sp = sub.add_parser("test-uni", help="univariate variance changepoint test")
    add_common(sp, with_input=True)
    sp.add_argument("--lambda", dest="lam", type=float, required=True)
    sp.add_argument("--center", action="store_true")

    sp = sub.add_parser("test-cov", help="multivariate covariance changepoint test")
    add_common(sp, with_input=True)
    sp.add_argument("--lambda", dest="lam", type=float, required=True)
    sp.add_argument("--variant", choices=["oracle", "adaptive", "adaptive-sdp"],
                    default="adaptive")
    sp.add_argument("--s", type=int, default=None)
    sp.add_argument("--sigma-sq", dest="sigma_sq", type=float, default=None)
    sp.add_argument("--center", action="store_true")

    sp = sub.add_parser("calibrate", help="null-quantile threshold calibration")
    add_common(sp)
    sp.add_argument("--family", choices=["uni", "oracle", "adaptive", "adaptive-sdp"],
                    required=True)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--p", type=int, default=1)
    sp.add_argument("--s", type=int, default=None)

    sp = sub.add_parser("simulate", help="Monte Carlo Type I/II error estimation")
    add_common(sp)
    sp.add_argument("--family", choices=["uni", "oracle", "adaptive", "adaptive-sdp"],
                    required=True)
    sp.add_argument("--lambda", dest="lam", type=float, required=True)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--p", type=int, default=1)
    sp.add_argument("--rho", type=float, required=True,
                    help="signal strength of the alternative prior")
    sp.add_argument("--s", type=int, default=1,
                    help="sparsity of the alternative prior (and of the oracle test)")
    sp.add_argument("--sigma-sq", dest="sigma_sq", type=float, default=1.0)

    sp = sub.add_parser("boundary", help="bisect the 50%-power signal strength "
                        "of the univariate test across sample sizes")
    add_common(sp)
    sp.add_argument("--n-grid", dest="n_grid", default="128,512,2048,8192",
                    help="comma-separated sample sizes")
    return parser


def _config_dict(args) -> dict:
    cfg = {k: v for k, v in sorted(vars(args).items()) if k != "command"}
    cfg["command"] = args.command
    return cfg


def _run_test_uni(args):
    X = read_csv_series(args.input)
    if X.shape[1] != 1:
        raise ConfigError(f"test-uni expects one column, got {X.shape[1]}")
    report = variance_test(X[:, 0], args.lam, center=args.center)
    return report.to_dict()


def _run_test_cov(args):
    X = read_csv_series(args.input)
    if args.variant == "oracle":
        if args.s is None or args.sigma_sq is None:
            raise ConfigError("variant 'oracle' requires --s and --sigma-sq")
        report = covariance_test(
            X, args.lam, args.s, args.sigma_sq, budget=args.budget, center=args.center
        )
    else:
        if args.s is not None or args.sigma_sq is not None:
            raise ConfigError(f"variant {args.variant!r} forbids --s and --sigma-sq")
        if args.variant == "adaptive":
            report = adaptive_test(X, args.lam, budget=args.budget, center=args.center)
        else:
            report = adaptive_sdp_test(X, args.lam, tol=args.tol, center=args.center)
    return report.to_dict()


def _run_calibrate(args):
    family = args.family.replace("-", "_")
    if family == "oracle" and args.s is None:
        raise ConfigError("family 'oracle' requires --s")
    lam = calibrate_lambda(
        family,
        args.n,
        p=args.p,
        s=args.s,
        delta=args.delta,
        reps=args.reps,
        seed=args.seed,
        budget=args.budget,
        tol=args.tol,
    )
    return {"family": args.family, "lambda": lam, "delta": args.delta,
            "reps": args.reps, "n": args.n, "p": args.p, "s": args.s,
            "seed": args.seed}


def _run_simulate(args):
    family = args.family.replace("-", "_")
    kind = "uni" if family == "uni" else "multi"
    p = 1 if kind == "uni" else args.p
    spec = PriorSpec(kind=kind, n=args.n, p=p, sigma_sq=args.sigma_sq,
                     rho=args.rho, s=args.s)
    if family == "uni":
        test = lambda X: variance_test(X[:, 0], args.lam).reject
    elif family == "oracle":
        test = lambda X: covariance_test(
            X, args.lam, args.s, args.sigma_sq, budget=args.budget
        ).reject
    elif family == "adaptive":
        test = lambda X: adaptive_test(X, args.lam, budget=args.budget).reject
    else:
        test = lambda X: adaptive_sdp_test(X, args.lam, tol=args.tol).reject
    outcome = monte_carlo_errors(test, spec, args.reps, args.seed)
    return {"family": args.family, "prior": {
        "kind": spec.kind, "n": spec.n, "p": spec.p, "s": spec.s,
        "sigma_sq": spec.sigma_sq, "rho": spec.rho,
    }, **outcome.to_dict()}


def _run_boundary(args):
    try:
        n_grid = [int(tok) for tok in args.n_grid.split(",") if tok.strip()]
    except ValueError as exc:
        raise ConfigError(f"bad --n-grid: {exc}") from exc
    if not n_grid:
        raise ConfigError("--n-grid is empty")
    points = []
    for n in n_grid:
        lam = calibrate_lambda("uni", n, delta=args.delta, reps=args.reps,
                               seed=args.seed)
        rec = detection_boundary_uni(n, lam, reps=args.reps, seed=args.seed)
        points.append({"n": n, "loglog8n": rec["loglog8n"],
                       "rho_star": rec["rho_star"],
                       "rho_star_over_loglog8n": rec["rho_star_over_loglog8n"],
                       "lambda": lam})
    ratios = [pt["rho_star_over_loglog8n"] for pt in points]
    return {"points": points, "ratio_max_over_min": max(ratios) / min(ratios)}


_RUNNERS = {
    "test-uni": _run_test_uni,
    "test-cov": _run_test_cov,
    "calibrate": _run_calibrate,
    "simulate": _run_simulate,
    "boundary": _run_boundary,
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    config = _config_dict(args)
    try:
        _validate_common(args)
        result = _RUNNERS[args.command](args)
    except (ConfigError, InvalidInputError) as exc:
        sys.stderr.write(f"covshift: {exc}\n")
        return 2
    except OSError as exc:
        sys.stderr.write(f"covshift: {exc}\n")
        return 2
    except Exception as exc:
        payload = {
            "version": __version__,
            "config": config,
            "error": {"type": type(exc).__name__, "message": str(exc)},
        }
        try:
            write_report(payload, args.output)
        except OSError:
            sys.stderr.write(f"covshift: {exc}\n")
        return 1
    write_report({"version": __version__, "config": config, "result": result},
                 args.output)
    return 0


def _validate_common(args):
    if args.reps < 0 or (args.command in ("simulate", "boundary") and args.reps < 1):
        raise ConfigError(f"--reps must be >= 1, got {args.reps}")
    if not (0 < args.delta <= 1):
        raise ConfigError(f"--delta must lie in (0, 1], got {args.delta}")
    if args.seed < 0:
        raise ConfigError(f"--seed must be nonnegative, got {args.seed}")
    if args.tol <= 0:
        raise ConfigError(f"--tol must be positive, got {args.tol}")


if __name__ == "__main__":
    sys.exit(main())
