"""Command-line front end.

Subcommands: ``test-uni``, ``test-cov``, ``calibrate``, ``simulate``,
``boundary``. Input is UTF-8 CSV (rows = time points, columns = dimensions,
one optional header row auto-detected by a non-numeric first row, no missing
values; a leading byte-order mark is dropped). Output is a UTF-8 JSON report
with floats at 17 significant digits, so identical configuration, input, and
seed produce byte-identical files.

Exit codes: 0 success, 1 runtime failure (structured error record written),
2 parse or configuration failure (an argparse usage error, an
``InvalidInputError`` or an ``OSError``).
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys

import numpy as np

from . import __version__
from .core import center_columns
from .exceptions import InvalidInputError
# Not called here: the commands run every test through simulate.run_test.
# covbench/tracing.py wraps these names on this module, so they stay importable.
from .multivariate import adaptive_sdp_test, adaptive_test  # noqa: F401
from .simulate import (
    FAMILIES,
    PriorSpec,
    calibrate_lambda,
    detection_boundary_uni,
    monte_carlo_errors,
    run_test,
)
from .univariate import variance_test  # noqa: F401

__all__ = ["main"]

# Family names as the command line spells them (``adaptive-sdp``).
_FAMILY_CHOICES = [f.replace("_", "-") for f in FAMILIES]


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
        return json.dumps(x, ensure_ascii=False)
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
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def read_csv_series(path: str) -> np.ndarray:
    """Parse a CSV data panel; raises InvalidInputError with line/column info."""
    rows = []
    with open(path, newline="", encoding="utf-8-sig") as fh:
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
                    raise InvalidInputError(f"missing value at line {lineno}, column {col}")
                try:
                    parsed.append(float(cell))
                except ValueError:
                    bad_col = col
                    break
            if bad_col is not None:
                if lineno == 1:
                    continue
                raise InvalidInputError(
                    f"non-numeric value at line {lineno}, column {bad_col}"
                )
            if width is None:
                width = len(parsed)
            elif len(parsed) != width:
                raise InvalidInputError(
                    f"row at line {lineno} has {len(parsed)} columns, expected {width}"
                )
            rows.append(parsed)
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
        # Recorded in every report; the test commands never read it.
        sp.add_argument("--seed", type=int, default=0)

    sp = sub.add_parser("test-uni", help="univariate variance changepoint test")
    add_common(sp, with_input=True)
    sp.add_argument("--lambda", dest="lam", type=float, required=True)
    sp.add_argument("--center", action="store_true")

    sp = sub.add_parser("test-cov", help="multivariate covariance changepoint test")
    add_common(sp, with_input=True)
    sp.add_argument("--lambda", dest="lam", type=float, required=True)
    sp.add_argument("--variant", choices=[f for f in _FAMILY_CHOICES if f != "uni"],
                    default="adaptive")
    sp.add_argument("--s", type=int, default=None)
    sp.add_argument("--sigma-sq", dest="sigma_sq", type=float, default=None)
    sp.add_argument("--center", action="store_true")

    sp = sub.add_parser("calibrate", help="null-quantile threshold calibration")
    add_common(sp)
    sp.add_argument("--delta", type=float, default=0.1)
    sp.add_argument("--reps", type=int, default=1000)
    sp.add_argument("--family", choices=_FAMILY_CHOICES, required=True)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--p", type=int, default=1)
    sp.add_argument("--s", type=int, default=None)

    sp = sub.add_parser("simulate", help="Monte Carlo Type I/II error estimation")
    add_common(sp)
    sp.add_argument("--reps", type=int, default=1000)
    sp.add_argument("--family", choices=_FAMILY_CHOICES, required=True)
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
    sp.add_argument("--delta", type=float, default=0.1)
    sp.add_argument("--reps", type=int, default=1000)
    sp.add_argument("--n-grid", dest="n_grid", default="128,512,2048,8192",
                    help="comma-separated sample sizes")
    return parser


def _config_dict(args) -> dict:
    cfg = {k: v for k, v in sorted(vars(args).items()) if k != "command"}
    cfg["command"] = args.command
    return cfg


def _read_panel(args):
    """The ``--input`` panel, with its column means subtracted under
    ``--center``: the tests take their data as given."""
    X = read_csv_series(args.input)
    return center_columns(X) if args.center else X


def _run_test_uni(args):
    return run_test("uni", _read_panel(args), args.lam).to_dict()


def _run_test_cov(args):
    X = _read_panel(args)
    if args.variant == "oracle":
        if args.s is None or args.sigma_sq is None:
            raise InvalidInputError("variant 'oracle' requires --s and --sigma-sq")
    elif args.s is not None or args.sigma_sq is not None:
        raise InvalidInputError(f"variant {args.variant!r} forbids --s and --sigma-sq")
    return run_test(args.variant.replace("-", "_"), X, args.lam, s=args.s,
                    sigma_sq=args.sigma_sq).to_dict()


def _run_calibrate(args):
    lam = calibrate_lambda(args.family.replace("-", "_"), args.n, p=args.p, s=args.s,
                           delta=args.delta, reps=args.reps, seed=args.seed)
    return {"family": args.family, "lambda": lam, "delta": args.delta,
            "reps": args.reps, "n": args.n, "p": args.p, "s": args.s,
            "seed": args.seed}


def _run_simulate(args):
    family = args.family.replace("-", "_")
    kind = "uni" if family == "uni" else "multi"
    spec = PriorSpec(kind=kind, n=args.n, p=args.p, sigma_sq=args.sigma_sq,
                     rho=args.rho, s=args.s)

    def test(X):
        return run_test(family, X, args.lam, s=args.s, sigma_sq=args.sigma_sq).reject

    outcome = monte_carlo_errors(test, spec, args.reps, args.seed)
    return {"family": args.family, "prior": {
        "kind": spec.kind, "n": spec.n, "p": spec.p, "s": spec.s,
        "sigma_sq": spec.sigma_sq, "rho": spec.rho,
    }, **outcome.to_dict()}


def _run_boundary(args):
    try:
        n_grid = [int(tok) for tok in args.n_grid.split(",") if tok.strip()]
    except ValueError as exc:
        raise InvalidInputError(f"bad --n-grid: {exc}") from exc
    if not n_grid:
        raise InvalidInputError("--n-grid is empty")
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
        result = _RUNNERS[args.command](args)
    except (InvalidInputError, OSError) as exc:
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


if __name__ == "__main__":
    sys.exit(main())
