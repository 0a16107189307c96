"""Command-line front end: evaluation, series windows, verification suites,
and table export, with deterministic exact output.

Exit codes: 0 success, 1 usage or closed output pipe, 2 pole in the
direction limit, 3 precision failure, 4 verification failure.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from functools import cache
from itertools import product as iproduct

from renzeta.arith import DeltaRationalFunction, PoleAtZero
from renzeta.hopf import _parse_direction
from renzeta.laurent import PrecisionError
from renzeta.mzv import (
    _word_session,
    renorm_directional,
    renorm_mzv,
)
from renzeta.suites import SUITES, run_suite

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_POLE = 2
EXIT_PRECISION = 3
EXIT_VERIFY = 4

PRECISION_ENV = "RENZETA_PRECISION"


class UsageError(Exception):
    """Malformed command line or argument values."""


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # "-2,-2" is an exponent list, not an option; subparsers are built
        # from this class and inherit the matcher
        self._negative_number_matcher = re.compile(r"^-\.?\d")

    def error(self, message):
        raise UsageError(message)


def _parse_exponents(text: str) -> tuple:
    try:
        return tuple(int(p.strip()) for p in text.split(","))
    except ValueError:
        raise UsageError(f"cannot parse exponent list {text!r}") from None


def _parse_directions(text: str) -> tuple:
    # mzv.argument_word checks the count against the exponents
    entries = [p.strip() for p in text.split(",")]
    out = []
    for entry in entries:
        try:
            out.append(_parse_direction(entry))
        except (ValueError, ZeroDivisionError):
            raise UsageError(
                f"cannot parse direction {entry!r}") from None
    return tuple(out)


def _resolve_precision(args) -> int:
    if args.prec is not None:
        text = args.prec
    else:
        text = os.environ.get(PRECISION_ENV, "6")
    try:
        value = int(text)
    except ValueError:
        raise UsageError(f"precision {text!r} is not an integer") from None
    if value < 1:
        raise UsageError("precision must be >= 1")
    if value > sys.maxsize:
        # no window of that length can be indexed
        raise UsageError(f"precision {text!r} is too large")
    return value


def _print_json(obj) -> None:
    # imported here so that text output never loads json
    import json
    print(json.dumps(obj, sort_keys=True))


def _approx_float(value) -> float:
    if isinstance(value, DeltaRationalFunction):
        if not value.is_rational():
            raise UsageError(
                "cannot approximate a direction-dependent value")
        value = value.as_rational()
    try:
        return float(value)
    except OverflowError:
        raise UsageError(
            "cannot approximate a value beyond the float range") from None


# ---------------------------------------------------------------------------
# Subcommands.

def _print_value(args, s, r, value) -> int:
    if args.format == "json":
        row = {"s": list(s), "r": r, "value": str(value)}
        if args.approx:
            row["approx"] = _approx_float(value)
        _print_json(row)
    else:
        line = str(value)
        if args.approx:
            line += f" ~ {_approx_float(value)!r}"
        print(line)
    return EXIT_OK


def cmd_eval(args) -> int:
    s = _parse_exponents(args.s)
    return _print_value(args, s, "auto-delta", renorm_mzv(s))


def cmd_directional(args) -> int:
    s = _parse_exponents(args.s)
    r = _parse_directions(args.r)
    return _print_value(
        args, s, [str(x) for x in r], renorm_directional(s, r))


def cmd_series(args) -> int:
    s = _parse_exponents(args.s)
    r = _parse_directions(args.r)
    precision = _resolve_precision(args)
    word, session = _word_session(s, r, precision - 1)
    depth = session.character.budget.max_pole_depth
    # precision counts printed coefficients: the regularized window starts
    # at -depth, the pole-free window at 0
    regularized = session.character.on_word(word).truncated(
        precision - depth)
    renormalized = session.renormalized(word).truncated(precision)
    if args.format == "json":
        _print_json({
            "s": list(s),
            "r": [str(x) for x in r],
            "regularized": regularized.to_json(),
            "renormalized": renormalized.to_json(),
        })
    else:
        print(f"regularized: {regularized}")
        print(f"renormalized: {renormalized}")
    return EXIT_OK


def cmd_verify(args) -> int:
    reports = run_suite(
        args.suite, max_weight=args.max_weight, seed=args.seed)
    failed = False
    for report in reports:
        if not report.passed:
            failed = True
        if args.format == "json":
            _print_json(report.to_json())
        elif report.passed:
            print(f"ok {report.check}: {report.word}")
        else:
            print(f"FAIL {report.check}: {report.word}: "
                  f"{report.lhs} != {report.rhs}")
    return EXIT_VERIFY if failed else EXIT_OK


def cmd_table(args) -> int:
    # an unsatisfiable range (max_depth < 1 or min_s > 0) is an empty
    # table, not an error
    rows = []
    exponent_range = range(0, args.min_s - 1, -1)
    for depth in range(1, args.max_depth + 1):
        for s in iproduct(exponent_range, repeat=depth):
            row = {"s": list(s), "r": "auto-delta"}
            try:
                row["value"] = str(renorm_mzv(s))
            except PoleAtZero:
                row["error"] = "pole-at-zero"
            rows.append(row)
    if args.format == "text":
        for row in rows:
            label = ",".join(str(v) for v in row["s"])
            print(f"({label}): {row.get('value', row.get('error'))}")
    else:
        import json
        print(json.dumps(rows, indent=2, sort_keys=True))
    return EXIT_OK


# ---------------------------------------------------------------------------
# Wiring.

def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="renzeta",
        description="Exact renormalized multiple zeta values at "
                    "non-positive integers.")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_format(p, default="text"):
        p.add_argument("--format", choices=("text", "json"),
                       default=default)

    p = sub.add_parser(
        "eval", help="value at non-positive exponents, directions |s|+d")
    p.add_argument("--s", required=True, metavar="S1,S2,...")
    p.add_argument("--approx", action="store_true",
                   help="print a float approximation alongside")
    add_format(p)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser(
        "directional", help="value at explicit positive directions")
    p.add_argument("--s", required=True, metavar="S1,S2,...")
    p.add_argument("--r", required=True, metavar="R1,R2,...")
    p.add_argument("--approx", action="store_true")
    add_format(p)
    p.set_defaults(func=cmd_directional)

    p = sub.add_parser(
        "series", help="regularized and pole-free expansion windows")
    p.add_argument("--s", required=True, metavar="S1,S2,...")
    p.add_argument("--r", required=True, metavar="R1,R2,...")
    p.add_argument("--prec", default=None,
                   help=f"printed coefficients per series "
                        f"(default ${PRECISION_ENV} or 6)")
    add_format(p)
    p.set_defaults(func=cmd_series)

    p = sub.add_parser("verify", help="run a named identity suite")
    p.add_argument("--suite", required=True, choices=(*SUITES, "all"))
    p.add_argument("--max-weight", type=int, default=4)
    p.add_argument("--seed", type=int, default=0)
    add_format(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser(
        "table", help="values over an exponent range, pole rows kept")
    p.add_argument("--max-depth", type=int, required=True)
    p.add_argument("--min-s", type=int, required=True)
    add_format(p, default="json")
    p.set_defaults(func=cmd_table)

    return parser


@cache
def _parser() -> argparse.ArgumentParser:
    """The one parser of the process: parsing leaves it unchanged, and
    building it costs more than a parse."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader left; point stdout at devnull so the flush at
        # interpreter exit stays silent
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        print("error: output pipe closed", file=sys.stderr)
        return EXIT_USAGE
    except (UsageError, ValueError, PoleAtZero, PrecisionError) as exc:
        # malformed values surface as ValueError from the layer that
        # owns the check
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, PoleAtZero):
            return EXIT_POLE
        if isinstance(exc, PrecisionError):
            return EXIT_PRECISION
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
