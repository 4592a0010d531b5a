"""Command-line surface: cf, decimal, diag and approx subcommands.

Every subcommand prints deterministic, exact output (rationals and digit
strings); floats never leak into results. Exit codes: 0 on success, 1 on
a domain/range/input error (message on stderr), 2 on a usage error.
"""

from __future__ import annotations

import argparse
import itertools
import re
import sys
from fractions import Fraction
from typing import Sequence

from .continued_fraction import (
    approximation_compare,
    convergents,
    from_rational,
    from_real_approx,
    parse_cf,
    to_plain_string,
    to_rational,
)
from .decimal_expansion import (
    _period_report, expand, find_period_at_least, period_length_by_order,
)
from .diagonalization import (
    cf_diagonal,
    cf_diagonal_over_rationals,
    decimal_diagonal,
    format_witnesses,
    rational_diagonal_analysis,
)
from .enumeration import calkin_wilf, digits_of, metallic, named_cf_stream
from .errors import DomainError, InputError, RangeError
from .exact_numbers import _digits_of_int, _int_from_digits, parse_rational, to_string

DEFAULT_DEPTH = 20
DEFAULT_EPS = 1e-9
# largest exponent magnitude a number literal may carry: 10**exponent is
# built and may be printed in full, at a cost quadratic in its digits
MAX_EXPONENT = 100_000

# the grammar of Fraction(str): "355/113", "5", "3.1416", "-.5e-3", "1_000"
_NUMBER_RE = re.compile(
    r"\s*([-+]?)(?=\d|\.\d)(\d*|\d+(?:_\d+)*)"
    r"(?:/(\d+(?:_\d+)*)|(?:\.(\d*|\d+(?:_\d+)*))?(?:[eE](?:\+|(-))?(\d+(?:_\d+)*))?)\s*"
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="diagcf",
        description="Exact continued fractions, repeating decimals and "
        "diagonal constructions.",
    )
    groups = parser.add_subparsers(dest="group", required=True)

    cf = groups.add_parser("cf", help="continued fraction operations")
    cf_cmds = cf.add_subparsers(dest="command", required=True)

    p = cf_cmds.add_parser("from-rational", help="continued fraction of P/Q")
    p.add_argument("value", help="rational like 6/7")
    _add_format(p, ("bracket", "plain"))
    p.set_defaults(run=_cf_from_rational)

    p = cf_cmds.add_parser("to-rational", help="exact value of a continued fraction")
    p.add_argument("value", help='continued fraction like "[0; 1, 6]" or "0 1 6"')
    p.set_defaults(run=_cf_to_rational)

    p = cf_cmds.add_parser("from-real", help="continued fraction of a machine real")
    p.add_argument("value", type=float, help="positive real, e.g. 1.41421356")
    p.add_argument(
        "--eps", type=float, default=DEFAULT_EPS, help="accuracy of the result (default 1e-9)"
    )
    _add_format(p, ("bracket", "plain"))
    p.set_defaults(run=_cf_from_real)

    p = cf_cmds.add_parser(
        "convergents", help="truncation values of a CF, rational or named stream"
    )
    p.add_argument(
        "source",
        help="rational P/Q, CF literal, or sqrt2|e|phi|pi|metallic:<k>",
    )
    p.add_argument(
        "--count", type=int,
        help=f"how many convergents (default: all terms, or {DEFAULT_DEPTH} for streams)",
    )
    p.set_defaults(run=_cf_convergents)

    dec = groups.add_parser("decimal", help="repeating decimal operations")
    dec_cmds = dec.add_subparsers(dest="command", required=True)

    p = dec_cmds.add_parser("expand", help="decimal expansion of P/Q as w.uu(vv)")
    p.add_argument("value", help="nonnegative rational like 169/550")
    p.set_defaults(run=_decimal_expand)

    p = dec_cmds.add_parser("period", help="period and preperiod lengths of P/Q")
    p.add_argument("value", help="nonnegative rational like 1/6")
    p.set_defaults(run=_decimal_period)

    p = dec_cmds.add_parser(
        "find-period", help="a rational whose period length is at least L"
    )
    p.add_argument("min_length", type=int, metavar="L")
    p.set_defaults(run=_decimal_find_period)

    diag = groups.add_parser("diag", help="diagonal constructions")
    diag_cmds = diag.add_subparsers(dest="command", required=True)

    p = diag_cmds.add_parser(
        "decimal", help="decimal diagonal over the Calkin-Wilf rationals"
    )
    _add_depth(p)
    _add_format(p, ("table", "tsv"))
    p.set_defaults(run=_diag_decimal)

    p = diag_cmds.add_parser("cf", help="continued-fraction diagonal")
    p.add_argument(
        "--source",
        choices=("irrationals", "rationals"),
        required=True,
        help="irrationals: metallic-mean streams; rationals: show why the "
        "diagonal is undefined",
    )
    _add_depth(p)
    _add_format(p, ("table", "tsv"))
    p.set_defaults(run=_diag_cf)

    p = diag_cmds.add_parser(
        "analyze",
        help="periodicity shapes ruled out by the decimal diagonal prefix",
    )
    _add_depth(p)
    p.add_argument("--max-preperiod", type=int, default=3)
    p.add_argument("--max-period", type=int, default=5)
    p.set_defaults(run=_diag_analyze)

    approx = groups.add_parser("approx", help="approximation comparison")
    approx_cmds = approx.add_subparsers(dest="command", required=True)

    p = approx_cmds.add_parser(
        "compare", help="which of two approximations is closer to a target"
    )
    p.add_argument("target", help="exact number: P/Q or decimal literal")
    p.add_argument("cf_approx", help="continued-fraction approximation value")
    p.add_argument("decimal_approx", help="decimal approximation value")
    p.set_defaults(run=_approx_compare)

    return parser


def _add_depth(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--depth", type=int, default=DEFAULT_DEPTH, help=f"default {DEFAULT_DEPTH}"
    )


def _add_format(p: argparse.ArgumentParser, choices: tuple[str, ...]) -> None:
    p.add_argument("--format", choices=choices, default=choices[0])


def _parse_number(text: str) -> Fraction:
    # the value Fraction(text) gives, but with digit runs of any length and
    # the exponent refused past MAX_EXPONENT before 10**exponent is computed
    m = _NUMBER_RE.fullmatch(text)
    try:
        if m is None:
            raise ValueError(text)
        sign, num, den, frac, minus, exp = (g.replace("_", "") for g in m.groups(""))
        value = Fraction(
            _int_from_digits(num + frac or "0"), _int_from_digits(den or "1") * 10 ** len(frac)
        )
        # past its leading zeros, an ASCII run longer than the bound's is
        # past the bound and is never read; other scripts' runs are read whole
        run = exp.lstrip("0") or "0"
        huge = len(run) > len(str(MAX_EXPONENT)) and run.isascii()
        exponent = 0 if huge else _int_from_digits(run)
    except (ValueError, ZeroDivisionError):
        raise DomainError(f"invalid number literal: {text!r}") from None
    if huge or exponent > MAX_EXPONENT:  # quote the run: str() fails past the int/str limit
        raise RangeError(
            f"exponent {minus}{run} of {text.strip()!r} exceeds {MAX_EXPONENT} in magnitude"
        )
    value *= Fraction(10) ** (-exponent if minus else exponent)
    return -value if sign == "-" else value


def _render_cf(cf, fmt: str) -> str:
    return to_plain_string(cf) if fmt == "plain" else str(cf)


def _cf_from_rational(args) -> list[str]:
    return [_render_cf(from_rational(parse_rational(args.value)), args.format)]


def _cf_to_rational(args) -> list[str]:
    return [to_string(to_rational(parse_cf(args.value)))]


def _cf_from_real(args) -> list[str]:
    return [_render_cf(from_real_approx(args.value, args.eps), args.format)]


def _cf_convergents(args) -> list[str]:
    source, default_count = _resolve_cf_source(args.source)
    count = args.count if args.count is not None else default_count
    return [to_string(c.value) for c in convergents(source, count)]


def _resolve_cf_source(text: str):
    s = text.strip()
    try:
        return named_cf_stream(s), DEFAULT_DEPTH
    except DomainError:
        if s.lower().startswith("metallic:"):  # no literal form to fall back on
            raise
    literal = s.startswith("[") or (" " in s and "/" not in s)
    cf = parse_cf(s) if literal else from_rational(parse_rational(s))
    return cf, len(cf)


def _decimal_expand(args) -> list[str]:
    return [str(expand(parse_rational(args.value)))]


def _decimal_period(args) -> list[str]:
    lam, mu, terminating = _period_report(parse_rational(args.value))
    if terminating:
        return [f"terminating (preperiod {mu}, period 0)"]
    return [f"period length {_digits_of_int(lam)} (preperiod {mu})"]  # lam can pass the limit


def _decimal_find_period(args) -> list[str]:
    # the winner is long-divided once, inside find_period_at_least
    value = find_period_at_least(args.min_length)
    length = period_length_by_order(value).period_length
    return [f"{to_string(value)} (period length {length})"]


def _render_diagonal(result, fmt: str) -> list[str]:
    return [f"constructed: {result}", format_witnesses(result, fmt)]


def _diag_decimal(args) -> list[str]:
    rows = map(digits_of, calkin_wilf())
    return _render_diagonal(decimal_diagonal(rows, args.depth), args.format)


def _diag_cf(args) -> list[str]:
    if args.source == "rationals":
        return [cf_diagonal_over_rationals(calkin_wilf()).message()]
    rows = map(metallic, itertools.count(1))
    return _render_diagonal(cf_diagonal(rows, args.depth), args.format)


def _diag_analyze(args) -> list[str]:
    report = rational_diagonal_analysis(
        calkin_wilf(), args.depth, args.max_preperiod, args.max_period
    )
    lines = [f"constructed: {report.diagonal}"]
    for r in report.rulings:
        if r.consistent:
            lines.append(f"p={r.preperiod} l={r.period}: consistent")
        else:
            lines.append(
                f"p={r.preperiod} l={r.period}: ruled out (positions "
                f"{r.witness_position} and {r.witness_position + r.period} differ)"
            )
    lines.append(
        f"ruled out {len(report.ruled_out)} of {len(report.rulings)} "
        "(preperiod, period) pairs"
    )
    return lines


def _approx_compare(args) -> list[str]:
    result = approximation_compare(
        _parse_number(args.target),
        _parse_number(args.cf_approx),
        _parse_number(args.decimal_approx),
    )
    return [
        f"cf error: {to_string(result.cf_error)}",
        f"decimal error: {to_string(result.decimal_error)}",
        f"closer: {result.closer}",
    ]


def run(argv: Sequence[str] | None = None, stdout=None, stderr=None) -> int:
    """Run one command; returns the process exit code instead of exiting."""
    out = stdout if stdout is not None else sys.stdout
    err = stderr if stderr is not None else sys.stderr
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse handles --help (0) and usage errors (2)
        return int(exc.code or 0)
    try:
        lines = args.run(args)
    except (DomainError, RangeError, InputError) as exc:
        print(f"error: {exc}", file=err)
        return 1
    for line in lines:
        print(line, file=out)
    return 0


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
