"""Diagonal constructions over digit streams and quotient streams.

The decimal construction picks digit 5 wherever the diagonal digit is
not 5 and 4 where it is, so the built digit differs from the diagonal
and is never 0 or 9 (which dodges the dual 9-tail representations).
The continued-fraction construction adds 1 to each diagonal quotient,
so the built quotient differs and is never 0.

Over the rationals the continued-fraction diagonal cannot be built at
all: every rational has a finite quotient list, and
`cf_diagonal_over_rationals` returns the first row too short to supply
its own diagonal entry, as a checkable certificate.
"""

from __future__ import annotations

import itertools
from typing import Iterable, NamedTuple, Sequence

from .continued_fraction import ContinuedFraction, from_rational
from .enumeration import Stream, digits_of
from .errors import DomainError, InputError, RangeError
from .exact_numbers import Rational, _digits_of_int

__all__ = (
    "CFDiagonalFailure", "CFDiagonalResult", "DecimalDiagonalResult",
    "DiagonalWitness", "PeriodRuling", "RationalDiagonalReport", "VerifyResult",
    "cf_diagonal", "cf_diagonal_over_rationals", "decimal_diagonal",
    "format_witnesses", "rational_diagonal_analysis", "rule_out_periods",
    "verify_differs",
)


class DiagonalWitness(NamedTuple):
    """Position k, the diagonal entry there, and what was built instead."""

    position: int
    enumerated: int  # d_kk or a_kk
    constructed: int  # d_0k or a_0k


class DecimalDiagonalResult(NamedTuple):
    """Digit prefix of the built number plus one witness per position."""

    integer_part: int
    digits: tuple[int, ...]
    witnesses: tuple[DiagonalWitness, ...]

    kind = "decimal"
    labels = ("d_kk", "d_0k")

    def entry(self, position: int) -> int:
        return self.digits[position - 1]

    def __str__(self) -> str:
        return f"{self.integer_part}." + "".join(str(d) for d in self.digits)


class CFDiagonalResult(NamedTuple):
    """Quotient prefix [a_00; a_01, ...] plus one witness per position."""

    terms: tuple[int, ...]
    witnesses: tuple[DiagonalWitness, ...]

    kind = "cf"
    labels = ("a_kk", "a_0k")

    def entry(self, position: int) -> int:
        return self.terms[position]

    def as_continued_fraction(self) -> ContinuedFraction:
        return ContinuedFraction(self.terms)

    def __str__(self) -> str:
        return str(self.as_continued_fraction())


class VerifyResult(NamedTuple):
    ok: bool
    counterexample: int | None


class CFDiagonalFailure(NamedTuple):
    """Certificate that row k has no k-th partial quotient."""

    failing_index: int
    rational: Rational
    cf: ContinuedFraction

    @property
    def quotients_beyond_first(self) -> int:
        return len(self.cf) - 1

    def message(self) -> str:
        k = self.failing_index
        return (
            f"diagonal undefined at k={k}: CF of "
            f"{_digits_of_int(self.rational.numerator)}/"
            f"{_digits_of_int(self.rational.denominator)} "
            f"= {self.cf} has no a_{k}{k}"
        )


class PeriodRuling(NamedTuple):
    """Whether a digit prefix is consistent with one (preperiod, period) shape.

    Inconsistency always names a concrete witness: the first position j
    past the preperiod whose digit differs from the digit at j + period.
    """

    preperiod: int
    period: int
    consistent: bool
    witness_position: int | None


class RationalDiagonalReport(NamedTuple):
    """Diagonal digits over an enumeration of rationals, plus the shapes
    of eventually periodic expansions that the prefix rules out."""

    depth: int
    max_preperiod: int
    max_period: int
    diagonal: DecimalDiagonalResult
    rulings: tuple[PeriodRuling, ...]

    @property
    def ruled_out(self) -> tuple[PeriodRuling, ...]:
        return tuple(r for r in self.rulings if not r.consistent)


def _fresh_row(row, kind: str) -> Stream:
    # a bare iterable is wrapped once, so every row passes its kind's check
    if not isinstance(row, Stream):
        return Stream(row, kind)
    if row.kind != kind:
        raise InputError(f"a {row.kind} stream cannot be a {kind} row")
    if row.position != 0:
        raise InputError("row stream already consumed; recreate streams to rewind")
    return row


def _nth_entry(row: Stream, position: int) -> int:
    steps = position + 1 - row.first_index
    run = row.take(steps)
    if len(run) < steps:
        raise InputError(
            f"row exhausted after {len(run)} entries; position {position} needed"
        )
    return run[-1]


def _enough_rows(rows: Sequence, depth: int) -> list:
    rows = list(rows)
    if len(rows) < depth:
        raise InputError(f"need {depth} rows, got {len(rows)}")
    return rows


def _check_shape(max_preperiod: int, max_period: int) -> None:
    if max_preperiod < 0:
        raise DomainError("max_preperiod must be >= 0")
    if max_period < 1:
        raise DomainError("max_period must be >= 1")


def _diagonal(rows: Sequence, depth: int, kind: str, rule):
    # a row with `entry` is read at position k directly, any other is walked
    if depth < 1:
        raise DomainError("depth must be >= 1")
    rows = _enough_rows(rows, depth)
    built: list[int] = []
    witnesses: list[DiagonalWitness] = []
    for k in range(1, depth + 1):
        row = _fresh_row(rows[k - 1], kind)
        entry = getattr(row, "entry", None)
        x_kk = entry(k) if entry is not None else _nth_entry(row, k)
        built.append(rule(x_kk))
        witnesses.append(DiagonalWitness(k, x_kk, built[-1]))
    return tuple(built), tuple(witnesses)


def decimal_diagonal(rows: Sequence, depth: int) -> DecimalDiagonalResult:
    """Build d_0k = 5 (or 4 when the diagonal digit is 5) for k = 1..depth.

    Digit k of row k is read directly from the package's rows, so this is
    O(depth log depth); other rows are walked up to it. Returns the digit
    prefix of the built number (integer part 0) with per-position witnesses.
    """
    digits, witnesses = _diagonal(rows, depth, "decimal", lambda d_kk: 5 if d_kk != 5 else 4)
    return DecimalDiagonalResult(0, digits, witnesses)


def cf_diagonal(rows: Sequence, depth: int) -> CFDiagonalResult:
    """Build a_00 = 0 and a_0k = a_kk + 1 for k = 1..depth."""
    terms, witnesses = _diagonal(rows, depth, "cf", lambda a_kk: a_kk + 1)
    return CFDiagonalResult((0,) + terms, witnesses)  # a_00 = 0: reproducible


def verify_differs(constructed, rows: Sequence, depth: int) -> VerifyResult:
    """Re-check that a diagonal result differs from row k at position k.

    The result's kind is the rows' kind, and its `entry(k)` is compared
    with row k's entry k. Rows are walked, never read through `entry`, so
    this stays independent of the construction; pass fresh streams. The
    walk is O(depth^2) items but only O(depth + depth^2/256) Python steps
    over `digits_of` rows, which hand out 256 digits at a time. The first
    failing position is the counterexample; depth 0 is vacuously true.
    """
    if not isinstance(constructed, (DecimalDiagonalResult, CFDiagonalResult)):
        raise InputError(f"constructed is not a diagonal result: {type(constructed).__name__}")
    if depth == 0:
        return VerifyResult(True, None)
    if depth < 0:
        raise DomainError("depth must be >= 0")
    rows = _enough_rows(rows, depth)
    for k in range(1, depth + 1):
        row_entry = _nth_entry(_fresh_row(rows[k - 1], constructed.kind), k)
        try:
            built = constructed.entry(k)
        except IndexError:
            raise InputError(f"constructed prefix has no entry for position {k}") from None
        if built == row_entry:
            return VerifyResult(False, k)
    return VerifyResult(True, None)


def cf_diagonal_over_rationals(enumeration: Iterable[Rational]) -> CFDiagonalFailure:
    """First k whose k-th rational has no k-th partial quotient.

    Every rational's quotient list is finite while the required index
    grows with k, so any enumeration that ever yields a value with a
    short list terminates the scan; one that hits an integer (as any
    enumeration of all positive rationals must) ends at that point or
    earlier.
    """
    for k, value in enumerate(enumeration, start=1):
        cf = from_rational(value)
        if len(cf) - 1 < k:
            return CFDiagonalFailure(k, value, cf)
    raise InputError("enumeration ended without exposing a missing diagonal entry")


def rule_out_periods(
    digits: Sequence[int], max_preperiod: int, max_period: int
) -> list[PeriodRuling]:
    """Test a digit prefix against every (preperiod, period) shape in range.

    A shape is ruled out only by two concrete in-prefix positions j and
    j + period, both past the preperiod, holding different digits; the
    first such j is recorded. Everything else is reported consistent:
    a finite prefix can rule shapes out but can never certify one.
    """
    _check_shape(max_preperiod, max_period)
    n = len(digits)
    rulings: list[PeriodRuling] = []
    for p in range(max_preperiod + 1):
        for l in range(1, max_period + 1):
            witness = None
            for j in range(p + 1, n - l + 1):  # 1-based positions
                if digits[j - 1] != digits[j + l - 1]:
                    witness = j
                    break
            rulings.append(PeriodRuling(p, l, witness is None, witness))
    return rulings


def rational_diagonal_analysis(
    enumeration: Iterable[Rational],
    depth: int,
    max_preperiod: int,
    max_period: int,
) -> RationalDiagonalReport:
    """Diagonalize the first `depth` rationals' digit streams, then report
    which small (preperiod, period) shapes the built prefix rules out.

    Requires depth >= max_preperiod + 2*max_period so every candidate
    shape gets at least one full period-against-period comparison.
    """
    _check_shape(max_preperiod, max_period)
    if depth < max_preperiod + 2 * max_period:
        raise RangeError(
            f"depth {depth} is less than max_preperiod + 2*max_period "
            f"= {max_preperiod + 2 * max_period}"
        )
    values = list(itertools.islice(iter(enumeration), depth))
    if len(values) < depth:
        raise InputError(f"enumeration supplied {len(values)} of {depth} values")
    rows = [digits_of(v) for v in values]
    diagonal = decimal_diagonal(rows, depth)
    rulings = tuple(rule_out_periods(diagonal.digits, max_preperiod, max_period))
    return RationalDiagonalReport(depth, max_preperiod, max_period, diagonal, rulings)


def format_witnesses(result, fmt: str = "table") -> str:
    """A result's witness table, under its kind's labels: aligned columns, or
    "k<TAB>diag<TAB>constructed" rows."""
    if fmt not in ("table", "tsv"):
        raise DomainError(f"unknown format: {fmt!r}")
    diag_label, built_label = result.labels
    lines = [] if fmt == "tsv" else [f"{'k':>6}  {diag_label:>8}  {built_label:>8}  differs"]
    for w in result.witnesses:
        enumerated, constructed = map(_digits_of_int, (w.enumerated, w.constructed))
        if fmt == "tsv":
            lines.append(f"{w.position}\t{enumerated}\t{constructed}")
        else:
            differs = "yes" if w.constructed != w.enumerated else "no"
            lines.append(f"{w.position:>6}  {enumerated:>8}  {constructed:>8}  {differs}")
    return "\n".join(lines)
