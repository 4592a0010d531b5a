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

from itertools import count, repeat
from typing import Iterable, Iterator, NamedTuple, Sequence

from .continued_fraction import ContinuedFraction, from_rational
from .enumeration import Stream, digits_of
from .errors import DomainError, InputError, RangeError
from .exact_numbers import (
    Rational, _check_count, _check_index, _check_iterable, _digits_of_int, _quote, _repr,
)

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

    __repr__ = _repr


class DecimalDiagonalResult(NamedTuple):
    """Digit prefix of the built number plus one witness per position."""

    integer_part: int
    digits: tuple[int, ...]
    witnesses: tuple[DiagonalWitness, ...]

    __repr__ = _repr
    kind = "decimal"
    labels = ("d_kk", "d_0k")

    def entry(self, position: int) -> int:
        if type(position) is not int or position < 1:  # a row's rule; IndexError past the end
            position = _check_index("entry index", position, 1)
        return self.digits[position - 1]

    def __str__(self) -> str:
        return f"{_digits_of_int(self.integer_part)}." + "".join(map(_digits_of_int, self.digits))


class CFDiagonalResult(NamedTuple):
    """Quotient prefix [a_00; a_01, ...] plus one witness per position."""

    terms: tuple[int, ...]
    witnesses: tuple[DiagonalWitness, ...]

    __repr__ = _repr
    kind = "cf"
    labels = ("a_kk", "a_0k")

    def entry(self, position: int) -> int:
        if type(position) is not int or position < 0:  # a row's rule; IndexError past the end
            position = _check_index("entry index", position, 0)
        return self.terms[position]

    def as_continued_fraction(self) -> ContinuedFraction:
        return ContinuedFraction(self.terms)

    def __str__(self) -> str:
        return str(self.as_continued_fraction())


class VerifyResult(NamedTuple):
    ok: bool
    counterexample: int | None

    __repr__ = _repr


class CFDiagonalFailure(NamedTuple):
    """Certificate that row k has no k-th partial quotient."""

    failing_index: int
    rational: Rational
    cf: ContinuedFraction

    __repr__ = _repr

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

    __repr__ = _repr


class RationalDiagonalReport(NamedTuple):
    """Diagonal digits over an enumeration of rationals, plus the shapes
    of eventually periodic expansions that the prefix rules out."""

    depth: int
    max_preperiod: int
    max_period: int
    diagonal: DecimalDiagonalResult
    rulings: tuple[PeriodRuling, ...]

    __repr__ = _repr

    @property
    def ruled_out(self) -> tuple[PeriodRuling, ...]:
        return tuple(r for r in self.rulings if not r.consistent)


def _rows(rows: Iterable, depth: int, kind: str, least: int) -> Iterator[Stream]:
    # rows 1..depth, depth checked first, each handed out as it is checked; the caller
    # numbers them. One row is pulled per position and none is held once read, and a bare
    # iterable is wrapped once to pass its kind's check
    depth = _check_count("depth", depth)
    if depth < least:
        raise DomainError(f"depth must be >= {least}")
    k = 0
    for k, row in zip(range(1, depth + 1), _check_iterable("rows", rows)):
        if not isinstance(row, Stream):
            row = Stream(row, kind)
        elif row.kind != kind:
            raise InputError(f"a {row.kind} stream cannot be a {kind} row")
        elif row.position != 0:
            raise InputError("row stream already consumed; recreate streams to rewind")
        yield row
    if k < depth:
        raise InputError(f"need {depth} rows, got {k}")


def _check_shape(max_preperiod: int, max_period: int, depth: int) -> tuple[int, int, int]:
    # the three as ints, where every shape gets at least one full period-against-period comparison
    shape = ("max_preperiod", max_preperiod), ("max_period", max_period), ("depth", depth)
    max_preperiod, max_period, depth = (
        n if type(n) is int else _check_count(name, n) for name, n in shape
    )
    if max_preperiod < 0:
        raise DomainError("max_preperiod must be >= 0")
    if max_period < 1:
        raise DomainError("max_period must be >= 1")
    if depth < max_preperiod + 2 * max_period:
        raise RangeError(
            f"depth {_digits_of_int(depth)} is less than max_preperiod + 2*max_period "
            f"= {_digits_of_int(max_preperiod + 2 * max_period)}"
        )
    return max_preperiod, max_period, depth


def _diagonal(rows: Iterable, depth: int, kind: str) -> list[int]:
    # x_kk for k = 1..depth: a row with `entry` is read at position k directly, any other
    # is walked to it
    return [
        entry(k) if (entry := getattr(row, "entry", None)) is not None
        else row._skip(k + 1 - row.first_index)
        for k, row in zip(count(1), _rows(rows, depth, kind, 1))
    ]


def _witnesses(diagonal: list[int], built: tuple[int, ...]) -> tuple[DiagonalWitness, ...]:
    # DiagonalWitness(k, diagonal[k-1], built[k-1]) for each k, made in C with no Python frame
    # per witness: tuple.__new__ is what the class's own __new__ calls
    return tuple(map(tuple.__new__, repeat(DiagonalWitness), zip(count(1), diagonal, built)))


def decimal_diagonal(rows: Iterable, depth: int) -> DecimalDiagonalResult:
    """Build d_0k = 5 (or 4 when the diagonal digit is 5) for k = 1..depth.

    Exactly `depth` rows are pulled from any iterable, one at a time, and
    each is dropped once read. Digit k of row k is read directly from the
    package's rows, so this is O(depth log depth); other rows are walked
    up to it. Returns the digit prefix of the built number (integer part
    0) with per-position witnesses.
    """
    diagonal = _diagonal(rows, depth, "decimal")
    digits = tuple([4 if d_kk == 5 else 5 for d_kk in diagonal])
    return DecimalDiagonalResult(0, digits, _witnesses(diagonal, digits))


def cf_diagonal(rows: Iterable, depth: int) -> CFDiagonalResult:
    """Build a_00 = 0 and a_0k = a_kk + 1 for k = 1..depth, over exactly the
    first `depth` rows of any iterable, which may be infinite; they are
    pulled one at a time, and each is dropped once read."""
    diagonal = _diagonal(rows, depth, "cf")
    terms = tuple([a_kk + 1 for a_kk in diagonal])
    return CFDiagonalResult((0,) + terms, _witnesses(diagonal, terms))  # a_00 = 0: reproducible


def verify_differs(constructed, rows: Iterable, depth: int) -> VerifyResult:
    """Re-check that a diagonal result differs from row k at position k.

    The result's kind is the rows' kind, and its entry k, read from its
    `digits` or `terms`, is compared with row k's entry k. Rows are
    pulled from any iterable one at a time, each dropped once read:
    `depth` of them, or up to the first failing position, which is the
    counterexample and ends the pull. They are walked to entry k, never
    read through `entry`; pass fresh streams. A package row hands out
    entry k alone, with no list, and any other row walks one checked
    run. Over `digits_of` rows the walk long-divides
    O(depth + depth^2/256) blocks of up to 256 digits and renders none:
    each block keeps only its remainder, and the last one's last digit is
    the entry. It never calls the construction's `digit_at` or a modular
    power. Over `metallic` and named rows it takes O(depth) Python
    steps, but reads the same k or closed form as their `entry`: there
    the two checks are one route, independent in name only. Depth 0 is
    vacuously true.
    """
    if not isinstance(constructed, (DecimalDiagonalResult, CFDiagonalResult)):
        raise InputError(f"constructed is not a diagonal result: {type(constructed).__name__}")
    # the result's entry k is prefix[k - first], as its `entry(k)` reads it
    prefix, first = (
        (constructed.digits, 1) if constructed.kind == "decimal" else (constructed.terms, 0)
    )
    for k, row in zip(count(1), _rows(rows, depth, constructed.kind, 0)):
        row_entry = row._skip(k + 1 - row.first_index)
        try:
            built = prefix[k - first]
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
    for k, value in enumerate(_check_iterable("enumeration", enumeration), start=1):
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
    a finite prefix can rule shapes out but can never certify one. The
    prefix must hold at least max_preperiod + 2*max_period digits.
    """
    try:
        n = len(digits)
    except TypeError:
        raise InputError(f"digits must be a sequence, got {type(digits).__name__}") from None
    max_preperiod, max_period, n = _check_shape(max_preperiod, max_period, n)
    rulings: list[PeriodRuling] = []
    for p in range(max_preperiod + 1):
        for l in range(1, max_period + 1):
            witness = None
            for j in range(p + 1, n - l + 1):  # 1-based positions
                if digits[j - 1] != digits[j + l - 1]:
                    witness = j
                    break
            # made in C, as `_witnesses` makes its records
            rulings.append(tuple.__new__(PeriodRuling, (p, l, witness is None, witness)))
    return rulings


def rational_diagonal_analysis(
    enumeration: Iterable[Rational],
    depth: int,
    max_preperiod: int,
    max_period: int,
) -> RationalDiagonalReport:
    """Diagonalize the first `depth` rationals' digit streams, then report
    which small (preperiod, period) shapes the built prefix rules out.
    Exactly `depth` values are pulled from the enumeration, any iterable.

    Requires depth >= max_preperiod + 2*max_period so every candidate
    shape gets at least one full period-against-period comparison.
    """
    max_preperiod, max_period, depth = _check_shape(max_preperiod, max_period, depth)
    diagonal = decimal_diagonal(map(digits_of, _check_iterable("enumeration", enumeration)), depth)
    rulings = tuple(rule_out_periods(diagonal.digits, max_preperiod, max_period))
    return RationalDiagonalReport(depth, max_preperiod, max_period, diagonal, rulings)


def format_witnesses(result, fmt: str = "table") -> str:
    """A result's witness table, under its kind's labels: aligned columns, or
    "k<TAB>diag<TAB>constructed" rows."""
    if fmt not in ("table", "tsv"):
        raise DomainError(f"unknown format: {_quote(fmt)}")
    if not isinstance(result, (DecimalDiagonalResult, CFDiagonalResult)):
        raise InputError(f"result is not a diagonal result: {type(result).__name__}")
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
