"""The result records are tuples: cheap to import, immutable, and the two
checked values (`ContinuedFraction`, `DecimalExpansion`) have no way in
that skips their checks."""

import collections
import copy
import pickle
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import diagcf
from diagcf import (
    ContinuedFraction,
    Convergent,
    DecimalExpansion,
    DiagonalWitness,
    DomainError,
    PeriodReport,
    approximation_compare,
    calkin_wilf,
    cf_diagonal,
    cf_diagonal_over_rationals,
    convergents,
    decimal_diagonal,
    digits_of,
    expand,
    from_rational,
    irrational_enumeration,
    period_length,
    rational_diagonal_analysis,
    rule_out_periods,
    verify_differs,
)
from diagcf.exact_numbers import _repr

SRC = Path(__file__).resolve().parents[1] / "src"
MODULES = ("continued_fraction", "decimal_expansion", "diagonalization",
           "enumeration", "errors", "exact_numbers")


def one_of_each_record():
    rows = [digits_of(v) for v in calkin_wilf().take(3)]
    built = decimal_diagonal(rows, 3)
    return [
        from_rational(Fraction(6, 7)),
        expand(Fraction(1, 6)),
        period_length(Fraction(1, 6)),
        convergents(from_rational(Fraction(6, 7)), 1)[0],
        approximation_compare(Fraction(1, 3), Fraction(1, 3), Fraction(1, 4)),
        DiagonalWitness(1, 0, 5),
        built,
        cf_diagonal(irrational_enumeration(2), 2),
        verify_differs(built, [digits_of(v) for v in calkin_wilf().take(3)], 3),
        cf_diagonal_over_rationals(calkin_wilf()),
        rule_out_periods([1, 2, 1, 2], 0, 1)[0],
        rational_diagonal_analysis(calkin_wilf(), 13, 3, 5),
    ]


def fields(record):
    if isinstance(record, ContinuedFraction):
        return ("terms",)
    if isinstance(record, DecimalExpansion):
        return ("integer_part", "preperiod", "period")
    return record._fields


class Shown(str):
    """A text whose repr is the text itself."""

    __repr__ = str.__str__


def plain(value):
    # value with each record remade as a collections.namedtuple of the same name and fields,
    # and each checked value as the text of its tuple form: what Python's own reprs print
    if isinstance(value, ContinuedFraction):
        return Shown(f"ContinuedFraction({tuple(value)!r})")
    if isinstance(value, DecimalExpansion):
        return Shown(f"DecimalExpansion{tuple(value)!r}")
    if isinstance(value, tuple) and hasattr(value, "_fields"):
        return collections.namedtuple(type(value).__name__, value._fields)(*map(plain, value))
    if type(value) is tuple:
        return tuple(map(plain, value))
    return value


def test_importing_the_cli_loads_no_dataclasses_or_inspect():
    probe = (
        "import sys; sys.path.insert(0, sys.argv[1]); import diagcf.cli; "
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    )
    done = subprocess.run(
        [sys.executable, "-S", "-c", probe, str(SRC)],
        capture_output=True, text=True, timeout=60,
    )
    assert (done.returncode, done.stdout, done.stderr) == (0, "[]\n", "")


@pytest.mark.parametrize("record", one_of_each_record(), ids=lambda r: type(r).__name__)
def test_records_are_immutable_tuples(record):
    assert isinstance(record, tuple)
    for name in fields(record):
        with pytest.raises(AttributeError):
            setattr(record, name, getattr(record, name))
    with pytest.raises(AttributeError):
        record.extra = 1
    assert copy.deepcopy(record) == record
    assert pickle.loads(pickle.dumps(record)) == record


def test_records_unpack_and_compare_as_tuples():
    whole, preperiod, period = expand(Fraction(1, 6))
    assert (whole, preperiod, period) == (0, "1", "6")
    assert expand(Fraction(1, 6)) == (0, "1", "6")
    assert repr(expand(Fraction(1, 6))) == "DecimalExpansion(0, '1', '6')"
    assert period_length(Fraction(1, 7)) == (6, 0, False)
    assert len(DiagonalWitness(1, 0, 5)) == 3


@pytest.mark.parametrize(
    "record",
    [
        expand(Fraction(1, 6)), expand(Fraction(10**40, 7)), DecimalExpansion(True, "", "3"),
        from_rational(Fraction(3)), from_rational(Fraction(355, 113)),
        *convergents([0, 1, 2, 10**30], 4),
    ],
    ids=repr,
)
def test_reprs_keep_their_tuple_form(record):
    # the forms the plain tuple and NamedTuple reprs gave, kept byte for byte
    if isinstance(record, DecimalExpansion):
        assert repr(record) == f"DecimalExpansion{tuple(record)!r}"
    elif isinstance(record, ContinuedFraction):
        assert repr(record) == f"ContinuedFraction({tuple(record)!r})"
    else:
        assert repr(record) == "Convergent(index=%r, value=%r)" % record


@pytest.mark.parametrize("record", one_of_each_record(), ids=lambda r: type(r).__name__)
def test_reprs_keep_the_bytes_of_pythons_own(record):
    # the namedtuple repr of the same fields, nested records too, or the tuple form
    assert repr(record) == repr(plain(record))


def test_every_exported_record_prints_by_the_one_rule():
    # a record added to the package is held to the rule from the day it is exported
    exported = [getattr(diagcf, name) for name in diagcf.__all__]
    records = [cls for cls in exported if isinstance(cls, type) and issubclass(cls, tuple)]
    assert records
    assert [cls for cls in records if cls.__repr__ is not _repr] == []
    assert {type(record) for record in one_of_each_record()} <= set(records)


BIG = 10**5000  # past CPython's int/str limit of 4300 digits
BIG_DIGITS = "1" + "0" * 5000


@pytest.mark.parametrize(
    "record, text",
    [
        (DecimalExpansion(BIG, "", "3"), f"DecimalExpansion({BIG_DIGITS}, '', '3')"),
        (from_rational(Fraction(BIG)), f"ContinuedFraction(({BIG_DIGITS},))"),
        (from_rational(Fraction(1, BIG)), f"ContinuedFraction((0, {BIG_DIGITS}))"),
        (convergents([BIG], 1)[0], f"Convergent(index=0, value=Fraction({BIG_DIGITS}, 1))"),
        (convergents([0, BIG], 2)[1], f"Convergent(index=1, value=Fraction(1, {BIG_DIGITS}))"),
        (Convergent(0, BIG), f"Convergent(index=0, value={BIG_DIGITS})"),
        (PeriodReport(BIG, 0, False),
         f"PeriodReport(period_length={BIG_DIGITS}, preperiod_length=0, terminating=False)"),
        (cf_diagonal([[0, BIG]], 1),
         f"CFDiagonalResult(terms=(0, {BIG_DIGITS[:-1]}1), witnesses=(DiagonalWitness("
         f"position=1, enumerated={BIG_DIGITS}, constructed={BIG_DIGITS[:-1]}1),))"),
        (cf_diagonal([[0, BIG]], 1).witnesses[0],
         f"DiagonalWitness(position=1, enumerated={BIG_DIGITS}, constructed={BIG_DIGITS[:-1]}1)"),
        (cf_diagonal_over_rationals([Fraction(BIG)]),
         f"CFDiagonalFailure(failing_index=1, rational=Fraction({BIG_DIGITS}, 1), "
         f"cf=ContinuedFraction(({BIG_DIGITS},)))"),
        (approximation_compare(Fraction(1, 3), Fraction(BIG), Fraction(1, 4)),
         f"ApproximationComparison(cf_error=Fraction(2{'9' * 5000}, 3), "
         "decimal_error=Fraction(1, 12), closer='decimal')"),
    ],
    ids=["DecimalExpansion", "ContinuedFraction", "ContinuedFraction-two-terms",
         "Convergent", "Convergent-denominator", "Convergent-over-an-int", "PeriodReport",
         "CFDiagonalResult", "DiagonalWitness", "CFDiagonalFailure", "ApproximationComparison"],
)
def test_reprs_past_the_int_str_limit(record, text):
    # each raised ValueError: Exceeds the limit (4300 digits) for integer string conversion
    assert repr(record) == text
    if type(record).__str__ is object.__str__:
        assert str(record) == text
    else:  # its own form, with the same digits
        assert BIG_DIGITS[:-1] in str(record)


@pytest.mark.parametrize(
    "cls, public",
    [
        (ContinuedFraction, {"terms", "is_canonical"}),
        (DecimalExpansion, {"integer_part", "preperiod", "period"}),
    ],
)
def test_checked_values_offer_no_unchecked_constructor(cls, public):
    # namedtuple's _make and _replace would build a value without the check
    assert not hasattr(cls, "_make") and not hasattr(cls, "_replace")
    assert {n for n in dir(cls) if not n.startswith("_")} - set(dir(tuple)) == public


@pytest.mark.parametrize(
    "block",
    ["1a", " 1", "\N{ARABIC-INDIC DIGIT THREE}", "\N{SUPERSCRIPT TWO}", None, 5, b"12", ["1"]],
)
def test_digit_blocks_are_ascii_digits(block):
    # a block that is no str is refused too, bytes of ASCII digits among them
    with pytest.raises(DomainError, match="invalid digit block"):
        DecimalExpansion(0, block, "0")
    with pytest.raises(DomainError, match="invalid digit block"):
        DecimalExpansion(0, "", block)


@pytest.mark.parametrize("whole", [1.5, "2", None, Fraction(3)], ids=repr)
def test_integer_part_is_an_integer(whole):
    with pytest.raises(DomainError) as caught:
        DecimalExpansion(whole, "", "3")
    assert str(caught.value) == f"integer part must be an integer, got {whole!r}"


def test_integer_part_is_converted_by_index():
    e = DecimalExpansion(True, "", "3")
    assert (str(e), type(e.integer_part)) == ("1.(3)", int)


def test_each_public_name_is_listed_by_exactly_one_module():
    listed = [name for module in MODULES for name in getattr(diagcf, module).__all__]
    assert len(listed) == len(set(listed))
    assert tuple(diagcf.__all__) == tuple(listed)
