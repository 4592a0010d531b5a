import math
import sys
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from diagcf import exact_numbers
from diagcf import (
    CFDiagonalResult,
    ContinuedFraction,
    DecimalDiagonalResult,
    DomainError,
    InputError,
    RangeError,
    Stream,
    calkin_wilf,
    cf_diagonal,
    convergents,
    decimal_diagonal,
    digits_of,
    expand,
    find_period_at_least,
    irrational_enumeration,
    make_rational,
    metallic,
    parse_cf,
    parse_expansion,
    parse_rational,
    rational_diagonal_analysis,
    reconstruct,
    to_string,
    verify_differs,
)

rationals = st.builds(
    make_rational,
    st.integers(-(10**6), 10**6),
    st.integers(-(10**6), 10**6).filter(lambda n: n != 0),
)


def test_make_rational_examples():
    assert make_rational(6, 7) == Fraction(6, 7)
    assert make_rational(169, 550) == Fraction(169, 550)
    # reduce by gcd 2 and move the sign to the numerator
    r = make_rational(4, -6)
    assert (r.numerator, r.denominator) == (-2, 3)


def test_make_rational_zero_denominator():
    with pytest.raises(DomainError, match="zero denominator"):
        make_rational(1, 0)


def test_zero_is_zero_over_one():
    r = make_rational(0, -17)
    assert (r.numerator, r.denominator) == (0, 1)


@given(rationals)
def test_invariants(x):
    assert x.denominator >= 1
    assert math.gcd(abs(x.numerator), x.denominator) == 1


def test_to_string():
    assert to_string(Fraction(6, 7)) == "6/7"
    assert to_string(Fraction(5)) == "5"
    assert to_string(Fraction(-2, 3)) == "-2/3"
    assert to_string(Fraction(0)) == "0"


def test_parse_rational():
    assert parse_rational("6/7") == Fraction(6, 7)
    assert parse_rational("-2/3") == Fraction(-2, 3)
    assert parse_rational("5") == Fraction(5)
    assert parse_rational(" -5 ") == Fraction(-5)
    big = "9" * 60
    assert parse_rational(f"{big}/{'3' * 60}") == Fraction(int(big), int("3" * 60))


@pytest.mark.parametrize(
    "bad", ["", "1/", "/2", "4/-6", "1.5", "a", "1 / 2", "+5", "\N{ARABIC-INDIC DIGIT ONE}0"]
)
def test_parse_rational_rejects(bad):
    with pytest.raises(DomainError):
        parse_rational(bad)


def test_parse_rational_zero_denominator():
    with pytest.raises(DomainError, match="zero denominator"):
        parse_rational("1/0")


@given(rationals)
def test_string_round_trip(x):
    assert parse_rational(to_string(x)) == x


def test_parse_rational_past_the_int_string_limit():
    sevens = (10**5000 - 1) // 9 * 7  # 5000 sevens, built without int(str)
    assert parse_rational("1/" + "7" * 5000) == Fraction(1, sevens)
    assert parse_rational("-" + "7" * 5000) == -sevens
    # past the limit the halves must be plain digits, or "1...1 2...2" joins
    with pytest.raises(ValueError, match="^invalid literal for "):
        exact_numbers._int_from_digits("1" * 2500 + " " + "2" * 2500)


@pytest.mark.parametrize(
    "x",
    [10**4299, 10**4300, 3**30000, Fraction(-(3**30000), 10**4300 + 1)],
    ids=["10^4299", "10^4300", "3^30000", "negative"],
)
def test_string_round_trip_past_the_int_string_limit(x):
    limit = sys.get_int_max_str_digits()
    x = Fraction(x)
    assert parse_rational(to_string(x)) == x
    assert sys.get_int_max_str_digits() == limit


def test_to_string_past_the_int_string_limit():
    assert to_string(Fraction(10**4300)) == "1" + "0" * 4300
    assert to_string(Fraction(-1, 10**5000)) == "-1/1" + "0" * 5000


@pytest.mark.parametrize("limit", [640, 4300], ids=["lowest", "default"])
def test_long_paths_leave_the_global_int_string_limit_alone(limit):
    # run under CPython's default limit and the lowest it accepts: a limit
    # of 0 would hide any plain int()/str() call on a long number
    previous = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit)
    try:
        big = 10**5000
        assert parse_rational(to_string(Fraction(big, 7))) == Fraction(big, 7)
        assert to_string(Fraction(10**1999, 3)) == "1" + "0" * 1999 + "/3"
        assert reconstruct(expand(Fraction(1, 10007))) == Fraction(1, 10007)
        cf = ContinuedFraction((big, 2))
        assert parse_cf(str(cf)) == cf
        e = expand(Fraction(big, 3))
        assert parse_expansion(str(e)) == e
        assert sys.get_int_max_str_digits() == limit
    finally:
        sys.set_int_max_str_digits(previous)


BIG = 10**5000  # 5001 digits, past CPython's 4300
TEN = "1" + "0" * 5000


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: ContinuedFraction([-BIG]), DomainError,
         f"first partial quotient must be >= 0, got -{TEN}"),
        (lambda: ContinuedFraction([1, -BIG]), DomainError,
         f"partial quotient at index 1 must be >= 1, got -{TEN}"),
        (lambda: Stream([BIG], "decimal").take(1), DomainError, f"digit out of range: {TEN}"),
        (lambda: digits_of(Fraction(1, 3)).entry(-BIG), DomainError,
         f"entry index must be >= 1, got -{TEN}"),
        (lambda: DecimalDiagonalResult(0, (1,), ()).entry(-BIG), DomainError,
         f"entry index must be >= 1, got -{TEN}"),
        (lambda: CFDiagonalResult((0, 2), ()).entry(-BIG), DomainError,
         f"entry index must be >= 0, got -{TEN}"),
        (lambda: find_period_at_least(BIG), RangeError,
         f"period length bound {TEN} exceeds 20000000 digits"),
        (lambda: rational_diagonal_analysis(calkin_wilf(), 5, 0, BIG), RangeError,
         f"depth 5 is less than max_preperiod + 2*max_period = 2{TEN[1:]}"),
    ],
    ids=["cf-first", "cf-later", "digit", "row-entry", "decimal-result-entry",
         "cf-result-entry", "find-period", "analysis-depth"],
)
def test_refusals_quote_ints_past_the_int_string_limit(call, error, message):
    # each message quoted its value with str() and raised ValueError instead
    with pytest.raises(error) as refused:
        call()
    assert str(refused.value) == message


@pytest.mark.parametrize(
    "call, name",
    [
        (lambda n: calkin_wilf().take(n), "count"),
        (lambda n: metallic(2).take(n), "count"),
        (lambda n: convergents([1, 2], n), "count"),
        (lambda n: convergents(metallic(2), n), "count"),
        (lambda n: irrational_enumeration(n), "count"),
        (lambda n: decimal_diagonal([], n), "depth"),
        (lambda n: decimal_diagonal(map(digits_of, calkin_wilf()), n), "depth"),
        (lambda n: cf_diagonal(map(metallic, range(1, 10)), n), "depth"),
        (lambda n: verify_differs(DecimalDiagonalResult(0, (), ()), [], n), "depth"),
    ],
    ids=["take", "take-endless", "convergents", "convergents-endless", "irrationals", "diagonal",
         "diagonal-endless", "cf-diagonal", "verify"],
)
@pytest.mark.parametrize("n", [sys.maxsize + 1, 2**70, BIG], ids=["maxsize+1", "2^70", "10^5000"])
def test_counts_past_maxsize_are_refused(call, name, n):
    # islice raised ValueError here; an endless pull would never have ended
    with pytest.raises(RangeError, match=f"^{name} must be <= {sys.maxsize}$"):
        call(n)


def test_maxsize_itself_is_a_count():
    with pytest.raises(RangeError, match=f"^count {sys.maxsize} exceeds the 2 available terms$"):
        convergents([1, 2], sys.maxsize)
    assert Stream([1, 2], "decimal").take(sys.maxsize) == [1, 2]
    with pytest.raises(InputError, match=f"^need {sys.maxsize} rows, got 0$"):
        decimal_diagonal([], sys.maxsize)

