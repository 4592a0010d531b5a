import math
import sys
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from diagcf import (
    ContinuedFraction,
    DomainError,
    expand,
    make_rational,
    parse_cf,
    parse_expansion,
    parse_rational,
    reconstruct,
    to_string,
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


@pytest.mark.parametrize("bad", ["", "1/", "/2", "4/-6", "1.5", "a", "1 / 2", "+5"])
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
