import copy
import itertools
import math
import operator
import pickle
import re
import sys
import types
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

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
    digit_at,
    digits_of,
    expand,
    find_period_at_least,
    from_rational,
    irrational_enumeration,
    make_rational,
    metallic,
    named_cf_stream,
    parse_cf,
    parse_expansion,
    parse_rational,
    period_length,
    period_length_by_order,
    rational_diagonal_analysis,
    reconstruct,
    rule_out_periods,
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


@pytest.mark.parametrize(
    "num, den, message",
    [
        (1.5, 2, "numerator must be an integer, got 1.5"),
        (1, "2", "denominator must be an integer, got '2'"),
        (Fraction(1, 2), 3, "numerator must be an integer, got Fraction(1, 2)"),
        (None, 1, "numerator must be an integer, got None"),
    ],
)
def test_make_rational_refuses_non_integer_parts(num, den, message):
    # Fraction raised TypeError: both arguments should be Rational instances
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
        make_rational(num, den)


def test_rational_likes_are_read_in_lowest_terms():
    # 2/4 as a plain record passed the rule unreduced: period_length_by_order reported
    # preperiod 2, period_length 1, and expand the non-minimal 0.50(0)
    x = types.SimpleNamespace(numerator=2, denominator=4)
    assert period_length(x) == period_length_by_order(x) == (1, 1, True)
    assert expand(x) == expand(Fraction(1, 2)) == parse_expansion("0.5(0)")
    assert exact_numbers._check_rational(x) == (1, 2)


def test_zero_is_zero_over_one():
    r = make_rational(0, -17)
    assert (r.numerator, r.denominator) == (0, 1)


@given(rationals)
def test_invariants(x):
    assert x.denominator >= 1
    assert math.gcd(abs(x.numerator), x.denominator) == 1


def _lowest_terms(num, den):
    g = math.gcd(num, den)
    return num // g, den // g


# ints on both sides of the int/str limit: 10^5000 and 7^6000 have 5001 and 5071 digits
parts = st.one_of(
    st.integers(-(10**30), 10**30),
    st.integers(0, 10**30).map(lambda n: 10**5000 + n),
    st.integers(0, 10**30).map(lambda n: -(7**6000) - n),
)
coprime_pairs = st.builds(_lowest_terms, parts, parts.map(abs).filter(bool))


@settings(deadline=None)
@given(coprime_pairs, st.builds(Fraction, parts, parts.map(abs).filter(bool)))
def test_coprime_is_the_fraction_of_its_parts(pair, other):
    h, k = pair
    built, made = exact_numbers._coprime(h, k), Fraction(h, k)
    assert type(built) is Fraction
    assert built == made and hash(built) == hash(made)
    assert (built.numerator, built.denominator) == (made.numerator, made.denominator) == pair
    assert exact_numbers._repr(built) == exact_numbers._repr(made)
    assert to_string(built) == to_string(made)
    if max(abs(h), k) < 10**4000:
        assert (repr(built), str(built)) == (repr(made), str(made))
    for twin in (pickle.loads(pickle.dumps(built)), copy.deepcopy(built), copy.copy(built)):
        assert type(twin) is Fraction and twin == made and hash(twin) == hash(made)
    assert built + other == made + other and built * other == made * other
    assert (built < other) == (made < other) and (other < built) == (other < made)


def test_coprime_writes_the_slots_fraction_declares():
    # the helper writes these two slots with no Fraction.__new__; a Fraction that
    # declared others would be left with them unset
    assert Fraction.__slots__ == ("_numerator", "_denominator")
    x = exact_numbers._coprime(-3, 7)
    assert (x._numerator, x._denominator) == (-3, 7) and not hasattr(x, "__dict__")


def test_coprime_matches_from_coprime_ints():
    from_coprime_ints = getattr(Fraction, "_from_coprime_ints", None)
    if from_coprime_ints is None:
        version = sys.version.split()[0]
        pytest.skip(f"Fraction._from_coprime_ints arrived in CPython 3.12, not in {version}")
    for h, k in [(0, 1), (-3, 7), (10**5000 + 1, 7**6000), (1, 10**5000)]:
        built, made = exact_numbers._coprime(h, k), from_coprime_ints(h, k)
        assert type(built) is type(made) is Fraction and built == made
        assert (built.numerator, built.denominator) == (made.numerator, made.denominator)


def test_to_string():
    assert to_string(Fraction(6, 7)) == "6/7"
    assert to_string(Fraction(5)) == "5"
    assert to_string(Fraction(-2, 3)) == "-2/3"
    assert to_string(Fraction(0)) == "0"


@pytest.mark.parametrize(
    "num, den, text", [(2, 4, "1/2"), (-2, 4, "-1/2"), (6, 2, "3"), (1, 0, None), (1, -2, None)]
)
def test_to_string_reads_a_rational_like_as_the_doors_do(num, den, text):
    # it printed 2/4 unreduced, and 1/0 and 1/-2, which every rational door refuses
    x = types.SimpleNamespace(numerator=num, denominator=den)
    if text is None:
        with pytest.raises(DomainError, match=f"^denominator must be >= 1, got {den}$"):
            to_string(x)
    else:
        assert to_string(x) == text


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


# (call, name): each call pulls n items or rows, from a finite or an endless source
COUNT_CALLS = [
    (lambda n: calkin_wilf().take(n), "count"),
    (lambda n: metallic(2).take(n), "count"),
    (lambda n: convergents([1, 2], n), "count"),
    (lambda n: convergents(metallic(2), n), "count"),
    (lambda n: irrational_enumeration(n), "count"),
    (lambda n: decimal_diagonal([], n), "depth"),
    (lambda n: decimal_diagonal(map(digits_of, calkin_wilf()), n), "depth"),
    (lambda n: cf_diagonal(map(metallic, range(1, 10)), n), "depth"),
    (lambda n: verify_differs(DecimalDiagonalResult(0, (), ()), [], n), "depth"),
]
COUNT_IDS = [
    "take", "take-endless", "convergents", "convergents-endless", "irrationals", "diagonal",
    "diagonal-endless", "cf-diagonal", "verify",
]


@pytest.mark.parametrize("call, name", COUNT_CALLS, ids=COUNT_IDS)
@pytest.mark.parametrize("n", [sys.maxsize + 1, 2**70, BIG], ids=["maxsize+1", "2^70", "10^5000"])
def test_counts_past_maxsize_are_refused(call, name, n):
    # islice raised ValueError here; an endless pull would never have ended
    with pytest.raises(RangeError, match=f"^{name} must be <= {sys.maxsize}$"):
        call(n)


@pytest.mark.parametrize("call, name", COUNT_CALLS, ids=COUNT_IDS)
@pytest.mark.parametrize(
    "n, shown",
    [(2.5, "2.5"), (0.5, "0.5"), (3.0, "3.0"), (Fraction(3), "Fraction(3, 1)"), ("3", "'3'")],
    ids=["float", "small-float", "whole-float", "fraction", "str"],
)
def test_non_integer_counts_are_refused(call, name, n, shown):
    # islice raised ValueError on the floats, and the comparisons TypeError
    # on the str; a metallic take(2.5) raised TypeError from the list product
    with pytest.raises(DomainError, match=f"^{name} must be an integer, got {re.escape(shown)}$"):
        call(n)


def test_counts_take_what_operator_index_takes():
    numpy = pytest.importorskip("numpy")
    assert metallic(3).take(numpy.int64(2)) == [3, 3] and metallic(3).take(True) == [3]
    assert len(convergents(metallic(2), numpy.int64(3))) == 3
    assert len(irrational_enumeration(numpy.int64(4))) == 4
    assert cf_diagonal(irrational_enumeration(3), numpy.int64(3)).terms == (0, 2, 3, 4)
    # the count reaches the long division as an int: 10**19 overflows in int64
    assert digits_of(Fraction(1, 3)).take(numpy.int64(300)) == [3] * 300
    assert digits_of(Fraction(1, 7)).take(numpy.int64(19)) == digits_of(Fraction(1, 7)).take(19)
    # and so do the shape bounds, whose sum 0 + 2 * 2**62 wrapped negative in int64 and passed
    report = rational_diagonal_analysis(calkin_wilf(), *map(numpy.int64, (6, 0, 2)))
    assert {type(n) for n in report[:3]} == {int}


# (read, first, name): each reads position k of a row, a result or a value
POSITION_READS = [
    (lambda k: digits_of(Fraction(1, 7)).entry(k), 1, "entry index"),
    (lambda k: metallic(3).entry(k), 0, "entry index"),
    (lambda k: named_cf_stream("sqrt2").entry(k), 0, "entry index"),
    (lambda k: named_cf_stream("e").entry(k), 0, "entry index"),
    (lambda k: named_cf_stream("pi").entry(k), 0, "entry index"),
    (lambda k: DecimalDiagonalResult(0, (5, 4), ()).entry(k), 1, "entry index"),
    (lambda k: CFDiagonalResult((0, 2, 3), ()).entry(k), 0, "entry index"),
    (lambda k: digit_at(Fraction(1, 7), k), 1, "digit position"),
]
POSITION_IDS = [
    "digit-row", "metallic", "sqrt2", "e", "pi", "decimal-result", "cf-result", "digit_at",
]


@pytest.mark.parametrize("read, first, name", POSITION_READS, ids=POSITION_IDS)
@pytest.mark.parametrize(
    "k, shown",
    [(2.5, "2.5"), (1.0, "1.0"), (Fraction(3, 2), "Fraction(3, 2)"), ("1", "'1'"), (None, "None")],
    ids=["float", "whole-float", "fraction", "str", "none"],
)
def test_non_integer_positions_are_refused(read, first, name, k, shown):
    # metallic(3).entry(2.5) was 3 and e's entry(2.5) was 1; the others raised TypeError
    with pytest.raises(DomainError, match=f"^{name} must be an integer, got {re.escape(shown)}$"):
        read(k)


@pytest.mark.parametrize("read, first, name", POSITION_READS, ids=POSITION_IDS)
def test_positions_take_what_operator_index_takes(read, first, name):
    numpy = pytest.importorskip("numpy")
    assert read(numpy.int64(1)) == read(True) == read(1)
    with pytest.raises(DomainError, match=f"^{name} must be >= {first}, got {first - 1}$"):
        read(numpy.int64(first - 1))


RATIONAL_READS = {
    "from_rational": from_rational,
    "digits_of": digits_of,
    "expand": expand,
    "digit_at": lambda x: digit_at(x, 3),
    "period_length": period_length,
    "period_length_by_order": period_length_by_order,
}


@pytest.mark.parametrize("read", RATIONAL_READS.values(), ids=RATIONAL_READS.keys())
@pytest.mark.parametrize(
    "x, message",
    [
        (2.5, "x must be a rational, got 2.5"),
        ("1/3", "x must be a rational, got '1/3'"),
        (types.SimpleNamespace(numerator=1.5, denominator=2), "x must be a rational, got "),
        (types.SimpleNamespace(numerator=1, denominator=-3), "denominator must be >= 1, got -3"),
        (types.SimpleNamespace(numerator=1, denominator=0), "denominator must be >= 1, got 0"),
        (Fraction(-1, 3), "negative input"),
    ],
    ids=["float", "str", "float-part", "negative-denominator", "zero-denominator", "negative"],
)
def test_one_rule_for_a_rational_argument(read, x, message):
    # from_rational took 1/-3 as [-1; 1, 2] and digits_of gave 6, 6, 6 for it; a zero
    # denominator gave an empty continued fraction, raised ZeroDivisionError or ValueError, or
    # never returned from expand; a float raised AttributeError
    with pytest.raises(DomainError, match=f"^{re.escape(message)}"):
        read(x)


@pytest.mark.parametrize(
    "read", [read for name, read in RATIONAL_READS.items() if name != "digits_of"],
    ids=[name for name in RATIONAL_READS if name != "digits_of"],
)
def test_numpy_parts_are_read_as_ints(read):
    # expand, digit_at and period_length_by_order raised TypeError from pow, period_length
    # AttributeError; digits_of keeps refusing numpy parts (test_enumeration)
    numpy = pytest.importorskip("numpy")
    assert read(Fraction(numpy.int64(1), numpy.int64(7))) == read(Fraction(1, 7))
    assert read(numpy.int64(3)) == read(3)


def test_maxsize_itself_is_a_count():
    with pytest.raises(RangeError, match=f"^count {sys.maxsize} exceeds the 2 available terms$"):
        convergents([1, 2], sys.maxsize)
    assert Stream([1, 2], "decimal").take(sys.maxsize) == [1, 2]
    with pytest.raises(InputError, match=f"^need {sys.maxsize} rows, got 0$"):
        decimal_diagonal([], sys.maxsize)



try:
    import numpy
except ImportError:  # the fuzz then draws no numpy ints
    numpy = None

# positions, counts and depths: ints, ints past sys.maxsize, values that are
# no ints (some past the int/str limit, which no refusal may render), bools
# and numpy ints; an in-range pull from an endless source is capped, since
# metallic(3).take(sys.maxsize) fills memory
PAST_MAXSIZE = st.integers(sys.maxsize + 1, 2**300)
PAST_THE_LIMIT = Fraction(10**5000 + 1, 2)
NOT_INTS = st.one_of(
    st.floats(allow_nan=True), st.fractions(), st.text(max_size=3), st.none(),
    st.sampled_from([0.5, -0.5, 2.5, 3.0, Fraction(5, 2), PAST_THE_LIMIT, -PAST_THE_LIMIT]),
)
ANY_INT = st.integers() | st.integers(10**4, sys.maxsize) | PAST_MAXSIZE


def three_rows():
    return [digits_of(Fraction(1, 3)) for _ in range(3)]


# (call, largest in-range n, or None for any int): each is a position read
# or a pull of n items or rows; convergents(e, n) costs more than linear in n
FUZZED_CALLS = {
    "digit-row-entry": (lambda n: digits_of(Fraction(1, 7)).entry(n), None),
    "metallic-entry": (lambda n: metallic(3).entry(n), None),
    "sqrt2-entry": (lambda n: named_cf_stream("sqrt2").entry(n), None),
    "e-entry": (lambda n: named_cf_stream("e").entry(n), None),
    "pi-entry": (lambda n: named_cf_stream("pi").entry(n), None),
    "decimal-result-entry": (lambda n: DecimalDiagonalResult(0, (5, 4), ()).entry(n), None),
    "cf-result-entry": (lambda n: CFDiagonalResult((0, 2, 3), ()).entry(n), None),
    "digit_at": (lambda n: digit_at(Fraction(1, 7), n), None),
    "take": (lambda n: Stream([1, 2], "decimal").take(n), None),
    "pi-take": (lambda n: named_cf_stream("pi").take(n), None),
    "calkin-wilf-take": (lambda n: calkin_wilf().take(n), 10**4),
    "digit-row-take": (lambda n: digits_of(Fraction(1, 7)).take(n), 10**4),
    "metallic-take": (lambda n: metallic(3).take(n), 10**4),
    "e-take": (lambda n: named_cf_stream("e").take(n), 10**4),
    "convergents": (lambda n: convergents([1, 2, 3], n), None),
    "convergents-e": (lambda n: convergents(named_cf_stream("e"), n), 300),
    "irrationals": (lambda n: irrational_enumeration(n), 10**4),
    "decimal-diagonal": (lambda n: decimal_diagonal(three_rows(), n), None),
    "decimal-diagonal-endless": (
        lambda n: decimal_diagonal(map(digits_of, calkin_wilf()), n), 10**4
    ),
    "cf-diagonal-endless": (lambda n: cf_diagonal(map(metallic, itertools.count(1)), n), 10**4),
    "verify": (
        lambda n: verify_differs(DecimalDiagonalResult(0, (5, 5, 5), ()), three_rows(), n), None
    ),
    "verify-endless": (  # the one-digit prefix ends the walk at row 2
        lambda n: verify_differs(
            DecimalDiagonalResult(0, (5,), ()), map(digits_of, calkin_wilf()), n
        ),
        None,
    ),
    "metallic": (metallic, None),
    "rule-out-preperiod": (lambda n: rule_out_periods([1, 2] * 5, n, 1), None),
    "rule-out-period": (lambda n: rule_out_periods([1, 2] * 5, 0, n), None),
    "analysis-preperiod": (lambda n: rational_diagonal_analysis(calkin_wilf(), 6, n, 2), None),
    "find-period": (find_period_at_least, 10**3),
}
# a result's entry past its prefix is an IndexError, as a tuple's is
PAST_THE_END = {"decimal-result-entry": 3, "cf-result-entry": 3}


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(sorted(FUZZED_CALLS)), st.data())
def test_any_position_count_or_depth_gets_a_value_or_a_typed_error(name, data):
    call, cap = FUZZED_CALLS[name]
    in_range = st.integers(-3, cap or 10**4)
    ints = ANY_INT if cap is None else in_range | PAST_MAXSIZE
    numpy_ints = [in_range.map(numpy.int64)] if numpy is not None else []
    n = data.draw(st.one_of(ints, NOT_INTS, st.booleans(), *numpy_ints))
    try:
        got = call(n)
    except (DomainError, RangeError, InputError):
        return
    except IndexError:
        assert name in PAST_THE_END and operator.index(n) >= PAST_THE_END[name]
        return
    assert not isinstance(n, (float, Fraction, str, type(None))), "a non-integer was taken"
    if type(n) is not int:  # a bool or numpy int gives what its int gives, in plain ints
        assert repr(got) == repr(call(operator.index(n)))
