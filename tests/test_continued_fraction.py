import math
import random
import re
from fractions import Fraction
from functools import partial

import pytest
from hypothesis import given, strategies as st

from diagcf import (
    CFDiagonalResult,
    ContinuedFraction,
    Convergent,
    DomainError,
    RangeError,
    Stream,
    approximation_compare,
    canonicalize,
    convergents,
    digits_of,
    fractional_digit_budget,
    from_rational,
    from_real_approx,
    metallic,
    named_cf_stream,
    parse_cf,
    to_plain_string,
    to_rational,
)
from diagcf import continued_fraction, enumeration
from instruments import calls_under, spy

positive_rationals = st.builds(
    Fraction, st.integers(1, 1000), st.integers(1, 1000)
)

# valid term lists: a0 >= 0, everything after >= 1
term_lists = st.tuples(
    st.integers(0, 30), st.lists(st.integers(1, 30), max_size=8)
).map(lambda t: (t[0], *t[1]))


def prefix_value(terms, length):
    """Independent oracle: exact value of a prefix by direct Fraction fold."""
    value = Fraction(terms[length - 1])
    for a in reversed(terms[: length - 1]):
        value = a + 1 / value
    return value


def floor_and_reciprocal(x, eps) -> tuple[int, ...]:
    """Independent oracle: floor-and-reciprocal in Fraction arithmetic up to
    the first convergent within eps of x, with a trailing 1 merged."""
    target, tolerance = Fraction(x), Fraction(eps)
    t, terms = target, []
    while True:
        a = t.numerator // t.denominator
        terms.append(a)
        if abs(target - prefix_value(terms, len(terms))) <= tolerance:
            break
        t = 1 / (t - a)
    if len(terms) >= 2 and terms[-1] == 1:
        terms[-2:] = [terms[-2] + 1]
    return tuple(terms)


class TestContinuedFractionType:
    def test_str(self):
        assert str(ContinuedFraction((0, 1, 6))) == "[0; 1, 6]"
        assert str(ContinuedFraction((5,))) == "[5]"
        assert str(ContinuedFraction((3, 7, 15, 1))) == "[3; 7, 15, 1]"

    def test_non_canonical_accepted(self):
        cf = ContinuedFraction((3, 7, 15, 1))
        assert not cf.is_canonical
        assert ContinuedFraction((3, 7, 16)).is_canonical
        assert ContinuedFraction((1,)).is_canonical

    def test_rejects_bad_terms(self):
        with pytest.raises(DomainError):
            ContinuedFraction(())
        with pytest.raises(DomainError, match="^first partial quotient must be >= 0, got -1$"):
            ContinuedFraction((-1, 2))
        with pytest.raises(DomainError, match="^partial quotient at index 1 must be >= 1, got 0$"):
            ContinuedFraction((1, 0))
        with pytest.raises(DomainError, match="^partial quotient at index 2 must be >= 1, got 0$"):
            ContinuedFraction((1, 2, 0))

    def test_rejects_non_integer_terms(self):
        # a fractional quotient used to be truncated: (1, 2.5) read as [1; 2]
        with pytest.raises(DomainError, match="must be integers"):
            ContinuedFraction((1, 2.5))
        with pytest.raises(DomainError, match="must be integers"):
            to_rational([0, 1.5])

    def test_is_the_tuple_of_its_terms(self):
        cf = ContinuedFraction([0, 1, 6])
        assert cf == (0, 1, 6) and cf.terms == (0, 1, 6) and cf[2] == 6
        a0, *rest = cf
        assert (a0, rest, len(cf)) == (0, [1, 6], 3)
        assert ContinuedFraction(cf) is cf
        assert repr(cf) == "ContinuedFraction((0, 1, 6))"


class TestFromRational:
    def test_examples(self):
        assert from_rational(Fraction(6, 7)).terms == (0, 1, 6)
        assert from_rational(Fraction(5)).terms == (5,)
        # Euclid on 355/113: 355 = 3*113 + 16, 113 = 7*16 + 1, 16 = 16*1
        assert from_rational(Fraction(355, 113)).terms == (3, 7, 16)

    def test_zero(self):
        assert from_rational(Fraction(0)).terms == (0,)

    def test_negative_rejected(self):
        with pytest.raises(DomainError, match="negative input"):
            from_rational(Fraction(-1, 2))

    @given(positive_rationals)
    def test_round_trip_and_canonical(self, x):
        cf = from_rational(x)
        assert to_rational(cf) == x
        assert cf.is_canonical


class TestToRational:
    def test_examples(self):
        assert to_rational([0, 1, 6]) == Fraction(6, 7)
        assert to_rational([5]) == Fraction(5)
        # fold: 15 + 1/1 = 16, 7 + 1/16 = 113/16, 3 + 16/113 = 355/113
        assert to_rational([3, 7, 15, 1]) == Fraction(355, 113)

    def test_accepts_cf_objects_and_lists(self):
        assert to_rational(ContinuedFraction((0, 1, 6))) == Fraction(6, 7)

    def test_trailing_zero_rejected(self):
        with pytest.raises(DomainError, match="^partial quotient at index 2 must be >= 1, got 0$"):
            to_rational([1, 2, 0])

    @given(term_lists)
    def test_matches_direct_fold(self, terms):
        assert to_rational(terms) == prefix_value(terms, len(terms))


class TestCanonicalize:
    def test_examples(self):
        assert canonicalize([3, 7, 15, 1]).terms == (3, 7, 16)
        assert canonicalize([0, 1, 6]).terms == (0, 1, 6)
        assert canonicalize([1, 1]).terms == (2,)

    def test_rejects_invalid(self):
        with pytest.raises(DomainError):
            canonicalize([-1, 2])
        with pytest.raises(DomainError):
            canonicalize([1, 0])

    @given(term_lists)
    def test_idempotent_and_value_preserving(self, terms):
        once = canonicalize(terms)
        assert once.is_canonical or len(once.terms) == 1
        assert canonicalize(once.terms).terms == once.terms
        assert to_rational(once) == to_rational(terms)


class TestConvergents:
    def test_cf_examples(self):
        # oracle: evaluate each prefix by the direct fold
        cs = convergents(ContinuedFraction((0, 1, 6)), 3)
        assert [c.value for c in cs] == [prefix_value((0, 1, 6), n) for n in (1, 2, 3)]
        assert [c.value for c in cs] == [Fraction(0), Fraction(1), Fraction(6, 7)]
        assert [c.index for c in cs] == [0, 1, 2]
        assert convergents(ContinuedFraction((5,)), 1)[0].value == Fraction(5)

    def test_pi_stream_prefix(self):
        cs = convergents(named_cf_stream("pi"), 4)
        assert [c.value for c in cs] == [
            Fraction(3),
            Fraction(22, 7),
            Fraction(333, 106),
            Fraction(355, 113),
        ]

    def test_last_convergent_is_whole_value(self):
        cf = from_rational(Fraction(169, 550))
        cs = convergents(cf, len(cf.terms))
        assert cs[-1].value == Fraction(169, 550)

    def test_count_errors(self):
        with pytest.raises(RangeError):
            convergents(ContinuedFraction((0, 1, 6)), 4)
        with pytest.raises(RangeError):
            convergents(ContinuedFraction((5,)), 0)
        with pytest.raises(RangeError):
            convergents([3, 7], 3)

    def test_count_error_names_the_available_terms(self):
        for source in (ContinuedFraction((0, 1, 6)), [0, 1, 6], iter([0, 1, 6])):
            with pytest.raises(RangeError, match="^count 4 exceeds the 3 available terms$"):
                convergents(source, 4)

    @pytest.mark.parametrize("source", [None, 3, 2.5])
    def test_non_iterable_source_is_a_domain_error(self, source):
        # islice raised TypeError: 'NoneType' object is not iterable
        with pytest.raises(DomainError, match="^partial quotients must be integers$"):
            convergents(source, 3)

    def test_plain_list_obeys_the_quotient_rule(self):
        # these ended in ZeroDivisionError and in the value -1
        with pytest.raises(DomainError, match="^partial quotient at index 1 must be >= 1, got 0$"):
            convergents([1, 0, 2], 3)
        with pytest.raises(DomainError, match="^partial quotient at index 1 must be >= 1, got -1$"):
            convergents([0, -1], 2)
        with pytest.raises(DomainError, match="must be integers"):
            convergents([1, 2.5], 2)
        # only the first `count` items are read, so a bad later one is never seen
        assert convergents([1, 2, 0], 2)[-1].value == Fraction(3, 2)

    def test_recurrence_matches_prefix_fold(self):
        rng = random.Random(7)
        for _ in range(50):
            terms = [rng.randint(0, 20)] + [rng.randint(1, 20) for _ in range(rng.randint(1, 8))]
            cs = convergents(terms, len(terms))
            for n, c in enumerate(cs, start=1):
                assert c.value == prefix_value(terms, n)

    def test_denominators_strictly_increase(self):
        rng = random.Random(11)
        for _ in range(50):
            terms = [rng.randint(0, 9)] + [rng.randint(1, 9) for _ in range(8)]
            dens = [c.value.denominator for c in convergents(terms, len(terms))]
            for a, b in zip(dens[1:], dens[2:]):
                assert a < b

    def test_determinant_identity(self):
        rng = random.Random(13)
        for _ in range(50):
            terms = [rng.randint(0, 9)] + [rng.randint(1, 9) for _ in range(rng.randint(2, 9))]
            cs = convergents(terms, len(terms))
            expected = 1
            for prev, cur in zip(cs, cs[1:]):
                h0, k0 = prev.value.numerator, prev.value.denominator
                h1, k1 = cur.value.numerator, cur.value.denominator
                assert h1 * k0 - h0 * k1 == expected
                expected = -expected

    @given(st.integers(0, 10**40), st.lists(st.integers(1, 10**40), max_size=40))
    def test_every_convergent_is_reduced_by_the_determinant_identity(self, head, tail):
        # what lets the values skip the gcd: h_k*k_{k-1} - h_{k-1}*k_k = (-1)^(k-1)
        terms = (head, *tail)
        for source in (terms, ContinuedFraction(terms)):
            cs = convergents(source, len(terms))
            assert [type(c) for c in cs] == [Convergent] * len(terms)
            assert [c.index for c in cs] == list(range(len(terms)))
            parts = [(1, 0)] + [(c.value.numerator, c.value.denominator) for c in cs]
            for k, ((h0, k0), (h1, k1)) in enumerate(zip(parts, parts[1:])):
                assert math.gcd(h1, k1) == 1 and k1 >= 1
                assert h1 * k0 - h0 * k1 == (-1) ** (k - 1)
            assert cs[-1].value == to_rational(terms) == prefix_value(terms, len(terms))

    def test_alternation_around_final_value(self):
        rng = random.Random(17)
        for _ in range(50):
            terms = [rng.randint(0, 9)] + [rng.randint(1, 9) for _ in range(rng.randint(1, 8))]
            cs = convergents(terms, len(terms))
            x = cs[-1].value
            for c in cs[:-1]:
                if c.index % 2 == 0:
                    assert c.value < x
                else:
                    assert c.value > x


class TestNoGcd:
    """Convergents and folds are reduced by construction, so no gcd is taken:
    no math.gcd call and no Fraction.__new__, whose normalizing step takes one."""

    CF = ContinuedFraction(named_cf_stream("e").take(400))

    @pytest.mark.parametrize("call", [
        lambda cf: convergents(cf, len(cf)),
        lambda cf: [to_rational(cf)],
    ], ids=["convergents", "to_rational"])
    def test_values_take_no_gcd(self, call):
        values, calls = calls_under(call, self.CF)
        assert math.gcd not in calls
        assert Fraction.__new__.__code__ not in calls
        value = getattr(values[-1], "value", values[-1])  # the whole cf's value either way
        assert type(value) is Fraction and value == prefix_value(self.CF, len(self.CF))

    def test_a_checked_source_is_not_checked_again(self, monkeypatch):
        checked = spy(monkeypatch, continued_fraction, "_check_quotients", lambda i, run: len(run))
        terms = list(self.CF)
        expected = convergents(terms, 300)
        assert checked == [300]
        assert convergents(self.CF, 300) == expected
        assert checked == [300]
        for source in (terms, iter(terms), Stream(iter(terms), "cf"), named_cf_stream("e")):
            checked.clear()
            assert convergents(source, 300) == expected
            assert checked == [300]


class TestFromRealApprox:
    def test_sqrt2(self):
        cf = from_real_approx(math.sqrt(2), 1e-9)
        assert cf.terms[0] == 1
        assert len(cf.terms) >= 9
        assert all(a == 2 for a in cf.terms[1:])
        # the eps contract, checked against the exact value of the double
        assert abs(Fraction(math.sqrt(2)) - to_rational(cf)) <= Fraction(1, 10**9)

    def test_integer_input(self):
        assert from_real_approx(5.0, 1e-12).terms == (5,)
        assert from_real_approx(5.0, 100.0).terms == (5,)

    def test_six_sevenths_like_decimal(self):
        assert from_real_approx(0.857142857142, 1e-9).terms == (0, 1, 6)

    def test_errors(self):
        with pytest.raises(DomainError, match="eps"):
            from_real_approx(1.5, 0.0)
        with pytest.raises(DomainError, match="eps"):
            from_real_approx(1.5, -1e-9)
        with pytest.raises(DomainError, match="positive"):
            from_real_approx(0.0, 1e-9)
        with pytest.raises(DomainError, match="positive"):
            from_real_approx(-2.0, 1e-9)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(DomainError, match="input must be a finite number"):
            from_real_approx(bad, 1e-9)
        with pytest.raises(DomainError, match="eps must be a finite number"):
            from_real_approx(1.5, bad)

    def test_eps_postcondition_on_random_inputs(self):
        rng = random.Random(23)
        for _ in range(100):
            x = rng.uniform(1e-3, 1e3)
            eps = 10.0 ** rng.randint(-12, -3)
            cf = from_real_approx(x, eps)
            assert abs(Fraction(x) - to_rational(cf)) <= Fraction(eps)
            assert cf.is_canonical

    @given(
        st.one_of(
            st.floats(1e-300, 1e300),
            st.floats(1e-2, 1e2),
            st.builds(Fraction, st.integers(1, 10**40), st.integers(1, 10**40)),
        ),
        st.one_of(st.sampled_from([1e-12, 1e-6, 0.5, 100.0, 5e-324]), st.floats(1e-30, 10.0)),
    )
    def test_matches_floor_and_reciprocal(self, x, eps):
        assert from_real_approx(x, eps).terms == floor_and_reciprocal(x, eps)

    def test_seeded_floats_match_floor_and_reciprocal(self):
        rng = random.Random(29)
        for _ in range(1000):
            x = 10 ** rng.uniform(-2, 2)
            assert from_real_approx(x, 1e-12).terms == floor_and_reciprocal(x, 1e-12)

    def test_accepts_exact_rational_input(self):
        assert from_real_approx(Fraction(6, 7), Fraction(1, 10**30)).terms == (0, 1, 6)


class TestFractionalDigitBudget:
    def test_examples(self):
        assert fractional_digit_budget(ContinuedFraction((3, 7, 15, 1))) == 4
        assert fractional_digit_budget(ContinuedFraction((5,))) == 0
        assert fractional_digit_budget([0, 1, 6]) == 2


class TestApproximationCompare:
    def test_pi_proxy(self):
        pi_proxy = Fraction(3141592653589793, 10**15)
        report = approximation_compare(pi_proxy, Fraction(355, 113), Fraction(31416, 10**4))
        assert report.closer == "cf"
        assert report.cf_error == abs(Fraction(355, 113) - pi_proxy)
        assert report.decimal_error == abs(Fraction(31416, 10**4) - pi_proxy)
        assert report.cf_error < report.decimal_error

    def test_exact_match_wins(self):
        x = Fraction(355, 113)
        report = approximation_compare(x, x, Fraction(3))
        assert report.closer == "cf"
        assert report.cf_error == 0

    def test_one_third(self):
        report = approximation_compare(
            Fraction(1, 3), Fraction(1, 3), Fraction(3333, 10**4)
        )
        assert report.closer == "cf"
        assert report.cf_error == 0
        assert report.decimal_error == Fraction(1, 30000)

    def test_tie(self):
        report = approximation_compare(Fraction(1, 2), Fraction(1, 4), Fraction(3, 4))
        assert report.closer == "tie"
        assert report.cf_error == report.decimal_error == Fraction(1, 4)

    def test_decimal_can_win(self):
        report = approximation_compare(Fraction(1, 2), Fraction(0), Fraction(1, 2))
        assert report.closer == "decimal"

    def test_floats_compare_as_floats(self):
        # the refusal of non-numbers leaves float arithmetic as it was
        report = approximation_compare(0.5, Fraction(1, 3), 0.25)
        assert report == (0.5 - Fraction(1, 3), 0.25, "cf") and type(report.cf_error) is float

    def test_numpy_ints_give_what_their_ints_give(self):
        # the two int64s' difference passed 64 bits and wrapped to a negative "absolute" error
        numpy = pytest.importorskip("numpy")
        ints = (2**62, -2**62, 0)
        report = approximation_compare(numpy.int64(2**62), numpy.int64(-2**62), 0)
        assert repr(report) == repr(approximation_compare(*ints))
        assert report.closer == "decimal" and report.cf_error == 2**63


# the public entries that take partial quotients from outside the package
TERM_ENTRIES = {
    "ContinuedFraction": ContinuedFraction,
    "to_rational": to_rational,
    "canonicalize": canonicalize,
    "to_plain_string": to_plain_string,
    "fractional_digit_budget": fractional_digit_budget,
    "parse_cf": lambda terms: parse_cf(" ".join(map(repr, terms))),
    # a diagonal result's terms come from its public constructor
    "CFDiagonalResult.as_continued_fraction":
        lambda terms: CFDiagonalResult(terms, ()).as_continued_fraction(),
}
# convergents needs a count >= 1, so it takes no empty source
CONVERGENT_SOURCES = {
    "tuple": tuple,
    "iterator": iter,
    "stream": lambda terms: Stream(iter(terms), "cf"),
}
BAD_TERMS = [[-1], [1, 0], [1.5], ["2"], [Fraction(3)]]


@pytest.mark.parametrize(
    "entry, terms",
    [pytest.param(entry, terms, id=f"{name}-{terms!r}")
     for name, entry in TERM_ENTRIES.items() for terms in [[], *BAD_TERMS]]
    + [pytest.param(lambda ts, source=source: convergents(source(ts), len(ts)), terms,
                    id=f"convergents-{name}-{terms!r}")
       for name, source in CONVERGENT_SOURCES.items() for terms in BAD_TERMS],
)
def test_public_entries_refuse_bad_terms(entry, terms):
    with pytest.raises(DomainError):
        entry(terms)


# the doors that read every term of their source, and the package rows that never end
ALL_TERM_ENTRIES = list(TERM_ENTRIES)[:5]
ENDLESS_ROWS = {
    "digits_of(1/7)": lambda: digits_of(Fraction(1, 7)),
    "metallic(2)": lambda: metallic(2),
    **{name: partial(named_cf_stream, name) for name in ("sqrt2", "e", "phi")},
}


@pytest.mark.parametrize("make", ENDLESS_ROWS.values(), ids=ENDLESS_ROWS.keys())
@pytest.mark.parametrize("entry", ALL_TERM_ENTRIES)
def test_an_endless_row_is_refused_before_its_first_pull(monkeypatch, entry, make):
    # each door read the row until memory ran out; here a 10^4-th pull fails the test
    row, pulls = make(), []
    step = type(row).__next__

    def bounded(self):
        pulls.append(self.position)
        assert len(pulls) < 10**4, "an endless row was read on and on"
        return step(self)

    monkeypatch.setattr(type(row), "__next__", bounded)
    message = f"^a {row.kind} row never ends; a continued fraction has finitely many terms$"
    with pytest.raises(DomainError, match=message):
        TERM_ENTRIES[entry](row)
    assert (pulls, row.position) == ([], 0)


@pytest.mark.parametrize("entry", ALL_TERM_ENTRIES)
def test_rows_that_end_still_reach_the_doors(entry):
    # pi's row stops at its table; a count, or a bare Stream over finite items, reads as before
    with pytest.raises(RangeError, match="^pi stream is backed by a fixed table of 48 "):
        TERM_ENTRIES[entry](named_cf_stream("pi"))
    assert TERM_ENTRIES[entry](Stream([3, 7, 15], "cf")) == TERM_ENTRIES[entry]([3, 7, 15])
    for make in ENDLESS_ROWS.values():
        expected = convergents(make().take(4), 4)
        assert convergents(make(), 4) == expected and len(expected) == 4


@pytest.mark.parametrize(
    "terms, message",
    [([1, 0], "partial quotient at index 1 must be >= 1, got 0"),
     ([-1], "first partial quotient must be >= 0, got -1"),
     ([1, False], "partial quotient at index 1 must be >= 1, got 0")],
)
def test_one_quotient_rule_with_one_message(terms, message):
    # cf rows check their runs with the rule that ContinuedFraction applies
    assert enumeration.KINDS["cf"][1] is continued_fraction._check_quotients
    refusals = [ContinuedFraction, lambda ts: Stream(iter(ts), "cf").take(len(ts))] + [
        lambda ts, source=source: convergents(source(ts), len(ts))
        for source in CONVERGENT_SOURCES.values()
    ]
    for entry in refusals:
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            entry(terms)


finite_floats = st.floats(allow_nan=False, allow_infinity=False, min_value=0.0, exclude_min=True)


@given(
    st.builds(Fraction, st.integers(0, 10**30), st.integers(1, 10**30)),
    finite_floats,
    finite_floats,
    term_lists,
)
def test_package_made_terms_pass_the_quotient_rule(x, real, eps, terms):
    # these three build their terms without the rule, which must still hold
    for cf in (from_rational(x), from_real_approx(real, eps), canonicalize(terms)):
        assert type(cf) is ContinuedFraction and len(cf) >= 1
        assert {type(a) for a in cf} == {int}
        continued_fraction._check_quotients(0, cf)


def test_numpy_inputs_give_plain_int_terms():
    numpy = pytest.importorskip("numpy")
    x = Fraction(numpy.int64(7), 3)
    assert type(x.numerator) is not int  # Fraction keeps numpy's numerator
    # numpy parts of eps used to reach the loop's bound, and overflow there past 2^63
    tiny = Fraction(numpy.int64(1), numpy.int64(10**18))
    approximated = from_real_approx(Fraction(10**40 + 1, 3 * 10**40), tiny)
    for cf in (from_rational(x), from_rational(numpy.int64(7)), from_real_approx(x, 1e-3), approximated):
        assert {type(a) for a in cf} == {int}


class TestTextForms:
    def test_bracket_round_trip(self):
        for text in ("[0; 1, 6]", "[5]", "[3; 7, 15, 1]"):
            assert str(parse_cf(text)) == text

    def test_plain_form(self):
        assert parse_cf("0 1 6").terms == (0, 1, 6)
        assert parse_cf("5").terms == (5,)
        assert to_plain_string(ContinuedFraction((0, 1, 6))) == "0 1 6"

    def test_whitespace_tolerance(self):
        assert parse_cf(" [ 3 ;7, 15,1 ] ").terms == (3, 7, 15, 1)

    @pytest.mark.parametrize(
        "bad",
        ["", "[", "[1; 2", "3,7", "[1; 2,]x", "[a]", "[1; b]", "[; 1, 2]", "[1; 2,, 3]", "[1; 2, 3,]",
         # int() takes each term below; the literal takes only ASCII digit runs
         "[1_0; 2]", "[+3; 2]", "[ -0; 2]", "[\N{ARABIC-INDIC DIGIT ONE}0; 2]"],
    )
    def test_rejects(self, bad):
        with pytest.raises(DomainError):
            parse_cf(bad)

    def test_text_forms_past_the_int_string_limit(self):
        big = 10**5000  # 5001 digits, over CPython's 4300
        cf = ContinuedFraction((big, 7, big + 1))
        assert str(cf) == "[1" + "0" * 5000 + "; 7, 1" + "0" * 4999 + "1]"
        assert parse_cf(str(cf)) == cf
        assert parse_cf(to_plain_string(cf)) == cf
        assert parse_cf("[0; 1" + "0" * 5000 + "]") == ContinuedFraction((0, big))
        assert fractional_digit_budget(cf) == 1 + 5001

    def test_long_part_must_be_plain_digits(self):
        # split in halves at the space, "1...1 2...2" would parse as one number
        with pytest.raises(DomainError, match="invalid continued fraction literal"):
            parse_cf("[0; " + "1" * 2500 + " " + "2" * 2500 + "]")
        with pytest.raises(DomainError, match="invalid continued fraction literal"):
            parse_cf("[+3; 1_0]")  # short parts pass the same digit rule

    @given(term_lists)
    def test_parse_formats_round_trip(self, terms):
        cf = ContinuedFraction(terms)
        assert parse_cf(str(cf)).terms == cf.terms
        assert parse_cf(to_plain_string(cf)).terms == cf.terms
