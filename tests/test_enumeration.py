import itertools
import math
import os
import re
import resource
import subprocess
import sys
import warnings
from fractions import Fraction
from functools import partial
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from diagcf import enumeration
from diagcf import (
    PI_PARTIAL_QUOTIENTS,
    DomainError,
    RangeError,
    Stream,
    calkin_wilf,
    convergents,
    digit_at,
    digits_of,
    expand,
    irrational_enumeration,
    metallic,
    named_cf_stream,
    to_rational,
)


class TestCalkinWilf:
    def test_first_values(self):
        assert calkin_wilf().take(5) == [
            Fraction(1, 1),
            Fraction(1, 2),
            Fraction(2, 1),
            Fraction(1, 3),
            Fraction(3, 2),
        ]

    def test_position_counter(self):
        e = calkin_wilf()
        e.take(7)
        assert e.position == 7

    def test_contains_six_sevenths(self):
        for i, x in enumerate(itertools.islice(calkin_wilf(), 1000), start=1):
            if x == Fraction(6, 7):
                assert i <= 128
                break
        else:
            pytest.fail("6/7 not found in the first 1000 values")

    def test_distinct_and_reduced(self):
        values = calkin_wilf().take(10000)
        assert len(set(values)) == 10000
        for x in values:
            assert x > 0
            assert math.gcd(x.numerator, x.denominator) == 1

    def test_small_fractions_appear_early(self):
        seen = set(calkin_wilf().take(2**12))
        for total in range(2, 13):
            for p in range(1, total):
                q = total - p
                if math.gcd(p, q) == 1:
                    assert Fraction(p, q) in seen


class TestDigitsOf:
    def test_examples(self):
        assert digits_of(Fraction(1, 6)).take(5) == [1, 6, 6, 6, 6]
        assert digits_of(Fraction(5)).take(4) == [0, 0, 0, 0]
        # 169/550 = 0.30(72); the value whose digits run 2,3,4,5,4,5 is 129/550
        assert digits_of(Fraction(169, 550)).take(6) == [3, 0, 7, 2, 7, 2]
        assert digits_of(Fraction(129, 550)).take(6) == [2, 3, 4, 5, 4, 5]

    def test_integer_part(self):
        s = digits_of(Fraction(22, 7))
        assert s.integer_part == 3
        assert s.take(6) == [1, 4, 2, 8, 5, 7]

    def test_matches_digit_at_and_expansion(self):
        import random

        rng = random.Random(53)
        for _ in range(200):
            x = Fraction(rng.randint(0, 500), rng.randint(1, 500))
            stream = digits_of(x)
            prefix = stream.take(200)
            assert prefix == [digit_at(x, j) for j in range(1, 201)]
            e = expand(x)
            unrolled = e.preperiod
            while len(unrolled) < 200:
                unrolled += e.period
            assert prefix == [int(c) for c in unrolled[:200]]

    def test_negative_rejected(self):
        with pytest.raises(DomainError):
            digits_of(Fraction(-1, 2))

    def test_stream_invariant_enforced(self):
        s = Stream(iter([3, 12]), "decimal")
        assert next(s) == 3
        with pytest.raises(DomainError, match="digit out of range"):
            next(s)

    @given(
        st.fractions(min_value=0, max_denominator=10**6).filter(lambda x: x < 10**6),
        st.integers(min_value=1, max_value=2000),
    )
    def test_entry_matches_walk_and_digit_at(self, x, k):
        s = digits_of(x)
        assert s.entry(k) == digit_at(x, k)
        assert s.position == 0  # random access leaves the walk alone
        assert s.entry(k) == s.take(k)[-1]

    def test_entry_checks(self):
        with pytest.raises(DomainError, match="entry index must be >= 1"):
            digits_of(Fraction(1, 3)).entry(0)
        with pytest.raises(DomainError, match="digit out of range: 12"):
            Stream(iter([]), "decimal", at=lambda k: 12).entry(1)
        assert not hasattr(Stream(itertools.repeat(5), "decimal"), "entry")


def long_division(x):
    """The fractional digits of x, one step per digit: the reference walk."""
    rem, den = x.numerator % x.denominator, x.denominator
    while True:
        rem *= 10
        yield rem // den
        rem %= den


# digits_of divides out blocks of 16, 32, ..., 1024 digits; a run ending at,
# before or after one of these totals starts, ends or straddles a block
BLOCK_EDGES = tuple(itertools.accumulate([16, 32, 64, 128, 256, 512, 1024, 1024]))
# 2q + 1 with q = 10^30 + 271 prime, and 10 a primitive root: the period of
# 1/SAFE_PRIME has 2q digits, so a walk that finds the period first never ends
SAFE_PRIME = 2 * (10**30 + 271) + 1

walk_values = st.one_of(
    st.integers(0, 10**6).map(Fraction),
    st.builds(
        lambda m, a, b: Fraction(m, 2**a * 5**b),
        st.integers(0, 10**9), st.integers(0, 80), st.integers(0, 80),
    ),
    st.sampled_from(calkin_wilf().take(5000)),
    st.integers(0, 10**4000).map(lambda p: Fraction(p, 10**3999 + 7)),
)
# cut points for the runs: block edges, one either side of them, or anywhere
cut_points = st.lists(
    st.one_of(
        st.sampled_from(BLOCK_EDGES).flatmap(lambda e: st.sampled_from([e - 1, e, e + 1])),
        st.integers(0, 5000),
    ),
    max_size=10,
).map(sorted)


class TestBlockWalk:
    """digits_of long-divides a block at a time; the digits are those of the
    per-digit walk, however the runs fall against the blocks."""

    def check_runs(self, x, cuts):
        stream, reference = digits_of(x), long_division(x)
        for start, stop in zip([0] + cuts, cuts):
            run = stream.take(stop - start)
            assert run == list(itertools.islice(reference, stop - start))
            assert all(type(d) is int for d in run)
        assert stream.position == (cuts[-1] if cuts else 0)

    @settings(deadline=None)
    @given(walk_values, cut_points)
    def test_runs_match_the_per_digit_walk(self, x, cuts):
        self.check_runs(x, cuts)

    @pytest.mark.parametrize("shift", [-1, 0, 1])
    @pytest.mark.parametrize(
        "x",
        [
            Fraction(7), Fraction(3, 2**7 * 5**40), Fraction(1, 7), Fraction(22, 7),
            Fraction(123456789, 10**3999 + 7),
        ],
        ids=["integer", "terminating", "1/7", "22/7", "4000-digit denominator"],
    )
    def test_runs_ending_at_every_block_edge(self, x, shift):
        self.check_runs(x, [e + shift for e in BLOCK_EDGES])

    def test_division_work_stays_within_twice_the_run(self, monkeypatch):
        # for 1/3 every remainder is 1, so each block divides 10**n by 3
        divided = []

        def spy(a, b):
            divided.append(len(str(a)) - 1)
            return divmod(a, b)

        monkeypatch.setattr(enumeration, "divmod", spy, raising=False)
        for k in range(0, 5000, 7):
            divided.clear()
            assert digits_of(Fraction(1, 3)).take(k) == [3] * k
            assert sum(divided) <= 2 * k + 16

    def test_first_digits_of_a_long_period_come_at_once(self):
        assert pow(10, SAFE_PRIME // 2, SAFE_PRIME) == SAFE_PRIME - 1  # 10 is a non-residue
        code = (
            "import time; from fractions import Fraction; from diagcf import digits_of\n"
            "for den in (10**4000 + 1, %d):\n"
            "    t = time.perf_counter(); run = digits_of(Fraction(1, den)).take(5)\n"
            "    print(run, time.perf_counter() - t < 1)\n" % SAFE_PRIME
        )
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))

        def cap_memory():  # a walk that runs ahead fails fast instead of filling memory
            resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

        done = subprocess.run(
            [sys.executable, "-c", code], env=env, preexec_fn=cap_memory,
            capture_output=True, text=True, timeout=20,
        )
        assert (done.returncode, done.stderr) == (0, "")
        assert done.stdout == "[0, 0, 0, 0, 0] True\n[0, 0, 0, 0, 0] True\n"


class TestNamedStreams:
    def test_sqrt2(self):
        assert named_cf_stream("sqrt2").take(5) == [1, 2, 2, 2, 2]

    def test_e_pattern(self):
        assert named_cf_stream("e").take(13) == [2, 1, 2, 1, 1, 4, 1, 1, 6, 1, 1, 8, 1]

    def test_phi_and_metallic(self):
        assert named_cf_stream("phi").take(5) == [1, 1, 1, 1, 1]
        assert named_cf_stream("metallic:3").take(4) == [3, 3, 3, 3]
        assert metallic(2).take(3) == [2, 2, 2]

    def test_pi_table(self):
        assert len(PI_PARTIAL_QUOTIENTS) >= 40
        assert named_cf_stream("pi").take(4) == [3, 7, 15, 1]
        assert PI_PARTIAL_QUOTIENTS[4] == 292

    def test_pi_beyond_table(self):
        s = named_cf_stream("pi")
        s.take(len(PI_PARTIAL_QUOTIENTS))
        with pytest.raises(RangeError, match="fixed table"):
            next(s)
        with pytest.raises(RangeError, match="fixed table"):
            named_cf_stream("pi").entry(48)

    @pytest.mark.parametrize(
        "name", ["sqrt2", "phi", "e", "pi", "metallic:1", "metallic:7", "metallic:500"]
    )
    def test_entry_matches_walk(self, name):
        length = len(PI_PARTIAL_QUOTIENTS) if name == "pi" else 501
        walked = named_cf_stream(name).take(length)
        s = named_cf_stream(name)
        assert [s.entry(k) for k in range(length)] == walked
        assert s.position == 0

    def test_entry_checks(self):
        with pytest.raises(DomainError, match="entry index must be >= 0"):
            named_cf_stream("e").entry(-1)
        with pytest.raises(DomainError, match="first partial quotient"):
            Stream(iter([]), "cf", at=lambda k: -1).entry(0)
        with pytest.raises(DomainError, match="at index 3 must be >= 1"):
            Stream(iter([]), "cf", at=lambda k: 0).entry(3)
        assert not hasattr(Stream(itertools.repeat(2), "cf"), "entry")

    def test_fresh_stream_per_call(self):
        a = named_cf_stream("sqrt2")
        b = named_cf_stream("sqrt2")
        a.take(3)
        assert b.position == 0
        assert b.take(1) == [1]

    def test_unknown_names(self):
        with pytest.raises(DomainError, match="unknown stream name"):
            named_cf_stream("tau")
        with pytest.raises(DomainError):
            named_cf_stream("metallic:x")
        with pytest.raises(DomainError):
            named_cf_stream("metallic:0")
        with pytest.raises(DomainError):
            metallic(0)

    def test_metallic_past_the_int_string_limit(self):
        s = metallic(10**5000)
        assert s.description == "metallic:1" + "0" * 5000
        assert s.entry(3) == 10**5000

    def test_stream_invariants_enforced(self):
        s = Stream(iter([-1]), "cf")
        with pytest.raises(DomainError):
            next(s)
        s = Stream(iter([1, 0]), "cf")
        next(s)
        with pytest.raises(DomainError):
            next(s)

    def test_sqrt2_squared_error_shrinks(self):
        errors = []
        for n in range(1, 13):
            v = to_rational(named_cf_stream("sqrt2").take(n))
            errors.append(abs(v * v - 2))
        for a, b in zip(errors, errors[1:]):
            assert b < a

    def test_e_convergent_near_known_decimal(self):
        v = convergents(named_cf_stream("e"), 12)[-1].value
        assert abs(v - Fraction(2718281828459, 10**12)) <= Fraction(1, 10**6)


class TestIrrationalEnumeration:
    def test_metallic_family(self):
        streams = irrational_enumeration(3)
        assert [s.take(2) for s in streams] == [[1, 1], [2, 2], [3, 3]]

    def test_distinct_at_first_index(self):
        firsts = [s.take(1)[0] for s in irrational_enumeration(10)]
        assert len(set(firsts)) == 10

    def test_invariants_hold_deep(self):
        for s in irrational_enumeration(5):
            values = s.take(100)
            assert values[0] >= 0
            assert all(a >= 1 for a in values[1:])

    def test_count_validation(self):
        with pytest.raises(DomainError):
            irrational_enumeration(0)


# fresh-row factories: every kind, with and without `entry`
row_makers = st.one_of(
    st.just(calkin_wilf),
    st.fractions(min_value=0, max_denominator=10**6)
    .filter(lambda x: x < 10**6)
    .map(lambda x: partial(digits_of, x)),
    st.sampled_from(["sqrt2", "e", "phi", "pi", "metallic:7"]).map(
        lambda name: partial(named_cf_stream, name)
    ),
)


class TestStream:
    # 24 + 24 stays inside pi's 48-entry table
    @given(row_makers, st.integers(0, 24), st.integers(0, 24))
    def test_take_is_next_repeated_and_entry(self, make, skip, n):
        taken, stepped = make(), make()
        taken.take(skip)
        for _ in range(skip):
            next(stepped)
        run = taken.take(n)
        assert run == [next(stepped) for _ in range(n)]
        assert taken.position == stepped.position == skip + n
        if hasattr(taken, "entry"):
            first = taken.first_index + skip
            assert run == [taken.entry(k) for k in range(first, first + n)]

    def test_take_past_the_end_returns_what_is_left(self):
        s = Stream(iter([1, 2, 3]), "cf")
        assert s.take(5) == [1, 2, 3]
        assert s.position == 3
        assert s.take(2) == []
        with pytest.raises(StopIteration):
            next(s)

    def test_failed_run_is_not_handed_out(self):
        s = Stream(iter([3, 4, 12, 5]), "decimal")
        with pytest.raises(DomainError, match="digit out of range: 12"):
            s.take(4)
        assert s.position == 0

    def test_unknown_kind(self):
        with pytest.raises(DomainError, match="unknown kind"):
            Stream(iter([]), "binary")

    @pytest.mark.parametrize(
        "items, bad",
        [
            ([1.0], "1.0"), ([2, 3, 2.5], "2.5"),
            ([1, Fraction(3)], "Fraction(3, 1)"), ([1, "2"], "'2'"),
        ],
    )
    def test_non_integer_quotients_rejected(self, items, bad):
        # floats used to pass the >= 1 comparisons, and take(1) handed out 1.0
        message = f"^partial quotient must be an integer, got {re.escape(bad)}$"
        s = Stream(iter(items), "cf")
        with pytest.raises(DomainError, match=message):
            s.take(len(items))
        assert s.position == 0
        with pytest.raises(DomainError, match=message):
            Stream(iter([]), "cf", at=lambda k: items[-1]).entry(1)

    @pytest.mark.parametrize(
        "items, bad", [([3, 2.5], "2.5"), ([3.0], "3.0"), ([1, "2"], "'2'")]
    )
    def test_non_integer_digits_rejected(self, items, bad):
        # floats used to pass the 0..9 comparisons
        message = f"^digit must be an integer, got {re.escape(bad)}$"
        s = Stream(iter(items), "decimal")
        with pytest.raises(DomainError, match=message):
            s.take(len(items))
        assert s.position == 0
        with pytest.raises(DomainError, match=message):
            Stream(iter([]), "decimal", at=lambda k: items[-1]).entry(1)

    def test_next_on_a_bad_item(self):
        # next() checks the item it pulls; a refused item does not advance
        s = Stream(iter([3, 12, 4]), "decimal")
        assert next(s) == 3
        with pytest.raises(DomainError, match="^digit out of range: 12$"):
            next(s)
        assert s.position == 1
        s = Stream(iter([0, 1, 0]), "cf")
        assert [next(s), next(s)] == [0, 1]
        with pytest.raises(DomainError, match="^partial quotient at index 2 must be >= 1, got 0$"):
            next(s)
        assert s.position == 2
        with pytest.raises(DomainError, match=r"^partial quotient must be an integer, got 1\.5$"):
            next(Stream(iter([1.5]), "cf"))

    def test_descriptions_and_reprs(self):
        sevenths, third = digits_of(Fraction(1, 7)), metallic(3)
        assert sevenths.description == "digits of 1/7"
        assert repr(sevenths) == "Stream('decimal', 'digits of 1/7', position=0)"
        assert third.description == "metallic:3"
        assert repr(third) == "Stream('cf', 'metallic:3', position=0)"
        sevenths.take(3)
        assert repr(sevenths) == "Stream('decimal', 'digits of 1/7', position=3)"
        assert not hasattr(sevenths, "__dict__")  # slotted

    def test_numpy_digits_refused(self):
        # bytes() takes numpy ints as they are int-likes; the sum test refuses them
        numpy = pytest.importorskip("numpy")
        message = r"^digit must be an integer, got np\.int64\(3\)$"
        s = Stream([numpy.int64(3)], "decimal")
        with pytest.raises(DomainError, match=message):
            s.take(1)
        assert s.position == 0
        s = Stream([1, numpy.int64(3)], "decimal")
        assert next(s) == 1
        with pytest.raises(DomainError, match=message):
            next(s)
        with pytest.raises(DomainError, match=message):
            Stream(iter([]), "decimal", at=lambda k: numpy.int64(3)).entry(1)

    def test_numpy_quotients_that_overflow_the_sum_refused(self):
        # the sum of two int64 2**62 overflows; under -W error numpy raises
        # its RuntimeWarning, which must not escape in place of the DomainError
        numpy = pytest.importorskip("numpy")
        message = r"^partial quotient must be an integer, got np\.int64\(4611686018427387904\)$"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            s = Stream([numpy.int64(2**62)] * 2, "cf")
            with pytest.raises(DomainError, match=message):
                s.take(2)
            assert s.position == 0
        with pytest.warns(RuntimeWarning, match="overflow"):  # the default filters
            with pytest.raises(DomainError, match=message):
                Stream([numpy.int64(2**62)] * 2, "cf").take(2)
        # a Python int too large for the numpy type raises OverflowError in the sum
        for run in ([numpy.int64(1), 2**70], [2**70, numpy.int64(1)], [numpy.uint64(1), -1]):
            with pytest.raises(DomainError, match=r"^partial quotient must be an integer, got np\."):
                Stream(run, "cf").take(2)


try:
    import numpy
except ImportError:  # the runs below then mix no numpy ints
    numpy = None


def reference_digit_error(run):
    # the digit rule item by item: the first item that is not an int in 0..9
    for d in run:
        if not isinstance(d, int):
            return f"digit must be an integer, got {d!r}"
        if not 0 <= d <= 9:
            return f"digit out of range: {d}"
    return None


def reference_quotient_error(index, run):
    # the quotient rule item by item: every item an int, then a_0 >= 0 and
    # a_k >= 1 after it, where run[0] is a_index
    for a in run:
        if not isinstance(a, int):
            return f"partial quotient must be an integer, got {a!r}"
    for k, a in enumerate(run, index):
        if k == 0 and a < 0:
            return f"first partial quotient must be >= 0, got {a}"
        if k > 0 and a < 1:
            return f"partial quotient at index {k} must be >= 1, got {a}"
    return None


def check_error(check, index, run):
    try:
        check(index, run)
    except DomainError as exc:
        return str(exc)
    return None


# items the checks must tell apart: ints in and out of range, bools, floats,
# Fractions, strings and numpy ints
odd_items = st.one_of(
    st.integers(-3, 300), st.booleans(), st.floats(allow_nan=True),
    st.fractions(max_denominator=5), st.text(max_size=2),
    *([st.integers(-3, 300).map(numpy.int64)] if numpy is not None else []),
)
# mostly good runs, so that a refusal rests on one item among many
mixed_runs = st.one_of(
    st.lists(st.integers(0, 9), max_size=40),
    st.lists(st.integers(0, 9) | odd_items, max_size=40),
    st.tuples(st.lists(st.integers(0, 9), max_size=40), odd_items, st.integers(0, 40)).map(
        lambda t: t[0][:t[2]] + [t[1]] + t[0][t[2]:]
    ),
)
quotient_runs = st.one_of(
    st.lists(st.integers(0, 300), max_size=40),
    mixed_runs,
)


# The one-pass run checks accept and refuse what the item-by-item rules do,
# with the same message, at index 0 and past it.
@settings(max_examples=500)
@given(st.sampled_from([0, 1, 2, 77]), mixed_runs)
def test_digit_check_matches_the_item_rule(index, run):
    assert check_error(enumeration._check_digits, index, run) == reference_digit_error(run)


@settings(max_examples=500)
@given(st.sampled_from([0, 1, 2, 77]), quotient_runs)
def test_quotient_check_matches_the_item_rule(index, run):
    assert (
        check_error(enumeration._check_quotients, index, run)
        == reference_quotient_error(index, run)
    )


def test_digit_property_fails_on_a_short_delete_table(monkeypatch):
    # with 9 left out of the table a run holding a 9 fails the fast pass,
    # and the item scan then finds nothing to report
    monkeypatch.setattr(enumeration, "_DIGITS", bytes(range(9)))
    with pytest.raises(StopIteration):
        test_digit_check_matches_the_item_rule()
