import collections
import gc
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

from diagcf import continued_fraction, decimal_expansion, enumeration
from diagcf import (
    PI_PARTIAL_QUOTIENTS,
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
    irrational_enumeration,
    metallic,
    named_cf_stream,
    period_length_by_order,
    to_rational,
    verify_differs,
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

    def test_values_of_the_fraction_built_generator(self):
        # the successor as Fraction(q, 2*(p//q)*q + q - p) built it, with a gcd per value
        def old_calkin_wilf():
            x = Fraction(1, 1)
            while True:
                yield x
                p, q = x.numerator, x.denominator
                x = Fraction(q, 2 * (p // q) * q + q - p)

        values = calkin_wilf().take(10000)
        assert values == list(itertools.islice(old_calkin_wilf(), 10000))
        assert {type(x) for x in values} == {Fraction}
        assert {(type(x.numerator), type(x.denominator)) for x in values} == {(int, int)}
        assert [hash(x) for x in values] == [hash(Fraction(*x.as_integer_ratio())) for x in values]

    def test_values_take_no_gcd(self):
        # each successor of a reduced p/q is reduced, so no value takes a gcd: no
        # math.gcd call and no Fraction.__new__, whose normalizing step takes one
        called = set()

        def profile(frame, event, arg):
            if event == "call":
                called.add(frame.f_code)
            elif event == "c_call":
                called.add(arg)

        rows = calkin_wilf()
        sys.setprofile(profile)
        try:
            values = rows.take(2000)
        finally:
            sys.setprofile(None)
        assert math.gcd not in called
        assert Fraction.__new__.__code__ not in called
        assert len(values) == 2000 and values[-1] == Fraction(11, 50)  # Stern: s(2000)/s(2001)

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
        # the row holds the fractional digits only: 22/7 and 1/7 share them
        s = digits_of(Fraction(22, 7))
        assert s.take(6) == [1, 4, 2, 8, 5, 7] == digits_of(Fraction(1, 7)).take(6)

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
        with pytest.raises(DomainError, match="^digit out of range: 12$"):
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
        assert not hasattr(Stream(itertools.repeat(5), "decimal"), "entry")



class Tenfold(Fraction):
    """A Fraction subclass whose numerator says ten times what its slot holds."""

    numerator = property(lambda self: 10 * self._numerator)


class TestExactFractionSlots:
    """Only an exact Fraction's parts are read from its slots; a subclass, a
    negative value and numpy parts take the checked route, as they always did."""

    def test_a_subclass_is_read_through_its_properties(self):
        x, plain = Tenfold(1, 7), Fraction(10, 7)
        assert x._numerator == 1 and x.numerator == 10
        for j in (1, 2, 6, 300):
            assert digit_at(x, j) == digit_at(plain, j)
        assert digits_of(x).take(8) == digits_of(plain).take(8) == [4, 2, 8, 5, 7, 1, 4, 2]
        assert digits_of(x).entry(9) == digit_at(plain, 9) == 8
        assert digits_of(x)._skip(300) == digits_of(plain)._skip(300)
        assert decimal_diagonal([digits_of(x)], 1).digits == (5,)

    def test_a_subclass_is_refused_by_its_properties(self):
        class Negative(Fraction):
            numerator = property(lambda self: -self._numerator)

        class Half(Fraction):
            denominator = property(lambda self: 0)

        for read in (partial(digit_at, j=3), digits_of):
            with pytest.raises(DomainError, match="^negative input$"):
                read(Negative(1, 7))
            with pytest.raises(DomainError, match="^denominator must be >= 1, got 0$"):
                read(Half(1, 7))

    def test_a_negative_fraction_is_refused(self):
        for x in (Fraction(-1, 7), Fraction(-3), Tenfold(-1, 7)):
            for read in (partial(digit_at, j=3), digits_of):
                with pytest.raises(DomainError, match="^negative input$"):
                    read(x)

    def test_numpy_parts(self):
        # digit_at takes numpy parts through the check, which makes them ints;
        # a row refuses them when built, as int64 would overflow in its division
        numpy = pytest.importorskip("numpy")
        x = Fraction(numpy.int64(1), 7)
        assert type(x._numerator) is numpy.int64
        assert digit_at(x, 3) == digit_at(Fraction(1, 7), 3) == 2
        assert type(digit_at(x, 3)) is int
        with pytest.raises(DomainError, match="^x must be an int over an int, got int64/int$"):
            digits_of(x)
        for read in (partial(digit_at, j=3), digits_of):
            with pytest.raises(DomainError, match="^negative input$"):
                read(Fraction(numpy.int64(-1), 7))

def long_division(x):
    """The fractional digits of x, one step per digit: the reference walk."""
    rem, den = x.numerator % x.denominator, x.denominator
    while True:
        rem *= 10
        yield rem // den
        rem %= den


# digits_of divides out blocks of 256 digits; a run ending at, before or
# after a multiple of 256 starts, ends or straddles a block
BLOCK_EDGES = tuple(range(256, 3073, 256))
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

    def test_division_work_is_exactly_the_digits_asked_for(self, monkeypatch):
        # a division that makes k digits divides rem * 10**k, where rem is the remainder the
        # division before it left; expand's first division makes its whole part, no digit
        divided, left = [], [None]

        def spy(a, b):
            whole, rem = divmod(a, b)
            if left[0] is not None:
                divided.append(len(str(a // left[0])) - 1)
            left[0] = rem
            return whole, rem

        monkeypatch.setattr(decimal_expansion, "divmod", spy, raising=False)
        for k in range(0, 5000, 7):
            divided.clear()
            left[0] = 1  # 1/3 leaves 1 every time
            assert digits_of(Fraction(1, 3)).take(k) == [3] * k
            assert sum(divided) == k
        for x in (Fraction(1, 7), Fraction(22, 7), Fraction(1, 2**300 * 7), Fraction(1, 10007)):
            divided.clear()
            left[0] = None
            lam, mu, _ = period_length_by_order(x)
            assert len(expand(x).period) == lam
            assert sum(divided) == mu + lam

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


# walk steps: take(n) with n from -2 to 700, across the 256-digit block
# edges, next(), or entry(k) at k = max(i, the first index)
walk_steps = st.lists(
    st.one_of(
        st.tuples(
            st.just("take"),
            st.integers(-2, 700) | st.sampled_from((-2, 0, 1, 255, 256, 257, 511, 512, 513)),
        ),
        st.tuples(st.just("next"), st.none()),
        st.tuples(st.just("entry"), st.integers(0, 2000)),
    ),
    max_size=12,
)
package_rows = st.one_of(
    walk_values.map(lambda x: (digits_of, x, long_division)),
    st.integers(1, 10**30).map(lambda k: (metallic, k, itertools.repeat)),
)


class TestRunPath:
    """The package's rows make and check their runs in place; any mix of
    take, next and entry reads what the reference walk does."""

    @settings(deadline=None)
    @given(package_rows, walk_steps)
    def test_any_mix_of_steps_reads_the_reference_walk(self, row, steps):
        make, value, walk = row
        stream, reference = make(value), walk(value)
        seen = []  # the reference walk's items so far

        def item(i):
            seen.extend(itertools.islice(reference, max(i + 1 - len(seen), 0)))
            return seen[i]

        position = 0
        for step, n in steps:
            if step == "take":
                run = stream.take(n)
                expected = [item(i) for i in range(position, position + max(n, 0))]
                position += max(n, 0)
            elif step == "next":
                run = [next(stream)]
                expected = [item(position)]
                position += 1
            else:
                k = max(n, stream.first_index)
                run = [stream.entry(k)]
                expected = [item(k - stream.first_index)]
            assert run == expected
            assert all(type(a) is int for a in run)
            assert stream.position == position


    @settings(deadline=None)
    @given(package_rows, st.lists(
        st.tuples(st.sampled_from(["take", "_skip", "next", "entry"]),
                  st.sampled_from((1, 255, 256, 257, 513)) | st.integers(0, 700)),
        max_size=10,
    ))
    def test_rows_keep_the_state_of_a_bare_stream(self, row, steps):
        # a package row, made by writing its slots, shows what a bare Stream over the
        # reference walk shows: the same position, repr, runs and walked items, while
        # its `entry(k)` is digit_at or k and moves nothing
        make, value, walk = row
        stream = make(value)
        reference = Stream(walk(value), "cf" if make is metallic else "decimal")
        for step, n in steps:
            if step == "entry":
                k = max(n, stream.first_index)
                assert stream.entry(k) == (value if make is metallic else digit_at(value, k))
            elif step == "next":
                assert next(stream) == next(reference)
            elif step == "_skip" and n >= 1:
                assert stream._skip(n) == reference._skip(n)
            elif step == "take":
                assert stream.take(n) == reference.take(n)
            assert stream.position == reference.position
            assert repr(stream) == repr(reference)

class TestSkip:
    """`_skip(n)`, the verify walk's step, hands out `take(n)[-1]` and leaves
    the row where `take(n)` leaves it: same position, same remainder, same
    items after."""

    @staticmethod
    def check(make, n, m):
        walked, taken = make(), make()
        assert walked._skip(n) == taken.take(n)[-1]
        assert walked.position == taken.position == n
        assert getattr(walked, "_rem", None) == getattr(taken, "_rem", None)
        assert walked.take(m) == taken.take(m)

    @settings(deadline=None)
    @given(
        walk_values,
        st.sampled_from((1, 255, 256, 257, 513)) | st.integers(1, 3000),
        st.integers(0, 600),
    )
    def test_digit_rows(self, x, n, m):
        self.check(partial(digits_of, x), n, m)

    @given(st.integers(1, 10**30), st.integers(1, 10**4), st.integers(0, 50))
    def test_metallic_rows(self, k, n, m):
        self.check(partial(metallic, k), n, m)

    @given(st.sampled_from(["sqrt2", "e", "phi", "pi"]), st.integers(1, 48), st.integers(0, 48))
    def test_named_rows(self, name, n, m):
        if name == "pi":  # its table holds entries 0..47
            m = min(m, 48 - n)
        self.check(partial(named_cf_stream, name), n, m)

    @pytest.mark.parametrize("n", [49, 50, 1000])
    def test_pi_past_its_table(self, n):
        walked, taken = named_cf_stream("pi"), named_cf_stream("pi")
        with pytest.raises(RangeError, match="fixed table") as by_walk:
            walked._skip(n)
        with pytest.raises(RangeError, match="fixed table") as by_take:
            taken.take(n)
        assert str(by_walk.value) == str(by_take.value)
        assert walked.position == taken.position == 0
        assert walked._skip(48) == PI_PARTIAL_QUOTIENTS[47]

    def test_bare_stream_walks_one_checked_run(self):
        # verify_differs refuses such rows too: see test_planted_bad_item_in_a_walked_row
        assert Stream(iter([3, 4, 5, 6]), "decimal")._skip(3) == 5
        bad = Stream(iter([3, 12, 5]), "decimal")
        with pytest.raises(DomainError, match="^digit out of range: 12$"):
            bad._skip(3)
        assert bad.position == 0
        short = Stream(iter([1, 2]), "cf")
        with pytest.raises(InputError, match="^row exhausted after 2 entries; position 3 needed$"):
            short._skip(4)
        assert short.position == 2  # past the end, the walk moved to the end of the short run


class TestPackageRowContract:
    """`digits_of` and `metallic` rows are Streams checked once when built;
    their runs and `entry` hand out items with no second check."""

    def test_good_rows_never_reach_a_check(self, monkeypatch):
        decimal = decimal_diagonal(map(digits_of, calkin_wilf()), 300)
        cf = cf_diagonal(irrational_enumeration(300), 300)

        def fail(index, run):
            raise AssertionError("a package row checked its items again")

        monkeypatch.setattr(enumeration, "_check_digits", fail)
        monkeypatch.setattr(enumeration, "_check_quotients", fail)
        monkeypatch.setitem(enumeration.KINDS, "decimal", (1, fail))
        monkeypatch.setitem(enumeration.KINDS, "cf", (0, fail))
        sevenths, third = digits_of(Fraction(1, 7)), metallic(3)
        assert sevenths.entry(300) == 7 and third.entry(300) == 3
        assert next(sevenths) == 1 and next(third) == 3
        assert sevenths.take(600)[:5] == [4, 2, 8, 5, 7] and third.take(600) == [3] * 600
        assert (sevenths.position, third.position) == (601, 601)
        assert decimal_diagonal(map(digits_of, calkin_wilf()), 300) == decimal
        assert cf_diagonal(irrational_enumeration(300), 300) == cf

    @settings(deadline=None)
    @given(walk_values, st.integers(1, 3000))
    def test_digit_entry_is_digit_at_and_the_walk(self, x, k):
        got = digits_of(x).entry(k)
        assert type(got) is int
        assert got == digit_at(x, k) == next(itertools.islice(long_division(x), k - 1, None))

    @given(st.integers(1, 10**30), st.integers(0, 10**6))
    def test_metallic_entry_is_k(self, k, j):
        got = metallic(k).entry(j)
        assert type(got) is int and got == k

    @pytest.mark.parametrize("numpy_parts", ["numerator", "denominator", "both"])
    def test_numpy_parts_refused_when_built(self, numpy_parts):
        # entry used to raise TypeError from pow, and take OverflowError
        numpy = pytest.importorskip("numpy")
        p, q = 1, 7
        if numpy_parts != "denominator":
            p = numpy.int64(p)
        if numpy_parts != "numerator":
            q = numpy.int64(q)
        x = Fraction(p, q)
        names = tuple(type(v).__name__ for v in (x.numerator, x.denominator))
        assert "int64" in names
        message = rf"^x must be an int over an int, got {names[0]}/{names[1]}$"
        for read in (lambda row: row.entry(3), lambda row: row.take(3)):
            with pytest.raises(DomainError, match=message):
                read(digits_of(x))
        with pytest.raises(DomainError, match=message):
            decimal_diagonal(map(digits_of, [x]), 1)
        with pytest.raises(DomainError, match="^negative input$"):  # the sign is checked first
            digits_of(Fraction(-p, q))

    def test_bool_and_int_values(self):
        assert digits_of(True).take(3) == [0, 0, 0] and digits_of(True).entry(5) == 0
        assert digits_of(7).entry(2) == 0 and type(digits_of(7).entry(2)) is int
        assert decimal_diagonal(map(digits_of, [True, 3, 0]), 3).digits == (5, 5, 5)

    def test_rows_allocate_at_most_two_gc_objects_each(self):
        # a row is one slotted object: no closures, cells or iterators
        values, ks = [Fraction(p, 7) for p in range(1000)], list(range(1, 1001))
        gc.collect()
        gc.disable()
        try:
            before = len(gc.get_objects())
            rows = [digits_of(x) for x in values] + [metallic(k) for k in ks]
            grown = len(gc.get_objects()) - before
        finally:
            gc.enable()
        assert len(rows) == 2000
        assert grown <= 2 * len(rows)

    @staticmethod
    def calls_under(method, *args, events=("call", "c_call")):
        # the functions called while method(*args) runs, itself first: Python frames
        # entered ("call", a generator at each resumption too) and C functions ("c_call")
        calls = []

        def profile(frame, event, arg):
            if event in events and arg is not sys.setprofile:
                calls.append(frame.f_code.co_name if event == "call" else arg.__name__)

        sys.setprofile(profile)
        try:
            value = method(*args)
        finally:
            sys.setprofile(None)
        return value, calls

    def test_metallic_reads_make_no_call(self):
        # one row class serves metallic and named rows: its int k is read with no
        # call beneath the read, while a named row calls its closed form
        third = metallic(3)
        assert self.calls_under(third.entry, 10**6) == (3, ["entry"])
        assert self.calls_under(third._skip, 500) == (3, ["_skip"])
        assert self.calls_under(third.__next__) == (3, ["_skip"])
        assert third.position == 501
        e = named_cf_stream("e")
        assert self.calls_under(e.entry, 5) == (4, ["entry", "_e_quotient"])
        assert self.calls_under(e._skip, 6) == (4, ["_skip", "_e_quotient"])
        assert type(third) is type(e) is type(named_cf_stream("phi"))


    def test_rows_are_made_in_one_frame(self):
        # a row is made by writing its slots, with no __init__, and an exact Fraction's
        # parts are read from its slots with no as_integer_ratio: one frame per row. An
        # int or bool goes through the rational check, a bool k through the quotient rule
        for x in (Fraction(1, 7), Fraction(22, 7), Fraction(0), 5, 0, True, False):
            row, frames = self.calls_under(digits_of, x, events=("call",))
            assert frames == ["digits_of"] + ["_check_rational"] * (type(x) is not Fraction)
            assert row.take(3) == [digit_at(x, j) for j in (1, 2, 3)]
            assert (row.entry(5), row.position) == (digit_at(x, 5), 3)
        for k in (1, 3, 10**30, True):
            row, frames = self.calls_under(metallic, k, events=("call",))
            assert frames == ["metallic"] + ["_check_quotients"] * (type(k) is not int)
            assert (row.entry(7), row.take(2), row.position) == (k, [k, k], 2)
        for name in ("sqrt2", "e", "pi"):
            _, frames = self.calls_under(named_cf_stream, name, events=("call",))
            assert frames == ["named_cf_stream", "_check_text"]

    @staticmethod
    def frames_per_row(run, depth):
        # the Python frames run(depth) enters, and those that run(2 * depth) enters
        # beyond them: what each of the extra `depth` rows costs
        once = collections.Counter(TestPackageRowContract.calls_under(
            run, depth, events=("call",))[1])
        twice = collections.Counter(TestPackageRowContract.calls_under(
            run, 2 * depth, events=("call",))[1])
        extra = {name: twice[name] - once[name] for name in once | twice}
        return once, {name: n for name, n in extra.items() if n}

    @pytest.mark.parametrize("depth", [1, 40])
    def test_a_diagonal_position_enters_one_row_frame(self, depth):
        # per row, the diagonal enters the row's own method and resumes `_rows`, the
        # generator that checks the row and hands it over; nothing else. A digit row's
        # entry is digit_at, which reads the Fraction's slots
        values = calkin_wilf().take(2 * depth)
        cf = cf_diagonal(irrational_enumeration(2 * depth), 2 * depth)
        runs = {
            "decimal": lambda d: decimal_diagonal([digits_of(v) for v in values[:d]], d),
            "cf": lambda d: cf_diagonal(irrational_enumeration(d), d),
            "verify": lambda d: verify_differs(cf, irrational_enumeration(d), d),
        }
        per_row = {
            "decimal": {"entry": 1, "digit_at": 1, "_rows": 1, "digits_of": 1},
            "cf": {"entry": 1, "_rows": 1, "metallic": 1},
            "verify": {"_skip": 1, "_rows": 1, "metallic": 1},
        }
        for name, run in runs.items():
            once, extra = self.frames_per_row(run, depth)
            assert extra == {frame: n * depth for frame, n in per_row[name].items()}, name
            assert {frame: once[frame] for frame in per_row[name]} == {
                frame: n * depth + (frame == "_rows") for frame, n in per_row[name].items()
            }, name
            assert not {"__init__", "as_integer_ratio", "__new__"} & once.keys(), name

def e_quotients():
    """e = [2; 1, 2, 1, 1, 4, 1, 1, 6, ...] as a walk: the reference for e's closed form."""
    yield 2
    m = 1
    while True:
        yield 1
        yield 2 * m
        yield 1
        m += 1


class TestNamedStreams:
    def test_sqrt2(self):
        assert named_cf_stream("sqrt2").take(5) == [1, 2, 2, 2, 2]

    def test_e_pattern(self):
        assert named_cf_stream("e").take(13) == [2, 1, 2, 1, 1, 4, 1, 1, 6, 1, 1, 8, 1]

    def test_e_is_the_reference_walk(self):
        reference = list(itertools.islice(e_quotients(), 10**4))
        s = named_cf_stream("e")
        assert [s.entry(k) for k in range(10**4)] == reference
        assert s.take(7) + [next(s)] + s.take(10**4 - 8) == reference
        assert named_cf_stream("e").take(10**4) == reference

    def test_e_convergents(self):
        # OEIS A007676 / A007677
        assert [c.value for c in convergents(named_cf_stream("e"), 10)] == [
            Fraction(2), Fraction(3), Fraction(8, 3), Fraction(11, 4), Fraction(19, 7),
            Fraction(87, 32), Fraction(106, 39), Fraction(193, 71), Fraction(1264, 465),
            Fraction(1457, 536),
        ]

    def test_phi_and_metallic(self):
        assert named_cf_stream("phi").take(5) == [1, 1, 1, 1, 1]
        assert named_cf_stream("metallic:3").take(4) == [3, 3, 3, 3]
        assert metallic(2).take(3) == [2, 2, 2]
        one = metallic(True)  # True passes as the int 1, not as a closed form
        assert type(one.entry(0)) is int and one.entry(0) == 1
        assert one.take(3) == [1, 1, 1]

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

    @pytest.mark.parametrize(
        "k, message",
        [
            (1.5, "partial quotient must be an integer, got 1.5"),
            (Fraction(3), "partial quotient must be an integer, got Fraction(3, 1)"),
            (0, "metallic index must be >= 1"),
        ],
    )
    def test_metallic_refuses_a_bad_index_when_built(self, k, message):
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            metallic(k)

    @pytest.mark.parametrize(
        "name",
        ["metallic:+3", "metallic:1_0", "metallic: 3 ", "metallic:\N{ARABIC-INDIC DIGIT THREE}"],
    )
    def test_metallic_index_is_an_ascii_digit_run(self, name):
        with pytest.raises(DomainError, match="^invalid metallic index in "):
            named_cf_stream(name)

    def test_metallic_index_past_the_int_string_limit(self):
        ones = (10**5000 - 1) // 9
        assert named_cf_stream("metallic:" + "1" * 5000).entry(7) == ones

    def test_metallic_past_the_int_string_limit(self):
        s = metallic(10**5000)
        assert repr(s) == "Stream('cf', position=0)"
        assert s.entry(3) == 10**5000

    def test_stream_invariants_enforced(self):
        s = Stream(iter([-1]), "cf")
        with pytest.raises(DomainError, match="^first partial quotient must be >= 0, got -1$"):
            next(s)
        s = Stream(iter([1, 0]), "cf")
        next(s)
        with pytest.raises(DomainError, match="^partial quotient at index 1 must be >= 1, got 0$"):
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
        assert isinstance(sevenths, Stream) and isinstance(third, Stream)
        assert repr(sevenths) == "Stream('decimal', position=0)"
        assert repr(third) == "Stream('cf', position=0)"
        sevenths.take(3)
        assert repr(sevenths) == "Stream('decimal', position=3)"
        assert not hasattr(sevenths, "__dict__") and not hasattr(third, "__dict__")  # slotted
        for name in ("sqrt2", "e", "pi"):
            row = named_cf_stream(name)
            assert isinstance(row, Stream) and not hasattr(row, "__dict__")
            assert repr(row) == "Stream('cf', position=0)"
            row.take(2)
            assert repr(row) == "Stream('cf', position=2)"

    def test_random_access_is_a_rows_own_method(self):
        # Stream(items, kind) has no `at`: an outside row is walked
        with pytest.raises(TypeError):
            Stream(iter([]), "cf", at=lambda k: 1)

    def test_numpy_digits_refused(self):
        # numpy ints are int-likes, not ints: the digit rule refuses them
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

    def test_large_numpy_quotients_refused_without_a_warning(self):
        # two int64 2**62 would overflow if added; the check adds nothing, so numpy
        # warns of no overflow, under -W error or under any other filter
        numpy = pytest.importorskip("numpy")
        message = r"^partial quotient must be an integer, got np\.int64\(4611686018427387904\)$"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            s = Stream([numpy.int64(2**62)] * 2, "cf")
            with pytest.raises(DomainError, match=message):
                s.take(2)
            assert s.position == 0
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(DomainError, match=message):
                Stream([numpy.int64(2**62)] * 2, "cf").take(2)
        assert caught == []
        # runs mixing numpy ints with Python ints too large for the numpy type
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
            return f"first partial quotient must be >= 0, got {int(a)}"
        if k > 0 and a < 1:
            return f"partial quotient at index {k} must be >= 1, got {int(a)}"
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


# The run checks accept and refuse what the item-by-item rules above do, with
# the same message, at index 0 and past it; the references are kept apart from
# the library's checks so that a change to either shows here.
@settings(max_examples=500)
@given(st.sampled_from([0, 1, 2, 77]), mixed_runs)
def test_digit_check_matches_the_item_rule(index, run):
    assert check_error(enumeration._check_digits, index, run) == reference_digit_error(run)


@settings(max_examples=500)
@given(st.sampled_from([0, 1, 2, 77]), quotient_runs)
def test_quotient_check_matches_the_item_rule(index, run):
    assert (
        check_error(continued_fraction._check_quotients, index, run)
        == reference_quotient_error(index, run)
    )
