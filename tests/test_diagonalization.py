import copy
import itertools
import pickle
import sys
import weakref
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from diagcf import decimal_expansion, enumeration
from diagcf import (
    CFDiagonalFailure,
    CFDiagonalResult,
    DecimalDiagonalResult,
    DiagonalWitness,
    DomainError,
    InputError,
    PeriodRuling,
    RangeError,
    Stream,
    calkin_wilf,
    cf_diagonal,
    cf_diagonal_over_rationals,
    decimal_diagonal,
    digit_at,
    digits_of,
    format_witnesses,
    from_rational,
    irrational_enumeration,
    metallic,
    named_cf_stream,
    rational_diagonal_analysis,
    rule_out_periods,
    verify_differs,
)


def cw_digit_rows(depth):
    return [digits_of(v) for v in calkin_wilf().take(depth)]


def constant_digit_rows(digit, count):
    return [Stream(itertools.repeat(digit), "decimal") for _ in range(count)]


class EntryRow(Stream):
    """A row walked over `items` whose `entry(k)` is `at(k)`, unchecked."""

    __slots__ = ("_at",)

    def __init__(self, items, kind, at):
        super().__init__(items, kind)
        self._at = at

    def entry(self, k):
        return self._at(k)


def at_most(rows, depth):
    """The items of `rows`, which may be infinite; pulling item depth + 1 fails the test."""
    for k, row in enumerate(rows, start=1):
        if k > depth:
            pytest.fail(f"row {k} pulled at depth {depth}")
        yield row


class TestDecimalDiagonal:
    def test_over_calkin_wilf(self):
        depth = 20
        values = calkin_wilf().take(depth)
        result = decimal_diagonal([digits_of(v) for v in values], depth)
        assert len(result.digits) == depth
        assert result.integer_part == 0
        for w in result.witnesses:
            assert w.constructed in (4, 5)
            assert w.constructed != w.enumerated
            # the diagonal entry is row k's k-th digit, recomputed independently
            assert w.enumerated == digit_at(values[w.position - 1], w.position)

    def test_all_zero_rows(self):
        rows = [digits_of(Fraction(5)) for _ in range(5)]
        assert decimal_diagonal(rows, 5).digits == (5, 5, 5, 5, 5)

    def test_all_five_rows(self):
        result = decimal_diagonal(constant_digit_rows(5, 3), 3)
        assert result.digits == (4, 4, 4)

    def test_entry_accessor_and_str(self):
        result = decimal_diagonal(constant_digit_rows(0, 3), 3)
        assert [result.entry(k) for k in (1, 2, 3)] == [5, 5, 5]
        assert str(result) == "0.555"

    def test_str_prints_ints_of_any_size_as_digits(self):
        # str() of the integer part raised ValueError past the int/str limit
        assert str(DecimalDiagonalResult(10**5000, (1,), ())) == "1" + "0" * 5000 + ".1"
        assert str(DecimalDiagonalResult(0, (True, 2), ())) == "0.12"

    def test_row_exhausted(self):
        with pytest.raises(InputError, match="exhausted"):
            decimal_diagonal([[1], [2]], 2)

    def test_too_few_rows(self):
        with pytest.raises(InputError, match="rows"):
            decimal_diagonal(constant_digit_rows(0, 3), 4)

    def test_consumed_stream_rejected(self):
        rows = constant_digit_rows(0, 2)
        rows[1].take(1)
        with pytest.raises(InputError, match="already consumed"):
            decimal_diagonal(rows, 2)

    def test_non_integer_digit_in_a_bare_row(self):
        # 3.0 used to be built into a result whose witness table raised AttributeError
        with pytest.raises(DomainError, match=r"^digit must be an integer, got 3\.0$"):
            decimal_diagonal([[3.0]], 1)

    def test_numpy_digits_refused_by_the_digit_check(self):
        # numpy ints are int-likes, not ints: the digit check names them
        numpy = pytest.importorskip("numpy")
        message = r"^digit must be an integer, got np\.int64\(3\)$"
        with pytest.raises(DomainError, match=message):
            decimal_diagonal([[numpy.int64(3)]], 1)
        with pytest.raises(DomainError, match=message):
            verify_differs(DecimalDiagonalResult(0, (5,), ()), [Stream([numpy.int64(3)], "decimal")], 1)

    def test_depth_validation(self):
        with pytest.raises(DomainError):
            decimal_diagonal([], 0)
        for depth in (0, -3):  # checked before any row is pulled
            with pytest.raises(DomainError, match="^depth must be >= 1$"):
                decimal_diagonal(at_most(map(digits_of, calkin_wilf()), 0), depth)
            with pytest.raises(DomainError, match="^depth must be >= 1$"):
                cf_diagonal(at_most(map(metallic, itertools.count(1)), 0), depth)


class TestCFDiagonal:
    def test_over_metallic_streams(self):
        result = cf_diagonal(irrational_enumeration(10), 10)
        assert result.terms[0] == 0
        for w in result.witnesses:
            assert w.enumerated == w.position  # metallic(k) has a_kk = k
            assert w.constructed == w.enumerated + 1
            assert w.constructed >= 2

    def test_all_sqrt2_rows(self):
        rows = [named_cf_stream("sqrt2") for _ in range(4)]
        result = cf_diagonal(rows, 4)
        assert result.terms == (0, 3, 3, 3, 3)
        assert str(result) == "[0; 3, 3, 3, 3]"

    def test_single_e_row(self):
        result = cf_diagonal([named_cf_stream("e")], 1)
        assert result.terms == (0, 2)
        assert result.witnesses[0].enumerated == 1

    def test_bare_row_gets_the_quotient_check(self):
        # quotient 0 at a_11 used to be read, and [0; 1] was built from it
        with pytest.raises(DomainError, match="^partial quotient at index 1 must be >= 1, got 0$"):
            cf_diagonal([[1, 0]], 1)

    def test_non_integer_diagonal_quotient(self):
        # 2.0 passes the walk's >= 1 check; the built quotient would be 3.0
        with pytest.raises(DomainError, match=r"^partial quotient must be an integer, got 2\.0$"):
            cf_diagonal([[1, 2.0]], 1)

    def test_non_integer_quotient_before_the_diagonal_entry(self):
        # row 2 is walked to a_22, past the float at index 1
        with pytest.raises(DomainError, match=r"^partial quotient must be an integer, got 2\.0$"):
            cf_diagonal([[1, 2], [1, 2.0, 2]], 2)

    def test_row_of_another_kind_is_refused(self):
        with pytest.raises(InputError, match="a cf stream cannot be a decimal row"):
            decimal_diagonal([metallic(12)], 1)
        with pytest.raises(InputError, match="a decimal stream cannot be a cf row"):
            verify_differs(CFDiagonalResult((0, 2), ()), cw_digit_rows(1), 1)

    def test_prefix_is_valid_cf(self):
        result = cf_diagonal(irrational_enumeration(6), 6)
        cf = result.as_continued_fraction()
        assert cf.terms[0] >= 0
        assert all(a >= 1 for a in cf.terms[1:])


class TestRowsFromAnyIterable:
    """The diagonals pull exactly `depth` rows from any iterable, infinite ones too."""

    @pytest.mark.parametrize("depth", [1, 5, 40])
    def test_decimal_diagonal_and_its_verdict(self, depth):
        def rows():
            return at_most(map(digits_of, calkin_wilf()), depth)

        built = decimal_diagonal(rows(), depth)
        assert built == decimal_diagonal(cw_digit_rows(depth), depth)
        assert verify_differs(built, rows(), depth) == (True, None)

    @pytest.mark.parametrize("depth", [1, 5, 40])
    def test_cf_diagonal_and_its_verdict(self, depth):
        def rows():
            return at_most(map(metallic, itertools.count(1)), depth)

        built = cf_diagonal(rows(), depth)
        assert built == cf_diagonal(irrational_enumeration(depth), depth)
        assert verify_differs(built, rows(), depth) == (True, None)


class TestOneRowAtATime:
    """Row k is pulled when the diagonal reaches it and is dropped once read."""

    class Row(EntryRow):
        __slots__ = ("__weakref__",)  # Stream's slots leave rows without weakrefs

    def rows(self, live):
        # all-zero rows; reading row k records how many of rows 1..k-1 are alive
        refs = []

        def read(k):
            live.append(sum(ref() is not None for ref in refs[:k - 1]))
            return 0

        for k in itertools.count(1):
            row = self.Row(map(read, itertools.repeat(k)), "decimal", read)
            refs.append(weakref.ref(row))
            yield row

    def test_a_row_is_freed_once_read(self):
        live = []
        built = decimal_diagonal(self.rows(live), 30)
        assert built.digits == (5,) * 30
        assert live == [0] * 30  # each row through entry
        live.clear()
        assert verify_differs(built, self.rows(live), 30) == (True, None)
        assert len(live) == 30 * 31 // 2 and set(live) == {0}  # each item of the walks

    def test_verify_stops_at_its_counterexample(self):
        rows = (Stream(itertools.repeat(5 if k == 3 else 0), "decimal") for k in itertools.count(1))
        planted = DecimalDiagonalResult(0, (5,) * 6, ())
        assert verify_differs(planted, at_most(rows, 3), 6) == (False, 3)


class TestResultEntry:
    """A result's `entry` follows its rows' index rule."""

    DECIMAL = DecimalDiagonalResult(0, (5, 4, 5), ())
    CF = CFDiagonalResult((0, 2, 3), ())

    @pytest.mark.parametrize(
        "result, position, first",
        [(DECIMAL, 0, 1), (DECIMAL, -1, 1), (CF, -1, 0), (DECIMAL, 0.5, 1), (CF, -0.5, 0)],
        ids=["decimal-0", "decimal-minus-1", "cf-minus-1", "decimal-float", "cf-float"],
    )
    def test_below_the_first_index_is_refused(self, result, position, first):
        # the ints read the last entries through negative tuple indexing; the
        # floats keep the refusal they had, quoted through str()
        message = f"^entry index must be >= {first}, got {position}$"
        with pytest.raises(DomainError, match=message):
            result.entry(position)
        row = digits_of(Fraction(1, 3)) if first == 1 else metallic(2)
        with pytest.raises(DomainError, match=message):  # a row's own words
            row.entry(position)

    def test_past_the_end_is_an_index_error(self):
        with pytest.raises(IndexError):
            self.DECIMAL.entry(4)
        with pytest.raises(IndexError):
            self.CF.entry(3)


class TestRandomAccessRows:
    """The construction reads `entry` where rows have it; results match the walk."""

    DEPTH = 300

    def test_decimal_same_over_entry_and_walk(self):
        values = calkin_wilf().take(5000)[4000:4000 + self.DEPTH]
        direct = [digits_of(v) for v in values]
        walked = [Stream(digits_of(v), "decimal") for v in values]
        assert all(hasattr(r, "entry") for r in direct)
        assert not any(hasattr(r, "entry") for r in walked)
        assert decimal_diagonal(direct, self.DEPTH) == decimal_diagonal(walked, self.DEPTH)
        assert all(r.position == 0 for r in direct)

    def test_cf_same_over_entry_and_walk(self):
        def row(k):
            if k % 5 == 0:
                return metallic(k)
            # pi's table ends at index 47, so e stands in for it past that
            name = ["sqrt2", "phi", "e", "pi" if k < 48 else "e"][k % 5 - 1]
            return named_cf_stream(name)

        direct = [row(k) for k in range(1, self.DEPTH + 1)]
        walked = [Stream(row(k), "cf") for k in range(1, self.DEPTH + 1)]
        assert cf_diagonal(direct, self.DEPTH) == cf_diagonal(walked, self.DEPTH)

    def test_verify_never_reads_entry(self):
        # row 3 lies through `entry` (5 where it walks 4s), so the built
        # digit there is 4 and equals the true diagonal digit
        def rows():
            out = [Stream(itertools.repeat(0), "decimal") for _ in range(6)]
            out[2] = EntryRow(itertools.repeat(4), "decimal", lambda k: 5)
            return out

        built = decimal_diagonal(rows(), 6)
        assert built.digits[2] == 4
        honest = [Stream(itertools.repeat(4 if k == 3 else 0), "decimal") for k in range(1, 7)]
        assert verify_differs(built, honest, 6) == (False, 3)
        # fresh rows with the same lie: only walking them finds the fault
        assert verify_differs(built, rows(), 6) == (False, 3)

    def test_verify_does_not_call_entry(self):
        def refuse(k):
            raise AssertionError("verify_differs read a row through entry")

        built = decimal_diagonal(cw_digit_rows(20), 20)
        fresh = [EntryRow(digits_of(v), "decimal", refuse) for v in calkin_wilf().take(20)]
        assert verify_differs(built, fresh, 20) == (True, None)

    def test_verify_never_reaches_digit_at(self, monkeypatch):
        # live while a digit row's `entry` calls digit_at by its module name
        def refuse(x, k):
            raise AssertionError("verify_differs reached digit_at")

        built = decimal_diagonal(cw_digit_rows(600), 600)
        monkeypatch.setattr(enumeration, "digit_at", refuse)
        assert verify_differs(built, cw_digit_rows(600), 600) == (True, None)

    def test_verify_never_calls_entry_on_metallic_rows(self, monkeypatch):
        def refuse(row):
            raise AssertionError("verify_differs read a metallic row through entry")

        built = cf_diagonal(irrational_enumeration(300), 300)
        # a metallic row is a Stream subclass with its own `entry`: patch that one
        monkeypatch.setattr(type(metallic(1)), "entry", property(refuse))
        assert verify_differs(built, irrational_enumeration(300), 300) == (True, None)


class TestVerifyWork:
    """The verify walk's work, counted by spies from outside: the library pays nothing."""

    DEPTH = 300

    def test_digit_rows_divide_exactly_the_digits_walked(self, monkeypatch):
        values = calkin_wilf().take(self.DEPTH)
        built = decimal_diagonal([digits_of(v) for v in values], self.DEPTH)
        asked, divide_to = [], enumeration._divide_to

        def spy(rem, den, n):
            asked.append(n)
            return divide_to(rem, den, n)

        monkeypatch.setattr(enumeration, "_divide_to", spy)
        assert verify_differs(built, [digits_of(v) for v in values], self.DEPTH) == (True, None)
        assert asked == list(range(1, self.DEPTH + 1))  # d calls, d(d+1)/2 digits

    def test_digit_walk_renders_nothing_and_takes_no_modular_power(self, monkeypatch):
        # every Python and C call beneath verify_differs, recorded under sys.setprofile: the
        # walk divides by `_divide_to` alone, never through the construction's digit_at, a
        # pow of any arity, or `_long_divide`, whose blocks are rendered by str and zfill
        values = calkin_wilf().take(self.DEPTH)
        built = decimal_diagonal([digits_of(v) for v in values], self.DEPTH)
        rows = [digits_of(v) for v in values]
        called = set()

        def refuse(*args):
            raise AssertionError("the verify walk rendered a digit")

        for module in (decimal_expansion, enumeration):  # str is a type: no C-call event
            monkeypatch.setattr(module, "str", refuse, raising=False)

        def profile(frame, event, arg):
            if event == "call":
                called.add(frame.f_code)
            elif event == "c_call":
                called.add(arg)

        sys.setprofile(profile)
        try:
            result = verify_differs(built, rows, self.DEPTH)
        finally:
            sys.setprofile(None)
        assert result == (True, None)
        assert enumeration._divide_to.__code__ in called
        assert digit_at.__code__ not in called and pow not in called
        assert enumeration._long_divide.__code__ not in called
        names = {getattr(c, "co_name", None) or getattr(c, "__name__", "") for c in called}
        assert not {"zfill", "join", "format"} & names

    def test_quotient_rows_never_pull_a_run(self, monkeypatch):
        def e_rows():
            return (named_cf_stream("e") for _ in range(self.DEPTH))

        metallic_built = cf_diagonal(irrational_enumeration(self.DEPTH), self.DEPTH)
        e_built = cf_diagonal(e_rows(), self.DEPTH)

        def refuse(row, n):
            raise AssertionError("verify_differs pulled a run from a package row")

        for cls in (Stream, type(metallic(1)), type(named_cf_stream("e"))):
            monkeypatch.setattr(cls, "_pull", refuse)
        assert verify_differs(metallic_built, irrational_enumeration(self.DEPTH), self.DEPTH).ok
        assert verify_differs(e_built, e_rows(), self.DEPTH).ok


def test_decimal_diagonal_reads_each_row_once_at_its_position(monkeypatch):
    # decimal_diagonal's O(depth log depth), counted by a spy: over d digit rows,
    # d calls of the O(log k) digit_at, the k-th on row k's value at position k
    depth = 300
    values = calkin_wilf().take(depth)
    asked, digit_at = [], enumeration.digit_at

    def spy(x, k):
        asked.append((x, k))
        return digit_at(x, k)

    monkeypatch.setattr(enumeration, "digit_at", spy)
    decimal_diagonal([digits_of(v) for v in values], depth)
    assert asked == list(zip(values, range(1, depth + 1)))


class TestWitnessRecords:
    """Witnesses are made without their class's __new__; they are the same records."""

    DEPTH = 300

    def test_witnesses_equal_the_plain_records(self):
        values = calkin_wilf().take(self.DEPTH)
        decimal = decimal_diagonal([digits_of(v) for v in values], self.DEPTH)
        cf = cf_diagonal(irrational_enumeration(self.DEPTH), self.DEPTH)
        diagonal = [digit_at(v, k) for k, v in enumerate(values, 1)]
        assert decimal.witnesses == tuple(
            DiagonalWitness(k, d, 4 if d == 5 else 5) for k, d in enumerate(diagonal, 1)
        )
        assert cf.witnesses == tuple(DiagonalWitness(k, k, k + 1) for k in range(1, self.DEPTH + 1))
        for w in decimal.witnesses + cf.witnesses:
            assert type(w) is DiagonalWitness
            assert w._fields == ("position", "enumerated", "constructed")
            for twin in (pickle.loads(pickle.dumps(w)), copy.deepcopy(w)):
                assert type(twin) is DiagonalWitness and twin == w
        assert repr(decimal.witnesses[0]) == (
            "DiagonalWitness(position=1, enumerated=0, constructed=5)"
        )
        assert repr(cf.witnesses[1]) == "DiagonalWitness(position=2, enumerated=2, constructed=3)"

    def test_rulings_equal_the_plain_records(self):
        # the diagonal rules every shape out; 1/7's digits fit periods 6, 12 and 18
        rulings, plain = [], []
        for digits in (
            decimal_diagonal(cw_digit_rows(self.DEPTH), self.DEPTH).digits,
            digits_of(Fraction(1, 7)).take(60),
        ):
            rulings += rule_out_periods(digits, 3, 20)
            for p, l in itertools.product(range(4), range(1, 21)):
                pairs = range(p + 1, len(digits) - l + 1)
                witness = next((j for j in pairs if digits[j - 1] != digits[j + l - 1]), None)
                plain.append(PeriodRuling(p, l, witness is None, witness))
        assert rulings == plain and len(rulings) == 160
        assert sum(r.consistent for r in rulings) == 12  # three periods at four preperiods
        for r, twin in zip(rulings, plain):
            assert type(r) is PeriodRuling
            assert r._fields == ("preperiod", "period", "consistent", "witness_position")
            assert (repr(r), hash(r)) == (repr(twin), hash(twin))
            for copied in (pickle.loads(pickle.dumps(r)), copy.deepcopy(r)):
                assert type(copied) is PeriodRuling and copied == twin
        assert repr(rule_out_periods([1, 2, 1, 2], 0, 2)[0]) == (
            "PeriodRuling(preperiod=0, period=1, consistent=False, witness_position=1)"
        )

    def test_bool_rows_keep_true_as_the_diagonal_entry(self):
        for result, built in (
            (decimal_diagonal([[True]], 1), 5), (cf_diagonal([[0, True]], 1), 2),
        ):
            (w,) = result.witnesses
            assert w.enumerated is True and (w.position, w.constructed) == (1, built)

    @pytest.mark.parametrize("kind", ["decimal", "cf"])
    def test_verify_refuses_a_prefix_shorter_than_depth(self, kind):
        if kind == "decimal":
            built, rows = decimal_diagonal(cw_digit_rows(5), 5), cw_digit_rows(8)
        else:
            built, rows = cf_diagonal(irrational_enumeration(5), 5), irrational_enumeration(8)
        with pytest.raises(InputError, match="^constructed prefix has no entry for position 6$"):
            verify_differs(built, rows, 8)


def long_division_row(x):
    """Row of x's fractional digits, long-divided one step per digit."""

    def walk():
        rem, den = x.numerator % x.denominator, x.denominator
        while True:
            rem *= 10
            yield rem // den
            rem %= den

    return Stream(walk(), "decimal")


CALKIN_WILF = calkin_wilf().take(6000)


class TestVerifierIndependence:
    """Block rows and per-digit rows give verify_differs the same verdict."""

    @settings(deadline=None, max_examples=25)
    @given(st.integers(0, 5400), st.integers(1, 600), st.data())
    def test_same_verdict_over_block_and_per_digit_rows(self, start, depth, data):
        values = CALKIN_WILF[start:start + depth]
        built = decimal_diagonal([digits_of(v) for v in values], depth)

        def verdicts(result):
            return (
                verify_differs(result, [digits_of(v) for v in values], depth),
                verify_differs(result, [long_division_row(v) for v in values], depth),
            )

        assert verdicts(built) == ((True, None), (True, None))
        # plant row k's own digit k in the built prefix
        k = data.draw(st.integers(1, depth))
        planted = list(built.digits)
        planted[k - 1] = digit_at(values[k - 1], k)
        assert verdicts(built._replace(digits=planted)) == ((False, k), (False, k))


class TestVerifyDiffers:
    def test_decimal_diagonal_verifies(self):
        depth = 100
        result = decimal_diagonal(cw_digit_rows(depth), depth)
        assert verify_differs(result, cw_digit_rows(depth), depth) == (True, None)

    def test_cf_diagonal_verifies(self):
        result = cf_diagonal(irrational_enumeration(20), 20)
        assert verify_differs(result, irrational_enumeration(20), 20) == (True, None)

    def test_self_copy_fails_at_its_own_row(self):
        # row i holds the constant digit i; copying row 7 matches only there
        def rows():
            return [Stream(itertools.repeat(i), "decimal") for i in range(1, 11)]

        constructed = DecimalDiagonalResult(0, rows()[6].take(10), ())
        ok, counterexample = verify_differs(constructed, rows(), 10)
        assert not ok
        assert counterexample == 7

    @pytest.mark.parametrize(
        "kind, good, bad, message",
        [
            ("decimal", 1, 12, "digit out of range: 12"),
            ("cf", 2, 0, "partial quotient at index 37 must be >= 1, got 0"),
        ],
    )
    def test_planted_bad_item_in_a_walked_row(self, kind, good, bad, message):
        # row 40 holds `bad` at index 37; nothing but the walk's check sees it
        depth = 40
        rows = [Stream(itertools.repeat(good), kind) for _ in range(depth - 1)]
        first = 1 if kind == "decimal" else 0
        rows.append(Stream([good] * (37 - first) + [bad] + [good] * 10, kind))
        if kind == "decimal":
            built = DecimalDiagonalResult(0, (5,) * depth, ())
        else:
            built = CFDiagonalResult((0,) + (good + 1,) * depth, ())
        with pytest.raises(DomainError, match=f"^{message}$"):
            verify_differs(built, rows, depth)

    def test_float_quotient_in_a_walked_row(self):
        # 1.0 passed the walk's >= 1 check, and the verdict was ok=True
        rows = [Stream(itertools.repeat(2), "cf") for _ in range(3)] + [[1, 2, 2.0, 2, 2]]
        with pytest.raises(DomainError, match=r"^partial quotient must be an integer, got 2\.0$"):
            verify_differs(CFDiagonalResult((0, 3, 3, 3, 3), ()), rows, 4)

    def test_bare_row_gets_the_digit_check(self):
        # digit 12 in a bare list used to pass, and the verdict was ok=True
        with pytest.raises(DomainError, match="^digit out of range: 12$"):
            verify_differs(DecimalDiagonalResult(0, (5,), ()), [[12]], 1)

    def test_depth_zero_is_vacuous(self):
        empty = DecimalDiagonalResult(0, (), ())
        assert verify_differs(empty, [], 0) == (True, None)
        with pytest.raises(DomainError, match="^depth must be >= 0$"):
            verify_differs(empty, [], -1)

    def test_plain_cf_prefix(self):
        # entries [a_00, a_01, ...]; metallic rows have a_kk = k
        ok, _ = verify_differs(CFDiagonalResult((0, 2, 3, 4), ()), irrational_enumeration(3), 3)
        assert ok
        built = CFDiagonalResult((0, 1, 3, 4), ())
        ok, counterexample = verify_differs(built, irrational_enumeration(3), 3)
        assert not ok
        assert counterexample == 1

    def test_short_constructed_prefix(self):
        with pytest.raises(InputError, match="no entry"):
            verify_differs(DecimalDiagonalResult(0, (5,), ()), cw_digit_rows(3), 3)

    @pytest.mark.parametrize("constructed", [[5, 5], (5, 5), "55", None], ids=repr)
    def test_constructed_must_be_a_diagonal_result(self, constructed):
        # the result names the rows' kind; a bare prefix names none
        message = f"^constructed is not a diagonal result: {type(constructed).__name__}$"
        for depth in (0, 2):
            with pytest.raises(InputError, match=message):
                verify_differs(constructed, [[3], [4, 5]], depth)
        assert verify_differs(DecimalDiagonalResult(0, (1, 2), ()), [[3], [4, 5]], 2) == (True, None)


class TestCFDiagonalOverRationals:
    def test_calkin_wilf_fails_at_one(self):
        failure = cf_diagonal_over_rationals(calkin_wilf())
        assert isinstance(failure, CFDiagonalFailure)
        assert failure.failing_index == 1
        assert failure.rational == Fraction(1, 1)
        assert failure.cf.terms == (1,)
        assert failure.quotients_beyond_first == 0
        assert failure.message() == "diagonal undefined at k=1: CF of 1/1 = [1] has no a_11"

    def test_constant_six_sevenths(self):
        failure = cf_diagonal_over_rationals(itertools.repeat(Fraction(6, 7)))
        # [0; 1, 6] has 2 quotients beyond the first, so a_33 is missing
        assert failure.failing_index == 3

    def test_integers_fail_immediately(self):
        failure = cf_diagonal_over_rationals(Fraction(n) for n in itertools.count(1))
        assert failure.failing_index == 1

    def test_certificate_checks_out(self):
        failure = cf_diagonal_over_rationals(itertools.repeat(Fraction(6, 7)))
        cf = from_rational(failure.rational)
        assert cf.terms == failure.cf.terms
        assert len(cf.terms) - 1 < failure.failing_index

    def test_message_past_the_int_string_limit(self):
        failure = cf_diagonal_over_rationals([Fraction(10**5000)])
        big = "1" + "0" * 5000
        assert failure.message() == f"diagonal undefined at k=1: CF of {big}/1 = [{big}] has no a_11"

    def test_exhausted_enumeration(self):
        with pytest.raises(InputError, match="without exposing"):
            cf_diagonal_over_rationals(iter([Fraction(355, 113), Fraction(355, 113)]))


class TestRuleOutPeriods:
    def test_true_shape_stays_consistent(self):
        # digits of 169/550 = 0.30(72): preperiod 2, period 2
        digits = digits_of(Fraction(169, 550)).take(50)
        rulings = {(r.preperiod, r.period): r for r in rule_out_periods(digits, 3, 3)}
        assert rulings[(2, 2)].consistent
        assert not rulings[(0, 1)].consistent
        assert not rulings[(2, 1)].consistent

    def test_rulings_are_sound(self):
        digits = decimal_diagonal(cw_digit_rows(100), 100).digits
        for r in rule_out_periods(digits, 10, 20):
            if r.consistent:
                assert all(
                    digits[j - 1] == digits[j + r.period - 1]
                    for j in range(r.preperiod + 1, 100 - r.period + 1)
                )
            else:
                j = r.witness_position
                assert j > r.preperiod
                assert j + r.period <= 100
                assert digits[j - 1] != digits[j + r.period - 1]

    def test_validation(self):
        with pytest.raises(DomainError):
            rule_out_periods([1, 2], -1, 1)
        with pytest.raises(DomainError):
            rule_out_periods([1, 2], 0, 0)

    def test_prefix_shorter_than_the_shapes_is_refused(self):
        # the analysis's depth rule; a huge max_period looped without end
        message = r"^depth 4 is less than max_preperiod \+ 2\*max_period = 5$"
        with pytest.raises(RangeError, match=message):
            rule_out_periods([1, 2, 1, 2], 1, 2)
        assert len(rule_out_periods([1, 2, 1, 2, 1], 1, 2)) == 4
        with pytest.raises(RangeError, match="^depth 4 is less than "):
            rule_out_periods([1, 2, 1, 2], 0, 10**5000)
        with pytest.raises(DomainError):  # the domain checks come first
            rule_out_periods([], -1, 10**5000)


class TestRationalDiagonalAnalysis:
    def test_report_shape(self):
        report = rational_diagonal_analysis(at_most(calkin_wilf(), 100), 100, 10, 20)
        assert report.depth == 100
        assert len(report.diagonal.digits) == 100
        assert len(report.rulings) == 11 * 20
        assert set(report.diagonal.digits) <= {4, 5}

    def test_depth_precondition(self):
        with pytest.raises(RangeError):
            rational_diagonal_analysis(calkin_wilf(), 11, 2, 5)
        # boundary depth is accepted
        report = rational_diagonal_analysis(calkin_wilf(), 12, 2, 5)
        assert report.depth == 12

    def test_short_enumeration(self):
        with pytest.raises(InputError, match="^need 12 rows, got 1$"):
            rational_diagonal_analysis(iter([Fraction(1, 3)]), 12, 2, 5)


class TestFormatWitnesses:
    def test_table(self):
        result = decimal_diagonal(constant_digit_rows(0, 2), 2)
        text = format_witnesses(result, "table")
        lines = text.split("\n")
        assert lines[0] == "     k      d_kk      d_0k  differs"
        assert lines[1] == "     1         0         5  yes"
        # rows keep bool items as given; the table prints them as digits
        text = format_witnesses(decimal_diagonal([[True]], 1))
        assert text.split("\n")[1] == "     1         1         5  yes"
        text = format_witnesses(cf_diagonal([[0, True]], 1))
        assert text.split("\n")[1] == "     1         1         2  yes"

    def test_cf_labels(self):
        result = cf_diagonal(irrational_enumeration(2), 2)
        header = format_witnesses(result).split("\n")[0]
        assert "a_kk" in header and "a_0k" in header

    def test_tsv(self):
        result = decimal_diagonal(constant_digit_rows(0, 2), 2)
        assert format_witnesses(result, "tsv") == "1\t0\t5\n2\t0\t5"

    def test_quotients_past_the_int_string_limit(self):
        big = 10**5000
        result = CFDiagonalResult((0, big + 1), (DiagonalWitness(1, big, big + 1),))
        digits = "1" + "0" * 5000
        assert format_witnesses(result, "tsv") == f"1\t{digits}\t{digits[:-1]}1"
        row = format_witnesses(result).split("\n")[1]
        assert row == f"     1  {digits}  {digits[:-1]}1  yes"

    def test_validation(self):
        with pytest.raises(DomainError, match="^unknown format: 'xml'$"):
            format_witnesses(DecimalDiagonalResult(0, (), ()), "xml")
