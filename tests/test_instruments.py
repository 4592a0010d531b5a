import itertools
import math
import sys
from fractions import Fraction
from types import SimpleNamespace

import pytest

from instruments import (
    CountingInt, CountingSequence, call_name, calls_under, long_division, spy,
)


def test_the_recorder_sees_frames_and_c_calls_but_not_itself():
    def inner(n):
        return math.gcd(n, 6)

    def outer(n):
        return inner(n) + 1

    value, calls = calls_under(outer, 4)
    assert value == 3
    assert calls == [outer.__code__, inner.__code__, math.gcd]
    assert list(map(call_name, calls)) == ["outer", "inner", "gcd"]
    _, calls = calls_under(math.gcd, 4, 6)  # a C function called directly is recorded too
    assert calls == [math.gcd]


def test_the_recorder_restores_the_profiler_it_found():
    seen = []

    def earlier(frame, event, arg):
        seen.append(event)

    def fail():
        raise ValueError("inside")

    sys.setprofile(earlier)
    try:
        assert calls_under(len, "ab") == (2, [len])
        with pytest.raises(ValueError, match="^inside$"):
            calls_under(fail)
        found = sys.getprofile()
    finally:
        sys.setprofile(None)
    assert found is earlier and seen


def test_the_counting_int_counts_exactly_its_own_reductions():
    n = 25
    den, other = CountingInt(7), CountingInt(7)
    rems = [k % den for k in range(n)] + [divmod(k, den)[1] for k in range(n)]
    assert rems == [k % 7 for k in range(n)] * 2
    assert {type(r) for r in rems} == {int}
    assert (den.mods, den.divmods, other.mods, other.divmods) == (n, n, 0, 0)
    assert den == 7 and hash(den) == hash(7)


def test_the_counting_sequence_counts_each_item_read():
    digits = CountingSequence((3, 1, 4))
    assert (len(digits), digits.reads) == (3, 0)
    assert (digits[0], digits[-1], digits.reads) == (3, 4, 2)
    with pytest.raises(IndexError):
        digits[3]
    assert digits.reads == 3 and list(digits) == [3, 1, 4] and digits.reads == 7


def test_the_spy_records_and_passes_values_and_exceptions_through(monkeypatch):
    def half(n):
        if n % 2:
            raise ValueError(f"{n} is odd")
        return n // 2

    owner = SimpleNamespace(half=half)
    asked = spy(monkeypatch, owner, "half")
    assert owner.half(10) == 5
    with pytest.raises(ValueError, match="^3 is odd$"):
        owner.half(3)
    assert asked == [(10,), (3,)]
    monkeypatch.undo()
    assert owner.half is half


def test_the_spy_forwards_a_builtin_the_module_reaches_as_one(monkeypatch):
    module = SimpleNamespace()
    asked = spy(monkeypatch, module, "pow", lambda *args: args[1:])
    assert module.pow(10, 3, 7) == 6 and asked == [(3, 7)]
    monkeypatch.undo()
    assert not hasattr(module, "pow")


def test_the_walk_is_long_division():
    assert list(itertools.islice(long_division(Fraction(22, 7)), 7)) == [1, 4, 2, 8, 5, 7, 1]
    assert list(itertools.islice(long_division(Fraction(3, 8)), 5)) == [3, 7, 5, 0, 0]
