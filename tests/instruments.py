"""The instruments that count a call's work from outside it, so the library pays nothing:
a call recorder, a record-and-forward spy, a counting int, a counting sequence and the
reference walk."""

import builtins
import sys
from collections.abc import Sequence
from types import CodeType


def calls_under(fn, *args):
    """fn(*args), and in order the code of each Python frame entered beneath it (a
    generator's at each resumption too) and each C function called. The recorder's own
    `sys.setprofile` is left out, and the profiler it found is set again."""
    calls = []

    def profile(frame, event, arg):
        if event == "call":
            calls.append(frame.f_code)
        elif event == "c_call" and arg is not sys.setprofile:
            calls.append(arg)

    found = sys.getprofile()
    sys.setprofile(profile)
    try:
        value = fn(*args)
    finally:
        sys.setprofile(found)
    return value, calls


def call_name(call) -> str:
    return call.co_name if type(call) is CodeType else call.__name__


def spy(monkeypatch, owner, attribute, record=lambda *args: args):
    """Patch owner.<attribute> to append record(*args) to the list returned here and
    call through, its value and exception unchanged; a builtin the owner does not
    hold (pow in a module) is patched into it and forwarded to the builtin."""
    calls = []
    own = hasattr(owner, attribute)
    forward = getattr(owner if own else builtins, attribute)

    def recorded(*args):
        calls.append(record(*args))
        return forward(*args)

    monkeypatch.setattr(owner, attribute, recorded, raising=own)
    return calls


class CountingInt(int):
    """Counts the `% self` and `divmod(_, self)` taken with it, which return plain ints."""

    mods = divmods = 0

    def __rmod__(self, other):
        self.mods += 1
        return int.__rmod__(self, other)

    def __rdivmod__(self, other):
        self.divmods += 1
        return int.__rdivmod__(self, other)


class CountingSequence(Sequence):
    """`items` read through, counting each `self[i]` taken."""

    def __init__(self, items):
        self.items, self.reads = items, 0

    def __len__(self):
        return len(self.items)

    def __getitem__(self, i):
        self.reads += 1
        return self.items[i]


def long_division(x):
    """The fractional digits of x, one step per digit: the reference walk."""
    rem, den = x.numerator % x.denominator, x.denominator
    while True:
        rem *= 10
        yield rem // den
        rem %= den
