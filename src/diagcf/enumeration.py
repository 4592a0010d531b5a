"""Sources feeding the diagonal constructions.

`Stream` carries every source: the Calkin-Wilf enumeration of the
positive rationals, the decimal digits of a rational, and the partial
quotients of a few named irrationals. Its `kind` ("rational", "decimal"
or "cf") fixes the first index and the check each item must pass.
Streams are pull-based, single-consumer and carry an explicit position;
rewinding means recreating the stream.

The package's rows (`digits_of`, `metallic` and the named streams) are
small `Stream` subclasses with no `__init__`: the function that makes a
row checks its argument once, makes the row with `object.__new__` and
writes its slots, in one Python frame. Their runs, walks and `entry(k)`
hand out items with no second check, a walk only its last item; a
stream over an outside iterable has no `entry`, is walked, and checks
each run it pulls. A rational's k digits are long-divided
exactly, in O(1 + k/256) steps, by the block loop `expand` uses, and a
walk to its k-th digit divides the same blocks but renders none; a
metallic row's walk and `entry` read k with no call, a named row's a(k).
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

from .continued_fraction import _check_quotients
from .decimal_expansion import _divide_to, _long_divide, digit_at
from .errors import DomainError, InputError, RangeError
from .exact_numbers import (
    Rational, _check_count, _check_index, _check_iterable, _check_rational, _check_text,
    _coprime, _digits_of_int, _int_from_digits, _is_digits, _quote,
)

__all__ = (
    "PI_PARTIAL_QUOTIENTS", "Stream", "calkin_wilf", "digits_of",
    "irrational_enumeration", "metallic", "named_cf_stream",
)

# First 48 partial quotients of pi (OEIS A001203), stored rather than
# derived; the stream refuses to go past this table.
PI_PARTIAL_QUOTIENTS: tuple[int, ...] = (
    3, 7, 15, 1, 292, 1, 1, 1, 2, 1, 3, 1, 14, 2, 1, 1,
    2, 2, 2, 2, 1, 84, 2, 1, 1, 15, 3, 13, 1, 4, 2, 6,
    6, 99, 1, 2, 2, 6, 3, 5, 1, 1, 6, 8, 1, 7, 1, 2,
)


# ASCII digits to their values, so iterating a block yields ints 0..9
_DIGIT_VALUES = bytes.maketrans(b"0123456789", bytes(range(10)))


def _check_digits(index: int, run: Sequence[int]) -> None:
    # the digit rule, item by item. Only a run from outside the package is checked,
    # and no workload walks one: the package rows make digits that need no check
    for d in run:
        if not isinstance(d, int):
            raise DomainError(f"digit must be an integer, got {_quote(d)}")
        if not 0 <= d <= 9:
            raise DomainError(f"digit out of range: {_digits_of_int(d)}")


# per kind: the index of the first item, and the check every run passes
KINDS = {
    "rational": (1, lambda index, run: None),
    "decimal": (1, _check_digits),
    "cf": (0, _check_quotients),
}


class Stream:
    """Single-consumer iterator of one kind of item, with a position counter.

    `kind` is "rational" (positive rationals, no check), "decimal" (digits
    d_1, d_2, ... in 0..9) or "cf" (partial quotients a_0 >= 0, a_1, ...
    >= 1). `take(n)` and `next()` pull a run of up to n items, or one, and
    check it once; a run that fails is not handed out and leaves the
    position where it was. A bare `Stream` is only walked and has no
    `entry`; the package's rows are subclasses that answer `entry(k)`.
    """

    __slots__ = ("_items", "kind", "first_index", "_check", "position")

    def __init__(self, items: Iterable, kind: str):
        try:
            self.first_index, self._check = KINDS[kind]
        except (KeyError, TypeError):  # TypeError: an unhashable kind
            raise DomainError(f"unknown kind: {_quote(kind)}") from None
        self._items = _check_iterable("items", items)
        self.kind = kind
        self.position = 0

    def _pull(self, n: int) -> list:
        # the next n items, fewer where the iterable ends, checked as one run
        run = list(itertools.islice(self._items, n))
        self._check(self.first_index + self.position, run)
        return run

    def __iter__(self):
        return self

    def __next__(self):
        item = next(self._items)  # the end of the iterable ends the stream
        self._check(self.first_index + self.position, (item,))
        self.position += 1
        return item

    def _skip(self, n: int):
        """The last of the next n >= 1 items, walked by `take` as one checked run.

        A run that fails its check leaves the position where it was. A run
        cut short by the end of the items is not: the position moves to the
        end of the short run, and then the walk raises InputError.
        """
        run = self.take(n)
        if len(run) < n:
            needed = self.first_index + self.position - len(run) + n - 1
            raise InputError(f"row exhausted after {len(run)} entries; position {needed} needed")
        return run[-1]

    def take(self, n: int) -> list:
        """The next n items (none for n <= 0); fewer only where the stream ends."""
        run = self._pull(max(_check_count("count", n), 0))
        self.position += len(run)
        return run

    def __repr__(self) -> str:
        return f"Stream({self.kind!r}, position={self.position})"


class _DigitRow(Stream):
    # made only by `digits_of`, which writes the slots: no __init__
    __slots__ = ("_x", "_rem", "_den")
    kind, first_index = "decimal", 1  # fixed, so no package row calls Stream.__init__
    _endless = True  # the doors that read every term of a cf refuse the row unread

    def entry(self, k: int) -> int:
        if type(k) is not int or k < 1:
            k = _check_index("entry index", k, 1)
        return digit_at(self._x, k)

    def _pull(self, n: int) -> list[int]:
        digits, self._rem = _long_divide(self._rem, self._den, n)
        return list(digits.encode().translate(_DIGIT_VALUES))

    def _skip(self, n: int = 1) -> int:
        digit, self._rem = _divide_to(self._rem, self._den, n)
        self.position += n
        return digit

    __next__ = _skip  # next() walks one item; a package row never stops iteration


class _QuotientRow(Stream):
    # made only by `metallic` and `named_cf_stream`, which write the slots: no __init__
    __slots__ = ("_a",)  # a metallic row's int k, or a named row's closed form a(k)
    kind, first_index = "cf", 0

    @property
    def _endless(self) -> bool:
        return self._a is not _pi_quotient  # pi's row ends at its table, with a RangeError

    def entry(self, k: int) -> int:
        if type(k) is not int or k < 0:
            k = _check_index("entry index", k, 0)
        a = self._a
        return a if type(a) is int else a(k)  # a metallic read makes no call

    def _pull(self, n: int) -> list[int]:
        a = self._a
        if type(a) is int:
            return [a] * n
        return list(map(a, range(self.position, self.position + n)))

    def _skip(self, n: int = 1) -> int:
        a = self._a
        if type(a) is not int:
            a = a(self.position + n - 1)  # pi past its table: RangeError, unmoved
        self.position += n
        return a

    __next__ = _skip


def calkin_wilf() -> Stream:
    """1/1, 1/2, 2/1, 1/3, 3/2, ...: every positive rational exactly once.

    The successor of p/q is q/(2*floor(p/q)*q + q - p). Each value is
    built from its two ints with no gcd: the successor of a reduced p/q
    is reduced (Calkin and Wilf, Amer. Math. Monthly 107, 2000), and the
    construction relies on that.
    """

    def gen() -> Iterator[Fraction]:
        p, q = 1, 1
        while True:
            yield _coprime(p, q)
            p, q = q, 2 * (p // q) * q + q - p

    return Stream(gen(), "rational")


def digits_of(x: Rational) -> Stream:
    """The fractional decimal digits of x >= 0, an int over an int, without end.

    `take(k)` and a walk to the k-th next digit long-divide exactly k
    digits, up to 256 per step; the walk keeps only the remainders and the
    last digit, renders no digit to text and makes no list. `entry(k)` is
    `digit_at`, independent of both.
    """
    if type(x) is Fraction:  # a row per rational: both parts read from their slots, no call
        num, den = x._numerator, x._denominator
    if type(x) is not Fraction or num < 0:  # the check refuses a negative or a non-rational
        _check_rational(x)
        num, den = x.numerator, x.denominator  # plain ints or not, checked below
    if type(num) is not int or type(den) is not int:  # numpy ints overflow
        raise DomainError(
            f"x must be an int over an int, got {type(num).__name__}/{type(den).__name__}"
        )
    row = object.__new__(_DigitRow)
    row._x = x
    row._rem = num % den
    row._den = den
    row.position = 0
    return row


def metallic(k: int) -> Stream:
    """[k; k, k, k, ...]; k = 1 is the golden ratio. k is checked here, once."""
    if type(k) is not int:  # an int >= 1 passes the quotient rule; the rule refuses
        _check_quotients(1, (k,))  # anything else with its own message
        k = int(k)  # True passes as 1
    if k < 1:
        raise DomainError("metallic index must be >= 1")
    row = object.__new__(_QuotientRow)
    row._a = k
    row.position = 0
    return row


def _e_quotient(k: int) -> int:
    # e = [2; 1, 2, 1, 1, 4, 1, 1, 6, ...]: a_k = 2(k+1)/3 when k = 2 (mod 3)
    if k == 0:
        return 2
    return 2 * (k + 1) // 3 if k % 3 == 2 else 1


def _pi_quotient(k: int) -> int:
    if k < len(PI_PARTIAL_QUOTIENTS):
        return PI_PARTIAL_QUOTIENTS[k]
    raise RangeError(
        f"pi stream is backed by a fixed table of {len(PI_PARTIAL_QUOTIENTS)} "
        "partial quotients"
    )


# a named row's slot: its closed form a(k), or the int k of the metallic row it is
_CLOSED_FORMS = {"sqrt2": lambda k: 2 if k else 1, "e": _e_quotient, "pi": _pi_quotient, "phi": 1}


def named_cf_stream(name: str) -> Stream:
    """Fresh stream for sqrt2, e, phi, pi or metallic:<k>."""
    key = _check_text("name", name).lower()
    if key in _CLOSED_FORMS:
        row = object.__new__(_QuotientRow)
        row._a = _CLOSED_FORMS[key]
        row.position = 0
        return row
    if key.startswith("metallic:"):
        index = key.removeprefix("metallic:")
        if not _is_digits(index):
            raise DomainError(f"invalid metallic index in {name!r}")
        return metallic(_int_from_digits(index))
    raise DomainError(f"unknown stream name: {name!r}")


def irrational_enumeration(count: int) -> list[Stream]:
    """metallic(1), ..., metallic(count): pairwise distinct infinite streams."""
    count = _check_count("count", count)
    if count < 1:
        raise DomainError("count must be >= 1")
    return [metallic(k) for k in range(1, count + 1)]
