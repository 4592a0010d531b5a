"""Sources feeding the diagonal constructions.

One stream class, `Stream`, carries every source: the Calkin-Wilf
enumeration of the positive rationals, the decimal digits of a
rational, and the partial quotients of a few named irrationals. Its
`kind` ("rational", "decimal" or "cf") fixes the first index and the
check each item must pass. Streams are pull-based, single-consumer and
carry an explicit position; rewinding means recreating the stream.

The package's own rows (`digits_of`, `metallic`, `named_cf_stream`)
also answer `entry(k)`: item k computed directly, in O(log k) for a
rational's digits and O(1) for the named quotient streams, without
moving the position. Streams built from a bare iterable have no
`entry` and can only be walked. A rational's digits are walked by long
division a block of up to 1024 digits at a time, so walking k digits
takes O(log k) Python steps; `take` moves the digits themselves in C.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import partial
from typing import Callable, Iterable, Iterator, Sequence

from .decimal_expansion import digit_at
from .errors import DomainError, RangeError
from .exact_numbers import Rational, _digits_of_int, to_string

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


# the bytes 0..9: deleting them from a run of digits leaves nothing
_DIGITS = bytes(range(10))
# ASCII digits to their values, so iterating a block yields ints 0..9
_DIGIT_VALUES = bytes.maketrans(b"0123456789", _DIGITS)
# 10**n for the block sizes n of a digit walk
_SCALES = {n: 10**n for n in (16, 32, 64, 128, 256, 512, 1024)}


def _check_digits(index: int, run: Sequence[int]) -> None:
    # bytes() takes only integers in 0..255, and deleting 0..9 from them
    # leaves nothing for a run of digits; bytes() also takes int-likes such
    # as numpy.int64, which make the sum of the run a non-int. Each is one
    # C pass that makes no int per digit.
    try:
        if not bytes(run).translate(None, _DIGITS) and type(sum(run)) is int:
            return
    except (TypeError, ValueError):
        pass
    bad = next(d for d in run if not (isinstance(d, int) and 0 <= d <= 9))
    if not isinstance(bad, int):
        raise DomainError(f"digit must be an integer, got {bad!r}")
    raise DomainError(f"digit out of range: {bad}")


def _check_quotients(index: int, run: Sequence[int]) -> None:
    # integers, a_0 >= 0 and a_k >= 1 after it; `index` is the index of run[0]
    try:  # a sum of ints is an int, in one C pass; numpy ints may overflow it
        whole = type(sum(run)) is int
    except (TypeError, OverflowError, RuntimeWarning):
        whole = False
    if not whole:
        a = next(a for a in run if not isinstance(a, int))
        raise DomainError(f"partial quotient must be an integer, got {a!r}")
    if min(run, default=1) >= 1:  # every quotient >= 1: nothing left to find
        return
    if index == 0 and run and run[0] < 0:
        raise DomainError(f"first partial quotient must be >= 0, got {run[0]}")
    if min(itertools.islice(run, 1 if index == 0 else 0, None), default=1) < 1:
        k, a = next((k, a) for k, a in enumerate(run, index) if k > 0 and a < 1)
        raise DomainError(f"partial quotient at index {k} must be >= 1, got {a}")


# per kind: the index of the first item, and the check every run passes
KINDS = {
    "rational": (1, lambda index, run: None),
    "decimal": (1, _check_digits),
    "cf": (0, _check_quotients),
}


class Stream:
    """Single-consumer iterator of one kind of item, with a position counter.

    `kind` is "rational" (positive rationals, no check), "decimal"
    (fractional digits d_1, d_2, ... in 0..9 after `integer_part`) or
    "cf" (partial quotients a_0 >= 0, a_1, ... >= 1). `take(n)` pulls a
    run of up to n items and checks it once; a run that fails is not
    handed out and leaves the position where it was. `next()` does the
    same for one item.

    Given `at`, the stream also answers `entry(k)`: item k from `at(k)`,
    under the same check, with the position left alone. Without `at` it
    has no `entry` attribute.
    """

    __slots__ = ("_items", "kind", "first_index", "_check", "description", "_at",
                 "integer_part", "position")

    def __init__(
        self,
        items: Iterable,
        kind: str,
        description: str = "",
        at: Callable[[int], int] | None = None,
        integer_part: int = 0,
    ):
        try:
            self.first_index, self._check = KINDS[kind]
        except KeyError:
            raise DomainError(f"unknown kind: {kind!r}") from None
        self._items = iter(items)
        self.kind = kind
        self.description = description
        self._at = at
        self.integer_part = integer_part
        self.position = 0

    @property
    def entry(self) -> Callable[[int], int]:
        if self._at is None:  # so that hasattr() and getattr() see no `entry`
            raise AttributeError("Stream without random access has no entry")
        return self._entry

    def _entry(self, k: int) -> int:
        if k < self.first_index:
            raise DomainError(f"entry index must be >= {self.first_index}, got {k}")
        value = self._at(k)
        self._check(k, (value,))
        return value

    def __iter__(self):
        return self

    def __next__(self):
        item = next(self._items)
        self._check(self.first_index + self.position, (item,))
        self.position += 1
        return item

    def take(self, n: int) -> list:
        """The next n items (none for n <= 0); fewer only where the stream ends."""
        run = list(itertools.islice(self._items, max(n, 0)))
        self._check(self.first_index + self.position, run)
        self.position += len(run)
        return run

    def __repr__(self) -> str:
        return f"Stream({self.kind!r}, {self.description!r}, position={self.position})"


def calkin_wilf() -> Stream:
    """1/1, 1/2, 2/1, 1/3, 3/2, ...: every positive rational exactly once.

    The successor of p/q is q/(2*floor(p/q)*q + q - p); successive values
    come out already reduced, a property of the sequence rather than of
    the construction here.
    """

    def gen() -> Iterator[Fraction]:
        x = Fraction(1, 1)
        while True:
            yield x
            p, q = x.numerator, x.denominator
            x = Fraction(q, 2 * (p // q) * q + q - p)

    return Stream(gen(), "rational", "calkin-wilf")


def digits_of(x: Rational) -> Stream:
    """Decimal digit stream of x >= 0; trailing zeros run forever.

    The walk is long division in blocks of 16, 32, ..., 1024 digits, so
    `take(k)` costs O(log k) Python steps and divides out at most 2k + 16
    digits: nothing runs ahead of what is pulled. `entry(k)` is
    `digit_at`'s modular power, independent of the walk.
    """
    if x.numerator < 0:
        raise DomainError("negative input")

    def blocks() -> Iterator[bytes]:
        # long division n digits at a time, n = 16, 32, ..., 1024: a run of
        # k digits divides out at most 2k + 16, and `take` moves them in C;
        # the block's quotient is dropped before the yield, so the frame
        # holds no big int between pulls
        rem, den, n = x.numerator % x.denominator, x.denominator, 16
        while True:
            block, rem = divmod(rem * _SCALES[n], den)
            block = str(block).zfill(n).encode().translate(_DIGIT_VALUES)
            yield block
            n = min(2 * n, 1024)

    return Stream(
        itertools.chain.from_iterable(blocks()), "decimal", f"digits of {to_string(x)}",
        at=partial(digit_at, x), integer_part=x.numerator // x.denominator,
    )


def metallic(k: int) -> Stream:
    """[k; k, k, k, ...]; k = 1 is the golden ratio."""
    if k < 1:
        raise DomainError("metallic index must be >= 1")
    return Stream(itertools.repeat(k), "cf", f"metallic:{_digits_of_int(k)}", at=lambda _: k)


def _e_quotients() -> Iterator[int]:
    yield 2
    m = 1
    while True:
        yield 1
        yield 2 * m
        yield 1
        m += 1


def _e_quotient(k: int) -> int:
    # the walk above, in closed form: a_k = 2(k+1)/3 when k = 2 (mod 3)
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


def named_cf_stream(name: str) -> Stream:
    """Fresh stream for sqrt2, e, phi, pi or metallic:<k>."""
    key = name.strip().lower()
    if key == "sqrt2":
        return Stream(
            itertools.chain([1], itertools.repeat(2)), "cf", "sqrt2",
            at=lambda k: 1 if k == 0 else 2,
        )
    if key == "e":
        return Stream(_e_quotients(), "cf", "e", at=_e_quotient)
    if key == "phi":
        return Stream(itertools.repeat(1), "cf", "phi", at=lambda _: 1)
    if key == "pi":
        return Stream(map(_pi_quotient, itertools.count()), "cf", "pi", at=_pi_quotient)
    if key.startswith("metallic:"):
        try:
            k = int(key.split(":", 1)[1])
        except ValueError:
            raise DomainError(f"invalid metallic index in {name!r}") from None
        return metallic(k)
    raise DomainError(f"unknown stream name: {name!r}")


def irrational_enumeration(count: int) -> list[Stream]:
    """metallic(1), ..., metallic(count): pairwise distinct infinite streams."""
    if count < 1:
        raise DomainError("count must be >= 1")
    return [metallic(k) for k in range(1, count + 1)]
