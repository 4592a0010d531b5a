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
`entry` and can only be walked. Every stream checks each run as it
pulls it, except the `digits_of` and `metallic` rows, which check their
items where they make them. A rational's digits are long-divided 256
at a time, each block checked by one C pass, and `take` joins and
slices the blocks as bytes, so walking k digits takes O(1 + k/256)
Python steps and none per digit. A metallic row's run of n is
`[k] * n`, its k checked once when the row is built.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Callable, Iterable, Iterator, Sequence

from .continued_fraction import _check_quotients
from .decimal_expansion import _BLOCK, _SCALE, digit_at
from .errors import DomainError, RangeError
from .exact_numbers import Rational, _check_count, _digits_of_int, _int_from_digits, _is_digits

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
    raise DomainError(f"digit out of range: {_digits_of_int(bad)}")


# per kind: the index of the first item, and the check every run passes
KINDS = {
    "rational": (1, lambda index, run: None),
    "decimal": (1, _check_digits),
    "cf": (0, _check_quotients),
}


class Stream:
    """Single-consumer iterator of one kind of item, with a position counter.

    `kind` is "rational" (positive rationals, no check), "decimal"
    (fractional digits d_1, d_2, ... in 0..9) or
    "cf" (partial quotients a_0 >= 0, a_1, ... >= 1). `take(n)` pulls a
    run of up to n items and checks it once; a run that fails is not
    handed out and leaves the position where it was. `next()` does the
    same for one item. The package's own `digits_of` and `metallic` rows
    check each item once where they make it, so their runs are handed
    out without a second check.

    Given `at`, the stream also answers `entry(k)`: item k from `at(k)`,
    under the same check, with the position left alone. Without `at` it
    has no `entry` attribute.
    """

    __slots__ = ("_items", "_run", "kind", "first_index", "_check", "_at", "position")

    def __init__(self, items: Iterable, kind: str, at: Callable[[int], int] | None = None):
        try:
            self.first_index, self._check = KINDS[kind]
        except KeyError:
            raise DomainError(f"unknown kind: {kind!r}") from None
        self._items = iter(items)
        self._run = None  # or, on a package row, n -> its next n items, already checked
        self.kind = kind
        self._at = at
        self.position = 0

    @property
    def entry(self) -> Callable[[int], int]:
        if self._at is None:  # so that hasattr() and getattr() see no `entry`
            raise AttributeError("Stream without random access has no entry")
        return self._entry

    def _entry(self, k: int) -> int:
        if k < self.first_index:
            raise DomainError(
                f"entry index must be >= {self.first_index}, got {_digits_of_int(k)}"
            )
        value = self._at(k)
        self._check(k, (value,))
        return value

    def __iter__(self):
        return self

    def __next__(self):
        if self._run is not None:
            (item,) = self._run(1)
        else:
            item = next(self._items)
            self._check(self.first_index + self.position, (item,))
        self.position += 1
        return item

    def take(self, n: int) -> list:
        """The next n items (none for n <= 0); fewer only where the stream ends."""
        _check_count("count", n)
        n = max(n, 0)
        if self._run is not None:
            run = self._run(n)
        else:
            run = list(itertools.islice(self._items, n))
            self._check(self.first_index + self.position, run)
        self.position += len(run)
        return run

    def __repr__(self) -> str:
        return f"Stream({self.kind!r}, position={self.position})"


def _row(run: Callable[[int], list], kind: str, at: Callable[[int], int]) -> Stream:
    # a package row: run(n) makes its next n items (it never ends) and
    # checks them as it makes them
    row = Stream((), kind, at)
    row._run = run
    return row


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

    return Stream(gen(), "rational")


def digits_of(x: Rational) -> Stream:
    """The fractional decimal digits of x >= 0; trailing zeros run forever.

    The walk is long division in blocks of 256 digits, each checked once
    as it is made, so a first `take(k)` costs O(1 + k/256) Python steps
    and divides out exactly 256 * ceil(k/256) digits: no block starts
    before a digit of it is pulled. `entry(k)` is `digit_at`'s modular
    power, independent of the walk.
    """
    if x.numerator < 0:
        raise DomainError("negative input")
    rem, den = x.numerator % x.denominator, x.denominator
    ahead = b""  # digits divided out but not yet handed out

    def run(n: int) -> list[int]:
        # `expand` divides a count known in advance, the last block short;
        # code shared with it made small expansions slower
        nonlocal rem, ahead
        if n > len(ahead):
            blocks = [ahead]
            for _ in range((n - len(ahead) + _BLOCK - 1) // _BLOCK):
                block, rem = divmod(rem * _SCALE, den)
                block = str(block).zfill(_BLOCK).encode().translate(_DIGIT_VALUES)
                if block.translate(None, _DIGITS):  # not a run of digits 0..9
                    _check_digits(0, block)
                blocks.append(block)
            ahead = b"".join(blocks)
        out, ahead = ahead[:n], ahead[n:]
        return list(out)

    return _row(run, "decimal", lambda k: digit_at(x, k))


def metallic(k: int) -> Stream:
    """[k; k, k, k, ...]; k = 1 is the golden ratio. k is checked here, once."""
    if k < 1:
        raise DomainError("metallic index must be >= 1")
    if type(k) is not int:  # an int >= 1 passes the quotient rule; the rule refuses
        _check_quotients(1, (k,))  # anything else with its own message
    return _row([k].__mul__, "cf", lambda _: k)  # run(n) is [k] * n


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
            itertools.chain([1], itertools.repeat(2)), "cf", at=lambda k: 1 if k == 0 else 2
        )
    if key == "e":
        return Stream(_e_quotients(), "cf", at=_e_quotient)
    if key == "phi":
        return metallic(1)
    if key == "pi":
        return Stream(map(_pi_quotient, itertools.count()), "cf", at=_pi_quotient)
    if key.startswith("metallic:"):
        index = key.removeprefix("metallic:")
        if not _is_digits(index):
            raise DomainError(f"invalid metallic index in {name!r}")
        return metallic(_int_from_digits(index))
    raise DomainError(f"unknown stream name: {name!r}")


def irrational_enumeration(count: int) -> list[Stream]:
    """metallic(1), ..., metallic(count): pairwise distinct infinite streams."""
    if count < 1:
        raise DomainError("count must be >= 1")
    _check_count("count", count)
    return [metallic(k) for k in range(1, count + 1)]
