"""Sources feeding the diagonal constructions.

A bijective enumeration of the positive rationals (Calkin-Wilf), digit
streams for rationals, and infinite partial-quotient streams for a few
named irrationals. Streams are pull-based, single-consumer and carry an
explicit position; rewinding means recreating the stream.

The package's own rows (`digits_of`, `metallic`, `named_cf_stream`)
also answer `entry(k)`: item k computed directly, in O(log k) for a
rational's digits and O(1) for the named quotient streams, without
moving the position. Streams built from a bare iterable have no
`entry` and can only be walked.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import partial
from typing import Callable, Iterable, Iterator

from .decimal_expansion import digit_at
from .errors import DomainError, RangeError
from .exact_numbers import Rational, to_string

# First 48 partial quotients of pi (OEIS A001203), stored rather than
# derived; the stream refuses to go past this table.
PI_PARTIAL_QUOTIENTS: tuple[int, ...] = (
    3, 7, 15, 1, 292, 1, 1, 1, 2, 1, 3, 1, 14, 2, 1, 1,
    2, 2, 2, 2, 1, 84, 2, 1, 1, 15, 3, 13, 1, 4, 2, 6,
    6, 99, 1, 2, 2, 6, 3, 5, 1, 1, 6, 8, 1, 7, 1, 2,
)


class _Stream:
    """Single-consumer iterator with a position counter (items yielded so far).

    Given `at`, the stream also answers `entry(k)`: item k from `at(k)`,
    under the same per-item check as the walk (`_check`), with the
    position left alone. Without `at` it has no `entry` attribute.
    """

    first_index = 0  # the smallest k that `entry(k)` accepts

    def __init__(
        self, items: Iterable, description: str = "", at: Callable[[int], int] | None = None
    ):
        self._items = iter(items)
        self.description = description
        self.position = 0
        self._at = at  # subclasses that accept `at` define `_check`

    @property
    def entry(self) -> Callable[[int], int]:
        if self._at is None:  # so that hasattr() and getattr() see no `entry`
            raise AttributeError(f"{type(self).__name__} without random access has no entry")
        return self._entry

    def _entry(self, k: int) -> int:
        if k < self.first_index:
            raise DomainError(f"entry index must be >= {self.first_index}, got {k}")
        return self._check(k, self._at(k))

    def __iter__(self):
        return self

    def __next__(self):
        value = next(self._items)
        self.position += 1
        return value

    def take(self, n: int) -> list:
        return [next(self) for _ in range(n)]

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.description!r}, position={self.position})"


class RationalEnumeration(_Stream):
    """Single-consumer iterator of positive rationals with a position counter."""

    def __init__(self, values: Iterable[Rational], description: str = ""):
        super().__init__(values, description)


class DigitStream(_Stream):
    """Fractional digits d_1, d_2, ... of one number, plus its integer part.

    `entry(k)`, when present, is the k-th fractional digit (k >= 1).
    """

    first_index = 1

    @staticmethod
    def _check(index: int, d: int) -> int:
        if not 0 <= d <= 9:
            raise DomainError(f"digit out of range: {d}")
        return d

    def __init__(
        self,
        digits: Iterable[int],
        integer_part: int = 0,
        description: str = "",
        at: Callable[[int], int] | None = None,
    ):
        super().__init__(digits, description, at)
        self.integer_part = integer_part

    # The walk repeats `_check` inline: verify_differs pulls O(depth^2)
    # items through here, and a call per item made the walk 25% slower.
    def __next__(self) -> int:
        d = next(self._items)
        if not 0 <= d <= 9:
            raise DomainError(f"digit out of range: {d}")
        self.position += 1
        return d


class CFStream(_Stream):
    """Partial quotients a_0, a_1, a_2, ... of one irrational.

    `entry(k)`, when present, is a_k (k >= 0).
    """

    @staticmethod
    def _check(index: int, a: int) -> int:
        if index == 0:
            if a < 0:
                raise DomainError(f"first partial quotient must be >= 0, got {a}")
        elif a < 1:
            raise DomainError(f"partial quotient at index {index} must be >= 1, got {a}")
        return a

    def __next__(self) -> int:  # `_check` inline, as in DigitStream
        a = next(self._items)
        if self.position == 0:
            if a < 0:
                raise DomainError(f"first partial quotient must be >= 0, got {a}")
        elif a < 1:
            raise DomainError(f"partial quotient at index {self.position} must be >= 1, got {a}")
        self.position += 1
        return a


def calkin_wilf() -> RationalEnumeration:
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

    return RationalEnumeration(gen(), "calkin-wilf")


def digits_of(x: Rational) -> DigitStream:
    """Decimal digit stream of x >= 0; trailing zeros run forever."""
    if x < 0:
        raise DomainError("negative input")

    def gen() -> Iterator[int]:
        rem = x.numerator % x.denominator
        den = x.denominator
        while True:
            rem *= 10
            yield rem // den
            rem %= den

    return DigitStream(
        gen(),
        integer_part=x.numerator // x.denominator,
        description=f"digits of {to_string(x)}",
        at=partial(digit_at, x),
    )


def metallic(k: int) -> CFStream:
    """[k; k, k, k, ...]; k = 1 is the golden ratio."""
    if k < 1:
        raise DomainError("metallic index must be >= 1")
    return CFStream(itertools.repeat(k), f"metallic:{k}", at=lambda _: k)


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


def named_cf_stream(name: str) -> CFStream:
    """Fresh stream for sqrt2, e, phi, pi or metallic:<k>."""
    key = name.strip().lower()
    if key == "sqrt2":
        return CFStream(
            itertools.chain([1], itertools.repeat(2)), "sqrt2",
            at=lambda k: 1 if k == 0 else 2,
        )
    if key == "e":
        return CFStream(_e_quotients(), "e", at=_e_quotient)
    if key == "phi":
        return CFStream(itertools.repeat(1), "phi", at=lambda _: 1)
    if key == "pi":
        return CFStream(map(_pi_quotient, itertools.count()), "pi", at=_pi_quotient)
    if key.startswith("metallic:"):
        try:
            k = int(key.split(":", 1)[1])
        except ValueError:
            raise DomainError(f"invalid metallic index in {name!r}") from None
        return metallic(k)
    raise DomainError(f"unknown stream name: {name!r}")


def irrational_enumeration(count: int) -> list[CFStream]:
    """metallic(1), ..., metallic(count): pairwise distinct infinite streams."""
    if count < 1:
        raise DomainError("count must be >= 1")
    return [metallic(k) for k in range(1, count + 1)]
