"""Eventually periodic decimal expansions of nonnegative rationals.

The period of x = p/q is the multiplicative order of 10 modulo q
stripped of its factors of 2 and 5, and the preperiod is the larger of
the two exponents stripped. `period_length_by_order` computes both by
number theory, with Miller-Rabin and Pollard-Brent rho to factor q
and Euler's phi(q) (`_factoring`). `expand` takes the two lengths from
it and divides out exactly that many digits in blocks, with no search.
`period_length` reaches the same numbers by a different route, long
division that walks the remainder cycle once and never consults the
order, which the test suite uses as an independent cross-check; `expand`
itself is checked against `reconstruct`, and takes the lengths from
`period_length` only where rho gives up on q.

Terminating decimals are represented with the trailing-zero convention:
period "0", never a 9-tail. Nine-repeating periods are rejected on
input as well, since the same value always has a plain representation.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from typing import NamedTuple

from .errors import DomainError, RangeError
from .exact_numbers import Rational, _digits_of_int, _int_from_digits, _is_digits, to_string

__all__ = (
    "DecimalExpansion", "PeriodReport", "digit_at", "expand",
    "find_period_at_least", "multiplicative_order", "parse_expansion",
    "period_length", "period_length_by_order", "reconstruct",
)

# the most digits, preperiod plus one period, that `expand` divides out
# and `period_length` walks; 1/10000019, whose period has 10000018, fits
MAX_DIGITS = 2 * 10**7

# the most digits one long division makes, in `expand` and in
# `enumeration.digits_of`: str() of a block is quadratic in its length,
# and 256 measured faster than 64, 128 or 1024 on the period of 1/1000003
_BLOCK = 256
_SCALE = 10**_BLOCK


class DecimalExpansion(tuple):
    """integer_part.preperiod(period), e.g. "0.23(45)" or "5.(0)"."""

    __slots__ = ()
    integer_part = property(operator.itemgetter(0))
    preperiod = property(operator.itemgetter(1))
    period = property(operator.itemgetter(2))

    def __new__(cls, integer_part: int, preperiod: str, period: str) -> DecimalExpansion:
        try:
            integer_part = operator.index(integer_part)
        except TypeError:
            raise DomainError(f"integer part must be an integer, got {integer_part!r}") from None
        if integer_part < 0:
            raise DomainError("negative integer part")
        if not period:
            raise DomainError("empty period")
        for block in (preperiod, period):
            if block and not _is_digits(block):
                raise DomainError(f"invalid digit block: {block!r}")
        if set(period) == {"9"}:
            raise DomainError("nine-repeating period unsupported")
        return super().__new__(cls, (integer_part, preperiod, period))

    def __getnewargs__(self) -> tuple[int, str, str]:
        return tuple(self)

    def __repr__(self) -> str:
        return f"DecimalExpansion{tuple(self)!r}"

    def __str__(self) -> str:
        return f"{_digits_of_int(self.integer_part)}.{self.preperiod}({self.period})"


class PeriodReport(NamedTuple):
    """Period and preperiod lengths; terminating decimals carry period "0"."""

    period_length: int
    preperiod_length: int
    terminating: bool


def expand(x: Rational) -> DecimalExpansion:
    """Minimal (preperiod, period) of x >= 0, with no search.

    `period_length_by_order` gives the preperiod length mu and period
    length lambda first, so exactly mu + lambda digits are divided out,
    in blocks of up to 256, and an expansion longer than MAX_DIGITS is
    refused before any digit is made. Where the denominator resists
    factoring, `period_length`'s walk of the remainders gives mu and
    lambda instead, in O(mu + lambda) steps and under the same limit.
    A terminating x carries period "0", the digit after its preperiod.
    """
    lam, mu, _ = _period_report(x)
    n = mu + lam
    if n > MAX_DIGITS:
        raise _over_the_limit(x)
    den = x.denominator
    whole, rem = divmod(x.numerator, den)
    blocks = []
    for start in range(0, n, _BLOCK):
        k = min(_BLOCK, n - start)
        block, rem = divmod(rem * (_SCALE if k == _BLOCK else 10**k), den)
        blocks.append(str(block).zfill(k))
    digits = "".join(blocks)
    return DecimalExpansion(whole, digits[:mu], digits[mu:])


def _period_report(x: Rational) -> PeriodReport:
    # the order of 10 where rho splits the denominator, else the walk
    try:
        return period_length_by_order(x)
    except RangeError:  # rho found no factor within its budget
        return period_length(x)


def period_length(x: Rational) -> PeriodReport:
    """Report from long division, walking the remainder cycle once.

    The remainders r -> 10*r mod q repeat exactly when the digits do.
    The preperiod mu, max(a, b) for the 2^a and 5^b in q, is shorter
    than B = q.bit_length() digits, so the remainder after B digits is
    on the cycle, and one O(1)-memory walk from it first returns after
    the period lambda; two walkers lambda apart then meet after mu
    digits: B + lambda + mu remainders, the first B in one modular
    power. Remainder 0 repeats at once: terminating, period 1. As in
    `expand`, mu + lambda > MAX_DIGITS is a RangeError, and the walk
    refuses after MAX_DIGITS steps without a return. This never consults
    the order of 10; a wrong bound on mu could only make the walk refuse.
    """
    if x.numerator < 0:
        raise DomainError("negative input")
    q = x.denominator
    start = x.numerator % q
    walker = on_cycle = start * pow(10, q.bit_length(), q) % q
    for lam in range(1, MAX_DIGITS + 1):
        walker = walker * 10 % q
        if walker == on_cycle:
            break
    else:
        raise _over_the_limit(x)
    behind, ahead, mu = start, start * pow(10, lam, q) % q, 0
    while behind != ahead:
        behind, ahead, mu = behind * 10 % q, ahead * 10 % q, mu + 1
    if mu + lam > MAX_DIGITS:
        raise _over_the_limit(x)
    return PeriodReport(lam, mu, ahead == 0)


def _over_the_limit(x: Rational) -> RangeError:
    return RangeError(f"the expansion of {to_string(x)} has more than {MAX_DIGITS} digits")


def period_length_by_order(x: Rational) -> PeriodReport:
    """Same report derived from number theory instead of long division.

    Each division by gcd(den, 10) > 1 removes one 2 and one 5 from the
    reduced denominator 2^a * 5^b * d: one preperiod digit, max(a, b) in
    all. The period is the order of 10 modulo d (terminating if d = 1).
    """
    if x.numerator < 0:
        raise DomainError("negative input")
    den = x.denominator
    preperiod = 0
    while (g := math.gcd(den, 10)) > 1:
        den //= g
        preperiod += 1
    if den == 1:
        return PeriodReport(1, preperiod, True)
    return PeriodReport(multiplicative_order(10, den), preperiod, False)


def _prime_factors(n: int) -> list[int]:
    # `_factoring` is compiled on the first call, not by `import diagcf`;
    # the import rebinds this name to its `prime_factors`
    global _prime_factors
    from ._factoring import prime_factors as _prime_factors
    return _prime_factors(n)


def multiplicative_order(base: int, modulus: int) -> int:
    """Least l >= 1 with base**l = 1 (mod modulus).

    The order divides Euler's phi(n) = n * prod(1 - 1/p) over the primes
    p of n, so stripping prime factors from phi(n) finds it. Factoring
    (`_factoring`) is trial division by the primes below 53, then
    Pollard-Brent rho; primality is Miller-Rabin to 13 bases, proven
    exact below 3.3 * 10^24, and past that bound it rests on Baillie-PSW
    (no counterexample is known). A number that rho cannot split within
    `_factoring.MAX_RHO_STEPS` steps is a RangeError.
    """
    if modulus < 2:
        raise DomainError("modulus must be >= 2")
    if math.gcd(base, modulus) != 1:
        raise DomainError("base and modulus must be coprime")
    order = modulus
    for p in _prime_factors(modulus):
        order = order // p * (p - 1)
    for p in _prime_factors(order):
        while order % p == 0 and pow(base, order // p, modulus) == 1:
            order //= p
    return order


def digit_at(x: Rational, j: int) -> int:
    """j-th fractional digit (1-based), trailing zeros included.

    floor(x * 10^j) mod 10 only needs 10^j modulo 10*den, so this is
    O(log j) however deep j goes.
    """
    if x.numerator < 0:
        raise DomainError("negative input")
    if j < 1:
        raise DomainError("digit position must be >= 1")
    num, den = x.numerator, x.denominator
    return (num * pow(10, j, 10 * den)) % (10 * den) // den


def reconstruct(e: DecimalExpansion) -> Rational:
    """Exact value of an expansion as one fraction, without long division.

    w.u(v) = w + (int(uv) - int(u)) / (10^|u| * (10^|v| - 1)), the
    geometric-series closed form; an empty preperiod reads as 0.
    """
    u, v = e.preperiod, e.period
    den = 10 ** len(u) * (10 ** len(v) - 1)
    num = _int_from_digits(u + v) - _int_from_digits(u or "0")
    return Fraction(e.integer_part * den + num, den)


def find_period_at_least(min_length: int) -> Rational:
    """Some 1/d whose period length is at least min_length.

    Scans d coprime to 10 for an order of 10 >= min_length, from
    min_length + 1 as that order is at most d - 1; the scan ends, since
    10 has order k mod 10^k - 1. `period_length` re-verifies the winner.
    """
    if min_length < 1:
        raise DomainError("period length bound must be >= 1")
    if min_length > MAX_DIGITS:  # the re-check would refuse every winner
        raise RangeError(f"period length bound {min_length} exceeds {MAX_DIGITS} digits")
    d = max(3, min_length + 1)
    while True:
        if math.gcd(d, 10) == 1 and multiplicative_order(10, d) >= min_length:
            result = Fraction(1, d)
            if period_length(result).period_length < min_length:  # an explicit check survives -O
                raise AssertionError(f"long division of 1/{d} disagrees with the order of 10")
            return result
        d += 1


def parse_expansion(text: str) -> DecimalExpansion:
    """Parse "w.uu(vv)", e.g. "0.23(45)" or "5.(0)"; `DecimalExpansion` checks uu and vv."""
    whole, dot, rest = text.strip().partition(".")
    preperiod, paren, period = rest.partition("(")
    if not (dot and paren and period.endswith(")") and _is_digits(whole)):
        raise DomainError(f"invalid expansion literal: {text!r}")
    return DecimalExpansion(_int_from_digits(whole), preperiod, period[:-1])
