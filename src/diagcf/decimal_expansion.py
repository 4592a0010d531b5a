"""Eventually periodic decimal expansions of nonnegative rationals.

`expand` finds the minimal preperiod and period by long division with
remainder-cycle detection. `period_length_by_order` reaches the same
numbers by a different route, the multiplicative order of 10 modulo the
denominator stripped of its factors of 2 and 5, which the test suite
uses as an independent cross-check.

Terminating decimals are represented with the trailing-zero convention:
period "0", never a 9-tail. Nine-repeating periods are rejected on
input as well, since the same value always has a plain representation.
"""

from __future__ import annotations

import math
import operator
import re
from fractions import Fraction
from typing import NamedTuple

from .errors import DomainError
from .exact_numbers import Rational, _digits_of_int, _int_from_digits

__all__ = (
    "DecimalExpansion", "PeriodReport", "digit_at", "expand",
    "find_period_at_least", "multiplicative_order", "parse_expansion",
    "period_length", "period_length_by_order", "reconstruct",
)

_EXPANSION_RE = re.compile(r"^(\d+)\.(\d*)\((\d+)\)$")


class DecimalExpansion(tuple):
    """integer_part.preperiod(period), e.g. "0.23(45)" or "5.(0)"."""

    __slots__ = ()
    integer_part = property(operator.itemgetter(0))
    preperiod = property(operator.itemgetter(1))
    period = property(operator.itemgetter(2))

    def __new__(cls, integer_part: int, preperiod: str, period: str) -> DecimalExpansion:
        if integer_part < 0:
            raise DomainError("negative integer part")
        if not period:
            raise DomainError("empty period")
        for block in (preperiod, period):
            if block and not (block.isascii() and block.isdigit()):
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
    """Minimal (preperiod, period) of x >= 0 by long division.

    The remainder sequence p*10^j mod q repeats exactly when the digits
    do, so the first repeated remainder marks both the minimal preperiod
    and the minimal period.
    """
    if x < 0:
        raise DomainError("negative input")
    whole, rem = divmod(x.numerator, x.denominator)
    den = x.denominator
    if rem == 0:
        return DecimalExpansion(whole, "", "0")
    digits: list[str] = []
    seen: dict[int, int] = {}
    while rem != 0 and rem not in seen:
        seen[rem] = len(digits)
        rem *= 10
        digits.append(str(rem // den))
        rem %= den
    if rem == 0:
        return DecimalExpansion(whole, "".join(digits), "0")
    start = seen[rem]
    return DecimalExpansion(whole, "".join(digits[:start]), "".join(digits[start:]))


def period_length(x: Rational) -> PeriodReport:
    """Report from the long-division expansion of x."""
    e = expand(x)
    return PeriodReport(len(e.period), len(e.preperiod), e.period == "0")


def period_length_by_order(x: Rational) -> PeriodReport:
    """Same report derived from number theory instead of long division.

    Write the reduced denominator as 2^a * 5^b * d with gcd(d, 10) = 1:
    the preperiod length is max(a, b) and the period length is the
    multiplicative order of 10 modulo d (terminating when d = 1).
    """
    if x < 0:
        raise DomainError("negative input")
    den = x.denominator
    a = 0
    while den % 2 == 0:
        den //= 2
        a += 1
    b = 0
    while den % 5 == 0:
        den //= 5
        b += 1
    if den == 1:
        return PeriodReport(1, max(a, b), True)
    return PeriodReport(multiplicative_order(10, den), max(a, b), False)


def _prime_factors(n: int) -> list[int]:
    factors = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            factors.append(d)
            while n % d == 0:
                n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        factors.append(n)
    return factors


def _carmichael(n: int) -> int:
    lam = 1
    rest = n
    for p in _prime_factors(n):
        e = 0
        while rest % p == 0:
            rest //= p
            e += 1
        if p == 2 and e >= 3:
            block = 2 ** (e - 2)
        else:
            block = (p - 1) * p ** (e - 1)
        lam = math.lcm(lam, block)
    return lam


def multiplicative_order(base: int, modulus: int) -> int:
    """Least l >= 1 with base**l = 1 (mod modulus).

    The order divides the Carmichael function of the modulus, so it is
    found by stripping prime factors from that bound; trial-division
    factoring is plenty at the scales this package works at.
    """
    if modulus < 2:
        raise DomainError("modulus must be >= 2")
    if math.gcd(base, modulus) != 1:
        raise DomainError("base and modulus must be coprime")
    order = _carmichael(modulus)
    for p in _prime_factors(order):
        while order % p == 0 and pow(base, order // p, modulus) == 1:
            order //= p
    return order


def digit_at(x: Rational, j: int) -> int:
    """j-th fractional digit (1-based), trailing zeros included.

    floor(x * 10^j) mod 10 only needs 10^j modulo 10*den, so this is
    O(log j) however deep j goes.
    """
    if x < 0:
        raise DomainError("negative input")
    if j < 1:
        raise DomainError("digit position must be >= 1")
    num, den = x.numerator, x.denominator
    return (num * pow(10, j, 10 * den)) % (10 * den) // den


def reconstruct(e: DecimalExpansion) -> Rational:
    """Exact value of an expansion via the geometric-series closed form."""
    p = len(e.preperiod)
    l = len(e.period)
    value = Fraction(e.integer_part)
    if e.preperiod:
        value += Fraction(_int_from_digits(e.preperiod), 10**p)
    value += Fraction(_int_from_digits(e.period), 10**p * (10**l - 1))
    return value


def find_period_at_least(min_length: int) -> Rational:
    """Some 1/d whose period length is at least min_length.

    Scans denominators coprime to 10 in increasing order and tests the
    multiplicative order of 10; the winner is re-verified by expand.
    The scan always terminates: the order of 10 mod a prime can be as
    large as p - 1, so arbitrarily long periods exist.
    """
    if min_length < 1:
        raise DomainError("period length bound must be >= 1")
    d = 3
    while True:
        if math.gcd(d, 10) == 1:
            if multiplicative_order(10, d) >= min_length:
                result = Fraction(1, d)
                assert len(expand(result).period) >= min_length
                return result
        d += 1


def parse_expansion(text: str) -> DecimalExpansion:
    """Parse the "w.uu(vv)" form, e.g. "0.23(45)" or "5.(0)"."""
    m = _EXPANSION_RE.match(text.strip())
    if not m:
        raise DomainError(f"invalid expansion literal: {text!r}")
    return DecimalExpansion(_int_from_digits(m.group(1)), m.group(2), m.group(3))
