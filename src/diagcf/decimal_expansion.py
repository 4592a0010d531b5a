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
    do, so the first repeated remainder marks the minimal preperiod and
    period. Remainder 0 repeats at once with digit 0: period "0".
    """
    if x < 0:
        raise DomainError("negative input")
    den = x.denominator
    whole, rem = divmod(x.numerator, den)
    digits: list[str] = []
    seen: dict[int, int] = {}
    while rem not in seen:
        seen[rem] = len(digits)
        rem *= 10
        digits.append(str(rem // den))
        rem %= den
    start = seen[rem]
    return DecimalExpansion(whole, "".join(digits[:start]), "".join(digits[start:]))


def period_length(x: Rational) -> PeriodReport:
    """Report from the long-division expansion of x."""
    e = expand(x)
    return PeriodReport(len(e.period), len(e.preperiod), e.period == "0")


def period_length_by_order(x: Rational) -> PeriodReport:
    """Same report derived from number theory instead of long division.

    Each division by gcd(den, 10) > 1 removes one 2 and one 5 from the
    reduced denominator 2^a * 5^b * d: one preperiod digit, max(a, b) in
    all. The period is the order of 10 modulo d (terminating if d = 1).
    """
    if x < 0:
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


def multiplicative_order(base: int, modulus: int) -> int:
    """Least l >= 1 with base**l = 1 (mod modulus).

    The order divides Euler's phi(n) = n * prod(1 - 1/p) over the primes
    p of n, so stripping prime factors from phi(n) finds it; trial
    division factors fast enough at the scales this package works at.
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
    min_length + 1 since that order is at most d - 1; expand re-verifies
    the winner. The scan ends: the order of 10 mod 10^k - 1 is k.
    """
    if min_length < 1:
        raise DomainError("period length bound must be >= 1")
    d = max(3, min_length + 1)
    while True:
        if math.gcd(d, 10) == 1 and multiplicative_order(10, d) >= min_length:
            result = Fraction(1, d)
            if len(expand(result).period) < min_length:  # an explicit check survives -O
                raise AssertionError(f"long division of 1/{d} disagrees with the order of 10")
            return result
        d += 1


def parse_expansion(text: str) -> DecimalExpansion:
    """Parse the "w.uu(vv)" form, e.g. "0.23(45)" or "5.(0)"."""
    m = _EXPANSION_RE.match(text.strip())
    if not m:
        raise DomainError(f"invalid expansion literal: {text!r}")
    return DecimalExpansion(_int_from_digits(m.group(1)), m.group(2), m.group(3))
