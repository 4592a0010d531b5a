"""Exact rational arithmetic.

The universal value type is `fractions.Fraction`, aliased to `Rational`.
It already keeps exactly the representation the rest of the package
relies on: always reduced, denominator >= 1, sign carried by the
numerator, zero stored as 0/1. The helpers here add the domain errors
and the textual form used by the CLI.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction

from .errors import DomainError

__all__ = ("Rational", "make_rational", "parse_rational", "to_string")

Rational = Fraction

_RATIONAL_RE = re.compile(r"^-?\d+(?:/\d+)?$")

# CPython 3.10.7+ converts int/str of at most sys.get_int_max_str_digits()
# digits (0: no limit; never set below this threshold); longer go in halves
_UNCHECKED_DIGITS = getattr(sys.int_info, "str_digits_check_threshold", float("inf"))


def _int_from_digits(s: str) -> int:
    """int(s) for an optionally signed digit string of any length.

    Past the int/str limit s must be plain digits after the sign, so that
    its halves can never join a string like "12 34" into one number.
    """
    if len(s) < _UNCHECKED_DIGITS or len(s) <= (sys.get_int_max_str_digits() or len(s)):
        return int(s)
    if s[0] == "-" and s[1:].isdigit():
        return -_int_from_digits(s[1:])
    if not s.isdigit():
        raise ValueError(f"invalid literal for a {len(s)}-character int")
    low = len(s) // 2
    return _int_from_digits(s[:-low]) * 10**low + _int_from_digits(s[-low:])


def _digits_of_int(n: int) -> str:
    """str(n) for an int of any size."""
    bits = n.bit_length()  # a digit carries 3.32 bits
    if bits < 3 * _UNCHECKED_DIGITS or bits <= 3 * (sys.get_int_max_str_digits() or bits):
        return str(n)
    if n < 0:
        return "-" + _digits_of_int(-n)
    low = bits * 3 // 20  # about half the digits
    high, rest = divmod(n, 10**low)
    return _digits_of_int(high) + _digits_of_int(rest).zfill(low)


def make_rational(num: int, den: int) -> Rational:
    """Reduced fraction num/den; the sign ends up on the numerator."""
    if den == 0:
        raise DomainError("zero denominator")
    return Fraction(num, den)


def to_string(x: Rational) -> str:
    """"p/q" in lowest terms, or plain "p" when the denominator is 1."""
    if x.denominator == 1:
        return _digits_of_int(x.numerator)
    return f"{_digits_of_int(x.numerator)}/{_digits_of_int(x.denominator)}"


def parse_rational(text: str) -> Rational:
    """Parse "p", "-p" or "p/q"; digit strings may be arbitrarily long."""
    s = text.strip()
    if not _RATIONAL_RE.match(s):
        raise DomainError(f"invalid rational literal: {text!r}")
    num, _, den = s.partition("/")
    return make_rational(_int_from_digits(num), _int_from_digits(den or "1"))
