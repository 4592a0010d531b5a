"""Exact rational arithmetic.

The universal value type is `fractions.Fraction`, aliased to `Rational`.
It already keeps exactly the representation the rest of the package
relies on: always reduced, denominator >= 1, sign carried by the
numerator, zero stored as 0/1. The helpers here add the domain errors
and the textual form used by the CLI.

`_coprime` makes a `Fraction` from parts already in that form, with no
gcd and no pass through `Fraction.__new__`. Three constructions use it,
each reduced by a theorem rather than by a check: the convergents h_k/k_k
(h_k*k_{k-1} - h_{k-1}*k_k = +-1, Hardy and Wright, Thm 150), the value
`to_rational` folds back to front (a product of matrices of determinant
-1), and the Calkin-Wilf successors (Calkin and Wilf, 2000).
"""

from __future__ import annotations

import numbers
import operator
import sys
from fractions import Fraction

from .errors import DomainError, InputError, RangeError

__all__ = ("Rational", "make_rational", "parse_rational", "to_string")

Rational = Fraction

# CPython 3.10.7+ converts int/str of at most sys.get_int_max_str_digits()
# digits (0: no limit; never set below this threshold); longer go in halves
_UNCHECKED_DIGITS = getattr(sys.int_info, "str_digits_check_threshold", float("inf"))


def _is_digits(s: str) -> bool:
    """A nonempty run of ASCII digits, the digit rule of every literal parsed
    here; int() also takes "+3", " 3", "1_0" and other scripts' digits."""
    return s.isascii() and s.isdigit()


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


def _quote(x, render=repr) -> str:
    # render(x) for a refusal message, or x's type name where rendering x passes the
    # int/str limit, as repr(Fraction(10**5000 + 1, 2)) does with a ValueError
    try:
        return render(x)
    except ValueError:
        return type(x).__name__


def _digits_of_int(n: int) -> str:
    """The digits of an int of any size; a bool prints as 0 or 1, and a
    value that is no int, which only a refusal quotes, as `_quote` gives its str()."""
    try:
        bits = n.bit_length()  # a digit carries 3.32 bits
    except AttributeError:
        return _quote(n, str)
    if bits < 3 * _UNCHECKED_DIGITS or bits <= 3 * (sys.get_int_max_str_digits() or bits):
        return int.__repr__(n)
    if n < 0:
        return "-" + _digits_of_int(-n)
    low = bits * 3 // 20  # about half the digits
    high, rest = divmod(n, 10**low)
    return _digits_of_int(high) + _digits_of_int(rest).zfill(low)


def _repr(x) -> str:
    """repr(x) with each int printed by `_digits_of_int`; every record's __repr__, the call
    Name(*x.__getnewargs__()) that pickle rebuilds it with, by keyword where it has `_fields`."""
    if type(x) is int:
        return _digits_of_int(x)
    if type(x) is Fraction:
        return f"Fraction({_digits_of_int(x.numerator)}, {_digits_of_int(x.denominator)})"
    if type(x) is tuple:
        return f"({', '.join(map(_repr, x))}{',' * (len(x) == 1)})"
    if not isinstance(x, tuple):
        return repr(x)
    args = map(_repr, x.__getnewargs__())
    if hasattr(x, "_fields"):
        args = map("{}={}".format, x._fields, args)
    return f"{type(x).__name__}({', '.join(args)})"


def _coprime(num: int, den: int) -> Fraction:
    # the Fraction num/den for plain ints already in lowest terms with den >= 1: the two
    # slots Fraction declares, written as CPython 3.12's Fraction._from_coprime_ints does
    x = object.__new__(Fraction)
    x._numerator = num
    x._denominator = den
    return x


def _check_count(name: str, n: int) -> int:
    # n as an int of any sign (a numpy int would overflow in arithmetic); islice refuses a
    # stop past sys.maxsize, and no list holds that many
    if type(n) is not int:
        n = _check_index(name, n, float("-inf"))
    if n > sys.maxsize:
        raise RangeError(f"{name} must be <= {sys.maxsize}")
    return n


def _check_text(name: str, text: str) -> str:
    # text without its surrounding whitespace, where text is a str; else the refusal
    if not isinstance(text, str):
        raise DomainError(f"{name} must be a str, got {type(text).__name__}")
    return text.strip()


def _check_iterable(name: str, items):
    # an iterator over items, where items is an iterable; else the refusal
    try:
        return iter(items)
    except TypeError:
        raise InputError(f"{name} must be iterable, got {type(items).__name__}") from None


def _check_index(name: str, k, first: float) -> int:
    # k as an int where operator.index takes it (numpy ints too) and k >= first; else the refusal
    if isinstance(k, numbers.Real) and k < first:  # a float or Fraction too
        raise DomainError(f"{name} must be >= {first}, got {_digits_of_int(k)}")
    try:
        return operator.index(k)
    except TypeError:
        raise DomainError(f"{name} must be an integer, got {_quote(k)}") from None


def _check_rational(x, signed: bool = False) -> tuple[int, int]:
    # x's numerator and denominator as ints in lowest terms, where x >= 0 (any sign where
    # signed) is an int over an int >= 1 (numpy ints too, which would overflow in
    # arithmetic); else the refusal
    try:
        if type(x) is Fraction:  # its slots, with no property call
            num, den = operator.index(x._numerator), operator.index(x._denominator)
        else:
            num, den = operator.index(x.numerator), operator.index(x.denominator)
    except (AttributeError, TypeError):
        raise DomainError(f"x must be a rational, got {_quote(x)}") from None
    if den < 1:
        raise DomainError(f"denominator must be >= 1, got {_digits_of_int(den)}")
    if num < 0 and not signed:
        raise DomainError("negative input")
    if type(x) is not Fraction and type(x) is not int and type(x) is not bool:  # reduced when made
        return Fraction(num, den).as_integer_ratio()
    return num, den


def make_rational(num: int, den: int) -> Rational:
    """Reduced fraction num/den; the sign ends up on the numerator."""
    if type(num) is not int or type(den) is not int:  # a parse per literal: skip the calls
        num = _check_index("numerator", num, float("-inf"))
        den = _check_index("denominator", den, float("-inf"))
    if den == 0:
        raise DomainError("zero denominator")
    return Fraction(num, den)


def to_string(x: Rational) -> str:
    """"p/q" in lowest terms, or plain "p" when the denominator is 1; x is read
    as every rational is, except that it may be negative."""
    num, den = _check_rational(x, signed=True)
    if den == 1:
        return _digits_of_int(num)
    return f"{_digits_of_int(num)}/{_digits_of_int(den)}"


def parse_rational(text: str) -> Rational:
    """Parse "p", "-p" or "p/q"; digit strings may be arbitrarily long."""
    num, slash, den = _check_text("text", text).partition("/")
    if not (_is_digits(num.removeprefix("-")) and (not slash or _is_digits(den))):
        raise DomainError(f"invalid rational literal: {text!r}")
    return make_rational(_int_from_digits(num), _int_from_digits(den or "1"))
