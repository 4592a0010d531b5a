"""Finite simple continued fractions for nonnegative rationals.

Conversion runs in both directions: `from_rational` is the Euclidean
quotient sequence, `to_rational` folds the terms back to front in exact
arithmetic. `from_real_approx` extracts a continued fraction from a
machine real: the exact rational value of the machine number has
Euclid's quotients, read off its integer ratio, and they stop once the
convergent is within a caller-supplied eps, tested in integers.

A rational has two finite representations, [..., a_n] and
[..., a_n - 1, 1]; the canonical form bans the trailing 1 so equality is
structural. Non-canonical term lists are accepted everywhere as input.
"""

from __future__ import annotations

import itertools
import operator
from fractions import Fraction
from typing import Iterable, Iterator, NamedTuple, Sequence, Union

from .errors import DomainError, RangeError
from .exact_numbers import (
    Rational, _check_count, _check_rational, _check_text, _coprime, _digits_of_int,
    _int_from_digits, _is_digits, _quote, _repr,
)

__all__ = (
    "ApproximationComparison", "ContinuedFraction", "Convergent",
    "approximation_compare", "canonicalize", "convergents",
    "fractional_digit_budget", "from_rational", "from_real_approx", "parse_cf",
    "to_plain_string", "to_rational",
)


def _check_quotients(index: int, run: Sequence[int]) -> None:
    # the one quotient rule, for the terms here and for cf rows: integers, a_0 >= 0 and
    # a_k >= 1 after it; `index` is the index of run[0]. Item by item: no workload walks
    # a cf run from outside the package, and `convert`'s short runs check faster this way
    for a in run:
        if not isinstance(a, int):
            raise DomainError(f"partial quotient must be an integer, got {_quote(a)}")
    for k, a in enumerate(run, index):
        if k == 0 and a < 0:
            raise DomainError(f"first partial quotient must be >= 0, got {_digits_of_int(a)}")
        if k > 0 and a < 1:
            raise DomainError(
                f"partial quotient at index {k} must be >= 1, got {_digits_of_int(a)}"
            )


def _quotients(items: Iterable[int], count: int | None = None) -> tuple[int, ...]:
    # the first `count` terms (all for None) as plain ints, under the quotient rule
    try:
        ts = tuple(map(operator.index, itertools.islice(items, count)))
    except TypeError:
        raise DomainError("partial quotients must be integers") from None
    _check_quotients(0, ts)
    return ts


class ContinuedFraction(tuple):
    """[a0; a1, ..., an] with a0 >= 0 and ai >= 1 for i >= 1: the tuple of its terms."""

    __slots__ = ()
    __repr__ = _repr

    def __new__(cls, terms: Iterable[int]) -> ContinuedFraction:
        if type(terms) is cls:  # already checked
            return terms
        ts = _quotients(terms)
        if not ts:
            raise DomainError("empty continued fraction")
        return super().__new__(cls, ts)

    @property
    def terms(self) -> tuple[int, ...]:
        return self

    @property
    def is_canonical(self) -> bool:
        return len(self) == 1 or self[-1] >= 2

    def __str__(self) -> str:
        head = _digits_of_int(self[0])
        if len(self) == 1:
            return f"[{head}]"
        return f"[{head}; {', '.join(map(_digits_of_int, self[1:]))}]"


class Convergent(NamedTuple):
    """Value of the length-(index+1) prefix, in lowest terms."""

    index: int
    value: Rational

    __repr__ = _repr


CFLike = Union[ContinuedFraction, Iterable[int]]


def _euclid(num: int, den: int) -> Iterator[int]:
    # the quotients of Euclid's gcd algorithm on plain ints num/den >= 0, den >= 1, as
    # `_check_rational` and `_exact` give them: ints a_0 >= 0, then a_k >= 1, as the rule asks
    while den:
        a, rem = divmod(num, den)
        yield a
        num, den = den, rem


def from_rational(x: Rational) -> ContinuedFraction:
    """Euclidean quotient expansion of x >= 0; the result is canonical.

    The quotient loop is the Euclidean gcd algorithm read off by its
    quotients, so it terminates for every rational and never emits a
    trailing 1 when the expansion has more than one term.
    """
    return tuple.__new__(ContinuedFraction, _euclid(*_check_rational(x)))


def to_rational(cf: CFLike) -> Rational:
    """Exact value, folding back to front: rest -> a + 1/rest.

    The fold multiplies the suffix's (num, den) by the unimodular matrix
    [[a, 1], [1, 0]], which keeps gcd(num, den) = 1 from the first pair
    (a_n, 1) on, so the value is built in lowest terms with no gcd.
    """
    terms = ContinuedFraction(cf)
    # the (num, den) pair is the exact rational value of the suffix
    num, den = terms[-1], 1
    for a in reversed(terms[:-1]):
        num, den = a * num + den, num
    return _coprime(num, den)


def canonicalize(terms: CFLike) -> ContinuedFraction:
    """Merge a trailing 1 into its predecessor; the value is unchanged."""
    ts = ContinuedFraction(terms)
    if len(ts) >= 2 and ts[-1] == 1:  # a checked list stays valid when merged
        return tuple.__new__(ContinuedFraction, ts[:-2] + (ts[-2] + 1,))
    return ts


def _convergents(quotients: Iterable[int]) -> Iterator[tuple[int, int, int]]:
    # (a_k, h_k, k_k) by h_k = a_k*h_{k-1} + h_{k-2}, and the same for k_k
    h1, h2 = 1, 0  # h_{k-1}, h_{k-2}
    k1, k2 = 0, 1
    for a in quotients:
        h1, h2 = a * h1 + h2, h1
        k1, k2 = a * k1 + k2, k1
        yield a, h1, k1


def convergents(source, count: int) -> list[Convergent]:
    """First `count` truncation values h_k/k_k of a CF or quotient stream.

    Uses the standard recurrence h_k = a_k*h_{k-1} + h_{k-2} (same for
    k_k). Each value is built without gcd, by the determinant identity
    h_k*k_{k-1} - h_{k-1}*k_k = (-1)^(k-1) (Hardy and Wright, Thm 150),
    which puts h_k/k_k in lowest terms. A `ContinuedFraction` source is
    already checked, so its terms are read as they are.
    """
    count = _check_count("count", count)
    if count < 1:
        raise RangeError("count must be >= 1")
    # only the first `count` quotients are pulled, and they pass the quotient rule
    if type(source) is ContinuedFraction:  # already checked, as in ContinuedFraction()
        quotients = source[:count]
    else:
        quotients = _quotients(source, count)
    if len(quotients) < count:
        raise RangeError(f"count {count} exceeds the {len(quotients)} available terms")
    values = [_coprime(h, k) for _, h, k in _convergents(quotients)]
    # Convergent(i, value) made in C: tuple.__new__ is what the class's own __new__ calls
    return list(map(tuple.__new__, itertools.repeat(Convergent), zip(itertools.count(), values)))


def _exact(value, name: str) -> tuple[int, int]:
    # value's exact ratio as plain ints, since a Fraction keeps numpy parts, which overflow;
    # Fraction() raises ValueError on nan, OverflowError on +-inf, TypeError on a non-number
    try:
        num, den = Fraction(value).as_integer_ratio()
    except (ValueError, OverflowError, TypeError):
        raise DomainError(f"{name} must be a finite number, got {_quote(value)}") from None
    return operator.index(num), operator.index(den)


def from_real_approx(x, eps) -> ContinuedFraction:
    """First convergent of a real-valued input within eps of it.

    The input is converted once to the exact rational value tn/td of
    the machine number, and eps to en/ed; the loop then runs entirely
    in integers, taking Euclid's quotients of tn/td and stopping at the
    first convergent h/k with |tn*k - h*td| * ed <= en * td * k. The
    result is canonicalized (the value is unchanged by that). A
    non-finite x or eps (nan, inf) or a non-number is a DomainError.
    """
    en, ed = _exact(eps, "eps")
    if en <= 0:
        raise DomainError("eps must be positive")
    tn, td = _exact(x, "input")
    if tn <= 0:
        raise DomainError("positive input required")
    terms: list[int] = []
    for a, h, k in _convergents(_euclid(tn, td)):
        terms.append(a)
        if abs(tn * k - h * td) * ed <= en * td * k:
            break
    return canonicalize(tuple.__new__(ContinuedFraction, terms))


def fractional_digit_budget(cf: CFLike) -> int:
    """Total decimal digits across a_1..a_n, with a_0 excluded."""
    terms = ContinuedFraction(cf)
    return sum(len(_digits_of_int(a)) for a in terms[1:])


class ApproximationComparison(NamedTuple):
    """Exact absolute errors of two approximations to the same target."""

    cf_error: Rational
    decimal_error: Rational
    closer: str  # "cf", "decimal" or "tie"

    __repr__ = _repr


def approximation_compare(
    target: Rational, cf_approx: Rational, decimal_approx: Rational
) -> ApproximationComparison:
    """Which of the two approximations sits closer to the target."""
    try:
        cf_error, decimal_error = abs(target - cf_approx), abs(target - decimal_approx)
    except TypeError:
        names = ", ".join(type(v).__name__ for v in (target, cf_approx, decimal_approx))
        raise DomainError(f"target and approximations must be numbers, got {names}") from None
    if cf_error < decimal_error:
        closer = "cf"
    elif decimal_error < cf_error:
        closer = "decimal"
    else:
        closer = "tie"
    return ApproximationComparison(cf_error, decimal_error, closer)


def to_plain_string(cf: CFLike) -> str:
    """Space-separated partial quotients, e.g. "0 1 6"."""
    return " ".join(map(_digits_of_int, ContinuedFraction(cf)))


def parse_cf(text: str) -> ContinuedFraction:
    """Parse "[a0; a1, a2, ...]" or the space-separated "a0 a1 a2"."""
    s = _check_text("text", text)
    if s.startswith("[") and s.endswith("]"):
        head, sep, tail = s[1:-1].partition(";")
        parts = [head, *tail.split(",")] if sep else [head]
    else:
        parts = s.split()
    parts = [p.strip() for p in parts]
    if not (all(parts) and _is_digits("".join(parts))):  # each a nonempty digit run
        raise DomainError(f"invalid continued fraction literal: {text!r}")
    return ContinuedFraction(map(_int_from_digits, parts))
