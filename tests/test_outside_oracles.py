"""Outside oracles: sympy and mpmath, implementations of the same mathematics
that share no code or route with the package, checked against it where they
are installed. Neither is a dependency; without them this module is skipped."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

sympy = pytest.importorskip("sympy")
mpmath = pytest.importorskip("mpmath")
from sympy.ntheory.continued_fraction import (  # noqa: E402
    continued_fraction, continued_fraction_convergents, continued_fraction_periodic,
)

from diagcf import (  # noqa: E402
    PI_PARTIAL_QUOTIENTS,
    RangeError,
    convergents,
    from_rational,
    metallic,
    multiplicative_order,
    named_cf_stream,
    period_length,
    period_length_by_order,
)
from diagcf._factoring import prime_factors  # noqa: E402

coprime_to_ten = st.integers(3, 10**12 - 1).filter(lambda q: math.gcd(q, 10) == 1)


@settings(max_examples=300, deadline=None)
@given(coprime_to_ten)
def test_order_of_ten_against_sympy(q):
    assert multiplicative_order(10, q) == sympy.ntheory.n_order(10, q)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 10**12 - 1))
def test_prime_factors_against_sympy(q):
    assert prime_factors(q) == sorted(sympy.factorint(q))


def repunit(k):
    return (10**k - 1) // 9


# R_38 = 11 * 909090909090909091 * 1111111111111111111: rho finds no factor of the 120-bit
# product of the last two within its budget, and n_order takes seconds on it
REPUNITS_PAST_RHO = (38,)


@pytest.mark.parametrize("k", [k for k in range(2, 41) if k not in REPUNITS_PAST_RHO])
def test_repunit_orders_against_sympy(k):
    # R_k's short period over a large denominator, the input the order route finds hardest
    order = sympy.ntheory.n_order(10, repunit(k))
    assert multiplicative_order(10, repunit(k)) == order
    report = (order, 0, False)
    assert period_length_by_order(Fraction(1, repunit(k))) == report
    assert period_length(Fraction(1, repunit(k))) == report


@pytest.mark.parametrize("k", REPUNITS_PAST_RHO)
def test_repunit_past_rho_is_refused_by_the_order_route_only(k):
    # the walk still answers; 10^k = 1 + 9*R_k, and no 10^(k/p) is 1 mod R_k
    assert period_length(Fraction(1, repunit(k))) == (k, 0, False)
    assert pow(10, k, repunit(k)) == 1
    assert all(pow(10, k // p, repunit(k)) != 1 for p in sympy.primefactors(k))
    with pytest.raises(RangeError, match="^found no factor of a 120-bit number in"):
        period_length_by_order(Fraction(1, repunit(k)))


def test_355_over_113_against_sympy():
    assert list(from_rational(Fraction(355, 113))) == continued_fraction(sympy.Rational(355, 113))


@settings(deadline=None)
@given(st.integers(0, 10**30), st.integers(1, 10**30))
def test_from_rational_and_convergents_against_sympy(num, den):
    terms = from_rational(Fraction(num, den))
    assert list(terms) == continued_fraction(sympy.Rational(num, den))
    outside = continued_fraction_convergents(list(terms))
    assert [c.value for c in convergents(terms, len(terms))] == [
        Fraction(int(r.p), int(r.q)) for r in outside
    ]


@settings(deadline=None)
@given(st.integers(1, 10**6))
def test_metallic_against_sympy(k):
    # the metallic mean [k; k, k, ...] is (k + sqrt(k^2 + 4)) / 2: no preperiod, period [k]
    assert continued_fraction_periodic(k, 2, k * k + 4) == [[k]]
    assert metallic(k).take(20) == [k] * 20


def quotients_by_mpmath(value, count):
    # the first `count` partial quotients of value, by floor and reciprocal at 400 digits;
    # each quotient costs about one digit, so 400 digits carry far more than 60 of them
    with mpmath.workdps(400):
        x = value()
        quotients = []
        for _ in range(count):
            a = int(mpmath.floor(x))
            quotients.append(a)
            x = 1 / (x - a)
    return quotients


def test_pi_table_against_mpmath():
    assert list(PI_PARTIAL_QUOTIENTS) == quotients_by_mpmath(
        lambda: mpmath.pi, len(PI_PARTIAL_QUOTIENTS)
    )


@pytest.mark.parametrize("name, value", [
    ("e", lambda: mpmath.e),
    ("sqrt2", lambda: mpmath.sqrt(2)),
])
def test_closed_forms_against_mpmath(name, value):
    assert named_cf_stream(name).take(60) == quotients_by_mpmath(value, 60)

