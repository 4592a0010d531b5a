import ast
import sys
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest

import diagcf
from diagcf import DomainError, InputError, RangeError

SRC = Path(__file__).resolve().parents[1] / "src" / "diagcf"

PUBLIC_NAMES = {
    "ApproximationComparison", "CFDiagonalFailure", "CFDiagonalResult",
    "ContinuedFraction", "Convergent", "DecimalDiagonalResult", "DecimalExpansion",
    "DiagonalWitness", "DomainError", "InputError",
    "PI_PARTIAL_QUOTIENTS", "PeriodReport", "PeriodRuling", "Rational",
    "RationalDiagonalReport", "RangeError", "Stream", "VerifyResult",
    "approximation_compare", "calkin_wilf", "canonicalize", "cf_diagonal",
    "cf_diagonal_over_rationals", "convergents", "decimal_diagonal", "digit_at",
    "digits_of", "expand", "find_period_at_least", "format_witnesses",
    "fractional_digit_budget", "from_rational", "from_real_approx",
    "irrational_enumeration", "make_rational", "metallic", "multiplicative_order",
    "named_cf_stream", "parse_cf", "parse_expansion", "parse_rational",
    "period_length", "period_length_by_order", "rational_diagonal_analysis",
    "reconstruct", "rule_out_periods", "to_plain_string", "to_rational",
    "to_string", "verify_differs",
}


def test_all_is_the_pinned_surface_and_resolves():
    assert len(PUBLIC_NAMES) == 50
    assert len(diagcf.__all__) == len(set(diagcf.__all__))
    assert set(diagcf.__all__) == PUBLIC_NAMES
    for name in diagcf.__all__:
        getattr(diagcf, name)


def test_package_holds_no_assert_statement():
    # python -O strips assert statements; a runtime check must be an explicit raise
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert len(list(SRC.glob("*.py"))) >= 8
    assert found == []


RESULT = diagcf.cf_diagonal(diagcf.irrational_enumeration(2), 2)


def named(name, *args):
    # the id and the call diagcf.<name>(*args), shown as it reads
    shown = ", ".join("result" if a is RESULT else repr(a) for a in args)
    return f"{name}({shown})", lambda: getattr(diagcf, name)(*args)


# (id, call, error, message); each of these used to end in an AttributeError or a TypeError
HOSTILE_CALLS = [
    (*named("parse_rational", 5), DomainError, "text must be a str, got int"),
    (*named("parse_cf", None), DomainError, "text must be a str, got NoneType"),
    (*named("parse_expansion", 5), DomainError, "text must be a str, got int"),
    (*named("named_cf_stream", None), DomainError, "name must be a str, got NoneType"),
    (*named("to_string", 1.5), DomainError, "x must be a rational, got 1.5"),
    (*named("reconstruct", None), DomainError, "e is not a decimal expansion: NoneType"),
    (*named("format_witnesses", None), InputError, "result is not a diagonal result: NoneType"),
    (*named("decimal_diagonal", None, 2), InputError, "rows must be iterable, got NoneType"),
    (*named("cf_diagonal", None, 2), InputError, "rows must be iterable, got NoneType"),
    (*named("verify_differs", RESULT, None, 2), InputError, "rows must be iterable, got NoneType"),
    (*named("cf_diagonal_over_rationals", None), InputError,
     "enumeration must be iterable, got NoneType"),
    (*named("rational_diagonal_analysis", None, 20, 1, 1), InputError,
     "enumeration must be iterable, got NoneType"),
    (*named("Stream", None, "cf"), InputError, "items must be iterable, got NoneType"),
    (*named("rule_out_periods", None, 0, 1), InputError, "digits must be a sequence, got NoneType"),
    (*named("multiplicative_order", "a", 7), DomainError, "base must be an integer, got 'a'"),
    (*named("multiplicative_order", 10, 7.5), DomainError, "modulus must be an integer, got 7.5"),
    (*named("multiplicative_order", 10, None), DomainError,
     "modulus must be an integer, got None"),
    (*named("approximation_compare", "a", 1, 1), DomainError,
     "target and approximations must be numbers, got str, int, int"),
    (*named("approximation_compare", None, 1, 1), DomainError,
     "target and approximations must be numbers, got NoneType, int, int"),
    (*named("from_real_approx", None, 1e-9), DomainError,
     "input must be a finite number, got None"),
    (*named("from_real_approx", 1.5, None), DomainError, "eps must be a finite number, got None"),
    # these returned "1.5/2" and "a/None", or raised TypeError
    (*named("to_string", SimpleNamespace(numerator=1.5, denominator=2)), DomainError,
     "x must be a rational, got namespace(numerator=1.5, denominator=2)"),
    (*named("to_string", SimpleNamespace(numerator="a", denominator=None)), DomainError,
     "x must be a rational, got namespace(numerator='a', denominator=None)"),
    (*named("Stream", [], []), DomainError, "unknown kind: []"),
]


def np(kind, value):
    # a numpy scalar, made when the call runs, so that a run without numpy skips the case
    return getattr(pytest.importorskip("numpy"), kind)(value)


# these raised OverflowError, raised numpy's ValueError on an ambiguous truth value, and
# returned errors that were arrays
HOSTILE_CALLS += [
    (label, call, DomainError, f"target and approximations must be numbers, got {names}")
    for label, call, names in [
        ("approximation_compare(int64(3), 2, 10**30)",
         lambda: diagcf.approximation_compare(np("int64", 3), 2, 10**30), "int64, int, int"),
        ("approximation_compare(int64(3), [1, 2], 1)",
         lambda: diagcf.approximation_compare(np("int64", 3), [1, 2], 1), "int64, list, int"),
        ("approximation_compare(float64(1.5), [1], 1)",
         lambda: diagcf.approximation_compare(np("float64", 1.5), [1], 1),
         "float64, list, int"),
    ]
]

# this one ended in len()'s OverflowError; a length past sys.maxsize is refused as a depth is
HOSTILE_CALLS.append(
    (*named("rule_out_periods", range(10**20), 0, 1), RangeError, f"depth must be <= {sys.maxsize}")
)

# each of these used to end in a ValueError, since its refusal rendered a value past the
# int/str limit; repr(H) and repr(B) raise that error too, so each is named by hand
H, B = Fraction(10**5000 + 1, 2), 10**5000
HOSTILE_CALLS += [
    (label, call, DomainError, message) for label, call, message in [
        ("digit_at(1/3, H)", lambda: diagcf.digit_at(Fraction(1, 3), H),
         "digit position must be an integer, got Fraction"),
        ("digit_at(1/3, -H)", lambda: diagcf.digit_at(Fraction(1, 3), -H),
         "digit position must be >= 1, got Fraction"),
        ("metallic(3).entry(H)", lambda: diagcf.metallic(3).entry(H),
         "entry index must be an integer, got Fraction"),
        ("metallic(1).take(H)", lambda: diagcf.metallic(1).take(H),
         "count must be an integer, got Fraction"),
        ("make_rational(H, 1)", lambda: diagcf.make_rational(H, 1),
         "numerator must be an integer, got Fraction"),
        ("multiplicative_order(H, 7)", lambda: diagcf.multiplicative_order(H, 7),
         "base must be an integer, got Fraction"),
        ("convergents([1, 2], H)", lambda: diagcf.convergents([1, 2], H),
         "count must be an integer, got Fraction"),
        ("rule_out_periods([1] * 10, H, 1)", lambda: diagcf.rule_out_periods([1] * 10, H, 1),
         "max_preperiod must be an integer, got Fraction"),
        ("decimal_diagonal([], H)", lambda: diagcf.decimal_diagonal([], H),
         "depth must be an integer, got Fraction"),
        ("find_period_at_least(H)", lambda: diagcf.find_period_at_least(H),
         "period length bound must be an integer, got Fraction"),
        ("DecimalExpansion(H, '', '3')", lambda: diagcf.DecimalExpansion(H, "", "3"),
         "integer part must be an integer, got Fraction"),
        ("metallic(H)", lambda: diagcf.metallic(H),
         "partial quotient must be an integer, got Fraction"),
        ("Stream([H], 'cf').take(1)", lambda: diagcf.Stream([H], "cf").take(1),
         "partial quotient must be an integer, got Fraction"),
        ("Stream([H], 'decimal').take(1)", lambda: diagcf.Stream([H], "decimal").take(1),
         "digit must be an integer, got Fraction"),
        ("Stream([], B)", lambda: diagcf.Stream([], B), "unknown kind: int"),
        ("DecimalExpansion(0, B, '3')", lambda: diagcf.DecimalExpansion(0, B, "3"),
         "invalid digit block: int"),
        ("format_witnesses(result, B)", lambda: diagcf.format_witnesses(RESULT, B),
         "unknown format: int"),
        ("digit_at([B], 1)", lambda: diagcf.digit_at([B], 1), "x must be a rational, got list"),
        ("to_string([B])", lambda: diagcf.to_string([B]), "x must be a rational, got list"),
        ("from_real_approx(1.5, [B])", lambda: diagcf.from_real_approx(1.5, [B]),
         "eps must be a finite number, got list"),
    ]
]


@pytest.mark.parametrize(
    "call, error, message", [case[1:] for case in HOSTILE_CALLS],
    ids=[case[0] for case in HOSTILE_CALLS],
)
def test_hostile_argument_gets_a_typed_refusal(call, error, message):
    with pytest.raises(error) as refusal:
        call()
    assert type(refusal.value) is error and str(refusal.value) == message
