import ast
from pathlib import Path

import pytest

import diagcf

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

# each of these used to end in an AttributeError or a TypeError
HOSTILE_CALLS = [
    ("parse_rational", (5,), diagcf.DomainError, "text must be a str, got int"),
    ("parse_cf", (None,), diagcf.DomainError, "text must be a str, got NoneType"),
    ("parse_expansion", (5,), diagcf.DomainError, "text must be a str, got int"),
    ("named_cf_stream", (None,), diagcf.DomainError, "name must be a str, got NoneType"),
    ("to_string", (1.5,), diagcf.DomainError, "x must be a rational, got 1.5"),
    ("reconstruct", (None,), diagcf.DomainError, "e is not a decimal expansion: NoneType"),
    ("format_witnesses", (None,), diagcf.InputError, "result is not a diagonal result: NoneType"),
    ("decimal_diagonal", (None, 2), diagcf.InputError, "rows must be iterable, got NoneType"),
    ("cf_diagonal", (None, 2), diagcf.InputError, "rows must be iterable, got NoneType"),
    ("verify_differs", (RESULT, None, 2), diagcf.InputError, "rows must be iterable, got NoneType"),
    ("cf_diagonal_over_rationals", (None,), diagcf.InputError,
     "enumeration must be iterable, got NoneType"),
    ("rational_diagonal_analysis", (None, 20, 1, 1), diagcf.InputError,
     "enumeration must be iterable, got NoneType"),
    ("Stream", (None, "cf"), diagcf.InputError, "items must be iterable, got NoneType"),
    ("rule_out_periods", (None, 0, 1), diagcf.InputError, "digits must be a sequence, got NoneType"),
    ("multiplicative_order", ("a", 7), diagcf.DomainError, "base must be an integer, got 'a'"),
    ("multiplicative_order", (10, 7.5), diagcf.DomainError, "modulus must be an integer, got 7.5"),
    ("multiplicative_order", (10, None), diagcf.DomainError, "modulus must be an integer, got None"),
    ("approximation_compare", ("a", 1, 1), diagcf.DomainError,
     "target and approximations must be numbers, got str, int, int"),
    ("approximation_compare", (None, 1, 1), diagcf.DomainError,
     "target and approximations must be numbers, got NoneType, int, int"),
    ("from_real_approx", (None, 1e-9), diagcf.DomainError, "input must be a finite number, got None"),
    ("from_real_approx", (1.5, None), diagcf.DomainError, "eps must be a finite number, got None"),
]


@pytest.mark.parametrize(
    "name, args, error, message", HOSTILE_CALLS,
    ids=[f"{name}({', '.join('result' if a is RESULT else repr(a) for a in args)})"
         for name, args, _, _ in HOSTILE_CALLS],
)
def test_hostile_argument_gets_a_typed_refusal(name, args, error, message):
    with pytest.raises(error) as refusal:
        getattr(diagcf, name)(*args)
    assert type(refusal.value) is error and str(refusal.value) == message
