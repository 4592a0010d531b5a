import diagcf

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
