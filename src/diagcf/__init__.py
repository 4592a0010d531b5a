"""Exact rationals, continued fractions, repeating decimals, and diagonal
constructions over their digit and quotient streams.

Everything runs in exact integer arithmetic; floating point enters only
at the real-to-continued-fraction entry point, where the machine value
is converted once to its exact rational and never touched again.
"""

from .continued_fraction import (
    ApproximationComparison,
    ContinuedFraction,
    Convergent,
    approximation_compare,
    canonicalize,
    convergents,
    fractional_digit_budget,
    from_rational,
    from_real_approx,
    parse_cf,
    to_plain_string,
    to_rational,
)
from .decimal_expansion import (
    DecimalExpansion,
    PeriodReport,
    digit_at,
    expand,
    find_period_at_least,
    multiplicative_order,
    parse_expansion,
    period_length,
    period_length_by_order,
    reconstruct,
)
from .diagonalization import (
    CFDiagonalFailure,
    CFDiagonalResult,
    DecimalDiagonalResult,
    DiagonalWitness,
    PeriodRuling,
    RationalDiagonalReport,
    VerifyResult,
    cf_diagonal,
    cf_diagonal_over_rationals,
    decimal_diagonal,
    format_witnesses,
    rational_diagonal_analysis,
    rule_out_periods,
    verify_differs,
)
from .enumeration import (
    PI_PARTIAL_QUOTIENTS,
    Stream,
    calkin_wilf,
    digits_of,
    irrational_enumeration,
    metallic,
    named_cf_stream,
)
from .errors import DomainError, InputError, RangeError
from .exact_numbers import (
    Rational,
    make_rational,
    parse_rational,
    to_string,
)

__version__ = "0.1.0"

__all__ = [
    "ApproximationComparison",
    "CFDiagonalFailure",
    "CFDiagonalResult",
    "ContinuedFraction",
    "Convergent",
    "DecimalDiagonalResult",
    "DecimalExpansion",
    "DiagonalWitness",
    "DomainError",
    "InputError",
    "PI_PARTIAL_QUOTIENTS",
    "PeriodReport",
    "PeriodRuling",
    "Rational",
    "RationalDiagonalReport",
    "RangeError",
    "Stream",
    "VerifyResult",
    "approximation_compare",
    "calkin_wilf",
    "canonicalize",
    "cf_diagonal",
    "cf_diagonal_over_rationals",
    "convergents",
    "decimal_diagonal",
    "digit_at",
    "digits_of",
    "expand",
    "find_period_at_least",
    "format_witnesses",
    "fractional_digit_budget",
    "from_rational",
    "from_real_approx",
    "irrational_enumeration",
    "make_rational",
    "metallic",
    "multiplicative_order",
    "named_cf_stream",
    "parse_cf",
    "parse_expansion",
    "parse_rational",
    "period_length",
    "period_length_by_order",
    "rational_diagonal_analysis",
    "reconstruct",
    "rule_out_periods",
    "to_plain_string",
    "to_rational",
    "to_string",
    "verify_differs",
]
