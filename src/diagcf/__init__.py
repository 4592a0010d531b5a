"""Exact rationals, continued fractions, repeating decimals, and diagonal
constructions over their digit and quotient streams.

Everything runs in exact integer arithmetic; floating point enters only
at the real-to-continued-fraction entry point, where the machine value
is converted once to its exact rational and never touched again.
"""

from .continued_fraction import *
from .decimal_expansion import *
from .diagonalization import *
from .enumeration import *
from .errors import *
from .exact_numbers import *

__version__ = "0.1.0"

__all__ = (
    continued_fraction.__all__ + decimal_expansion.__all__ + diagonalization.__all__
    + enumeration.__all__ + errors.__all__ + exact_numbers.__all__
)
