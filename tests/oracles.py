"""Reference computations that tests compare the package against."""

import math
from fractions import Fraction

from logpairs.errors import NegativeBError


def vojta_reduced_coefficient_numeric(a: Fraction, b: Fraction, eps: Fraction) -> int:
    """ceil(a + eps*b) - floor(a) for one explicit eps, the numeric side of
    the limit that ``snc.vojta_reduced_divisor`` evaluates analytically."""
    if b < 0:
        raise NegativeBError(f"negative pullback multiplicity {b}")
    return math.ceil(a + eps * b) - math.floor(a)
