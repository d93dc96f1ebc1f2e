"""Exception hierarchy shared across the package.

Everything derives from :class:`InputError` so the command-line driver can
map bad or unusable inputs to a single exit code.
"""


class InputError(ValueError):
    """Base class for rejected inputs and unachievable requests."""


class ZeroInputError(InputError):
    """A nonzero rational or polynomial was required."""


class NotPrimeError(InputError):
    """A finite place was requested at a composite or invalid modulus."""


class AllZeroError(InputError):
    """Projective coordinates must not all vanish."""


class NotPrimitiveError(InputError):
    """Stored projective coordinates must be coprime with a positive leading entry."""


class MalformedPolynomialError(InputError):
    """A polynomial term has a negative exponent, the wrong number of
    exponents or the wrong degree, a zero coefficient, or a repeated
    exponent vector; or a polynomial was raised to a negative power."""


class DimensionMismatchError(InputError):
    """Polynomials or points of different ambient spaces were combined."""


class MalformedConfigurationError(InputError):
    """Divisor labels repeat, or an edge is a loop or names an unknown divisor."""


class SupportPointError(InputError):
    """Evaluation requested at a point lying in the support of the subscheme."""


class NegativeBError(InputError):
    """Pullback multiplicities must be nonnegative."""


class BadOrderError(InputError):
    """Quotient-singularity order must be at least 2."""


class NonRationalCenterError(InputError):
    """A blowup center would have irrational coordinates."""


class DepthExceededError(InputError):
    """Resolution did not finish within the allowed number of blowup levels."""


class PointIsOError(InputError):
    """The distinguished point (0:0:1) is not allowed in this sample."""


class NotCoprimeError(InputError):
    """Exponent pair must be coprime with d > m >= 1."""


class BadRangeError(InputError):
    """Empty or inverted parameter range."""


class EmptyAfterFilterError(InputError):
    """No sample survived the distance filter."""
