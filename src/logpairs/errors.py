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
    """Projective coordinates must be coprime integers with a positive leading entry."""


class MalformedPolynomialError(InputError):
    """A polynomial term has a bad exponent (not an int, negative, wrong count or
    degree, repeated) or coefficient (zero, not an int or not rational), a
    subscheme generator is not a HomogPoly, a power is negative, or a
    polynomial, subscheme, curve or parametrization document is not of its
    shape (a missing key, a field of the wrong type)."""


class DimensionMismatchError(InputError):
    """Polynomials or points of different ambient spaces were combined."""


class MalformedConfigurationError(InputError):
    """Divisor labels repeat, an edge is a loop or names an unknown divisor, a
    value is unreadable, or an SNC pair document is not of its shape."""


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
    """Empty or inverted parameter range, or a value above a stated limit."""


class EmptyAfterFilterError(InputError):
    """No sample survived the distance filter."""
