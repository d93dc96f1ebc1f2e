"""Weil functions, heights, counting and proximity functions on P^n over Q.

The excluded-place set is fixed to the archimedean place, so for a subscheme
presented by integer generators f_1, ..., f_l and a primitive integer point x:

* the counting value is ``log gcd(f_1(x), ..., f_l(x))`` (exact integer gcd),
* the proximity value is the archimedean local term
  ``min_i -log(|f_i(x)| / max_j|x_j|^{deg f_i})``,
* the height is their sum.

Weil functions are computed from the fixed generator presentation.  Exact
structured views (the gcd integer, the archimedean max-ratio as a Fraction,
per-prime minimal valuations) are exposed alongside the float values so that
additivity and monotonicity identities can be asserted without rounding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from operator import itemgetter
from typing import Iterable, Sequence, Union

from .errors import (
    AllZeroError,
    BadRangeError,
    DimensionMismatchError,
    MalformedPolynomialError,
    NotPrimitiveError,
    SupportPointError,
    ZeroInputError,
)
from .places import Place, _int_valuation, log_fraction, read_prime
from .polynomials import (
    MAX_DEGREE,
    _sum_terms,
    as_row,
    clear_denominators,
    exact_int,
    read_number,
    read_rows,
    read_shape,
)

RatLike = Union[Fraction, int, str]


@dataclass(frozen=True, slots=True)
class ProjPoint:
    """A rational point of P^n in primitive integer coordinates.

    Invariants: the coordinates are a tuple, not all zero, gcd of all
    coordinates is 1, and the first nonzero coordinate is positive.
    """

    coords: tuple[int, ...]

    def __post_init__(self) -> None:
        coords = self.coords
        if not isinstance(coords, tuple):
            raise NotPrimitiveError(f"coordinates {coords!r} are not a tuple")
        # One gcd settles both: 0 for an all-zero (or empty) point, > 1 for a
        # common factor.  It also rejects a coordinate that is not an int.
        try:
            g = math.gcd(*coords)
        except TypeError:
            raise NotPrimitiveError(f"coordinates {coords!r} are not integers") from None
        if g != 1:
            if g == 0:
                raise AllZeroError("projective point needs a nonzero coordinate")
            raise NotPrimitiveError(f"coordinates {coords} are not primitive")
        if (coords[0] or next(c for c in coords if c)) < 0:
            raise NotPrimitiveError(f"leading sign convention violated: {coords}")

    def __str__(self) -> str:
        return "(" + ":".join(str(c) for c in self.coords) + ")"


def normalize_point(raw: Sequence[RatLike]) -> ProjPoint:
    """Clear denominators, divide by the gcd, and fix the leading sign.

    Integer input skips the rational route: it is divided by its gcd,
    negated with the gcd when the first nonzero entry is negative, and kept
    as it is when that signed gcd is 1.
    """
    all_int = all(type(v) is int for v in raw)
    ints = raw if all_int else clear_denominators(read_number(v, NotPrimitiveError) for v in raw)[1]
    g = math.gcd(*ints)
    if g == 0:
        raise AllZeroError("cannot normalize the zero vector")
    if (ints[0] or next(c for c in ints if c)) < 0:
        g = -g
    return ProjPoint(tuple(ints) if g == 1 else tuple(c // g for c in ints))


@dataclass(frozen=True)
class HomogPoly:
    """A homogeneous polynomial with integer coefficients in n+1 variables.

    ``terms`` is nonempty and pairs distinct tuples of ``num_vars`` int
    exponents >= 0, summing to ``degree``, with nonzero int coefficients;
    :meth:`from_terms` reads and sums raw terms.  Construction also keeps
    each term as its coefficient and its nonzero ``(index, exponent)``
    factors, the form ``evaluate`` reads.
    """

    num_vars: int
    degree: int
    terms: tuple[tuple[tuple[int, ...], int], ...]
    _factors: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.terms:
            raise ZeroInputError("a generator must be a nonzero polynomial")
        seen = set()
        for exps, coeff in self.terms:
            if not isinstance(exps, tuple) or len(exps) != self.num_vars:
                raise MalformedPolynomialError(f"term {exps!r} is not a tuple of {self.num_vars} exponents")
            for e in exps:
                if type(e) is not int or e < 0:  # a bool is not an int
                    raise MalformedPolynomialError(f"term {exps!r} has a negative or non-int exponent")
            if sum(exps) != self.degree:
                raise MalformedPolynomialError(f"term {exps} is not of degree {self.degree}")
            if type(coeff) is not int or coeff == 0:
                raise MalformedPolynomialError(f"coefficient {coeff!r} is not a nonzero int")
            if exps in seen:
                raise MalformedPolynomialError(f"duplicate exponent vector {exps}")
            seen.add(exps)
        if self.degree > MAX_DEGREE:
            raise BadRangeError(f"degree {self.degree} is above {MAX_DEGREE}")
        factors = tuple((c, tuple((k, e) for k, e in enumerate(exps) if e)) for exps, c in self.terms)
        object.__setattr__(self, "_factors", factors)

    @classmethod
    def from_terms(cls, num_vars: int, terms: Iterable[tuple[Sequence[int], int]]) -> "HomogPoly":
        ints = read_rows(
            terms,
            lambda k, c: (
                tuple(exact_int(e, "exponent") for e in as_row(k, MalformedPolynomialError)),
                exact_int(c, "coefficient"),
            ),
            MalformedPolynomialError,
        )
        cleaned = tuple(sorted(_sum_terms({}, ints).items()))
        degree = sum(cleaned[0][0]) if cleaned else 0
        return cls(num_vars=num_vars, degree=degree, terms=cleaned)

    @classmethod
    def coordinate(cls, num_vars: int, index: int) -> "HomogPoly":
        exps = tuple(1 if k == index else 0 for k in range(num_vars))
        return cls(num_vars=num_vars, degree=1, terms=((exps, 1),))

    @classmethod
    def from_json(cls, data: dict) -> "HomogPoly":
        """``{"n": n, "terms": [[exponents, coefficient], ...]}``, a form in P^n."""
        n, terms = read_shape(itemgetter("n", "terms"), data, MalformedPolynomialError)
        return cls.from_terms(exact_int(n, "n") + 1, terms)

    def evaluate(self, coords: Sequence[int]) -> int:
        total = 0
        for term, factors in self._factors:
            for k, e in factors:
                term *= coords[k] ** e
            total += term
        return total

    def __mul__(self, other: "HomogPoly") -> "HomogPoly":
        if self.num_vars != other.num_vars:
            raise DimensionMismatchError("variable count mismatch")
        products = (
            (tuple(a + b for a, b in zip(e1, e2)), c1 * c2)
            for e1, c1 in self.terms
            for e2, c2 in other.terms
        )
        return HomogPoly.from_terms(self.num_vars, products)


@dataclass(frozen=True)
class Subscheme:
    """A closed subscheme of P^n presented by homogeneous integer generators."""

    generators: tuple[HomogPoly, ...]
    _degrees: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.generators:
            raise ZeroInputError("a subscheme needs at least one generator")
        if not all(isinstance(g, HomogPoly) for g in self.generators):
            raise MalformedPolynomialError("subscheme generators must be HomogPoly values")
        nv = {g.num_vars for g in self.generators}
        if len(nv) != 1:
            raise DimensionMismatchError("generators live in different projective spaces")
        object.__setattr__(self, "_degrees", tuple(g.degree for g in self.generators))

    @property
    def num_vars(self) -> int:
        return self.generators[0].num_vars

    @classmethod
    def from_json(cls, data: dict) -> "Subscheme":
        """``{"generators": [form, ...]}``, each form a :meth:`HomogPoly.from_json` document."""
        read = lambda d: tuple(map(HomogPoly.from_json, d["generators"]))
        return cls(read_shape(read, data, MalformedPolynomialError))

    @classmethod
    def of_coordinates(cls, num_vars: int, indices: Sequence[int]) -> "Subscheme":
        """The linear subscheme cut out by the listed coordinates."""
        return cls(tuple(HomogPoly.coordinate(num_vars, i) for i in indices))

    def values_at(self, x: ProjPoint) -> list[int]:
        coords = x.coords
        if len(coords) != self.num_vars:
            raise DimensionMismatchError("point dimension does not match the subscheme")
        return [g.evaluate(coords) for g in self.generators]


@dataclass(frozen=True)
class HeightTriple:
    """Height, counting, and proximity values with h = N + m."""

    h: float
    N: float
    m: float


def subscheme_product(a: Subscheme, b: Subscheme) -> Subscheme:
    """The subscheme generated by all pairwise products (the ideal product)."""
    return Subscheme(tuple(f * g for f in a.generators for g in b.generators))


def subscheme_union_generators(a: Subscheme, b: Subscheme) -> Subscheme:
    """The subscheme generated by both generator sets (the ideal sum)."""
    return Subscheme(a.generators + b.generators)


# -- exact structured views ---------------------------------------------------


def counting_gcd(Z: Subscheme, x: ProjPoint) -> int:
    """gcd of the absolute generator values; 0 exactly on the support."""
    return math.gcd(*Z.values_at(x))


def weil_finite_valuation(Z: Subscheme, x: ProjPoint, p: int) -> int | None:
    """min over generators of v_p(f(x)); None when x lies in the support."""
    return _finite_valuation(Z, x, read_prime(p))


def _finite_valuation(Z: Subscheme, x: ProjPoint, p: int) -> int | None:
    """weil_finite_valuation at a prime p that is already checked."""
    vals = [v for v in Z.values_at(x) if v != 0]
    if not vals:
        return None
    return min(_int_valuation(abs(v), p) for v in vals)


def weil_arch_ratio(Z: Subscheme, x: ProjPoint) -> Fraction:
    """max over generators of |f(x)| / max_j|x_j|^(deg f), as an exact Fraction.

    The archimedean Weil value is ``-log`` of this ratio; the ratio is 0
    exactly when x lies in the support.  With D the top generator degree,
    the max is taken in integers over |f(x)| * max_j|x_j|^(D - deg f).
    """
    m = max(map(abs, x.coords))
    values = Z.values_at(x)
    degrees = Z._degrees
    top = max(degrees)
    if min(degrees) == top:
        best = max(map(abs, values))
    else:
        best = max(abs(v) * m ** (top - e) for e, v in zip(degrees, values))
    return Fraction(best, m**top)


# -- float operations ---------------------------------------------------------


def weil_local(Z: Subscheme, x: ProjPoint, v: Place) -> float:
    """Local Weil value of x against Z at one place; +inf on the support.

    Nonnegative at finite places because primitive coordinates have unit
    local norms there.
    """
    if v.is_archimedean:
        ratio = weil_arch_ratio(Z, x)
        if ratio == 0:
            return math.inf
        return -log_fraction(ratio) + 0.0
    val = _finite_valuation(Z, x, v.prime)
    if val is None:
        return math.inf
    return val * math.log(v.prime)


def arakelov_decompose(Z: Subscheme, x: ProjPoint) -> HeightTriple:
    """Counting, proximity, and height of x against Z, excluding nothing.

    N is the log of the exact integer gcd of generator values, m is the
    archimedean Weil value, and h = N + m.
    """
    g = counting_gcd(Z, x)
    if g == 0:
        raise SupportPointError(f"point {x} lies in the support of the subscheme")
    n_val = math.log(g)
    m_val = weil_local(Z, x, Place())
    return HeightTriple(h=n_val + m_val, N=n_val, m=m_val)
