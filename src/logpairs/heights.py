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
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence, Union

from .errors import (
    AllZeroError,
    DimensionMismatchError,
    MalformedPolynomialError,
    NotPrimeError,
    NotPrimitiveError,
    SupportPointError,
    ZeroInputError,
)
from .places import Place, _int_valuation, is_prime, log_fraction
from .polynomials import exact_int

RatLike = Union[Fraction, int, str]


@dataclass(frozen=True)
class ProjPoint:
    """A rational point of P^n in primitive integer coordinates.

    Invariants: not all coordinates zero, gcd of all coordinates is 1, and
    the first nonzero coordinate is positive.
    """

    coords: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.coords or all(c == 0 for c in self.coords):
            raise AllZeroError("projective point needs a nonzero coordinate")
        if math.gcd(*[abs(c) for c in self.coords]) != 1:
            raise NotPrimitiveError(f"coordinates {self.coords} are not primitive")
        first = next(c for c in self.coords if c != 0)
        if first < 0:
            raise NotPrimitiveError(f"leading sign convention violated: {self.coords}")

    def __str__(self) -> str:
        return "(" + ":".join(str(c) for c in self.coords) + ")"


def normalize_point(raw: Sequence[RatLike]) -> ProjPoint:
    """Clear denominators, divide by the gcd, and fix the leading sign.

    Integer input skips the rational route: it is divided by its gcd,
    negated with the gcd when the first nonzero entry is negative.
    """
    if all(type(v) is int for v in raw):
        ints = raw
    else:
        vals = [Fraction(v) for v in raw]
        lcm = math.lcm(*(v.denominator for v in vals))
        ints = [int(v * lcm) for v in vals]
    g = math.gcd(*ints)
    if g == 0:
        raise AllZeroError("cannot normalize the zero vector")
    if next(c for c in ints if c) < 0:
        g = -g
    return ProjPoint(tuple(c // g for c in ints))


@dataclass(frozen=True)
class HomogPoly:
    """A homogeneous polynomial with integer coefficients in n+1 variables.

    ``terms`` maps exponent tuples (summing to ``degree``) to nonzero
    integer coefficients.
    """

    num_vars: int
    degree: int
    terms: tuple[tuple[tuple[int, ...], int], ...]

    def __post_init__(self) -> None:
        if not self.terms:
            raise ZeroInputError("a generator must be a nonzero polynomial")
        seen = set()
        for exps, coeff in self.terms:
            if len(exps) != self.num_vars:
                raise MalformedPolynomialError(
                    f"term {exps} does not have {self.num_vars} exponents"
                )
            if sum(exps) != self.degree:
                raise MalformedPolynomialError(f"term {exps} is not of degree {self.degree}")
            if coeff == 0:
                raise MalformedPolynomialError("zero coefficient stored in a term")
            if exps in seen:
                raise MalformedPolynomialError(f"duplicate exponent vector {exps}")
            seen.add(exps)

    @classmethod
    def from_terms(cls, num_vars: int, terms: Iterable[tuple[Sequence[int], int]]) -> "HomogPoly":
        acc: dict[tuple[int, ...], int] = {}
        for exps, coeff in terms:
            key = tuple(exact_int(e, "exponent") for e in exps)
            acc[key] = acc.get(key, 0) + exact_int(coeff, "coefficient")
        cleaned = tuple(sorted((k, v) for k, v in acc.items() if v != 0))
        if not cleaned:
            raise ZeroInputError("all terms cancelled")
        degree = sum(cleaned[0][0])
        return cls(num_vars=num_vars, degree=degree, terms=cleaned)

    @classmethod
    def coordinate(cls, num_vars: int, index: int) -> "HomogPoly":
        exps = tuple(1 if k == index else 0 for k in range(num_vars))
        return cls(num_vars=num_vars, degree=1, terms=((exps, 1),))

    @classmethod
    def from_json(cls, data: dict) -> "HomogPoly":
        return cls.from_terms(exact_int(data["n"], "n") + 1, data["terms"])

    def to_json(self) -> dict:
        return {"n": self.num_vars - 1, "terms": [[list(e), str(c)] for e, c in self.terms]}

    def evaluate(self, coords: Sequence[int]) -> int:
        total = 0
        for exps, coeff in self.terms:
            term = coeff
            for c, e in zip(coords, exps):
                if e:
                    term *= c**e
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

    def __post_init__(self) -> None:
        if not self.generators:
            raise ZeroInputError("a subscheme needs at least one generator")
        nv = {g.num_vars for g in self.generators}
        if len(nv) != 1:
            raise DimensionMismatchError("generators live in different projective spaces")

    @property
    def num_vars(self) -> int:
        return self.generators[0].num_vars

    @classmethod
    def of_coordinates(cls, num_vars: int, indices: Sequence[int]) -> "Subscheme":
        """The linear subscheme cut out by the listed coordinates."""
        return cls(tuple(HomogPoly.coordinate(num_vars, i) for i in indices))

    def values_at(self, x: ProjPoint) -> list[int]:
        if len(x.coords) != self.num_vars:
            raise DimensionMismatchError("point dimension does not match the subscheme")
        return [g.evaluate(x.coords) for g in self.generators]


@dataclass(frozen=True)
class QSubscheme:
    """A formal rational combination of subschemes with nonzero coefficients."""

    parts: tuple[tuple[Subscheme, Fraction], ...]

    def __post_init__(self) -> None:
        for _, c in self.parts:
            if c == 0:
                raise ZeroInputError("zero coefficient in a formal combination")


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
    return math.gcd(*[abs(v) for v in Z.values_at(x)])


def weil_finite_valuation(Z: Subscheme, x: ProjPoint, p: int) -> int | None:
    """min over generators of v_p(f(x)); None when x lies in the support."""
    if not is_prime(p):
        raise NotPrimeError(f"{p} is not prime")
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
    m = max(abs(c) for c in x.coords)
    top = max(g.degree for g in Z.generators)
    best = max(abs(v) * m ** (top - g.degree) for g, v in zip(Z.generators, Z.values_at(x)))
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
    val = weil_finite_valuation(Z, x, v.prime)
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


def standard_height(x: ProjPoint) -> float:
    """log of the largest absolute coordinate of a primitive point."""
    return math.log(max(abs(c) for c in x.coords))


def q_decompose(D: QSubscheme, x: ProjPoint) -> HeightTriple:
    """Coefficient-weighted sum of the per-part decompositions."""
    h = n = m = 0.0
    for idx, (Z, c) in enumerate(D.parts):
        try:
            triple = arakelov_decompose(Z, x)
        except SupportPointError as exc:
            raise SupportPointError(f"part {idx} of the combination: {exc}") from exc
        w = float(c)
        h += w * triple.h
        n += w * triple.N
        m += w * triple.m
    return HeightTriple(h=h, N=n, m=m)
