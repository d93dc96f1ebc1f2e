"""Exact bivariate polynomials over Q.

This is the small arithmetic kernel behind plane-curve resolution and the
parametrized sampling families: terms are stored sparsely as
``{(i, j): coefficient}`` with Fraction coefficients and no explicit zeros.
Blowup substitutions and exact divisibility are implemented directly so that
every transformation stays in rational arithmetic.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Mapping, Sequence, Union

from .errors import MalformedPolynomialError, ZeroInputError

CoeffLike = Union[Fraction, int, str]


def _coeff(c: CoeffLike) -> Fraction:
    return c if isinstance(c, Fraction) else Fraction(c)


def exact_int(value, what: str) -> int:
    """An exponent or integer coefficient read from input, as an int: 2,
    2.0 and "2" pass, and anything non-integral raises
    MalformedPolynomialError instead of being truncated."""
    try:
        q = value if type(value) is int else Fraction(value)
        if q.denominator == 1:
            return q.numerator
    except (TypeError, ValueError, OverflowError):
        pass
    raise MalformedPolynomialError(f"{what} {value!r} is not an integer")


def _exponents(i, j) -> tuple[int, int]:
    key = (exact_int(i, "exponent"), exact_int(j, "exponent"))
    if key[0] < 0 or key[1] < 0:
        raise MalformedPolynomialError(f"negative exponent in term {key}")
    return key


def _sum_terms(acc: dict, terms: Iterable) -> dict:
    """Add ``(exponents, coefficient)`` pairs into ``acc``, dropping every
    exponent whose coefficients sum to zero; returns ``acc``."""
    for key, c in terms:
        s = acc.get(key)
        s = c if s is None else s + c
        if s:
            acc[key] = s
        else:
            acc.pop(key, None)
    return acc


def _binomial(t: Fraction, n: int) -> Sequence[tuple[int, Fraction | int]]:
    """(v + t)^n as ``(power of v, coefficient)`` pairs; just (n, 1) when t == 0."""
    if not t:
        return ((n, 1),)
    return [(r, math.comb(n, r) * t ** (n - r)) for r in range(n + 1)]


class Poly2:
    """A polynomial in two variables x, y with exact rational coefficients."""

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[tuple[int, int], CoeffLike] | Iterable = ()):
        items = terms.items() if isinstance(terms, Mapping) else terms
        self.terms = _sum_terms({}, ((_exponents(i, j), _coeff(c)) for (i, j), c in items))

    @classmethod
    def _of(cls, terms: dict[tuple[int, int], Fraction]) -> "Poly2":
        """Wrap a term dict that already holds no zero coefficient."""
        out = cls.__new__(cls)
        out.terms = terms
        return out

    # -- constructors -----------------------------------------------------

    @classmethod
    def constant(cls, c: CoeffLike) -> "Poly2":
        return cls({(0, 0): c})

    @classmethod
    def x(cls) -> "Poly2":
        return cls({(1, 0): 1})

    @classmethod
    def y(cls) -> "Poly2":
        return cls({(0, 1): 1})

    @classmethod
    def monomial(cls, i: int, j: int, c: CoeffLike = 1) -> "Poly2":
        return cls({(i, j): c})

    @classmethod
    def from_json(cls, data: Iterable) -> "Poly2":
        """Parse ``[[[i, j], "coeff"], ...]`` with rational coefficient strings."""
        return cls(((i, j), c) for (i, j), c in data)

    def to_json(self) -> list:
        return [[[i, j], str(c)] for (i, j), c in sorted(self.terms.items())]

    # -- basic structure ---------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Poly2) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def total_degree(self) -> int:
        if not self.terms:
            raise ZeroInputError("degree of the zero polynomial")
        return max(i + j for i, j in self.terms)

    def order(self) -> int:
        """Minimal total degree of a term (the multiplicity at the origin)."""
        if not self.terms:
            raise ZeroInputError("order of the zero polynomial")
        return min(i + j for i, j in self.terms)

    def is_homogeneous(self) -> bool:
        degs = {i + j for i, j in self.terms}
        return len(degs) <= 1

    def has_integer_coefficients(self) -> bool:
        return all(c.denominator == 1 for c in self.terms.values())

    # -- arithmetic ---------------------------------------------------------

    def __neg__(self) -> "Poly2":
        return Poly2._of({k: -c for k, c in self.terms.items()})

    def __add__(self, other: "Poly2") -> "Poly2":
        return Poly2._of(_sum_terms(dict(self.terms), other.terms.items()))

    def __sub__(self, other: "Poly2") -> "Poly2":
        return self + (-other)

    def __mul__(self, other: "Poly2") -> "Poly2":
        products = (
            ((i + k, j + l), c * d)
            for (i, j), c in self.terms.items()
            for (k, l), d in other.terms.items()
        )
        return Poly2._of(_sum_terms({}, products))

    def __pow__(self, n: int) -> "Poly2":
        if n < 0:
            raise MalformedPolynomialError("negative power")
        result = Poly2.constant(1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def evaluate(self, ax: CoeffLike, ay: CoeffLike) -> Fraction:
        if type(ax) is int and type(ay) is int:
            # Sum in ints; the first non-integral coefficient falls through
            # to the rational loop below.
            total = 0
            for (i, j), c in self.terms.items():
                if c.denominator != 1:
                    break
                total += c.numerator * ax**i * ay**j
            else:
                return Fraction(total)
        ax, ay = _coeff(ax), _coeff(ay)
        total = Fraction(0)
        for (i, j), c in self.terms.items():
            total += c * ax**i * ay**j
        return total

    # -- substitutions used by blowups --------------------------------------

    def translate(self, ax: CoeffLike, ay: CoeffLike) -> "Poly2":
        """f(x + ax, y + ay), expanded with binomial coefficients."""
        ax, ay = _coeff(ax), _coeff(ay)
        if not ax and not ay:
            return self
        acc: dict[tuple[int, int], Fraction] = {}
        for (i, j), c in self.terms.items():
            ys = _binomial(ay, j)
            for r, cx in _binomial(ax, i):
                cr = c * cx
                _sum_terms(acc, (((r, s), cr * cy) for s, cy in ys))
        return Poly2._of(acc)

    def blowup_x(self, shift: CoeffLike = 0) -> tuple["Poly2", int]:
        """Strict transform in the chart x = x, y = x*(y + shift).

        Substitutes, strips the exact power of x dividing the result, and
        returns ``(stripped, power)``.  The stripped power equals the
        multiplicity of the polynomial at the origin.
        """
        if not self.terms:
            raise ZeroInputError("blowup of the zero polynomial")
        # x^i * (x*y)^j = x^(i+j) * y^j, then y -> y + shift.
        power = self.order()
        stripped = Poly2._of({(i + j - power, j): c for (i, j), c in self.terms.items()})
        return stripped.translate(0, shift), power

    def blowup_y(self) -> tuple["Poly2", int]:
        """Strict transform in the chart x = x*y, y = y (the vertical direction)."""
        if not self.terms:
            raise ZeroInputError("blowup of the zero polynomial")
        power = self.order()
        return Poly2._of({(i, i + j - power): c for (i, j), c in self.terms.items()}), power

    def on_x_axis_restriction(self) -> list[Fraction]:
        """Coefficients of f(0, y) as a dense list indexed by the power of y."""
        coeffs = [Fraction(0)] * (max((j for i, j in self.terms if i == 0), default=-1) + 1)
        for (i, j), c in self.terms.items():
            if i == 0:
                coeffs[j] = c
        return coeffs

    def contact_order_with_axis(self, axis: str) -> int:
        """Intersection multiplicity at the origin with {x=0} or {y=0}.

        Returns a large sentinel if the restriction vanishes identically,
        which cannot happen for a strict transform.
        """
        if axis == "x":
            picked = [j for (i, j) in self.terms if i == 0]
        else:
            picked = [i for (i, j) in self.terms if j == 0]
        return min(picked) if picked else 1 << 30

    # -- exact division -----------------------------------------------------

    def _leading(self) -> tuple[tuple[int, int], Fraction]:
        key = max(self.terms, key=lambda k: (k[0] + k[1], k))
        return key, self.terms[key]

    def divide_exact(self, divisor: "Poly2") -> "Poly2 | None":
        """Return self / divisor if the division is exact in Q[x,y], else None."""
        if divisor.is_zero:
            raise ZeroInputError("division by the zero polynomial")
        quotient: dict[tuple[int, int], Fraction] = {}
        rem = self
        (di, dj), dc = divisor._leading()
        while rem.terms:
            (ri, rj), rc = rem._leading()
            if ri < di or rj < dj:
                return None
            key = (ri - di, rj - dj)
            q = rc / dc
            quotient[key] = q
            rem = rem - divisor * Poly2({key: q})
        return Poly2(quotient)

    def __repr__(self) -> str:
        if not self.terms:
            return "Poly2(0)"
        parts = []
        for (i, j), c in sorted(self.terms.items(), key=lambda kv: (kv[0][0] + kv[0][1], kv[0])):
            factors = [str(c)]
            if i:
                factors.append("x" if i == 1 else f"x^{i}")
            if j:
                factors.append("y" if j == 1 else f"y^{j}")
            parts.append("*".join(factors))
        return "Poly2(" + " + ".join(parts) + ")"


def univariate_gcd(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    """Monic gcd of two dense univariate rational polynomials (Euclid)."""

    def trim(p: list[Fraction]) -> list[Fraction]:
        while p and not p[-1]:
            p.pop()
        return p

    a, b = trim(list(a)), trim(list(b))
    while b:
        # a mod b
        while len(a) >= len(b) and a:
            factor = a[-1] / b[-1]
            shift = len(a) - len(b)
            for k in range(len(b)):
                a[shift + k] -= factor * b[k]
            a.pop()
            trim(a)
        a, b = b, a
    if a:
        lead = a[-1]
        a = [c / lead for c in a]
    return a
