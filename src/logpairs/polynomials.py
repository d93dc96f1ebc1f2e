"""Exact bivariate polynomials over Q.

This is the small arithmetic kernel behind plane-curve resolution and the
parametrized sampling families: terms are stored sparsely as
``{(i, j): coefficient}`` with Fraction coefficients and no explicit zeros.
Blowup substitutions and division are implemented directly so that every
transformation stays in rational arithmetic.  ``Poly2.divide`` is the one
division loop: exact divisibility and the Euclid that finds a common factor
of a parametrization both run on it.  ``Poly2.x_chart`` is the one chart
substitution, behind both blowups and the runs of forced centers in ``curves``.

It also owns the reading of input: ``read_number`` is the one rule by which
every module turns a number from outside into a Fraction, with the caller's
error type and the ``MAX_DIGITS`` limit, ``read_rows`` the one rule for
rows of terms or divisors, and ``read_shape`` the one rule for the keys of a
JSON document; both map the ``_SHAPE_ERRORS`` of input of the wrong shape to
the caller's error type.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable, Iterable, Mapping, Sequence, Union

from .errors import BadRangeError, InputError, MalformedPolynomialError, ZeroInputError

CoeffLike = Union[Fraction, int, str]

MAX_DEGREE = 4096  # largest total degree of a term read from input, in Poly2 and HomogPoly
MAX_DIGITS = 1000  # most decimal digits in the numerator or denominator of a number read by read_number
_DIGITS_BOUND = 10**MAX_DIGITS
# What indexing, unpacking or converting input of the wrong shape raises.
_SHAPE_ERRORS = (ArithmeticError, LookupError, TypeError, ValueError)


def read_number(value, error: type[InputError]) -> Fraction:
    """A number supplied by a caller, as a Fraction: a Fraction as it is, an int
    or a "p/q", decimal or exponent-notation string as ``Fraction`` reads it, a
    float as the decimal ``repr`` writes.  Anything else, a bool too, raises
    ``error``, and a numerator or denominator of more than MAX_DIGITS digits
    BadRangeError.  Up to MAX_DIGITS ASCII digits after an optional "-" are
    read by ``int``."""
    text = repr(value) if isinstance(value, float) else value
    if isinstance(text, int) and not isinstance(text, bool):
        if -_DIGITS_BOUND < text < _DIGITS_BOUND:
            return Fraction(text)
    elif isinstance(text, str):
        if (digits := text.removeprefix("-")).isascii() and digits.isdigit() and len(digits) <= MAX_DIGITS:
            return Fraction(int(text))  # ASCII only: "²".isdigit(), but int("²") raises
        # A literal with no exponent has no more digits than characters.
        short = len(text) <= MAX_DIGITS and "e" not in text and "E" not in text
        if short or not _exponent_too_large(text):
            try:
                q = Fraction(text)
            except (ValueError, ZeroDivisionError):
                raise error(f"{value!r} is not a rational number") from None
            if short or -_DIGITS_BOUND < q.numerator < _DIGITS_BOUND and q.denominator < _DIGITS_BOUND:
                return q
    elif isinstance(value, Fraction):
        return value
    else:
        raise error(f"{value!r} is not a rational number")
    raise BadRangeError(f"a number has more than {MAX_DIGITS} digits")


def _exponent_too_large(text: str) -> bool:
    """Whether a literal's exponent exceeds MAX_DIGITS + len(text) in size, so
    that 10**exponent is never built.  A nonzero mantissa, of at most
    len(text) digits, shifted that far leaves more than MAX_DIGITS digits in
    the numerator or the denominator; a zero one is refused alike."""
    _, e, exponent = text.lower().partition("e")
    try:
        return bool(e) and abs(int(exponent)) > MAX_DIGITS + len(text)
    except ValueError:  # not an exponent; Fraction rejects the literal
        return False


def exact_int(value, what: str, error: type[InputError] = MalformedPolynomialError) -> int:
    """An exponent, integer coefficient, ``n`` or prime read from input by
    :func:`read_number`, as an int: 2, 2.0 and "2" pass, and anything
    non-integral raises ``error`` instead of being truncated."""
    q = value if type(value) is int else read_number(value, error)
    if q.denominator != 1:
        raise error(f"{what} {value!r} is not an integer")
    return q.numerator


def as_row(value, error: type[InputError]) -> list | tuple:
    """``value`` when it is a list or tuple; anything else, a string too,
    raises ``error``."""
    if not isinstance(value, (list, tuple)):
        raise error(f"{value!r} is not a list or tuple")
    return value


def read_rows(rows: Iterable, read: Callable, error: type[InputError]) -> list:
    """``[read(*row) for row in rows]``: rows that are not an iterable of
    lists or tuples, or a row that ``read`` cannot take, raise ``error``; an
    InputError raised by ``read`` passes unchanged."""
    try:
        return [read(*as_row(row, error)) for row in rows]
    except InputError:
        raise
    except _SHAPE_ERRORS as exc:
        raise error(f"unreadable rows: {exc}") from exc


def read_shape(read: Callable, document, error: type[InputError]):
    """``read(document)``: a document that ``read`` cannot take (a missing key,
    a list where an object belongs, a field of the wrong type) raises
    ``error``; an InputError raised by ``read`` passes unchanged."""
    try:
        return read(document)
    except InputError:
        raise
    except _SHAPE_ERRORS as exc:
        raise error(f"malformed document: {type(exc).__name__}: {exc}") from exc


def _term(exponents, c: CoeffLike) -> tuple[tuple[int, int], Fraction]:
    i, j = as_row(exponents, MalformedPolynomialError)
    key = (exact_int(i, "exponent"), exact_int(j, "exponent"))
    if key[0] < 0 or key[1] < 0:
        raise MalformedPolynomialError(f"negative exponent in term {key}")
    if key[0] + key[1] > MAX_DEGREE:
        raise BadRangeError(f"term {key} has degree above {MAX_DEGREE}")
    return key, read_number(c, MalformedPolynomialError)


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


def clear_denominators(values: Iterable[Fraction | int]) -> tuple[int, list[int]]:
    """(D, [D*v for v in values]) for D the lcm of the denominators."""
    values = list(values)
    den = math.lcm(*(v.denominator for v in values))
    return den, [v.numerator * (den // v.denominator) for v in values]


def _binomial(t: Fraction, n: int) -> Sequence[tuple[int, Fraction | int]]:
    """(v + t)^n as ``(power of v, coefficient)`` pairs; just (n, 1) when t == 0.

    With t = p/q, each coefficient comes from the next one up by
    C(n, r) t^(n-r) = C(n, r+1) t^(n-r-1) * p(r+1) / (q(n-r)), one Fraction
    per entry built from integer products.
    """
    if not t:
        return ((n, 1),)
    p, q = t.numerator, t.denominator
    row = [(n, 1)]
    num, den = 1, 1
    for r in range(n - 1, -1, -1):
        c = Fraction(num * p * (r + 1), den * q * (n - r))
        num, den = c.numerator, c.denominator
        row.append((r, c))
    row.reverse()
    return row


class Poly2:
    """A polynomial in two variables x, y with exact rational coefficients.

    ``terms`` is set once, in ``__init__`` or ``_of``; ``evaluate`` keeps an
    integer view of it, built on the first call at two ints, and ``__hash__``
    keeps its hash, computed on the first call.
    """

    __slots__ = ("terms", "_ints", "_hash")

    def __init__(self, terms: Mapping[tuple[int, int], CoeffLike] | Iterable = ()):
        items = terms.items() if isinstance(terms, Mapping) else terms
        self.terms = _sum_terms({}, read_rows(items, _term, MalformedPolynomialError))

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
        return cls._of(_sum_terms({}, read_rows(data, _term, MalformedPolynomialError)))

    # -- basic structure ---------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Poly2) and self.terms == other.terms

    def __hash__(self):
        try:
            return self._hash
        except AttributeError:
            self._hash = hash(frozenset(self.terms.items()))
            return self._hash

    def total_degree(self) -> int:
        if not self.terms:
            raise ZeroInputError("degree of the zero polynomial")
        return max(i + j for i, j in self.terms)

    def order(self) -> int:
        """Minimal total degree of a term (the multiplicity at the origin)."""
        if not self.terms:
            raise ZeroInputError("order of the zero polynomial")
        return min(i + j for i, j in self.terms)

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

    def evaluate(self, ax: CoeffLike, ay: CoeffLike) -> int | Fraction:
        """The value at (ax, ay): an int when both arguments are ints and every
        coefficient is integral, else a Fraction."""
        if type(ax) is int and type(ay) is int:
            try:
                ints = self._ints
            except AttributeError:
                # the terms as (c, i, j) with int c; None when a coefficient
                # is not integral, and the rational loop below runs instead
                ints = self._ints = (
                    tuple((c.numerator, i, j) for (i, j), c in self.terms.items())
                    if self.has_integer_coefficients()
                    else None
                )
            if ints is not None:
                total = 0
                for c, i, j in ints:
                    total += c * ax**i * ay**j
                return total
        ax, ay = read_number(ax, MalformedPolynomialError), read_number(ay, MalformedPolynomialError)
        total = Fraction(0)
        for (i, j), c in self.terms.items():
            total += c * ax**i * ay**j
        return total

    # -- substitutions used by blowups --------------------------------------

    def translate(self, ax: CoeffLike, ay: CoeffLike) -> "Poly2":
        """f(x + ax, y + ay), expanded with binomial coefficients."""
        if ax == 0 and ay == 0:
            return self
        ax, ay = read_number(ax, MalformedPolynomialError), read_number(ay, MalformedPolynomialError)
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
        return self.x_chart(1, power := self.order()).translate(0, shift), power

    def x_chart(self, k: int, s: int, mirror: bool = False) -> "Poly2":
        """f(x, x^k * y) / x^s, which moves each term (i, j) to (i + k*j - s, j):
        k blowups in the chart y -> x*y, x^s the product of the powers they strip.
        With ``mirror``, f(x * y^k, y) / y^s, the same for f(y, x).  The power divides."""
        if mirror:
            return Poly2._of({(i, j + k * i - s): c for (i, j), c in self.terms.items()})
        return Poly2._of({(i + k * j - s, j): c for (i, j), c in self.terms.items()})

    def blowup_y(self) -> tuple["Poly2", int]:
        """Strict transform in the chart x = x*y, y = y (the vertical direction)."""
        return self.x_chart(1, power := self.order(), mirror=True), power

    def on_x_axis_restriction(self) -> list[Fraction]:
        """Coefficients of f(0, y) as a dense list indexed by the power of y."""
        coeffs = [Fraction(0)] * (max((j for i, j in self.terms if i == 0), default=-1) + 1)
        for (i, j), c in self.terms.items():
            if i == 0:
                coeffs[j] = c
        return coeffs

    # -- exact division -----------------------------------------------------

    def _leading(self) -> tuple[tuple[int, int], Fraction]:
        key = max(self.terms, key=lambda k: (k[0] + k[1], k))
        return key, self.terms[key]

    def divide(self, divisor: "Poly2") -> tuple["Poly2", "Poly2"]:
        """``(quotient, rest)`` with self == quotient * divisor + rest: multiples
        of ``divisor`` are taken off while its leading term divides the rest's.
        In one variable this is division with remainder."""
        if divisor.is_zero:
            raise ZeroInputError("division by the zero polynomial")
        quotient: dict[tuple[int, int], Fraction] = {}
        rem = self
        (di, dj), dc = divisor._leading()
        while rem.terms:
            (ri, rj), rc = rem._leading()
            if ri < di or rj < dj:
                break
            key = (ri - di, rj - dj)
            q = rc / dc
            quotient[key] = q
            rem = rem - divisor * Poly2._of({key: q})
        return Poly2._of(quotient), rem

    def divide_exact(self, divisor: "Poly2") -> "Poly2 | None":
        """Return self / divisor if the division is exact in Q[x,y], else None."""
        quotient, rest = self.divide(divisor)
        return None if rest else quotient

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
