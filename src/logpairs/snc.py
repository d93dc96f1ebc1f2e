"""Discrepancy calculus and singularity classes for simple-normal-crossing data.

A pair is presented combinatorially: divisor labels with rational
coefficients, plus the set of label pairs whose divisors meet.  The functions
here evaluate the closed-form minimum formulas for the discrepancy and total
discrepancy of such a configuration, classify it into the strongly-canonical /
Kawamata-log-terminal / log-canonical trichotomy, extract the loci of
divisors violating each threshold, and build the reduced divisor whose
coefficients come from the small-perturbation round-up minus round-down.

Minus infinity is an explicit value (``NEG_INFINITY``), not an exception; it
compares below every rational.

The minimum formulas run in integers: coefficients (``int`` or ``Fraction``)
are scaled by the lcm of their denominators, the minima are taken over ints,
and one ``Fraction`` is built at the end.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Union

from .errors import BadOrderError, MalformedConfigurationError, NegativeBError
from .polynomials import clear_denominators

NEG_INFINITY: float = float("-inf")

ExtRat = Union[Fraction, float]


class PairClass(enum.Enum):
    STRONGLY_CANONICAL = "strongly_canonical"
    KAWAMATA_LOG_TERMINAL = "kawamata_log_terminal"
    LOG_CANONICAL = "log_canonical"
    NOT_LOG_CANONICAL = "not_log_canonical"

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class SNCPair:
    """Coefficients and intersection graph of an SNC configuration.

    ``divisors`` lists (label, coefficient); ``edges`` holds unordered label
    pairs of divisors with nonempty intersection.  Labels are unique, edges
    reference existing labels, self-loops are rejected, and coefficients are
    ``int`` or ``Fraction``.  Whether the data comes from an actual geometric
    model is the caller's responsibility.
    """

    divisors: tuple[tuple[str, Fraction], ...]
    edges: frozenset[frozenset[str]]

    def __post_init__(self) -> None:
        ids = [d for d, _ in self.divisors]
        if len(ids) != len(set(ids)):
            raise MalformedConfigurationError("divisor labels must be unique")
        for d, c in self.divisors:
            if not isinstance(c, (int, Fraction)):
                raise MalformedConfigurationError(f"divisor {d} has non-rational coefficient {c!r}")
        known = set(ids)
        for e in self.edges:
            if len(e) != 2:
                raise MalformedConfigurationError(f"edge {set(e)} must join two distinct divisors")
            if not e <= known:
                raise MalformedConfigurationError(f"edge {set(e)} references unknown labels")

    @classmethod
    def build(
        cls,
        divisors: Iterable[tuple[str, Fraction | int | str]],
        edges: Iterable[tuple[str, str]] = (),
    ) -> "SNCPair":
        try:
            divs = tuple((str(d), Fraction(c)) for d, c in divisors)
        except (ArithmeticError, TypeError, ValueError) as exc:
            raise MalformedConfigurationError(f"malformed divisors: {exc}") from exc
        es = frozenset(frozenset(pair) for pair in edges)
        return cls(divisors=divs, edges=es)


def _scaled_minima(pair: SNCPair) -> tuple[int, int, int] | None:
    """(D, D*discrep, D*max coefficient) for D the lcm of the coefficient
    denominators, or None when some coefficient exceeds 1.  The maximum is
    0 for an empty configuration."""
    if any(c.numerator > c.denominator for _, c in pair.divisors):
        return None
    den, ints = clear_denominators(c for _, c in pair.divisors)
    scaled = {d: s for (d, _), s in zip(pair.divisors, ints)}
    top = max(scaled.values(), default=0)
    edge_min = min((den - scaled[a] - scaled[b] for a, b in pair.edges), default=den)
    return den, min(den, den - top, edge_min), top


def discrep(pair: SNCPair) -> ExtRat:
    """Infimum of exceptional discrepancies for the configuration.

    Any coefficient above 1 forces minus infinity; otherwise the value is
    min(1, min_i(1 - c_i), min over meeting pairs of (1 - c_i - c_j)).
    An empty configuration gives 1.
    """
    minima = _scaled_minima(pair)
    if minima is None:
        return NEG_INFINITY
    den, low, _ = minima
    return Fraction(low, den)


def totaldiscrep(pair: SNCPair) -> ExtRat:
    """Infimum over all divisors: min(0, min_i(-c_i), discrep(pair))."""
    minima = _scaled_minima(pair)
    if minima is None:
        return NEG_INFINITY
    den, low, top = minima
    return Fraction(min(0, -top, low), den)


def _ladder(worst: ExtRat) -> PairClass:
    """Class of a pair whose smallest discrepancy is ``worst``: strongly
    canonical at >= 0, Kawamata log terminal above -1, log canonical at -1."""
    if worst >= 0:
        return PairClass.STRONGLY_CANONICAL
    if worst > -1:
        return PairClass.KAWAMATA_LOG_TERMINAL
    if worst >= -1:
        return PairClass.LOG_CANONICAL
    return PairClass.NOT_LOG_CANONICAL


def classify(pair: SNCPair) -> PairClass:
    """Strictest singularity class read off the coefficients alone."""
    return _ladder(-max((c for _, c in pair.divisors), default=0))


def classify_via_totaldiscrep(pair: SNCPair) -> PairClass:
    """Same classes, but through thresholds on the total discrepancy."""
    return _ladder(totaldiscrep(pair))


@dataclass(frozen=True)
class ResolvedRow:
    """One prime divisor on a resolved model.

    ``a`` is its discrepancy, ``b`` its multiplicity in the pulled-back
    boundary (nonnegative), and ``exceptional`` whether it contracts.
    """

    id: str
    a: Fraction
    b: Fraction
    exceptional: bool

    def __post_init__(self) -> None:
        if self.b < 0:
            raise NegativeBError(f"divisor {self.id} has negative pullback multiplicity {self.b}")


@dataclass(frozen=True)
class ResolvedPairData:
    rows: tuple[ResolvedRow, ...]

    def __post_init__(self) -> None:
        ids = [r.id for r in self.rows]
        if len(ids) != len(set(ids)):
            raise MalformedConfigurationError("divisor ids must be unique")

    @classmethod
    def build(cls, rows: Iterable[tuple[str, Fraction, Fraction, bool]]) -> "ResolvedPairData":
        return cls(tuple(ResolvedRow(str(i), Fraction(a), Fraction(b), bool(e)) for i, a, b, e in rows))


@dataclass(frozen=True)
class LociSets:
    non_sc: frozenset[str]
    non_klt: frozenset[str]
    non_lc: frozenset[str]


def loci_divisors(data: ResolvedPairData) -> LociSets:
    """Divisor labels violating each threshold: a < 0, a <= -1, a < -1."""
    non_sc = frozenset(r.id for r in data.rows if r.a < 0)
    non_klt = frozenset(r.id for r in data.rows if r.a <= -1)
    non_lc = frozenset(r.id for r in data.rows if r.a < -1)
    return LociSets(non_sc=non_sc, non_klt=non_klt, non_lc=non_lc)


def classify_resolved(data: ResolvedPairData) -> PairClass:
    """Classify a pair from the discrepancies on a resolved model."""
    return _ladder(min((r.a for r in data.rows), default=0))


def vojta_reduced_divisor(data: ResolvedPairData) -> frozenset[str]:
    """Labels receiving coefficient 1 in ceil(a + eps*b) - floor(a) as eps -> 0+.

    The limit is evaluated analytically: a divisor enters exactly when its
    discrepancy is not an integer, or it is an integer but the divisor
    carries positive pullback multiplicity.  Coefficients are always 0 or 1.
    """
    return frozenset(r.id for r in data.rows if r.a.denominator != 1 or r.b > 0)


def vojta_reduced_coefficient_numeric(a: Fraction, b: Fraction, eps: Fraction) -> int:
    """ceil(a + eps*b) - floor(a) for one explicit eps (test oracle)."""
    if b < 0:
        raise NegativeBError(f"negative pullback multiplicity {b}")
    return math.ceil(a + eps * b) - math.floor(a)


def quotient_discrepancy_1_1(n: int) -> Fraction:
    """Total discrepancy 2/n - 1 of a cyclic quotient surface germ of order n
    with both weights equal to 1."""
    if n < 2:
        raise BadOrderError(f"order must be at least 2, got {n}")
    return Fraction(2, n) - 1
