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
are scaled by the lcm of their denominators, the minima are taken over ints
once per pair, and one ``Fraction`` is built at the end.  A discrepancy
table on a resolved model is likewise stored as integers over one
denominator; its ``Fraction`` rows are built only when read.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import FrozenInstanceError, dataclass
from fractions import Fraction
from typing import Iterable, Sequence, Union

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


class SNCPair:
    """Coefficients and intersection graph of an SNC configuration.

    ``divisors`` lists (label, coefficient); ``edges`` holds unordered label
    pairs of divisors with nonempty intersection.  Labels are unique, edges
    reference existing labels, self-loops are rejected, and coefficients are
    ``int`` or ``Fraction``.  Whether the data comes from an actual geometric
    model is the caller's responsibility.  A pair is immutable; one made by
    :meth:`scaled` keeps its coefficients as integers over one denominator
    and builds ``divisors`` only when read.
    """

    def __init__(self, divisors: tuple[tuple[str, Fraction], ...], edges: frozenset[frozenset[str]]) -> None:
        _check_graph([d for d, _ in divisors], edges)
        for d, c in divisors:
            if not isinstance(c, (int, Fraction)):
                raise MalformedConfigurationError(f"divisor {d} has non-rational coefficient {c!r}")
        object.__setattr__(self, "divisors", divisors)
        object.__setattr__(self, "edges", edges)

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

    @classmethod
    def scaled(
        cls, labels: Sequence[str], den: int, nums: Sequence[int], edges: frozenset[frozenset[str]]
    ) -> "SNCPair":
        """The pair with coefficient ``nums[i] / den`` on ``labels[i]``; its
        minima are taken from these integers."""
        _check_graph(labels, edges)
        if den < 1:
            raise MalformedConfigurationError(f"denominator must be positive, got {den}")
        pair = cls.__new__(cls)
        object.__setattr__(pair, "edges", edges)
        object.__setattr__(pair, "_scaled", (labels, den, nums))
        object.__setattr__(pair, "_minima", _scaled_minima(den, dict(zip(labels, nums)), edges))
        return pair

    @functools.cached_property
    def divisors(self) -> tuple[tuple[str, Fraction], ...]:
        labels, den, nums = self._scaled
        return tuple((d, Fraction(n, den)) for d, n in zip(labels, nums))

    @functools.cached_property
    def _minima(self) -> tuple[int, int, int] | None:
        # A coefficient above 1 settles it before any lcm is taken.
        if any(c.numerator > c.denominator for _, c in self.divisors):
            return None
        den, ints = clear_denominators(c for _, c in self.divisors)
        return _scaled_minima(den, {d: s for (d, _), s in zip(self.divisors, ints)}, self.edges)

    def __setattr__(self, name: str, value) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SNCPair):
            return NotImplemented
        return (self.divisors, self.edges) == (other.divisors, other.edges)

    def __hash__(self) -> int:
        return hash((self.divisors, self.edges))

    def __repr__(self) -> str:
        return f"SNCPair(divisors={self.divisors!r}, edges={self.edges!r})"


def _check_graph(labels: Sequence[str], edges: frozenset[frozenset[str]]) -> None:
    """Labels are unique and every edge joins two distinct known labels."""
    known = set(labels)
    if len(known) != len(labels):
        raise MalformedConfigurationError("divisor labels must be unique")
    for e in edges:
        if len(e) != 2:
            raise MalformedConfigurationError(f"edge {set(e)} must join two distinct divisors")
        if not e <= known:
            raise MalformedConfigurationError(f"edge {set(e)} references unknown labels")


def _scaled_minima(
    den: int, scaled: dict[str, int], edges: Iterable[frozenset[str]]
) -> tuple[int, int, int] | None:
    """(den, den*discrep, den*max coefficient) for coefficients ``scaled[d] / den``,
    or None when some coefficient exceeds 1.  The maximum is 0 for an empty
    configuration."""
    top = max(scaled.values(), default=0)
    if top > den:
        return None
    edge_min = min((den - scaled[a] - scaled[b] for a, b in edges), default=den)
    return den, min(den, den - top, edge_min), top


def discrep(pair: SNCPair) -> ExtRat:
    """Infimum of exceptional discrepancies for the configuration.

    Any coefficient above 1 forces minus infinity; otherwise the value is
    min(1, min_i(1 - c_i), min over meeting pairs of (1 - c_i - c_j)).
    An empty configuration gives 1.
    """
    minima = pair._minima
    if minima is None:
        return NEG_INFINITY
    den, low, _ = minima
    return Fraction(low, den)


def totaldiscrep(pair: SNCPair) -> ExtRat:
    """Infimum over all divisors: min(0, min_i(-c_i), discrep(pair))."""
    minima = pair._minima
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
    """Discrepancy table on a resolved model, in integers over one denominator.

    Divisor ``ids[i]`` has discrepancy ``a_num[i] / den`` and pullback
    multiplicity ``b_num[i] / den`` (nonnegative); ``exceptional[i]`` says
    whether it contracts.  ``rows`` gives the same table as Fractions.
    """

    ids: tuple[str, ...]
    den: int
    a_num: tuple[int, ...]
    b_num: tuple[int, ...]
    exceptional: tuple[bool, ...]

    def __post_init__(self) -> None:
        if len(set(self.ids)) != len(self.ids):
            raise MalformedConfigurationError("divisor ids must be unique")
        if self.den < 1:
            raise MalformedConfigurationError(f"denominator must be positive, got {self.den}")
        for i, b in zip(self.ids, self.b_num):
            if b < 0:
                b = Fraction(b, self.den)
                raise NegativeBError(f"divisor {i} has negative pullback multiplicity {b}")

    @classmethod
    def build(cls, rows: Iterable[tuple[str, Fraction, Fraction, bool]]) -> "ResolvedPairData":
        """The table of ``(id, a, b, exceptional)`` rows, over the lcm of their denominators."""
        rows = [(str(i), Fraction(a), Fraction(b), bool(e)) for i, a, b, e in rows]
        den, nums = clear_denominators(x for _, a, b, _ in rows for x in (a, b))
        return cls(
            ids=tuple(r[0] for r in rows),
            den=den,
            a_num=tuple(nums[0::2]),
            b_num=tuple(nums[1::2]),
            exceptional=tuple(r[3] for r in rows),
        )

    @functools.cached_property
    def rows(self) -> tuple[ResolvedRow, ...]:
        den = self.den
        return tuple(
            ResolvedRow(i, Fraction(a, den), Fraction(b, den), e)
            for i, a, b, e in zip(self.ids, self.a_num, self.b_num, self.exceptional)
        )


@dataclass(frozen=True)
class LociSets:
    non_sc: frozenset[str]
    non_klt: frozenset[str]
    non_lc: frozenset[str]


def loci_divisors(data: ResolvedPairData) -> LociSets:
    """Divisor labels violating each threshold: a < 0, a <= -1, a < -1."""
    den, table = data.den, tuple(zip(data.ids, data.a_num))
    non_sc = frozenset(i for i, a in table if a < 0)
    non_klt = frozenset(i for i, a in table if a <= -den)
    non_lc = frozenset(i for i, a in table if a < -den)
    return LociSets(non_sc=non_sc, non_klt=non_klt, non_lc=non_lc)


def classify_resolved(data: ResolvedPairData) -> PairClass:
    """Classify a pair from the discrepancies on a resolved model."""
    return _ladder(Fraction(min(data.a_num, default=0), data.den))


def vojta_reduced_divisor(data: ResolvedPairData) -> frozenset[str]:
    """Labels receiving coefficient 1 in ceil(a + eps*b) - floor(a) as eps -> 0+.

    The limit is evaluated analytically: a divisor enters exactly when its
    discrepancy is not an integer, or it is an integer but the divisor
    carries positive pullback multiplicity.  Coefficients are always 0 or 1.
    """
    den = data.den
    return frozenset(i for i, a, b in zip(data.ids, data.a_num, data.b_num) if a % den or b > 0)


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
