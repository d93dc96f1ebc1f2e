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
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterable, NamedTuple, Sequence, Union

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


def _check_table(labels: Sequence[str], den: int, *columns: Sequence[int]) -> None:
    """Unique labels, a positive int ``den``, and one int per label in each column."""
    if len(set(labels)) != len(labels):
        raise MalformedConfigurationError("divisor labels must be unique")
    if not isinstance(den, int) or den < 1:
        raise MalformedConfigurationError(f"denominator must be a positive integer, got {den!r}")
    for column in columns:
        if len(column) != len(labels):
            raise MalformedConfigurationError(f"{len(labels)} labels but a column of {len(column)}")
        try:
            math.gcd(*column)  # one pass in C that rejects any entry that is not an int
        except TypeError as exc:
            raise MalformedConfigurationError(f"table entries must be integers: {exc}") from None


def _read_rows(rows: Iterable, read: Callable) -> list:
    """``[read(*row) for row in rows]``; a row that cannot be read is a malformed configuration."""
    try:
        return [read(*row) for row in rows]
    except (ArithmeticError, TypeError, ValueError) as exc:
        raise MalformedConfigurationError(f"malformed configuration: {exc}") from exc


@dataclass(frozen=True, eq=False)
class SNCPair:
    """Coefficients and intersection graph of an SNC configuration.

    Divisor ``labels[i]`` has coefficient ``nums[i] / den``; ``edges`` holds
    unordered label pairs of divisors with nonempty intersection.  Labels are
    unique, numerators are ints, edges join two existing labels.  Whether
    the data comes from an actual geometric model is the caller's
    responsibility.  :meth:`build` reads ``(label, coefficient)`` rows.

    Construction also takes the largest numerator and ``den`` times the
    discrepancy (None when some coefficient exceeds 1) once from the
    integers.  ``den`` is not canonical, so pairs compare by ``divisors``.
    """

    labels: tuple[str, ...]
    den: int
    nums: tuple[int, ...]
    edges: frozenset[frozenset[str]]
    _top: int = field(init=False, repr=False)
    _low: int | None = field(init=False, repr=False)

    def __post_init__(self) -> None:
        labels, den, nums, edges = self.labels, self.den, self.nums, self.edges
        _check_table(labels, den, nums)
        known = set(labels)
        for e in edges:
            if len(e) != 2:
                raise MalformedConfigurationError(f"edge {set(e)} must join two distinct divisors")
            if not e <= known:
                raise MalformedConfigurationError(f"edge {set(e)} references unknown labels")
        # The maximum is 0 for an empty configuration; a coefficient above 1
        # settles the discrepancy before any edge is read.
        top, low = max(nums, default=0), None
        if top <= den:
            scaled = dict(zip(labels, nums))
            low = min((den - scaled[a] - scaled[b] for a, b in edges), default=den)
            low = min(den, den - top, low)
        self.__dict__.update(_top=top, _low=low)

    @classmethod
    def build(
        cls, divisors: Iterable[tuple[str, Fraction | int | str]], edges: Iterable[tuple[str, str]] = ()
    ) -> "SNCPair":
        """The pair of ``(label, coefficient)`` rows, over the lcm of their denominators."""
        divs = _read_rows(divisors, lambda d, c: (str(d), Fraction(c)))
        den, nums = clear_denominators(c for _, c in divs)
        edges = frozenset(_read_rows(edges, lambda *ends: frozenset(ends)))
        return cls(tuple(d for d, _ in divs), den, tuple(nums), edges)

    @functools.cached_property
    def divisors(self) -> tuple[tuple[str, Fraction], ...]:
        return tuple((d, Fraction(n, self.den)) for d, n in zip(self.labels, self.nums))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SNCPair):
            return NotImplemented
        return (self.divisors, self.edges) == (other.divisors, other.edges)

    def __hash__(self) -> int:
        return hash((self.divisors, self.edges))


def discrep(pair: SNCPair) -> ExtRat:
    """Infimum of exceptional discrepancies for the configuration.

    Any coefficient above 1 forces minus infinity; otherwise the value is
    min(1, min_i(1 - c_i), min over meeting pairs of (1 - c_i - c_j)).
    An empty configuration gives 1.
    """
    if pair._low is None:
        return NEG_INFINITY
    return Fraction(pair._low, pair.den)


def totaldiscrep(pair: SNCPair) -> ExtRat:
    """Infimum over all divisors: min(0, min_i(-c_i), discrep(pair))."""
    if pair._low is None:
        return NEG_INFINITY
    return Fraction(min(0, -pair._top, pair._low), pair.den)


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
    return _ladder(Fraction(-pair._top, pair.den))


def classify_via_totaldiscrep(pair: SNCPair) -> PairClass:
    """Same classes, but through thresholds on the total discrepancy."""
    return _ladder(totaldiscrep(pair))


class ResolvedRow(NamedTuple):
    """One prime divisor on a resolved model: its discrepancy ``a``, its
    multiplicity ``b`` in the pulled-back boundary, and whether it is
    ``exceptional``."""

    id: str
    a: Fraction
    b: Fraction
    exceptional: bool


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
        _check_table(self.ids, self.den, self.a_num, self.b_num, self.exceptional)
        for i, b in zip(self.ids, self.b_num):
            if b < 0:
                b = Fraction(b, self.den)
                raise NegativeBError(f"divisor {i} has negative pullback multiplicity {b}")

    @classmethod
    def build(cls, rows: Iterable[tuple[str, Fraction, Fraction, bool]]) -> "ResolvedPairData":
        """The table of ``(id, a, b, exceptional)`` rows, over the lcm of their denominators."""
        rows = _read_rows(rows, lambda i, a, b, e: (str(i), Fraction(a), Fraction(b), bool(e)))
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
