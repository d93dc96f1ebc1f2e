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
once per pair, and one ``Fraction`` is built at the end.  The edge set is
checked and indexed once per ``(labels, edges)`` input, the last one kept,
so the edge minimum runs over pairs of label indices.  A discrepancy
table on a resolved model is likewise stored as integers over one
denominator; its ``Fraction`` rows are built only when read.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, NamedTuple, Sequence, Union

from .errors import BadOrderError, MalformedConfigurationError, NegativeBError
from .polynomials import clear_denominators, read_number, read_rows, read_shape

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
    """Unique labels, a positive int ``den``, and one int per label in each
    column; a bool is not an int."""
    if len(set(labels)) != len(labels):
        raise MalformedConfigurationError("divisor labels must be unique")
    if type(den) is not int or den < 1:
        raise MalformedConfigurationError(f"denominator must be a positive integer, got {den!r}")
    for column in columns:
        if len(column) != len(labels):
            raise MalformedConfigurationError(f"{len(labels)} labels but a column of {len(column)}")
        if not {*map(type, column)} <= {int}:  # one pass in C
            raise MalformedConfigurationError(f"table entries must be integers, got {column!r}")


@functools.lru_cache(maxsize=1)
def _edge_index(labels: tuple[str, ...], edges: frozenset[frozenset[str]]) -> tuple[tuple[int, int], ...]:
    """Each edge, checked to join two distinct known labels, as their indices
    in ``labels``.  The pairs of one model, one per value of c, share it."""
    index = {label: i for i, label in enumerate(labels)}
    pairs = []
    for e in edges:
        if len(e) != 2:
            raise MalformedConfigurationError(f"edge {set(e)} must join two distinct divisors")
        a, b = e
        if a not in index or b not in index:
            raise MalformedConfigurationError(f"edge {set(e)} references unknown labels")
        pairs.append((index[a], index[b]))
    return tuple(pairs)


@dataclass(frozen=True, eq=False)
class SNCPair:
    """Coefficients and intersection graph of an SNC configuration.

    Divisor ``labels[i]`` has coefficient ``nums[i] / den``; ``edges`` holds
    unordered label pairs of divisors with nonempty intersection.  Labels are
    a tuple of unique str, numerators are ints (not bools), and edges are a
    frozenset of frozensets, each joining two existing labels.  Whether the
    data comes from an actual geometric model is the caller's responsibility.
    :meth:`build` reads ``(label, coefficient)`` rows.

    Construction also takes the largest numerator and ``den`` times the
    discrepancy (None when some coefficient exceeds 1) once from the
    integers.  The edge set is checked and made into pairs of label indices
    once per ``(labels, edges)`` input, the last one kept, and the minimum
    runs over those pairs.  ``den`` is not canonical, so pairs compare by
    ``divisors``.
    """

    labels: tuple[str, ...]
    den: int
    nums: tuple[int, ...]
    edges: frozenset[frozenset[str]]
    _top: int = field(init=False, repr=False)
    _low: int | None = field(init=False, repr=False)

    def __post_init__(self) -> None:
        labels, den, nums, edges = self.labels, self.den, self.nums, self.edges
        # Checked first, so that the edge memo's key hashes.
        if type(labels) is not tuple or type(edges) is not frozenset or not (
            {*map(type, labels)} <= {str} and {*map(type, edges)} <= {frozenset}
        ):
            raise MalformedConfigurationError("labels must be a tuple of str, edges a frozenset of frozensets")
        _check_table(labels, den, nums)
        pairs = _edge_index(labels, edges)
        # The maximum is 0 for an empty configuration; a coefficient above 1
        # settles the discrepancy before any edge is read.
        top, low = max(nums, default=0), None
        if top <= den:
            low = min((den - nums[i] - nums[j] for i, j in pairs), default=den)
            low = min(den, den - top, low)
        self.__dict__.update(_top=top, _low=low)

    @classmethod
    def build(
        cls, divisors: Iterable[tuple[str, Fraction | int | str]], edges: Iterable[tuple[str, str]] = ()
    ) -> "SNCPair":
        """The pair of ``(label, coefficient)`` rows, over the lcm of their denominators."""
        error = MalformedConfigurationError
        divs = read_rows(divisors, lambda d, c: (str(d), read_number(c, error)), error)
        den, nums = clear_denominators(c for _, c in divs)
        edges = frozenset(read_rows(edges, lambda a, b: frozenset((a, b)), error))
        return cls(tuple(d for d, _ in divs), den, tuple(nums), edges)

    @classmethod
    def from_json(cls, data: dict) -> "SNCPair":
        """``{"divisors": [{"id": label, "c": coefficient}, ...], "edges": [[label, label], ...]}``;
        ``edges`` may be left out."""
        read = lambda d: ([(e["id"], e["c"]) for e in d["divisors"]], d.get("edges", ()))
        return cls.build(*read_shape(read, data, MalformedConfigurationError))

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
        _check_table(self.ids, self.den, self.a_num, self.b_num)
        if len(self.exceptional) != len(self.ids) or not {*map(type, self.exceptional)} <= {bool}:
            raise MalformedConfigurationError(f"exceptional {self.exceptional!r} is not one bool per divisor")
        if min(self.b_num, default=0) < 0:  # then name the first negative one
            i, b = next((i, Fraction(b, self.den)) for i, b in zip(self.ids, self.b_num) if b < 0)
            raise NegativeBError(f"divisor {i} has negative pullback multiplicity {b}")

    @classmethod
    def build(cls, rows: Iterable[tuple[str, Fraction, Fraction, bool]]) -> "ResolvedPairData":
        """The table of ``(id, a, b, exceptional)`` rows, over the lcm of their denominators."""
        error = MalformedConfigurationError
        rows = read_rows(
            rows, lambda i, a, b, e: (str(i), read_number(a, error), read_number(b, error), bool(e)), error
        )
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


def quotient_discrepancy_1_1(n: int) -> Fraction:
    """Total discrepancy 2/n - 1 of a cyclic quotient surface germ of order n
    with both weights equal to 1."""
    if n < 2:
        raise BadOrderError(f"order must be at least 2, got {n}")
    return Fraction(2, n) - 1
