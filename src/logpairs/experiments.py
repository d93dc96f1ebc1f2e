"""Sampling of rational points on parametrized plane curves, the height law
comparing the distinguished-point height to the standard height, and exact
gcd identities for the three power families.

The residual of a record is hO - (m/d)*h.  It is computed as
``log(Q)/d`` for the exact rational Q = (G/R)^d / M^m, where G is the gcd of
the first two coordinates, R the archimedean max-ratio, and M the largest
absolute coordinate; when the law is exact (Q == 1) the float residual is
exactly 0.0, with no tolerance needed.  Sampling and Q stay in integers:
``Poly2.evaluate`` returns the integral forms' values at int pairs as ints,
only R is a Fraction, and Q is reduced by an integer gcd before its logs.

``sample_param_points`` keeps its last input, as the memos of ``curves`` do:
mdlaw and gcd-bounds on one curve and bound in one process share a sample.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from operator import itemgetter, mul
from statistics import StatisticsError, linear_regression
from typing import IO, Iterable, NamedTuple, Sequence

from .curves import multiplicity_at
from .errors import (
    BadRangeError,
    EmptyAfterFilterError,
    InputError,
    MalformedPolynomialError,
    NotCoprimeError,
    PointIsOError,
    ZeroInputError,
)
from .heights import (
    HomogPoly,
    ProjPoint,
    Subscheme,
    counting_gcd,
    normalize_point,
    weil_arch_ratio,
)
from .polynomials import Poly2, exact_int, read_shape

ORIGIN_COORDS = (0, 0, 1)

# Work limits, each checked before any work starts: the most bits of the
# value that checks a parametrization's target identity, the largest sampling
# bound (about 1.2*bound^2 parameter pairs), and the most bases, the largest
# |base| and the largest exponent d of one gcd-family run.
MAX_IDENTITY_BITS = 10**6
MAX_SAMPLE_BOUND = 1000
MAX_GCD_FAMILY_RANGE = 10**6
MAX_GCD_FAMILY_BASE = 10**6
MAX_GCD_FAMILY_D = 64


@dataclass(frozen=True)
class ParamCurve:
    """Three binary integer forms of one degree d >= 1 parametrizing a plane curve.

    The target must be a form in three variables, the forms must have no
    common polynomial factor, and substituting them into the target must
    vanish identically; all three are checked at construction.  A common
    factor is found by Euclid on the values p(1, t), or as the factor s when
    no form has a t^d term.  The identity takes one exact value: C, the sum
    over the target's terms c*x^e of |c| * prod ||p_i||_1^e_i, bounds every
    coefficient of F(1, t) for F = T(p0, p1, p2), so F vanishes exactly when
    F(1, C + 1) does.  An estimate of its D*log2(C + 1) bits (D = d_T*d, d_T
    the target's degree) above ``MAX_IDENTITY_BITS`` raises before C is built.
    """

    p0: Poly2
    p1: Poly2
    p2: Poly2
    target: HomogPoly

    def __post_init__(self) -> None:
        if self.target.num_vars != 3:
            raise InputError("target curve must live in the projective plane")
        forms = (self.p0, self.p1, self.p2)
        for f in forms:
            if f.is_zero:
                raise ZeroInputError("parametrization forms must be nonzero")
            if not f.has_integer_coefficients():
                raise InputError("parametrization forms must have integer coefficients")
        degrees = {i + j for f in forms for i, j in f.terms}
        if len(degrees) != 1 or 0 in degrees:
            raise InputError("parametrization forms must be homogeneous of one degree >= 1")
        (d,) = degrees
        # Euclid on the values p(1, t); s divides all three when none has a t^d term.
        g = Poly2()
        for f in forms:
            h = Poly2._of({(0, j): c for (_, j), c in f.terms.items()})
            while h:
                g, h = h, g.divide(h)[1]
        if g.total_degree() or all((0, d) not in f.terms for f in forms):
            raise InputError("parametrization forms share a common factor")
        # F(1, t) has integer coefficients at most C in size (||.||_1 is
        # submultiplicative), so when nonzero no root of modulus C + 1 (Cauchy).
        norms = [sum(abs(c.numerator) for c in f.terms.values()) for f in forms]
        # log2(C + 1) is at most log2(2 * #terms) plus the largest log2 of a term.
        logs, terms = [math.log2(n) for n in norms], self.target.terms
        log_c = math.log2(2 * len(terms)) + max(math.log2(abs(c)) + sum(map(mul, e, logs)) for e, c in terms)
        if d * self.target.degree * log_c > MAX_IDENTITY_BITS:
            raise BadRangeError(f"the target identity's value is estimated above {MAX_IDENTITY_BITS} bits")
        t = 1 + sum(abs(c) * math.prod(map(pow, norms, exps)) for exps, c in terms)
        if self.target.evaluate([f.evaluate(1, t) for f in forms]):
            raise InputError("parametrization does not satisfy the target equation")

    @classmethod
    def from_json(cls, data: dict) -> "ParamCurve":
        """``{"p0": rows, "p1": rows, "p2": rows, "target": form}``: the forms as
        :meth:`Poly2.from_json` rows, the target a :meth:`HomogPoly.from_json` document."""
        *forms, target = read_shape(itemgetter("p0", "p1", "p2", "target"), data, MalformedPolynomialError)
        return cls(*map(Poly2.from_json, forms), HomogPoly.from_json(target))

    @property
    def degree(self) -> int:
        return self.p0.total_degree()

    def evaluate(self, s: int, t: int) -> tuple[int, int, int]:
        return (self.p0.evaluate(s, t), self.p1.evaluate(s, t), self.p2.evaluate(s, t))


def pure_power_param(m: int, d: int) -> ParamCurve:
    """Parametrization (s^m t^(d-m) : s^d : t^d) of x0^d = x1^m x2^(d-m)."""
    _check_exponents(d, m)
    target = HomogPoly.from_terms(3, [((d, 0, 0), 1), ((0, m, d - m), -1)])
    return ParamCurve(
        p0=Poly2.monomial(m, d - m),
        p1=Poly2.monomial(d, 0),
        p2=Poly2.monomial(0, d),
        target=target,
    )


def nodal_cubic_param() -> ParamCurve:
    """Parametrization (t(s^2 - t^2) : s(s^2 - t^2) : t^3) of x1^2 x2 = x0^2 (x0 + x2)."""
    target = HomogPoly.from_terms(3, [((0, 2, 1), 1), ((3, 0, 0), -1), ((2, 0, 1), -1)])
    return ParamCurve(
        p0=Poly2({(2, 1): 1, (0, 3): -1}),
        p1=Poly2({(3, 0): 1, (1, 2): -1}),
        p2=Poly2.monomial(0, 3),
        target=target,
    )


@dataclass(frozen=True)
class SampleResult:
    """Sampled curve points with their parameter pairs.

    Images equal to (0:0:1) are kept apart in ``origin_params`` so that
    height-law evaluation can skip the distinguished point itself.
    """

    points: tuple[ProjPoint, ...]
    params: tuple[tuple[int, int], ...]
    origin_params: tuple[tuple[int, int], ...]


@functools.lru_cache(maxsize=1)
def sample_param_points(pc: ParamCurve, bound: int) -> SampleResult:
    """Evaluate the parametrization at all primitive parameter pairs with
    entries bounded by ``bound``, one representative per projective pair.

    Pairs run in sorted order, with (1, 0) just before (1, 1).  Images are
    normalized and deduplicated.  No image is all zero: at a primitive (p, q)
    that would make q*s - p*t a common factor of the forms.

    The last (curve, bound) keeps its sample for an equal curve at an equal
    bound, read by :func:`exact_int`.  No error is kept; a bad bound raises.
    """
    bound = exact_int(bound, "bound", BadRangeError)
    if not 1 <= bound <= MAX_SAMPLE_BOUND:
        raise BadRangeError(f"bound must be in [1, {MAX_SAMPLE_BOUND}], got {bound}")
    pairs = (
        (p, q)
        for p in range(-bound, bound + 1)
        for q in range(0 if p == 1 else 1, bound + 1)
        if math.gcd(p, q) == 1
    )
    first: dict[ProjPoint, tuple[int, int]] = {}  # each image and its first pair
    origin_params: list[tuple[int, int]] = []
    for p, q in pairs:
        pt = normalize_point(pc.evaluate(p, q))
        if pt.coords == ORIGIN_COORDS:
            origin_params.append((p, q))
        else:
            first.setdefault(pt, (p, q))
    return SampleResult(points=tuple(first), params=tuple(first.values()), origin_params=tuple(origin_params))


class ExperimentRecord(NamedTuple):
    """One sampled point with its heights against the distinguished point;
    ``m`` is the target's multiplicity there, the one the residual uses.

    A named tuple: immutable, and built about three times faster than a
    frozen dataclass, once per sampled point."""

    point: ProjPoint
    h: float
    hO: float
    N_O: float
    residual: float
    m: int


@dataclass(frozen=True)
class SlopeReport:
    m: int
    d: int
    samples: int
    samples_high: int  # records with h >= h_min, the window of max_abs_residual_high
    max_abs_residual: float
    max_abs_residual_high: float
    slope_fit: float


def _degree_and_multiplicity(target: HomogPoly) -> tuple[int, int]:
    """The degree d >= 1 of the target curve and its multiplicity m at the
    distinguished point (0:0:1), read in the chart x2 = 1."""
    if target.degree < 1:
        raise InputError("target curve must have positive degree")
    if target.num_vars != 3:
        raise InputError("target curve must live in the projective plane")
    return target.degree, multiplicity_at(Poly2(((e[0], e[1]), c) for e, c in target.terms), (0, 0))


def mdlaw_records(target: HomogPoly, points: Sequence[ProjPoint]) -> list[ExperimentRecord]:
    """Per-point height data against the distinguished point (0:0:1).

    The multiplicity m of the target at that point and its degree d fix the
    expected slope m/d; residuals come from the exact rational route in the
    module docstring.
    """
    d, m = _degree_and_multiplicity(target)
    z_origin = Subscheme.of_coordinates(3, (0, 1))
    records = []
    for pt in points:
        if pt.coords == ORIGIN_COORDS:
            raise PointIsOError("sample contains the distinguished point (0:0:1)")
        g = counting_gcd(z_origin, pt)
        ratio = weil_arch_ratio(z_origin, pt)
        r_num, r_den = ratio.numerator, ratio.denominator
        big = max(map(abs, pt.coords))
        n_val = math.log(g)
        # -log_fraction(ratio) + 0.0 with the subtraction turned round: ratio > 0
        # off the origin, b - a is exactly -(a - b), and b - a is never -0.0.
        prox = math.log(r_den) - math.log(r_num)
        # Q = (g / ratio)^d / big^m in lowest terms, as the Fraction would
        # hold it, so that the two logs see the same integers.
        num = (g * r_den) ** d
        den = r_num**d * big**m
        k = math.gcd(num, den)
        residual = (math.log(num // k) - math.log(den // k)) / d
        records.append(ExperimentRecord(pt, math.log(big), n_val + prox, n_val, residual, m))
    return records


def mdlaw_report(
    target: HomogPoly, records: Sequence[ExperimentRecord], h_min: float = 0.0
) -> SlopeReport:
    """Aggregate the residuals of ``mdlaw_records(target, ...)`` and a
    diagnostic least-squares slope of hO on h; m is read off the records."""
    if not records:
        raise InputError("cannot build a report from an empty sample")
    if not math.isfinite(h_min):
        raise BadRangeError(f"h_min must be finite, got {h_min}")
    residuals = [abs(r.residual) for r in records]
    high = [abs(r.residual) for r in records if r.h >= h_min]
    try:
        slope = linear_regression([r.h for r in records], [r.hO for r in records]).slope
    except StatisticsError:
        slope = 0.0
    return SlopeReport(
        m=records[0].m,
        d=target.degree,
        samples=len(records),
        samples_high=len(high),
        max_abs_residual=max(residuals),
        max_abs_residual_high=max(high) if high else 0.0,
        slope_fit=slope,
    )


GCD_FAMILY_KINDS = ("pure", "shifted", "mixed")


def _check_exponents(d: int, m: int) -> None:
    if m < 1 or d <= m:
        raise NotCoprimeError(f"need d > m >= 1, got d={d}, m={m}")
    if math.gcd(d, m) != 1:
        raise NotCoprimeError(f"exponents d={d}, m={m} are not coprime")


@dataclass(frozen=True)
class GcdFamilyReport:
    kind: str
    d: int
    m: int
    a_min: int
    a_max: int
    checked: int
    violations: tuple[tuple[int, int, int], ...]


def gcd_family_check(kind: str, d: int, m: int, a_range: tuple[int, int]) -> GcdFamilyReport:
    """Verify one exact gcd identity over an integer range of bases.

    pure:    gcd(a^m, a^d) = |a|^m for every a,
    shifted: gcd(a^m - 1, a^d - 1) = |a - 1| for |a| > 1,
    mixed:   gcd(a^m, a^d - 1) = 1 for every a.
    """
    if kind not in GCD_FAMILY_KINDS:
        raise InputError(f"unknown family kind {kind!r}")
    _check_exponents(d, m)
    a_min, a_max = a_range
    if a_min > a_max:
        raise BadRangeError(f"empty range [{a_min}, {a_max}]")
    if a_max - a_min >= MAX_GCD_FAMILY_RANGE:
        raise BadRangeError(f"range [{a_min}, {a_max}] holds more than {MAX_GCD_FAMILY_RANGE} bases")
    if d > MAX_GCD_FAMILY_D:
        raise BadRangeError(f"exponent d = {d} exceeds {MAX_GCD_FAMILY_D}")
    if max(abs(a_min), abs(a_max)) > MAX_GCD_FAMILY_BASE:
        raise BadRangeError(f"|a_min| and |a_max| must be at most {MAX_GCD_FAMILY_BASE}")
    violations = []
    checked = 0
    for a in range(a_min, a_max + 1):
        if kind == "pure":
            lhs, rhs = math.gcd(a**m, a**d), abs(a) ** m
        elif kind == "shifted":
            if abs(a) <= 1:
                continue
            lhs, rhs = math.gcd(a**m - 1, a**d - 1), abs(a - 1)
        else:
            lhs, rhs = math.gcd(a**m, a**d - 1), 1
        checked += 1
        if lhs != rhs:
            violations.append((a, lhs, rhs))
    return GcdFamilyReport(
        kind=kind,
        d=d,
        m=m,
        a_min=a_min,
        a_max=a_max,
        checked=checked,
        violations=tuple(violations),
    )


@dataclass(frozen=True)
class GcdBoundsReport:
    m: int
    d: int
    eps: float
    delta: float
    samples: int
    c_lower: float
    c_upper: float
    exponent_low: float
    exponent_high: float


def gcd_bounds_check(
    target: HomogPoly,
    points: Sequence[ProjPoint],
    eps: float,
    delta: float,
) -> GcdBoundsReport:
    """Fit the tightest constants sandwiching gcd(x, y) between powers of
    max(|x|, |y|) with exponents m/d -+ eps, over points far enough from the
    distinguished point in the euclidean sense."""
    if not points:
        raise InputError("cannot build a report from an empty sample")
    if not (0 < eps < math.inf and 0 < delta < math.inf):
        raise BadRangeError("eps and delta must be positive and finite")
    d, m = _degree_and_multiplicity(target)
    lo = m / d - eps
    hi = m / d + eps
    delta_num, delta_den = Fraction(delta).as_integer_ratio()
    c_lower = math.inf
    c_upper = 0.0
    kept = 0
    for pt in points:
        x, y, z = pt.coords
        big = max(abs(x), abs(y))
        if big * delta_den < delta_num * abs(z):
            continue
        kept += 1
        g = math.gcd(x, y)
        log_t = math.log(big) if big > 1 else 0.0
        try:
            c_lower = min(c_lower, math.exp(math.log(g) - lo * log_t))
        except OverflowError as exc:
            raise BadRangeError(f"eps = {eps} is too large: the lower constant overflows a float") from exc
        c_upper = max(c_upper, math.exp(math.log(g) - hi * log_t))
    if kept == 0:
        raise EmptyAfterFilterError(f"no sample has max(|x/z|, |y/z|) >= {delta}")
    return GcdBoundsReport(
        m=m,
        d=d,
        eps=eps,
        delta=delta,
        samples=kept,
        c_lower=c_lower,
        c_upper=c_upper,
        exponent_low=lo,
        exponent_high=hi,
    )


MDLAW_CSV_COLUMNS = ("p", "q", "x0", "x1", "x2", "h", "hO", "N_O", "residual")
_CSV_ROW = "%s,%s,%s,%s,%s,%.12g,%.12g,%.12g,%.12g\r\n"


def write_mdlaw_csv(
    stream: IO[str],
    params: Iterable[tuple[int, int]],
    records: Iterable[ExperimentRecord],
) -> None:
    """Write one row per record: parameters, exact coordinates, then the
    three heights and the residual at 12 significant digits.

    The bytes are those of ``csv.writer``: no field of these types needs
    quoting, and every line ends in CRLF."""
    stream.write(",".join(MDLAW_CSV_COLUMNS) + "\r\n")
    stream.writelines(
        _CSV_ROW % (p, q, *r.point.coords, r.h, r.hO, r.N_O, r.residual)
        for (p, q), r in zip(params, records)
    )
