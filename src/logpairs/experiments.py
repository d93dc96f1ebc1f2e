"""Sampling of rational points on parametrized plane curves, the height law
comparing the distinguished-point height to the standard height, and exact
gcd identities for the three power families.

The residual of a record is hO - (m/d)*h.  It is computed as
``log(Q)/d`` for the exact rational Q = (G/R)^d / M^m, where G is the gcd of
the first two coordinates, R the archimedean max-ratio, and M the largest
absolute coordinate; when the law is exact (Q == 1) the float residual is
exactly 0.0, with no tolerance needed.  Sampling and Q stay in integers:
only R is a Fraction, and Q is reduced by an integer gcd before its logs.
"""

from __future__ import annotations

import csv
import math
from dataclasses import asdict, dataclass
from fractions import Fraction
from statistics import StatisticsError, linear_regression
from typing import IO, Iterable, Sequence

from .curves import multiplicity_at
from .errors import (
    BadRangeError,
    EmptyAfterFilterError,
    InputError,
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
from .places import log_fraction
from .polynomials import Poly2, univariate_gcd

ORIGIN_COORDS = (0, 0, 1)


def dehomogenize_at_origin_chart(target: HomogPoly) -> Poly2:
    """Set the last variable to 1, producing a bivariate polynomial."""
    if target.num_vars != 3:
        raise InputError("target curve must live in the projective plane")
    return Poly2(((e[0], e[1]), c) for e, c in target.terms)


def _dehomog_coeffs(p: Poly2) -> list[Fraction]:
    """Coefficients of p(1, t) indexed by the power of t."""
    coeffs = [Fraction(0)] * (max(j for _, j in p.terms) + 1 if p.terms else 0)
    for (_, j), c in p.terms.items():
        coeffs[j] += c
    return coeffs


@dataclass(frozen=True)
class ParamCurve:
    """Three binary integer forms of equal degree parametrizing a plane curve.

    The forms must have no common polynomial factor, and substituting them
    into the target polynomial must vanish identically; both are checked at
    construction.
    """

    p0: Poly2
    p1: Poly2
    p2: Poly2
    target: HomogPoly

    def __post_init__(self) -> None:
        forms = (self.p0, self.p1, self.p2)
        for f in forms:
            if f.is_zero:
                raise ZeroInputError("parametrization forms must be nonzero")
            if not f.is_homogeneous():
                raise InputError("parametrization forms must be homogeneous")
            if not f.has_integer_coefficients():
                raise InputError("parametrization forms must have integer coefficients")
        degrees = {f.total_degree() for f in forms}
        if len(degrees) != 1 or min(degrees) < 1:
            raise InputError("forms must share one degree >= 1")
        if min(min(i for i, _ in f.terms) for f in forms) > 0:
            raise InputError("forms share a power of the first parameter")
        g = _dehomog_coeffs(forms[0])
        for f in forms[1:]:
            g = univariate_gcd(g, _dehomog_coeffs(f))
        if len(g) > 1:
            raise InputError("parametrization forms share a common factor")
        total = Poly2()
        for exps, coeff in self.target.terms:
            part = Poly2.constant(coeff)
            for f, e in zip(forms, exps):
                if e:
                    part = part * f**e
            total = total + part
        if not total.is_zero:
            raise InputError("parametrization does not satisfy the target equation")

    @property
    def degree(self) -> int:
        return self.p0.total_degree()

    def evaluate(self, s: int, t: int) -> tuple[int, int, int]:
        vals = (self.p0.evaluate(s, t), self.p1.evaluate(s, t), self.p2.evaluate(s, t))
        return tuple(int(v) for v in vals)


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


def sample_param_points(pc: ParamCurve, bound: int) -> SampleResult:
    """Evaluate the parametrization at all primitive parameter pairs with
    entries bounded by ``bound``, one representative per projective pair.

    Images are normalized and deduplicated; all-zero images are dropped.
    """
    if bound < 1:
        raise BadRangeError(f"bound must be >= 1, got {bound}")
    pairs = [(1, 0)]
    for q in range(1, bound + 1):
        for p in range(-bound, bound + 1):
            if math.gcd(abs(p), q) == 1:
                pairs.append((p, q))
    pairs.sort()
    points: list[ProjPoint] = []
    params: list[tuple[int, int]] = []
    origin_params: list[tuple[int, int]] = []
    seen: set[tuple[int, ...]] = set()
    for p, q in pairs:
        vals = pc.evaluate(p, q)
        if all(v == 0 for v in vals):
            continue
        pt = normalize_point(vals)
        if pt.coords == ORIGIN_COORDS:
            origin_params.append((p, q))
            continue
        if pt.coords in seen:
            continue
        seen.add(pt.coords)
        points.append(pt)
        params.append((p, q))
    return SampleResult(points=tuple(points), params=tuple(params), origin_params=tuple(origin_params))


@dataclass(frozen=True)
class ExperimentRecord:
    """One sampled point with its heights against the distinguished point;
    ``m`` is the target's multiplicity there, the one the residual uses."""

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
    max_abs_residual: float
    max_abs_residual_high: float
    slope_fit: float

    def to_json(self) -> dict:
        return asdict(self)


def _origin_subscheme() -> Subscheme:
    return Subscheme.of_coordinates(3, (0, 1))


def _origin_multiplicity(target: HomogPoly) -> int:
    """Multiplicity m of the target curve at the distinguished point (0:0:1)."""
    return multiplicity_at(dehomogenize_at_origin_chart(target), (0, 0))


def mdlaw_records(target: HomogPoly, points: Sequence[ProjPoint]) -> list[ExperimentRecord]:
    """Per-point height data against the distinguished point (0:0:1).

    The multiplicity m of the target at that point and its degree d fix the
    expected slope m/d; residuals come from the exact rational route in the
    module docstring.
    """
    d = target.degree
    if d < 1:
        raise InputError("target curve must have positive degree")
    m = _origin_multiplicity(target)
    z_origin = _origin_subscheme()
    records = []
    for pt in points:
        if pt.coords == ORIGIN_COORDS:
            raise PointIsOError("sample contains the distinguished point (0:0:1)")
        g = counting_gcd(z_origin, pt)
        ratio = weil_arch_ratio(z_origin, pt)
        big = max(abs(c) for c in pt.coords)
        n_val = math.log(g)
        prox = -log_fraction(ratio) + 0.0
        # Q = (g / ratio)^d / big^m in lowest terms, as the Fraction would
        # hold it, so that the two logs see the same integers.
        num = (g * ratio.denominator) ** d
        den = ratio.numerator**d * big**m
        k = math.gcd(num, den)
        residual = (math.log(num // k) - math.log(den // k)) / d
        records.append(
            ExperimentRecord(
                point=pt,
                h=math.log(big),
                hO=n_val + prox,
                N_O=n_val,
                residual=residual,
                m=m,
            )
        )
    return records


def mdlaw_report(
    target: HomogPoly, records: Sequence[ExperimentRecord], h_min: float = 0.0
) -> SlopeReport:
    """Aggregate the residuals of ``mdlaw_records(target, ...)`` and a
    diagnostic least-squares slope of hO on h; m is read off the records."""
    if not records:
        raise InputError("cannot build a report from an empty sample")
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

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_json(self) -> dict:
        return {**asdict(self), "violations": [list(v) for v in self.violations]}


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

    def to_json(self) -> dict:
        return asdict(self)


def gcd_bounds_check(
    target: HomogPoly,
    points: Sequence[ProjPoint],
    eps: float,
    delta: float,
) -> GcdBoundsReport:
    """Fit the tightest constants sandwiching gcd(x, y) between powers of
    max(|x|, |y|) with exponents m/d -+ eps, over points far enough from the
    distinguished point in the euclidean sense."""
    if not (0 < eps < math.inf and 0 < delta < math.inf):
        raise BadRangeError("eps and delta must be positive and finite")
    d = target.degree
    m = _origin_multiplicity(target)
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
        c_lower = min(c_lower, math.exp(math.log(g) - lo * log_t))
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


def write_mdlaw_csv(
    stream: IO[str],
    params: Iterable[tuple[int, int]],
    records: Iterable[ExperimentRecord],
) -> None:
    """Write one row per record: parameters, exact coordinates, then the
    three heights and the residual at 12 significant digits."""
    writer = csv.writer(stream)
    writer.writerow(MDLAW_CSV_COLUMNS)
    for (p, q), rec in zip(params, records):
        x0, x1, x2 = rec.point.coords
        writer.writerow(
            [
                str(p),
                str(q),
                str(x0),
                str(x1),
                str(x2),
                f"{rec.h:.12g}",
                f"{rec.hO:.12g}",
                f"{rec.N_O:.12g}",
                f"{rec.residual:.12g}",
            ]
        )
