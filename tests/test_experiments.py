import io
import math
from fractions import Fraction

import pytest

from logpairs.errors import (
    BadRangeError,
    EmptyAfterFilterError,
    InputError,
    NotCoprimeError,
    PointIsOError,
)
from logpairs.experiments import (
    MDLAW_CSV_COLUMNS,
    ParamCurve,
    gcd_bounds_check,
    gcd_family_check,
    mdlaw_records,
    mdlaw_report,
    nodal_cubic_param,
    pure_power_param,
    sample_param_points,
    write_mdlaw_csv,
)
from logpairs.heights import HomogPoly, Subscheme, counting_gcd, normalize_point, weil_arch_ratio
from logpairs.places import log_fraction
from logpairs.polynomials import Poly2


class TestParamCurve:
    def test_identity_checked(self):
        with pytest.raises(InputError):
            ParamCurve(
                p0=Poly2.monomial(1, 0),
                p1=Poly2.monomial(0, 1),
                p2=Poly2.monomial(1, 0),
                target=HomogPoly.from_terms(3, [((1, 0, 0), 1)]),
            )

    def test_common_factor_rejected(self):
        nodal = nodal_cubic_param()
        with pytest.raises(InputError):
            ParamCurve(
                p0=nodal.p0 * Poly2.monomial(0, 1),
                p1=nodal.p1 * Poly2.monomial(0, 1),
                p2=nodal.p2 * Poly2.monomial(0, 1),
                target=nodal.target,
            )

    def test_named_families_construct(self):
        assert nodal_cubic_param().degree == 3
        assert pure_power_param(2, 3).degree == 3


class TestSampling:
    def test_known_image(self):
        sample = sample_param_points(nodal_cubic_param(), 2)
        by_param = dict(zip(sample.params, sample.points))
        assert by_param[(2, 1)].coords == (3, 6, 1)

    def test_origin_flagged_separately(self):
        sample = sample_param_points(nodal_cubic_param(), 2)
        assert (1, 1) in sample.origin_params
        assert (-1, 1) in sample.origin_params
        assert all(p.coords != (0, 0, 1) for p in sample.points)

    def test_points_satisfy_equation(self):
        pc = nodal_cubic_param()
        sample = sample_param_points(pc, 8)
        for pt in sample.points:
            assert pc.target.evaluate(pt.coords) == 0

    def test_pure_power_image(self):
        sample = sample_param_points(pure_power_param(2, 3), 5)
        by_param = dict(zip(sample.params, sample.points))
        assert by_param[(5, 1)].coords == (25, 125, 1)

    def test_deduplication_and_order(self):
        sample = sample_param_points(nodal_cubic_param(), 6)
        assert len({p.coords for p in sample.points}) == len(sample.points)
        assert list(sample.params) == sorted(sample.params)

    def test_bad_bound(self):
        with pytest.raises(BadRangeError):
            sample_param_points(nodal_cubic_param(), 0)


class TestMdlaw:
    def test_pure_power_residuals_exactly_zero(self):
        pc = pure_power_param(2, 3)
        points = [normalize_point((a**2, a**3, 1)) for a in range(2, 30)]
        records = mdlaw_records(pc.target, points)
        for record in records:
            assert record.residual == 0.0
        report = mdlaw_report(pc.target, records)
        assert report.max_abs_residual == 0.0
        assert report.m == 2 and report.d == 3

    def test_nodal_cubic_residual_value(self):
        record = mdlaw_records(nodal_cubic_param().target, [normalize_point((3, 6, 1))])[0]
        assert record.residual == pytest.approx(math.log(3) - Fraction(2, 3) * math.log(6), abs=1e-12)
        assert record.h == math.log(6)
        assert record.hO == pytest.approx(math.log(3), abs=0)

    def test_point_is_origin_rejected(self):
        with pytest.raises(PointIsOError):
            mdlaw_records(nodal_cubic_param().target, [normalize_point((0, 0, 1))])

    def test_curve_missing_origin_has_slope_zero(self):
        # x^3 = (y + z)^2 z does not pass through (0:0:1)
        target = HomogPoly.from_terms(
            3, [((3, 0, 0), 1), ((0, 2, 1), -1), ((0, 1, 2), -2), ((0, 0, 3), -1)]
        )
        points = [normalize_point((a**2, a**3 - 1, 1)) for a in range(2, 40)]
        for pt in points:
            assert target.evaluate(pt.coords) == 0
        report = mdlaw_report(target, mdlaw_records(target, points))
        assert report.m == 0
        assert abs(report.slope_fit) < 0.01
        # bounded distance to the missing point: residuals equal hO itself
        assert report.max_abs_residual < math.log(3)

    def test_residual_is_the_log_of_the_rational_quotient(self):
        # the integer quotient must be reduced exactly as the Fraction
        # (G/R)^d / M^m is, or the two logs round differently
        z = Subscheme.of_coordinates(3, (0, 1))
        for pc in (nodal_cubic_param(), pure_power_param(2, 5), pure_power_param(3, 7)):
            sample = sample_param_points(pc, 12)
            for pt, record in zip(sample.points, mdlaw_records(pc.target, sample.points)):
                big = max(abs(c) for c in pt.coords)
                q = (Fraction(counting_gcd(z, pt)) / weil_arch_ratio(z, pt)) ** pc.degree
                q /= Fraction(big) ** record.m
                assert record.residual == log_fraction(q) / pc.degree

    def test_record_invariants(self):
        pc = nodal_cubic_param()
        sample = sample_param_points(pc, 10)
        for record in mdlaw_records(pc.target, sample.points):
            assert record.h >= 0.0
            assert record.hO >= record.N_O >= 0.0
            assert record.residual == pytest.approx(record.hO - 2 / 3 * record.h, abs=1e-9)

    def test_residual_bounded_with_plateaus(self, nodal_cubic_rho):
        # The extreme residuals occur along parameter fractions converging to
        # the real root rho of t^3 = t + 1 (where |x1| and |x2| balance), with
        # supremum (2/3)log(rho) - (1/3)log(rho^2 - 1) = log(rho), never
        # attained.  The sample maximum is flat between consecutive convergent
        # denominators; 53/40 is in by bound 60 and 102/77 only enters at
        # bound 102.
        pc = nodal_cubic_param()
        mid = mdlaw_report(pc.target, mdlaw_records(pc.target, sample_param_points(pc, 60).points))
        large = mdlaw_report(pc.target, mdlaw_records(pc.target, sample_param_points(pc, 90).points))
        assert large.max_abs_residual <= mid.max_abs_residual + 1e-9
        assert large.max_abs_residual < math.log(nodal_cubic_rho)


def shifted_power_param(m: int, d: int) -> ParamCurve:
    """Translation of the pure power curve: (x+1)^d = (y+1)^m, through the
    distinguished point as a smooth point."""
    t_pow = Poly2.monomial(0, d - m)
    p0 = (Poly2.monomial(m, 0) - Poly2.monomial(0, m)) * t_pow
    p1 = Poly2.monomial(d, 0) - Poly2.monomial(0, d)
    p2 = Poly2.monomial(0, d)
    terms = []
    for k in range(d + 1):
        terms.append(((k, 0, d - k), math.comb(d, k)))
    for k in range(m + 1):
        terms.append(((0, k, d - k), -math.comb(m, k)))
    return ParamCurve(p0=p0, p1=p1, p2=p2, target=HomogPoly.from_terms(3, terms))


class TestShiftedFamily:
    def test_construction_and_multiplicity(self):
        pc = shifted_power_param(2, 3)
        points = [normalize_point((a**2 - 1, a**3 - 1, 1)) for a in range(2, 30)]
        report = mdlaw_report(pc.target, mdlaw_records(pc.target, points))
        assert report.m == 1 and report.d == 3

    def test_smooth_point_law(self):
        # gcd(a^m - 1, a^d - 1) = |a - 1| makes hO = log|a-1| here, so the
        # residual log(|a-1| / |a^d-1|^(1/d)) shrinks toward zero
        pc = shifted_power_param(2, 3)
        points = [normalize_point((a**2 - 1, a**3 - 1, 1)) for a in range(2, 60)]
        records = mdlaw_records(pc.target, points)
        assert all(abs(r.residual) <= math.log(2) for r in records)
        assert abs(records[-1].residual) < 0.02
        report = mdlaw_report(pc.target, records)
        assert abs(report.slope_fit - 1 / 3) < 0.05

    def test_sampled_points_satisfy_equation(self):
        pc = shifted_power_param(2, 3)
        sample = sample_param_points(pc, 6)
        for pt in sample.points:
            assert pc.target.evaluate(pt.coords) == 0


class TestPurePowerThroughSampler:
    def test_residuals_exactly_zero_at_every_parameter(self):
        # both coordinate regimes (|p| >= q and |p| < q) cancel exactly
        for m, d in [(1, 2), (2, 3), (3, 5), (4, 7)]:
            pc = pure_power_param(m, d)
            sample = sample_param_points(pc, 12)
            for record in mdlaw_records(pc.target, sample.points):
                assert record.residual == 0.0


class TestGcdFamilies:
    def test_reported_identities(self):
        assert math.gcd(5**2, 5**3) == 25
        assert math.gcd(4**2 - 1, 4**3 - 1) == 3
        assert math.gcd(4**2, 4**3 - 1) == 1

    def test_all_families_clean(self):
        for kind in ("pure", "shifted", "mixed"):
            report = gcd_family_check(kind, 3, 2, (-20, 20))
            assert report.ok
            assert report.checked > 0

    def test_shifted_skips_small_bases(self):
        report = gcd_family_check("shifted", 3, 2, (-1, 1))
        assert report.checked == 0

    def test_exponent_validation(self):
        with pytest.raises(NotCoprimeError):
            gcd_family_check("pure", 4, 2, (1, 5))
        with pytest.raises(NotCoprimeError):
            gcd_family_check("pure", 2, 3, (1, 5))
        with pytest.raises(BadRangeError):
            gcd_family_check("pure", 3, 2, (5, 1))


class TestGcdBounds:
    def test_pure_family_is_the_identity_case(self):
        pc = pure_power_param(2, 3)
        points = [normalize_point((a**2, a**3, 1)) for a in range(2, 30)]
        report = gcd_bounds_check(pc.target, points, eps=1e-9, delta=1.0)
        assert report.samples == len(points)
        assert report.c_lower == pytest.approx(1.0, rel=1e-6)
        assert report.c_upper == pytest.approx(1.0, rel=1e-6)

    def test_nodal_cubic_fits_finite_constants(self):
        pc = nodal_cubic_param()
        sample = sample_param_points(pc, 25)
        report = gcd_bounds_check(pc.target, sample.points, eps=0.05, delta=1.0)
        assert 0 < report.c_lower <= report.c_upper
        assert report.exponent_low == pytest.approx(2 / 3 - 0.05)
        assert report.exponent_high == pytest.approx(2 / 3 + 0.05)

    def test_delta_filter_is_exact(self):
        # big >= delta * |z| compared in integers, including the boundary
        # big == delta * |z| and a float delta that is not a short decimal
        pc = nodal_cubic_param()
        points = sample_param_points(pc, 15).points
        for delta in (0.1, 0.5, 1.0, 1.5, 2, 3.25, 7.0):
            kept = [
                (x, y, z)
                for x, y, z in (p.coords for p in points)
                if max(abs(x), abs(y)) >= Fraction(delta) * abs(z)
            ]
            report = gcd_bounds_check(pc.target, points, eps=0.05, delta=delta)
            assert report.samples == len(kept)

    def test_empty_after_filter(self):
        pc = nodal_cubic_param()
        points = [normalize_point((3, 6, 1))]
        with pytest.raises(EmptyAfterFilterError):
            gcd_bounds_check(pc.target, points, eps=0.05, delta=1e9)

    @pytest.mark.parametrize(
        "eps, delta",
        [(math.nan, 1.0), (math.inf, 1.0), (0.05, math.nan), (0.05, math.inf), (0.0, 1.0), (0.05, -1.0)],
    )
    def test_non_finite_or_non_positive_constants_rejected(self, eps, delta):
        pc = nodal_cubic_param()
        points = [normalize_point((3, 6, 1))]
        with pytest.raises(BadRangeError):
            gcd_bounds_check(pc.target, points, eps=eps, delta=delta)


class TestCsv:
    def test_columns_and_formats(self):
        pc = nodal_cubic_param()
        sample = sample_param_points(pc, 3)
        records = mdlaw_records(pc.target, sample.points)
        buf = io.StringIO()
        write_mdlaw_csv(buf, sample.params, records)
        lines = buf.getvalue().strip().splitlines()
        assert lines[0].split(",") == list(MDLAW_CSV_COLUMNS)
        assert len(lines) == len(records) + 1
        first = lines[1].split(",")
        assert first[0] == str(sample.params[0][0])
        int(first[2]), int(first[3]), int(first[4])
        float(first[5]), float(first[8])
