import io
import json
import math
import time
from fractions import Fraction

import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from logpairs import cli, experiments
from logpairs.errors import (
    BadRangeError,
    EmptyAfterFilterError,
    InputError,
    NotCoprimeError,
    PointIsOError,
)
from logpairs.experiments import (
    MDLAW_CSV_COLUMNS,
    ExperimentRecord,
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

    def test_target_outside_the_plane_rejected(self):
        # x3 * (x1^2 x2 - x0^3 - x0^2 x2) in P^3: zipping its exponent vectors
        # with the three forms would drop x3 and leave the nodal cubic
        nodal = nodal_cubic_param()
        terms = [[[0, 2, 1, 1], "1"], [[3, 0, 0, 1], "-1"], [[2, 0, 1, 1], "-1"]]
        target = HomogPoly.from_json({"n": 3, "terms": terms})
        with pytest.raises(InputError, match="projective plane"):
            ParamCurve(nodal.p0, nodal.p1, nodal.p2, target)
        # refused before the forms are looked at
        with pytest.raises(InputError, match="projective plane"):
            ParamCurve(Poly2(), Poly2(), Poly2(), target)
        rows = lambda f: [[list(k), str(c)] for k, c in f.terms.items()]
        doc = {name: rows(getattr(nodal, name)) for name in ("p0", "p1", "p2")}
        doc["target"] = {"n": 3, "terms": terms}
        with pytest.raises(InputError, match="projective plane"):
            ParamCurve.from_json(doc)
        doc["target"] = {"n": 1, "terms": [[[3, 0], "1"], [[1, 2], "-1"]]}
        with pytest.raises(InputError, match="projective plane"):
            ParamCurve.from_json(doc)

    @given(
        st.integers(1, 7).flatmap(
            lambda d: st.tuples(
                st.lists(st.integers(-(10**6), 10**6), min_size=d + 1, max_size=d + 1),
                st.lists(st.integers(-(10**6), 10**6), min_size=d + 1, max_size=d + 1),
            )
        ),
        st.integers(-3, 3),
        st.integers(-3, 3),
        st.integers(-(10**6), 10**6),
        st.integers(-(10**6), 10**6),
    )
    def test_evaluate_is_the_exact_integer_sum(self, coeffs, a, b, s, t):
        # p0, p1 drawn forms of degree d, p2 = a*p0 + b*p1 on the line
        # x2 = a*x0 + b*x1; the values are checked against the sums of
        # c * s^i * t^(d-i) over the drawn coefficients, in Fractions
        d = len(coeffs[0]) - 1
        f0, f1 = (Poly2({(i, d - i): c for i, c in enumerate(cs)}) for cs in coeffs)
        f2 = Poly2.constant(a) * f0 + Poly2.constant(b) * f1
        target = HomogPoly.from_terms(3, [((1, 0, 0), a), ((0, 1, 0), b), ((0, 0, 1), -1)])
        try:
            pc = ParamCurve(f0, f1, f2, target)
        except InputError:
            assume(False)
        e0, e1 = (
            sum(Fraction(c) * Fraction(s) ** i * Fraction(t) ** (d - i) for i, c in enumerate(cs))
            for cs in coeffs
        )
        values = pc.evaluate(s, t)
        assert type(values) is tuple and [type(v) for v in values] == [int, int, int]
        assert values == (e0, e1, a * e0 + b * e1)


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

    @pytest.mark.parametrize("pc", [nodal_cubic_param(), pure_power_param(3, 7)], ids=["nodal", "pure37"])
    def test_builds_no_fraction(self, monkeypatch, pc):
        # every sampled pair is evaluated and normalized in ints
        built = []
        new = Fraction.__new__

        def counted(cls, *args, **kwargs):
            built.append(args)
            return new(cls, *args, **kwargs)

        monkeypatch.setattr(Fraction, "__new__", staticmethod(counted))
        sample = sample_param_points(pc, 12)
        monkeypatch.undo()
        assert len(sample.points) > 100
        assert built == []

    @pytest.mark.parametrize("pc", [nodal_cubic_param(), pure_power_param(2, 3)], ids=["nodal", "pure23"])
    def test_pairs_match_the_sorted_enumeration(self, pc):
        # reference: (1, 0) and every coprime (p, q) with 1 <= q <= b and
        # |p| <= b, sorted, then the same zero, origin and image filters
        for bound in range(1, 41):
            pairs = [(1, 0)] + [
                (p, q)
                for q in range(1, bound + 1)
                for p in range(-bound, bound + 1)
                if math.gcd(abs(p), q) == 1
            ]
            params, origin_params, seen = [], [], set()
            for p, q in sorted(pairs):
                vals = pc.evaluate(p, q)
                if vals == (0, 0, 0):
                    continue
                coords = normalize_point(vals).coords
                if coords == (0, 0, 1):
                    origin_params.append((p, q))
                elif coords not in seen:
                    seen.add(coords)
                    params.append((p, q))
            sample = sample_param_points(pc, bound)
            assert sample.params == tuple(params), bound
            assert sample.origin_params == tuple(origin_params), bound


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

    @pytest.mark.parametrize("h_min", [math.nan, math.inf, -math.inf])
    def test_non_finite_h_min_rejected(self, h_min):
        pc = pure_power_param(2, 3)
        records = mdlaw_records(pc.target, [normalize_point((4, 8, 1))])
        with pytest.raises(BadRangeError):
            mdlaw_report(pc.target, records, h_min=h_min)

    def test_samples_high_counts_the_window(self):
        pc = nodal_cubic_param()
        records = mdlaw_records(pc.target, sample_param_points(pc, 10).points)
        # Thresholds at records' own heights put ties at the window's edge.
        for h_min in (-1.0, 0.0, records[0].h, records[len(records) // 2].h, records[-1].h, 1e9):
            report = mdlaw_report(pc.target, records, h_min=h_min)
            high = [r for r in records if r.h >= h_min]
            assert report.samples_high == sum(r.h >= h_min for r in records) == len(high)
            assert report.max_abs_residual_high == max((abs(r.residual) for r in high), default=0.0)
        assert mdlaw_report(pc.target, records, h_min=1e9).samples_high == 0
        assert mdlaw_report(pc.target, records).samples_high == len(records)

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
            assert report.violations == ()
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

    def test_eps_overflowing_the_lower_constant_rejected(self):
        pc = nodal_cubic_param()
        with pytest.raises(BadRangeError):
            gcd_bounds_check(pc.target, [normalize_point((3, 6, 1))], eps=1e9, delta=1.0)

    def test_degree_zero_target_rejected(self):
        # A constant form has no slope m/d: both readers of d refuse it.
        constant = HomogPoly.from_terms(3, [((0, 0, 0), 1)])
        points = [normalize_point((3, 6, 1))]
        with pytest.raises(InputError, match="positive degree"):
            gcd_bounds_check(constant, points, eps=0.05, delta=1.0)
        with pytest.raises(InputError, match="positive degree"):
            mdlaw_records(constant, points)


# (target, m, d): the nodal cubic and every pure power x0^d = x1^m x2^(d-m)
# with coprime m < d <= 7.
LAW_TARGETS = [(nodal_cubic_param().target, 2, 3)] + [
    (pure_power_param(m, d).target, m, d)
    for d in range(2, 8)
    for m in range(1, d)
    if math.gcd(m, d) == 1
]


def _law_target(m: int, d: int):
    return next(t for t in LAW_TARGETS[1:] if t[1:] == (m, d))


def _reference_record(pt, m: int, d: int) -> ExperimentRecord:
    """The height-law record by the plain rational route: Q as a Fraction
    and the proximity as the archimedean Weil value."""
    x0, x1, _ = pt.coords
    big = max(abs(c) for c in pt.coords)
    g = math.gcd(x0, x1)
    ratio = weil_arch_ratio(Subscheme.of_coordinates(3, (0, 1)), pt)
    assert ratio == Fraction(max(abs(x0), abs(x1)), big)
    n_val = math.log(g)
    prox = -log_fraction(ratio) + 0.0
    q = (Fraction(g) / ratio) ** d / Fraction(big) ** m
    return ExperimentRecord(pt, math.log(big), n_val + prox, n_val, log_fraction(q) / d, m)


def _csv_bytes(params, records) -> str:
    buf = io.StringIO(newline="")
    write_mdlaw_csv(buf, params, records)
    return buf.getvalue()


_coord = st.integers(-(10**40), 10**40) | st.integers(-50, 50)


class TestRecordsAgainstReference:
    @given(
        st.sampled_from(LAW_TARGETS),
        st.lists(st.tuples(_coord, _coord, _coord).filter(lambda c: c[0] or c[1]), min_size=1, max_size=8),
    )
    # points where Q must be reduced by its gcd before the logs
    @example(
        _law_target(2, 5),
        [(2148506789085979269353720891708672547352, -4559147250116307739683562321805745637486, 21)],
    )
    @example(_law_target(5, 6), [(20, -20, -2926461418577398090814904621958169551019)])
    @example(LAW_TARGETS[0], [(1, 1, 1), (0, -3, 3), (4804099866991909415841188039941910151820, 37, 5)])
    def test_every_field_and_the_csv(self, law, raws):
        target, m, d = law
        points = [normalize_point(raw) for raw in raws]
        records = mdlaw_records(target, points)
        expected = [_reference_record(pt, m, d) for pt in points]
        for got, want in zip(records, expected, strict=True):
            assert got.point == want.point and got.m == want.m
            # float.hex also tells -0.0 from 0.0, which == does not
            for name in ("h", "hO", "N_O", "residual"):
                assert getattr(got, name).hex() == getattr(want, name).hex(), name
        params = [(k, k + 1) for k in range(len(points))]
        assert _csv_bytes(params, records) == _csv_bytes(params, expected)


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

    def test_golden_bytes(self):
        pc = nodal_cubic_param()
        sample = sample_param_points(pc, 6)
        records = mdlaw_records(pc.target, sample.points)
        rows = [",".join(MDLAW_CSV_COLUMNS)]
        for (p, q), r in zip(sample.params, records):
            ints = [str(v) for v in (p, q, *r.point.coords)]
            floats = [f"{v:.12g}" for v in (r.h, r.hO, r.N_O, r.residual)]
            rows.append(",".join(ints + floats))
        buf = io.StringIO(newline="")
        write_mdlaw_csv(buf, sample.params, records)
        assert buf.getvalue() == "".join(row + "\r\n" for row in rows)
        assert len(rows) > 30


class TestWorkLimits:
    """Each work limit is checked before any work starts.  The limits are
    also checked at lowered values, so that accepting a value at the limit
    costs nothing."""

    def test_sample_bound(self, monkeypatch):
        pc = nodal_cubic_param()
        with pytest.raises(BadRangeError):
            sample_param_points(pc, experiments.MAX_SAMPLE_BOUND + 1)
        monkeypatch.setattr(experiments, "MAX_SAMPLE_BOUND", 5)
        assert sample_param_points(pc, 5).points
        with pytest.raises(BadRangeError):
            sample_param_points(pc, 6)

    def test_gcd_family_range(self, monkeypatch):
        for a_range in ((1, experiments.MAX_GCD_FAMILY_RANGE + 1), (1, 10**8)):
            with pytest.raises(BadRangeError):
                gcd_family_check("pure", 3, 2, a_range)
        monkeypatch.setattr(experiments, "MAX_GCD_FAMILY_RANGE", 10)
        assert gcd_family_check("pure", 3, 2, (-4, 5)).checked == 10
        with pytest.raises(BadRangeError):
            gcd_family_check("pure", 3, 2, (-5, 5))

    def test_gcd_family_base_size(self):
        # |a_min| and |a_max| are bounded, so a short range of huge bases is
        # refused before any power is taken.
        top = experiments.MAX_GCD_FAMILY_BASE
        assert gcd_family_check("pure", 64, 1, (top - 2, top)).checked == 3
        assert gcd_family_check("shifted", 64, 1, (-top, -top + 2)).violations == ()
        for a_range in ((top, top + 1), (-top - 1, -top), (-(10**4000), -(10**4000) + 5), (10**4000, 10**4000)):
            start = time.perf_counter()
            with pytest.raises(BadRangeError):
                gcd_family_check("pure", 64, 1, a_range)
            assert time.perf_counter() - start < 0.1

    def test_gcd_family_degree(self):
        d = experiments.MAX_GCD_FAMILY_D
        assert gcd_family_check("mixed", d, 1, (1, 5)).violations == ()
        with pytest.raises(BadRangeError):
            gcd_family_check("mixed", d + 1, 1, (1, 5))

    def test_over_limit_runs_exit_3(self, capsys):
        param = json.dumps(
            {
                "p0": [[[2, 1], "1"], [[0, 3], "-1"]],
                "p1": [[[3, 0], "1"], [[1, 2], "-1"]],
                "p2": [[[0, 3], "1"]],
                "target": {"n": 2, "terms": [[[0, 2, 1], "1"], [[3, 0, 0], "-1"], [[2, 0, 1], "-1"]]},
            }
        )
        for argv in (
            ["gcd-family", "pure", "3", "2", "1", "100000000"],
            ["gcd-family", "shifted", "65", "2", "1", "5"],
            ["gcd-family", "pure", "64", "1", "1000001", "1000001"],
            ["mdlaw", param, "--bound", "1000000"],
            ["gcd-bounds", param, "--bound", "1001"],
        ):
            assert cli.main(argv) == cli.EXIT_INPUT, argv
        assert capsys.readouterr().err.count("error:") == 5
