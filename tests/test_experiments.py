import contextlib
import io
import json
import math
import random
import time
from fractions import Fraction
from functools import partial

import pytest
from hypothesis import assume, example, given, settings
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

from oracles import substitute


def _dense_form(coeffs) -> Poly2:
    """The binary form sum of c * s^(e - j) * t^j over coeffs = (c_0, ..., c_e)."""
    e = len(coeffs) - 1
    return Poly2({(e - j, j): c for j, c in enumerate(coeffs)})


def _expands_to_zero(forms, target) -> bool:
    """The reference for ParamCurve's identity: T(p0, p1, p2) expanded term
    by term in Poly2 arithmetic."""
    total = Poly2()
    for exps, c in target.terms:
        part = Poly2.constant(c)
        for f, e in zip(forms, exps):
            part = part * f**e
        total = total + part
    return total.is_zero


def _conic_param() -> ParamCurve:
    """(s^2 : st : t^2) on x0*x2 = x1^2."""
    target = HomogPoly.from_terms(3, [((1, 0, 1), 1), ((0, 2, 0), -1)])
    return ParamCurve(Poly2.monomial(2, 0), Poly2.monomial(1, 1), Poly2.monomial(0, 2), target)


# Makers of parametrizations whose identity holds, called inside the tests so
# that a constructor that raises fails them rather than their collection.
HOLDING = [
    nodal_cubic_param,
    _conic_param,
    *(partial(pure_power_param, m, d) for d in range(2, 8) for m in range(1, d) if math.gcd(m, d) == 1),
]


def _dense16():
    """A dense degree-16 target with coefficients 1-9 over three dense
    degree-16 forms with coefficients 1-9, about 3 KB as JSON."""
    rng = random.Random(7)
    forms = [Poly2({(16 - j, j): rng.randint(1, 9) for j in range(17)}) for _ in range(3)]
    terms = [((a, b, 16 - a - b), rng.randint(1, 9)) for a in range(17) for b in range(17 - a)]
    return forms, HomogPoly.from_terms(3, terms)


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

    @pytest.mark.parametrize(
        "forms, words",
        [
            # s^3 + t^2, s(s^2 - t^2), t^3: one form is not homogeneous
            (({(3, 0): 1, (0, 2): 1}, {(3, 0): 1, (1, 2): -1}, {(0, 3): 1}), "homogeneous"),
            # the nodal cubic's forms with p0 halved
            (({(2, 1): "1/2", (0, 3): "-1/2"}, {(3, 0): 1, (1, 2): -1}, {(0, 3): 1}), "integer coefficients"),
            # s^2, s^3, t^3: homogeneous forms of two degrees
            (({(2, 0): 1}, {(3, 0): 1}, {(0, 3): 1}), "one degree"),
            # constant forms satisfy x0 - x1 = 0 but have degree 0
            (({(0, 0): 1}, {(0, 0): 1}, {(0, 0): 1}), "one degree"),
            # the nodal cubic's forms times s: no form has a t^4 term
            (({(3, 1): 1, (1, 3): -1}, {(4, 0): 1, (2, 2): -1}, {(1, 3): 1}), "share"),
        ],
        ids=["not-homogeneous", "not-integral", "two-degrees", "degree-0", "shared-s"],
    )
    def test_refusals_name_their_rule(self, forms, words):
        # The target is satisfied wherever it matters: the nodal cubic for the
        # nodal forms, x0 - x1 for the constants; each rule refuses first.
        if forms[0] == {(0, 0): 1}:
            target = HomogPoly.from_terms(3, [((1, 0, 0), 1), ((0, 1, 0), -1)])
        else:
            target = nodal_cubic_param().target
        with pytest.raises(InputError, match=words):
            ParamCurve(*map(Poly2, forms), target)

    @settings(max_examples=120, deadline=None)
    @given(
        st.sampled_from(range(len(HOLDING))),
        st.lists(st.integers(-3, 3), max_size=4),
        st.booleans(),
        st.integers(-2, 2),
        st.lists(st.tuples(st.integers(0, 7), st.integers(0, 7), st.integers(-3, 3)), max_size=3),
    )
    @example(0, [], False, 1, [(0, 0, 1)])  # the nodal cubic and x2^3 on top of its target
    def test_evaluation_agrees_with_the_expansion(self, index, shears, swap, k, extra):
        # A holding identity under a unimodular change of (s, t), which keeps
        # it and the forms' coprimality, with target k*T + P for a drawn form P
        # of T's degree: k = 1 and P = 0 hold, anything else mostly fails.
        # ParamCurve accepts exactly when the symbolic expansion vanishes.
        pc = HOLDING[index]()
        u, v = Poly2.x(), Poly2.y()
        if swap:
            u, v = v, u
        for n, a in enumerate(shears):
            if n % 2:
                v = v + Poly2.constant(a) * u
            else:
                u = u + Poly2.constant(a) * v
        forms = [substitute(f, u, v) for f in (pc.p0, pc.p1, pc.p2)]
        D = pc.target.degree
        terms = [(e, k * c) for e, c in pc.target.terms]
        terms += [((a, b, D - a - b), c) for a, b, c in extra if a + b <= D]
        try:
            target = HomogPoly.from_terms(3, terms)
        except InputError:  # every term cancelled
            assume(False)
        holds = _expands_to_zero(forms, target)
        if k == 1 and len(terms) == len(pc.target.terms):
            assert holds
        try:
            ParamCurve(*forms, target)
        except InputError as exc:
            assert "target equation" in str(exc)
            assert not holds
            return
        assert holds

    @pytest.mark.parametrize(
        "forms, terms, root",
        [
            # F(1, t) = t^2 - 9: C = 1 + 9 = 10, and t = 3 is C + 1 without p2's norm
            (({(1, 0): 1}, {(0, 1): 1}, {(1, 0): 9}), [((0, 2, 0), 1), ((1, 0, 1), -1)], 3),
            # F(1, t) = 9 - t^2: C = 9 + 1 = 10, and t = 3 is C + 1 without |c|
            (({(1, 0): 1}, {(0, 1): 1}, {(1, 0): 1}), [((1, 0, 1), 9), ((0, 2, 0), -1)], 3),
        ],
        ids=["norm-of-p2", "coefficient"],
    )
    def test_near_miss_is_refused(self, forms, terms, root):
        # F(1, t) has an integer root just below C + 1, where a bound with a
        # factor left out would evaluate it and accept.
        forms = [Poly2(f) for f in forms]
        target = HomogPoly.from_terms(3, terms)
        assert target.evaluate([f.evaluate(1, root) for f in forms]) == 0
        assert not _expands_to_zero(forms, target)
        with pytest.raises(InputError, match="does not satisfy the target equation"):
            ParamCurve(*forms, target)

    def test_dense_degree_16_input_is_refused_at_once(self):
        # The symbolic expansion took about 30 s on an input of this shape.
        forms, target = _dense16()
        start = time.perf_counter()
        with pytest.raises(InputError, match="does not satisfy the target equation"):
            ParamCurve(*forms, target)
        assert time.perf_counter() - start < 1.0

    def test_identity_evaluates_no_sample(self, monkeypatch):
        # Construction reads the forms through Poly2.evaluate: ParamCurve.evaluate
        # is the sampling step, and each of its calls is a sampled pair.
        def refuse(*args):
            raise AssertionError("ParamCurve.evaluate called while constructing")

        monkeypatch.setattr(ParamCurve, "evaluate", refuse)
        for make in HOLDING:
            pc = make()
            assert ParamCurve(pc.p0, pc.p1, pc.p2, pc.target) == pc

    @settings(max_examples=150, deadline=None)
    @given(
        st.sampled_from(["line", "conic"]),
        st.sampled_from([(1,), (1, 0), (0, 1), (1, -2), (1, 0, 1)]),
        st.lists(st.integers(-4, 4), min_size=1, max_size=7),
        st.lists(st.integers(-4, 4), min_size=1, max_size=7),
        st.integers(-2, 2),
        st.integers(-2, 2),
    )
    @example("line", (1, 0), [1, 1], [1, -1], 1, 1)  # the planted s: no form has a t^d term
    @example("conic", (0, 1), [1, 1], [1, -1], 1, 1)
    def test_refuses_exactly_the_forms_sympy_finds_a_common_factor_of(self, family, planted, c0, c1, a, b):
        # Forms of degree 1-6 on the line x2 = a*x0 + b*x1 or the conic
        # x0*x2 = x1^2, built from two drawn forms times a planted factor:
        # 1, s, t, s - 2t or s^2 + t^2 (dense coefficients, highest power of
        # s first).  ParamCurve refuses exactly when sympy's gcd of the three
        # forms is not constant, and an accepted curve has no all-zero image
        # at a primitive pair.
        import sympy

        k = len(planted) - 1
        e = min(len(c0), len(c1), (7 if family == "line" else 4) - k)
        assume(e - 1 + k >= 1)
        u, v = (_dense_form(c[:e]) * _dense_form(planted) for c in (c0, c1))
        if family == "line":
            forms = (u, v, Poly2.constant(a) * u + Poly2.constant(b) * v)
            target = HomogPoly.from_terms(3, [((1, 0, 0), a), ((0, 1, 0), b), ((0, 0, 1), -1)])
        else:
            forms = (u * u, u * v, v * v)
            target = HomogPoly.from_terms(3, [((1, 0, 1), 1), ((0, 2, 0), -1)])
        assume(all(forms))
        s, t = sympy.symbols("s t")
        as_sympy = [sum(int(c) * s**i * t**j for (i, j), c in f.terms.items()) for f in forms]
        common = sympy.Poly(sympy.gcd(sympy.gcd(as_sympy[0], as_sympy[1]), as_sympy[2]), s, t)
        try:
            pc = ParamCurve(*forms, target)
        except InputError as exc:
            assert common.total_degree() > 0, exc
            assert "share" in str(exc)
            return
        assert common.total_degree() == 0
        for p in range(-6, 7):
            for q in range(0, 7):
                if math.gcd(p, q) == 1:
                    assert any(pc.evaluate(p, q)), (p, q)

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

    def test_pairs_with_one_image_keep_the_first(self):
        # (s^4 : s^2 t^2 : t^4) on x0*x2 = x1^2 sends (p, q) and (-p, q) to one
        # point, so each image keeps its pair with p < 0; (0, 1) hits (0:0:1)
        target = HomogPoly.from_terms(3, [((1, 0, 1), 1), ((0, 2, 0), -1)])
        pc = ParamCurve(Poly2.monomial(4, 0), Poly2.monomial(2, 2), Poly2.monomial(0, 4), target)
        sample = sample_param_points(pc, 3)
        assert sample.params == ((-3, 1), (-3, 2), (-2, 1), (-2, 3), (-1, 1), (-1, 2), (-1, 3), (1, 0))
        assert len({p.coords for p in sample.points}) == len(sample.points) == 8
        assert sample.origin_params == ((0, 1),)

    @pytest.mark.parametrize("make", [nodal_cubic_param, partial(pure_power_param, 3, 7)], ids=["nodal", "pure37"])
    def test_builds_no_fraction(self, monkeypatch, make):
        # every sampled pair is evaluated and normalized in ints
        pc = make()
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

    @pytest.mark.parametrize("make", [nodal_cubic_param, partial(pure_power_param, 2, 3)], ids=["nodal", "pure23"])
    def test_pairs_match_the_sorted_enumeration(self, make):
        # reference: (1, 0) and every coprime (p, q) with 1 <= q <= b and
        # |p| <= b, sorted, then the same zero, origin and image filters
        pc = make()
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


# The nodal cubic and the pure powers with d <= 7, the curves of the mdlaw
# workload; the memo tests draw bounds 1-40 for them.
MEMO_CURVES = [make for make in HOLDING if make is not _conic_param]
MEMO_BOUNDS = st.integers(1, 40)


def _as_json(pc: ParamCurve) -> dict:
    """The document of ``ParamCurve.from_json`` for pc, every list of terms
    reversed, so that reading it rebuilds the curve rather than copying it."""
    rows = lambda f: [[list(k), str(c)] for k, c in reversed(f.terms.items())]
    terms = [[list(e), str(c)] for e, c in reversed(pc.target.terms)]
    return {"p0": rows(pc.p0), "p1": rows(pc.p1), "p2": rows(pc.p2), "target": {"n": 2, "terms": terms}}


def _fresh_sample(pc: ParamCurve, bound: int):
    sample_param_points.cache_clear()
    return sample_param_points(pc, bound)


class TestSampleMemo:
    """``sample_param_points`` keeps the sample of the last (curve, bound):
    an equal curve at that bound gets it back, and every other call reads as
    a sample taken with the memo cleared."""

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from(MEMO_CURVES), MEMO_BOUNDS)
    def test_an_equal_curve_read_from_json_gets_the_stored_sample(self, make, bound):
        pc = make()
        first = sample_param_points(pc, bound)
        again = ParamCurve.from_json(json.loads(json.dumps(_as_json(pc))))
        assert again == pc and again is not pc
        assert sample_param_points(again, bound) is first
        assert _fresh_sample(again, bound) == first

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(MEMO_CURVES), MEMO_BOUNDS, st.sampled_from(MEMO_CURVES), MEMO_BOUNDS)
    # one curve at two bounds, and two curves at one bound
    @example(nodal_cubic_param, 12, nodal_cubic_param, 13)
    @example(partial(pure_power_param, 2, 5), 30, partial(pure_power_param, 3, 5), 30)
    def test_another_bound_or_curve_reads_as_a_fresh_sample(self, make_first, first_bound, make, bound):
        sample_param_points(make_first(), first_bound)
        pc = make()
        got = sample_param_points(pc, bound)
        assert got == _fresh_sample(pc, bound)

    @settings(max_examples=30, deadline=None)
    @given(st.sampled_from(MEMO_CURVES), MEMO_BOUNDS)
    def test_a_bad_bound_raises_right_after_a_good_call(self, make, bound):
        pc = make()
        first = sample_param_points(pc, bound)
        for bad in (0, experiments.MAX_SAMPLE_BOUND + 1):
            with pytest.raises(BadRangeError, match=f"got {bad}$"):
                sample_param_points(pc, bad)
        # the errors were not kept, and did not displace the stored sample
        assert sample_param_points(pc, bound) is first

    @pytest.mark.parametrize("make", [nodal_cubic_param, partial(pure_power_param, 3, 7)], ids=["nodal", "pure37"])
    def test_a_float_bound_behaves_as_without_the_memo(self, make):
        # The bound is read by exact_int, inside the memo: 35.0 samples as 35,
        # and 35.5 and True raise BadRangeError, memoized or not.
        pc = make()
        unmemoized = sample_param_points.__wrapped__
        expected = unmemoized(pc, 35)
        assert unmemoized(pc, 35.0) == expected
        with pytest.raises(BadRangeError, match="not an integer") as refused:
            unmemoized(pc, 35.5)
        with pytest.raises(BadRangeError, match="True is not a rational number"):
            unmemoized(pc, True)
        for before in ((), (35,), (35.0,), (35.5,), (1,)):
            if before:
                with contextlib.suppress(BadRangeError):
                    sample_param_points(pc, *before)
            assert sample_param_points(pc, 35.0) == expected
            with pytest.raises(BadRangeError) as memoized:
                sample_param_points(pc, 35.5)
            assert str(memoized.value) == str(refused.value)
        # True equals 1 and hashes as 1, but the stored bound-1 sample is no answer for it.
        assert sample_param_points(pc, 1) == unmemoized(pc, 1)
        with pytest.raises(BadRangeError, match="True is not a rational number"):
            sample_param_points(pc, True)


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

    def test_target_outside_the_plane_rejected(self):
        # x0*x3 - x1^2 in P^3 has no chart (x0, x1) at (0:0:1)
        target = HomogPoly.from_terms(4, [((1, 0, 0, 1), 1), ((0, 2, 0, 0), -1)])
        with pytest.raises(InputError, match="projective plane"):
            mdlaw_records(target, [normalize_point((3, 6, 1))])

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

    def test_unknown_kind_rejected(self):
        with pytest.raises(InputError, match="unknown family kind 'cubic'"):
            gcd_family_check("cubic", 3, 2, (1, 5))


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

    @pytest.mark.parametrize("delta", [1e-9, 1.0, 1e9])
    def test_an_empty_sample_is_not_blamed_on_delta(self, delta):
        # st(s^2 - t^2), 2st(s^2 - t^2), s^4 + t^4 on x1 = 2*x0: every image at
        # bound 1 is (0:0:1), so the sample is empty before any filter
        f = Poly2({(3, 1): 1, (1, 3): -1})
        target = HomogPoly.from_terms(3, [((0, 1, 0), 1), ((1, 0, 0), -2)])
        pc = ParamCurve(f, Poly2.constant(2) * f, Poly2({(4, 0): 1, (0, 4): 1}), target)
        sample = sample_param_points(pc, 1)
        assert sample.points == () and len(sample.origin_params) == 4
        with pytest.raises(InputError, match="cannot build a report from an empty sample") as raised:
            gcd_bounds_check(pc.target, sample.points, eps=0.05, delta=delta)
        assert type(raised.value) is InputError

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


# (target, m, d): the nodal cubic x1^2 x2 = x0^3 + x0^2 x2 and every pure
# power x0^d = x1^m x2^(d-m) with coprime m < d <= 7, written out here so
# that collecting this module builds no ParamCurve.
LAW_TARGETS = [(HomogPoly.from_terms(3, [((0, 2, 1), 1), ((3, 0, 0), -1), ((2, 0, 1), -1)]), 2, 3)] + [
    (HomogPoly.from_terms(3, [((d, 0, 0), 1), ((0, m, d - m), -1)]), m, d)
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

    def test_identity_bits(self, monkeypatch):
        # The dense (s+t)^60 over s^60 and t^60 on x0^60 = x1^60: F(1, C + 1)
        # has about 13 million bits, and is refused before any evaluation.
        forms = [_dense_form([math.comb(60, j) for j in range(61)]), Poly2.monomial(60, 0), Poly2.monomial(0, 60)]
        target = HomogPoly.from_terms(3, [((60, 0, 0), 1), ((0, 60, 0), -1)])
        start = time.perf_counter()
        with pytest.raises(BadRangeError, match="estimated above 1000000 bits"):
            ParamCurve(*forms, target)
        assert time.perf_counter() - start < 0.1
        # A pure power (s^m t^(d-m) : s^d : t^d) takes 2*d^2 bits by the
        # estimate, so d = 707 is just below the limit and d = 708 above it.
        assert pure_power_param(1, 707).degree == 707
        with pytest.raises(BadRangeError):
            pure_power_param(1, 708)
        # (s t^63 : s^64 : t^64) takes 64 * 64 * log2(2 * 2) = 8,192 bits.
        target = HomogPoly.from_terms(3, [((64, 0, 0), 1), ((0, 1, 63), -1)])
        forms = (Poly2.monomial(1, 63), Poly2.monomial(64, 0), Poly2.monomial(0, 64))
        monkeypatch.setattr(experiments, "MAX_IDENTITY_BITS", 8192)
        assert ParamCurve(*forms, target).degree == 64
        monkeypatch.setattr(experiments, "MAX_IDENTITY_BITS", 8191)
        with pytest.raises(BadRangeError):
            ParamCurve(*forms, target)

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
