"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Every tolerance is pinned here; identities marked exact are asserted
with no tolerance at all.
"""

import itertools
import math
import random
import time
from contextlib import contextmanager
from fractions import Fraction

from logpairs.curves import (
    AffineCurve,
    IdealKind,
    blow_up_point,
    ideal_threshold,
    lct,
    pair_discrepancies,
    resolve,
    tree_ideal_member,
    tree_lct,
    valuation_data,
)
from logpairs.experiments import (
    gcd_family_check,
    mdlaw_records,
    mdlaw_report,
    nodal_cubic_param,
    pure_power_param,
    sample_param_points,
)
from logpairs.heights import (
    HomogPoly,
    Subscheme,
    counting_gcd,
    normalize_point,
    subscheme_product,
    subscheme_union_generators,
    weil_arch_ratio,
    weil_finite_valuation,
    weil_local,
)
from logpairs.places import Place, local_log_norm
from logpairs.polynomials import Poly2
from logpairs.snc import (
    NEG_INFINITY,
    ResolvedPairData,
    SNCPair,
    classify,
    classify_via_totaldiscrep,
    loci_divisors,
    quotient_discrepancy_1_1,
    totaldiscrep,
    vojta_reduced_coefficient_numeric,
    vojta_reduced_divisor,
)

X, Y = Poly2.x(), Poly2.y()

COPRIME_PAIRS = [
    (m, d) for d in range(2, 10) for m in range(1, d) if math.gcd(m, d) == 1
]


@contextmanager
def criterion(number: int, description: str):
    try:
        yield
    except BaseException:
        print(f"[criterion {number:2d}] FAIL: {description}")
        raise
    print(f"[criterion {number:2d}] PASS: {description}")


def test_criterion_01_gcd_identities():
    with criterion(1, "exact gcd identities for all coprime exponent pairs up to 9"):
        start = time.monotonic()
        for m, d in COPRIME_PAIRS:
            for kind in ("pure", "shifted", "mixed"):
                report = gcd_family_check(kind, d, m, (-40, 40))
                assert report.violations == ()
        assert time.monotonic() - start < 10.0


def test_criterion_02_exact_power_law():
    with criterion(2, "residuals exactly zero on the pure power family"):
        bases = [a for a in range(-40, 41) if abs(a) >= 2]
        for m, d in COPRIME_PAIRS:
            target = pure_power_param(m, d).target
            points = [normalize_point((a**m, a**d, 1)) for a in bases]
            records = mdlaw_records(target, points)
            assert all(r.residual == 0.0 for r in records)
            report = mdlaw_report(target, records)
            assert report.max_abs_residual == 0.0
            assert report.m == m and report.d == d


def nodal_cubic_residual(p: int, q: int) -> float:
    """Closed form of the nodal cubic residual at the primitive pair (p, q).

    The image (q(p^2-q^2) : p(p^2-q^2) : q^3) is primitive, since
    gcd(p^2-q^2, q^3) = 1, and gcd(x0, x1) = |p^2-q^2|.  With a = max(|p|, |q|)
    this gives residual = (1/3) log Q for Q = max(|p^2-q^2| a, |q|^3) / a^3.
    """
    a = max(abs(p), abs(q))
    quotient = Fraction(max(abs(p * p - q * q) * a, abs(q) ** 3), a**3)
    return (math.log(quotient.numerator) - math.log(quotient.denominator)) / 3


def primitive_shell(pc, n: int):
    """Parameters and images of the primitive pairs (p, q) with max(|p|, q) = n.

    The distinguished point and repeated images are skipped.
    """
    pairs = [(p, n) for p in range(-n, n + 1)] + [(p, q) for q in range(1, n) for p in (-n, n)]
    params, points, seen = [], [], set()
    for p, q in pairs:
        if math.gcd(p, q) != 1:
            continue
        pt = normalize_point(pc.evaluate(p, q))
        if pt.coords == (0, 0, 1) or pt.coords in seen:
            continue
        seen.add(pt.coords)
        params.append((p, q))
        points.append(pt)
    return params, points


def test_criterion_03_nodal_cubic_law(nodal_cubic_rho):
    with criterion(3, "nodal cubic: exact residuals, slope window at high height, supremum log(rho)"):
        rho = nodal_cubic_rho
        assert abs(rho**3 - rho - 1) < 1e-12
        log_rho = math.log(rho)
        start = time.monotonic()
        pc = nodal_cubic_param()
        sample60 = sample_param_points(pc, 60)
        records60 = mdlaw_records(pc.target, sample60.points)
        # The largest h at bound 60 is about 12.3; the shell at n = 1000
        # reaches h >= 20, where the slope is checked.
        shell_params, shell_points = primitive_shell(pc, 1000)
        shell_records = mdlaw_records(pc.target, shell_points)
        for params, records in ((sample60.params, records60), (shell_params, shell_records)):
            for (p, q), rec in zip(params, records):
                assert rec.residual == nodal_cubic_residual(p, q)
                assert abs(rec.hO - 2 / 3 * rec.h - rec.residual) <= 1e-9
        high = [rec for rec in shell_records if rec.h >= 20.0]
        assert high
        for rec in high:
            assert abs(rec.hO / rec.h - 2 / 3) <= 0.05
        report60 = mdlaw_report(pc.target, records60, h_min=20.0)
        records30 = mdlaw_records(pc.target, sample_param_points(pc, 30).points)
        report30 = mdlaw_report(pc.target, records30, h_min=20.0)
        shell_report = mdlaw_report(pc.target, shell_records, h_min=20.0)
        assert time.monotonic() - start < 30.0
        # The residual depends only on t = p/q and lies in (-log rho, 0]: Q is
        # 1 for |t| <= 1, and max(|t|(t^2 - 1), 1) / |t|^3 >= 1/rho^3 for
        # |t| > 1, with equality only at the irrational |t| = rho.  So the
        # sample maximum grows whenever a better approximant of rho enters
        # (53/40 between bounds 30 and 60) and stays below log rho.
        assert report30.max_abs_residual <= report60.max_abs_residual < log_rho
        assert shell_report.max_abs_residual_high == max(abs(rec.residual) for rec in high)
        assert 0.0 < shell_report.max_abs_residual_high < log_rho


def test_criterion_04_log_canonical_thresholds():
    with criterion(4, "log canonical thresholds of the five model singularities"):
        # Oracle: hand proximity recursion.  Multiplicity sequences and
        # proximity sets below are unrolled by hand; k and v follow from
        # k_i = 1 + sum over prox, v_i = m_i + sum over prox.
        hand = {
            "cusp": {"m": [2, 1, 1], "prox": [[], [0], [0, 1]]},
            "node": {"m": [2], "prox": [[]]},
            "tacnode": {"m": [2, 2], "prox": [[], [0]]},
            "triple": {"m": [3], "prox": [[]]},
            "smooth": {"m": [], "prox": []},
        }
        curves = {
            "cusp": AffineCurve(Y**2 - X**3),
            "node": AffineCurve(Y**2 - X**2 * (X + Poly2.constant(1))),
            "tacnode": AffineCurve(Y**2 - X**4),
            "triple": AffineCurve(Y**3 - Y * X**2),
            "smooth": AffineCurve(Y - X**2),
        }
        expected = {
            "cusp": Fraction(5, 6),
            "node": Fraction(1),
            "tacnode": Fraction(3, 4),
            "triple": Fraction(2, 3),
            "smooth": Fraction(1),
        }
        for name, table in hand.items():
            ks, vs = [], []
            for mult, prox in zip(table["m"], table["prox"]):
                ks.append(1 + sum(ks[j] for j in prox))
                vs.append(mult + sum(vs[j] for j in prox))
            oracle = min([Fraction(1)] + [Fraction(k + 1, v) for k, v in zip(ks, vs)])
            assert oracle == expected[name]
            assert lct(curves[name]) == expected[name]


def test_criterion_05_valuation_tables():
    with criterion(5, "exact valuation tables for cusp and node"):
        cusp_vd = valuation_data(resolve(AffineCurve(Y**2 - X**3)))
        assert cusp_vd.k == {1: 1, 2: 2, 3: 4}
        assert cusp_vd.v == {1: 2, 2: 3, 3: 6}
        node_vd = valuation_data(resolve(AffineCurve(Y**2 - X**2 * (X + Poly2.constant(1)))))
        assert node_vd.k == {1: 1}
        assert node_vd.v == {1: 2}


def _random_snc_pair(rng: random.Random) -> SNCPair:
    n = rng.randint(0, 8)
    divisors = []
    for i in range(n):
        den = rng.randint(1, 12)
        num = rng.randint(-2 * den, 2 * den)
        divisors.append((f"E{i}", Fraction(num, den)))
    edges = {
        (f"E{i}", f"E{j}")
        for i in range(n)
        for j in range(i + 1, n)
        if rng.random() < 0.3
    }
    return SNCPair.build(divisors, edges)


def test_criterion_06_classification_agreement():
    with criterion(6, "coefficient and total-discrepancy classifications agree on 1000 pairs"):
        rng = random.Random(60)
        for _ in range(1000):
            pair = _random_snc_pair(rng)
            assert classify(pair) is classify_via_totaldiscrep(pair)


def test_criterion_07_totaldiscrep_range():
    with criterion(7, "total discrepancy is minus infinity or within [-1, 0]"):
        rng = random.Random(60)
        for _ in range(1000):
            td = totaldiscrep(_random_snc_pair(rng))
            assert td == NEG_INFINITY or Fraction(-1) <= td <= Fraction(0)


def test_criterion_08_reduced_divisor_rule():
    with criterion(8, "analytic reduced-divisor rule matches the epsilon oracle on 500 draws"):
        rng = random.Random(80)
        eps = Fraction(1, 1000)
        for _ in range(500):
            den = rng.randint(1, 20)
            a = Fraction(rng.randint(-5 * den, 5 * den), den)
            b = Fraction(rng.randint(0, 5), 4)
            numeric = vojta_reduced_coefficient_numeric(a, b, eps)
            assert numeric in (0, 1)
            included = "F" in vojta_reduced_divisor(
                ResolvedPairData.build([("F", a, b, True)])
            )
            assert included == (numeric == 1)


IDEAL_TEST_COEFFS = (Fraction(1, 4), Fraction(5, 6), Fraction(1), Fraction(7, 6))


def _ideal_suite(poly: Poly2):
    monomials = [X**i * Y**j for i in range(7) for j in range(7) if i + j <= 6]
    return [mono * poly**e for mono in monomials for e in range(3)]


def test_criterion_09_ideal_chain_and_loci():
    with criterion(9, "membership chain, triviality, and loci links for cusp and node"):
        for curve in (AffineCurve(Y**2 - X**3), AffineCurve(Y**2 - X**2 * (X + Poly2.constant(1)))):
            tree = resolve(curve)
            vd = valuation_data(tree)
            suite = _ideal_suite(curve.poly)
            for c in IDEAL_TEST_COEFFS:
                data = pair_discrepancies(tree, vd, c)
                loci = loci_divisors(data)
                h_has_positive = any(ideal_threshold(IdealKind.H, r.a, r.b) > 0 for r in data.rows)
                assert h_has_positive == bool(loci.non_sc)
                i_has_positive = any(ideal_threshold(IdealKind.I, r.a, r.b) > 0 for r in data.rows)
                assert i_has_positive == bool(loci.non_lc)
                for g in suite:
                    in_h = tree_ideal_member(tree, vd, c, g, IdealKind.H)
                    in_j = tree_ideal_member(tree, vd, c, g, IdealKind.J)
                    in_i = tree_ideal_member(tree, vd, c, g, IdealKind.I)
                    assert (not in_h or in_j) and (not in_j or in_i)
        node_curve = AffineCurve(Y**2 - X**2 * (X + Poly2.constant(1)))
        tree = resolve(node_curve)
        vd = valuation_data(tree)
        for i, j, e in itertools.product(range(7), range(7), range(3)):
            if i + j > 6:
                continue
            g = X**i * Y**j * node_curve.poly**e
            assert tree_ideal_member(tree, vd, 1, g, IdealKind.H) == (e >= 1)


def test_criterion_10_resolution_independence():
    with criterion(10, "one extra blowup changes no lct and no membership verdict"):
        curve = AffineCurve(Y**2 - X**3)
        tree = resolve(curve)
        vd = valuation_data(tree)
        extended = blow_up_point(tree, 3, 1)
        vde = valuation_data(extended)
        assert tree_lct(extended) == tree_lct(tree) == Fraction(5, 6)
        for g in _ideal_suite(curve.poly):
            for c in IDEAL_TEST_COEFFS:
                for kind in IdealKind:
                    assert tree_ideal_member(tree, vd, c, g, kind) == tree_ideal_member(
                        extended, vde, c, g, kind
                    )


def test_criterion_11_quotient_discrepancy():
    with criterion(11, "order-5 quotient discrepancy equals -3/5"):
        assert quotient_discrepancy_1_1(5) == Fraction(-3, 5)


def _random_subscheme(rng: random.Random) -> Subscheme:
    gens = []
    for _ in range(rng.randint(1, 3)):
        degree = rng.randint(1, 3)
        terms = {}
        for _ in range(rng.randint(1, 4)):
            e0 = rng.randint(0, degree)
            e1 = rng.randint(0, degree - e0)
            exps = (e0, e1, degree - e0 - e1)
            terms[exps] = terms.get(exps, 0) + rng.randint(-5, 5)
        terms = {e: c for e, c in terms.items() if c}
        if not terms:
            terms = {(degree, 0, 0): 1}
        gens.append(HomogPoly.from_terms(3, terms.items()))
    return Subscheme(tuple(gens))


def test_criterion_12_weil_function_properties():
    with criterion(12, "additivity, monotonicity, and the product formula"):
        rng = random.Random(120)
        subschemes = [_random_subscheme(rng) for _ in range(200)]
        points = []
        while len(points) < 100:
            coords = [rng.randint(-30, 30) for _ in range(3)]
            if any(coords):
                points.append(normalize_point(coords))
        arch = Place.archimedean()
        # additivity of the counting data and of every structured local view
        for idx in range(100):
            z1, z2 = subschemes[2 * idx], subschemes[2 * idx + 1]
            prod = subscheme_product(z1, z2)
            for x in (points[idx], points[(idx + 37) % 100]):
                g1, g2 = counting_gcd(z1, x), counting_gcd(z2, x)
                if g1 == 0 or g2 == 0:
                    continue
                assert counting_gcd(prod, x) == g1 * g2
                assert weil_arch_ratio(prod, x) == weil_arch_ratio(z1, x) * weil_arch_ratio(z2, x)
                for p in (2, 3, 5, 7):
                    assert weil_finite_valuation(prod, x, p) == weil_finite_valuation(
                        z1, x, p
                    ) + weil_finite_valuation(z2, x, p)
        # generator-superset monotonicity at every tested place
        for idx, z in enumerate(subschemes):
            bigger = subscheme_union_generators(z, subschemes[(idx + 1) % 200])
            x = points[idx % 100]
            for place in (arch, Place.finite(2), Place.finite(3)):
                assert weil_local(bigger, x, place) <= weil_local(z, x, place)
        # product formula on random nonzero rationals
        for _ in range(200):
            q = Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 10**6))
            if q == 0:
                continue
            total = local_log_norm(q, arch)
            n = abs(q.numerator) * q.denominator
            p = 2
            while p * p <= n:
                if n % p == 0:
                    total += local_log_norm(q, Place.finite(p))
                    while n % p == 0:
                        n //= p
                p += 1
            if n > 1:
                total += local_log_norm(q, Place.finite(n))
            assert abs(total) <= 1e-9 * max(1.0, abs(local_log_norm(q, arch)))
