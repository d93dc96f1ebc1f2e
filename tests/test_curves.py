import itertools
import math
import random
import sys
from fractions import Fraction

import pytest

from logpairs.curves import (
    AffineCurve,
    IdealKind,
    _rational_roots,
    blow_up_point,
    dual_graph_pair,
    ideal_member,
    ideal_threshold,
    lct,
    multiplicity_at,
    ord_along,
    pair_discrepancies,
    resolve,
    tree_ideal_member,
    tree_lct,
    valuation_data,
)
from logpairs.errors import DepthExceededError, InputError, NonRationalCenterError
from logpairs.polynomials import Poly2
from logpairs.snc import PairClass, classify, classify_resolved, loci_divisors

X, Y = Poly2.x(), Poly2.y()
ONE = Poly2.constant(1)

CUSP = AffineCurve(Y**2 - X**3)
NODE = AffineCurve(Y**2 - X**2 * (X + ONE))
TACNODE = AffineCurve(Y**2 - X**4)
TRIPLE = AffineCurve(Y**3 - Y * X**2)
SMOOTH = AffineCurve(Y - X**2)


class TestAffineCurve:
    def test_squarefree_enforced(self):
        with pytest.raises(InputError):
            AffineCurve((Y - X) ** 2)

    def test_constant_rejected(self):
        with pytest.raises(InputError):
            AffineCurve(ONE)

    def test_reducible_but_reduced_accepted(self):
        AffineCurve(X * Y * (X + Y))


class TestMultiplicityAt:
    def test_cusp(self):
        assert multiplicity_at(CUSP, (0, 0)) == 2

    def test_power_family(self):
        for m, d in [(2, 3), (3, 5), (4, 9)]:
            curve = Poly2.monomial(d, 0) - Poly2.monomial(0, m)
            assert multiplicity_at(curve, (0, 0)) == m

    def test_smooth_point(self):
        assert multiplicity_at(SMOOTH, (0, 0)) == 1

    def test_off_curve(self):
        assert multiplicity_at(CUSP, (1, 5)) == 0

    def test_translated_singularity(self):
        shifted = (Y - ONE) ** 2 - (X - Poly2.constant(2)) ** 3
        assert multiplicity_at(shifted, (2, 1)) == 2

    def test_rational_point(self):
        assert multiplicity_at(SMOOTH, (Fraction(1, 2), Fraction(1, 4))) == 1
        assert multiplicity_at(SMOOTH, (Fraction(1, 2), Fraction(1, 3))) == 0


class TestResolve:
    def test_cusp_tree(self):
        tree = resolve(CUSP)
        assert [n.mult for n in tree.nodes] == [2, 1, 1]
        assert [n.parent for n in tree.nodes] == [None, 1, 2]
        assert [sorted(n.proximate_to) for n in tree.nodes] == [[], [1], [1, 2]]

    def test_node_tree(self):
        tree = resolve(NODE)
        assert [n.mult for n in tree.nodes] == [2]

    def test_tacnode_tree(self):
        tree = resolve(TACNODE)
        assert [n.mult for n in tree.nodes] == [2, 2]
        assert [sorted(n.proximate_to) for n in tree.nodes] == [[], [1]]

    def test_smooth_curve_empty(self):
        assert resolve(SMOOTH).nodes == ()

    def test_point_off_curve_empty(self):
        assert resolve(Poly2({(0, 1): 1, (0, 0): 1})).nodes == ()

    def test_irrational_tangent_directions(self):
        with pytest.raises(NonRationalCenterError):
            resolve(AffineCurve(Y**2 - Poly2.constant(2) * X**2))

    def test_depth_limit(self):
        with pytest.raises(DepthExceededError):
            resolve(CUSP, max_depth=1)

    def test_deep_tower_without_deep_stack(self):
        # y^2 - x^151 needs a chain of 77 centers; resolve must not spend
        # one stack frame per level.
        resolve(CUSP)
        depth, frame = 0, sys._getframe()
        while frame is not None:
            depth, frame = depth + 1, frame.f_back
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(depth + 40)
        try:
            tree = resolve(Y**2 - X**151, max_depth=100)
        finally:
            sys.setrecursionlimit(limit)
        assert [n.id for n in tree.nodes] == list(range(1, 78))
        assert [n.parent for n in tree.nodes] == [None] + list(range(1, 77))

    @pytest.mark.parametrize("a, b", [(2, 401), (3, 151)])
    def test_tower_oracle(self, a, b):
        # y^a - c*x^b (a, b coprime) needs one center per unit of the
        # partial quotients of b/a, and its lct is 1/a + 1/b.
        tree = resolve(Y**a - Poly2.constant(Fraction(-5, 3)) * X**b, max_depth=b)
        quotients, num, den = [], b, a
        while den:
            quotients.append(num // den)
            num, den = den, num % den
        assert len(tree.nodes) == sum(quotients)
        assert tree_lct(tree) == min(1, Fraction(1, a) + Fraction(1, b))

    def test_proximity_contains_parent(self):
        for curve in (CUSP, NODE, TACNODE, TRIPLE):
            for node in resolve(curve).nodes:
                if node.parent is not None:
                    assert node.parent in node.proximate_to


class TestValuationData:
    def test_cusp_table(self):
        vd = valuation_data(resolve(CUSP))
        assert vd.k == {1: 1, 2: 2, 3: 4}
        assert vd.v == {1: 2, 2: 3, 3: 6}

    def test_node_table(self):
        vd = valuation_data(resolve(NODE))
        assert vd.k == {1: 1}
        assert vd.v == {1: 2}

    def test_empty_tree(self):
        vd = valuation_data(resolve(SMOOTH))
        assert vd.k == {} and vd.v == {}


class TestPairDiscrepancies:
    def test_cusp_at_five_sixths(self):
        tree = resolve(CUSP)
        data = pair_discrepancies(tree, valuation_data(tree), Fraction(5, 6))
        by_id = {r.id: r for r in data.rows}
        assert by_id["E1"].a == Fraction(-2, 3)
        assert by_id["E2"].a == Fraction(-1, 2)
        assert by_id["E3"].a == Fraction(-1)
        assert by_id["C"].a == Fraction(-5, 6)
        assert not by_id["C"].exceptional

    def test_node_at_one(self):
        tree = resolve(NODE)
        data = pair_discrepancies(tree, valuation_data(tree), 1)
        by_id = {r.id: r for r in data.rows}
        assert by_id["E1"].a == Fraction(-1)
        assert by_id["C"].a == Fraction(-1)
        assert classify_resolved(data) is PairClass.LOG_CANONICAL

    def test_zero_boundary_is_strongly_canonical(self):
        for curve in (CUSP, NODE, TACNODE, TRIPLE):
            tree = resolve(curve)
            data = pair_discrepancies(tree, valuation_data(tree), 0)
            assert all(r.a >= 0 for r in data.rows)
            assert classify_resolved(data) is PairClass.STRONGLY_CANONICAL

    def test_negative_coefficient_rejected(self):
        tree = resolve(CUSP)
        with pytest.raises(InputError):
            pair_discrepancies(tree, valuation_data(tree), Fraction(-1, 2))


class TestLct:
    # Oracle: unroll k and v by hand from the proximity structure and apply
    # min(1, min (k+1)/v).
    HAND_TABLES = {
        "cusp": ([1, 2, 4], [2, 3, 6], Fraction(5, 6)),
        "node": ([1], [2], Fraction(1)),
        "tacnode": ([1, 2], [2, 4], Fraction(3, 4)),
        "triple": ([1], [3], Fraction(2, 3)),
    }

    def test_against_hand_recursion(self):
        curves = {"cusp": CUSP, "node": NODE, "tacnode": TACNODE, "triple": TRIPLE}
        for name, (ks, vs, expected) in self.HAND_TABLES.items():
            oracle = min([Fraction(1)] + [Fraction(k + 1, v) for k, v in zip(ks, vs)])
            assert oracle == expected
            assert lct(curves[name]) == expected

    def test_smooth(self):
        assert lct(SMOOTH) == Fraction(1)

    def test_classification_transition_at_threshold(self):
        for curve in (CUSP, NODE, TACNODE, TRIPLE):
            tree = resolve(curve)
            vd = valuation_data(tree)
            threshold = tree_lct(tree)
            below = classify_resolved(pair_discrepancies(tree, vd, threshold - Fraction(1, 24)))
            at = classify_resolved(pair_discrepancies(tree, vd, threshold))
            assert below is PairClass.KAWAMATA_LOG_TERMINAL
            if threshold < 1:
                assert at in (PairClass.LOG_CANONICAL, PairClass.NOT_LOG_CANONICAL)
                assert at is not PairClass.KAWAMATA_LOG_TERMINAL


def lct_via_triviality(curve: AffineCurve) -> Fraction:
    """Independent route: the round-up ideal is trivial exactly on [0, lct),
    so the threshold is the infimum of c with 1 excluded.

    Candidate thresholds have denominator dividing some v from the tree, so
    scanning rationals with those denominators pins the value exactly.
    """
    tree = resolve(curve)
    vd = valuation_data(tree)
    denominators = set(vd.v.values()) | {1}
    candidates = sorted(
        {Fraction(n, q) for q in denominators for n in range(0, 2 * q + 1)}
    )
    previous = Fraction(0)
    for c in candidates:
        if not tree_ideal_member(tree, vd, c, ONE, IdealKind.J):
            return c
        previous = c
    return min(previous, Fraction(1))


class TestClassicalThresholds:
    """Published closed forms as independent oracles."""

    def test_two_branch_tangential_series(self):
        # y^2 = x^n has threshold 1/2 + 1/n
        for n in range(2, 10):
            curve = AffineCurve(Y**2 - X**n)
            assert lct(curve) == min(Fraction(1), Fraction(1, 2) + Fraction(1, n))

    def test_coprime_monomial_curves(self):
        # x^a = y^b with coprime exponents has threshold 1/a + 1/b
        for a, b in [(2, 3), (2, 5), (2, 7), (3, 4), (3, 5), (3, 7), (4, 9), (5, 6)]:
            assert math.gcd(a, b) == 1
            curve = AffineCurve(Poly2.monomial(a, 0) - Poly2.monomial(0, b))
            assert lct(curve) == Fraction(1, a) + Fraction(1, b)

    def test_ordinary_multiple_points(self):
        # m distinct lines through the origin give min(1, 2/m)
        lines = [Y, X, Y - X, Y + X, Y - Poly2.constant(2) * X, Y + Poly2.constant(2) * X]
        for m in range(1, 7):
            product = lines[0]
            for extra in lines[1:m]:
                product = product * extra
            assert lct(AffineCurve(product)) == min(Fraction(1), Fraction(2, m))

    def test_tangential_smooth_pair(self):
        # two smooth branches with contact order two, same data as y^2 = x^4
        curve = AffineCurve(Y * (Y - X**2))
        assert lct(curve) == Fraction(3, 4)
        vd = valuation_data(resolve(curve))
        assert vd.k == {1: 1, 2: 2}
        assert vd.v == {1: 2, 2: 4}

    def test_triviality_route_agrees(self):
        curves = [
            AffineCurve(Y**2 - X**3),
            AffineCurve(Y**2 - X**5),
            AffineCurve(Y**3 - X**4),
            AffineCurve(Y**3 - X**5),
            AffineCurve(Y**2 - X**2 * (X + Poly2.constant(1))),
            AffineCurve(Y**3 - Y * X**2),
            AffineCurve(Y * (Y - X**2)),
        ]
        for curve in curves:
            assert lct_via_triviality(curve) == lct(curve)


class TestResolveConsistency:
    def test_random_curves_internally_consistent(self):
        rng = random.Random(314)
        checked = 0
        attempts = 0
        while checked < 40 and attempts < 400:
            attempts += 1
            terms = {}
            for _ in range(rng.randint(2, 5)):
                i = rng.randint(0, 4)
                j = rng.randint(0, 4 - i)
                if (i, j) == (0, 0):
                    continue
                terms[(i, j)] = terms.get((i, j), 0) + rng.randint(-3, 3)
            poly = Poly2(terms)
            if poly.is_zero or poly.total_degree() == 0:
                continue
            try:
                curve = AffineCurve(poly)
                tree = resolve(curve, max_depth=40)
            except InputError:
                continue
            checked += 1
            vd = valuation_data(tree)
            ids = [n.id for n in tree.nodes]
            assert ids == sorted(ids)
            for node in tree.nodes:
                assert node.mult >= 1
                ancestors = set()
                walk = node.parent
                while walk is not None:
                    ancestors.add(walk)
                    walk = tree.node(walk).parent
                assert node.proximate_to <= ancestors
                if node.parent is not None:
                    assert node.parent in node.proximate_to
                assert vd.k[node.id] >= 1 and vd.v[node.id] >= 1
            if tree.nodes:
                assert tree.nodes[0].mult == multiplicity_at(curve, (0, 0))
            threshold = tree_lct(tree)
            assert Fraction(0) < threshold <= Fraction(1)
        assert checked == 40


class TestOrdAlong:
    def test_coordinate_pullbacks_on_cusp(self):
        tree = resolve(CUSP)
        assert ord_along(tree, X).by_divisor == {1: 1, 2: 1, 3: 2}
        assert ord_along(tree, Y).by_divisor == {1: 1, 2: 2, 3: 3}

    def test_curve_itself(self):
        tree = resolve(CUSP)
        orders = ord_along(tree, CUSP.poly)
        assert orders.by_divisor == valuation_data(tree).v
        assert orders.strict == 1

    def test_strict_powers(self):
        tree = resolve(NODE)
        g = NODE.poly**2 * X
        assert ord_along(tree, g).strict == 2
        assert ord_along(tree, X * Y).strict == 0


class TestIdealThresholds:
    def test_round_down_and_up(self):
        assert ideal_threshold(IdealKind.H, Fraction(-2, 3), Fraction(5, 3)) == 1
        assert ideal_threshold(IdealKind.J, Fraction(-2, 3), Fraction(5, 3)) == 0
        assert ideal_threshold(IdealKind.J, Fraction(-1), Fraction(5)) == 1

    def test_perturbed_drops_only_integer_thresholds(self):
        assert ideal_threshold(IdealKind.I, Fraction(-1), Fraction(5)) == 0
        assert ideal_threshold(IdealKind.I, Fraction(-2, 3), Fraction(5, 3)) == 0
        # unperturbed divisors keep the round-up value
        assert ideal_threshold(IdealKind.I, Fraction(-1), Fraction(0)) == 1


class TestIdealMember:
    def test_cusp_examples(self):
        c = Fraction(5, 6)
        assert ideal_member(CUSP, c, X, IdealKind.J) is True
        assert ideal_member(CUSP, c, ONE, IdealKind.J) is False

    def test_node_examples(self):
        assert ideal_member(NODE, 1, X * Y, IdealKind.H) is False
        assert ideal_member(NODE, 1, NODE.poly, IdealKind.H) is True

    def test_inclusion_chain(self):
        tree = resolve(CUSP)
        vd = valuation_data(tree)
        polys = [X**i * Y**j for i in range(3) for j in range(3)]
        for g, c in itertools.product(polys, [Fraction(1, 4), Fraction(5, 6), Fraction(7, 6)]):
            in_h = tree_ideal_member(tree, vd, c, g, IdealKind.H)
            in_j = tree_ideal_member(tree, vd, c, g, IdealKind.J)
            in_i = tree_ideal_member(tree, vd, c, g, IdealKind.I)
            assert (not in_h or in_j) and (not in_j or in_i)

    def test_h_trivial_iff_strongly_canonical(self):
        for curve in (CUSP, NODE, TACNODE):
            tree = resolve(curve)
            vd = valuation_data(tree)
            for c in (Fraction(0), Fraction(1, 4), Fraction(1), Fraction(3, 2)):
                data = pair_discrepancies(tree, vd, c)
                has_positive = any(
                    ideal_threshold(IdealKind.H, r.a, r.b) > 0 for r in data.rows
                )
                assert has_positive == bool(loci_divisors(data).non_sc)

    def test_nonlc_iff_positive_perturbed_threshold(self):
        for curve in (CUSP, NODE):
            tree = resolve(curve)
            vd = valuation_data(tree)
            for c in (Fraction(1, 4), Fraction(5, 6), Fraction(1), Fraction(7, 6)):
                data = pair_discrepancies(tree, vd, c)
                has_positive = any(
                    ideal_threshold(IdealKind.I, r.a, r.b) > 0 for r in data.rows
                )
                assert has_positive == bool(loci_divisors(data).non_lc)

    def test_log_canonical_case_is_the_reduced_ideal(self):
        # at the boundary coefficient, the node pair is log canonical and the
        # round-down ideal consists exactly of the multiples of the curve
        tree = resolve(NODE)
        vd = valuation_data(tree)
        assert classify_resolved(pair_discrepancies(tree, vd, 1)) is PairClass.LOG_CANONICAL
        for i, j, e in itertools.product(range(4), range(4), range(3)):
            g = X**i * Y**j * NODE.poly**e
            member = tree_ideal_member(tree, vd, 1, g, IdealKind.H)
            assert member == (e >= 1)


class TestResolutionIndependence:
    @staticmethod
    def assert_same_verdicts(tree, extended):
        vd, vde = valuation_data(tree), valuation_data(extended)
        polys = [X**i * Y**j * CUSP.poly**e for i in range(3) for j in range(3) for e in range(2)]
        for g, c, kind in itertools.product(
            polys, [Fraction(1, 4), Fraction(5, 6), Fraction(1), Fraction(7, 6)], IdealKind
        ):
            assert tree_ideal_member(tree, vd, c, g, kind) == tree_ideal_member(
                extended, vde, c, g, kind
            )

    def test_extra_blowup_keeps_lct_and_membership(self):
        tree = resolve(CUSP)
        # the strict transform crosses the last exceptional divisor at t = 1
        extended = blow_up_point(tree, 3, 1)
        assert len(extended.nodes) == 4
        assert tree_lct(extended) == tree_lct(tree) == Fraction(5, 6)
        self.assert_same_verdicts(tree, extended)

    def test_zero_shift_blowup_inherits_axis_y(self):
        # At shift 0 the center is where E3 crosses the divisor along its
        # y-axis, so the new center is proximate to both.
        tree = resolve(CUSP)
        extended = blow_up_point(tree, 3, 0)
        new = extended.nodes[-1]
        assert tree.node(3).axis_y == 2
        assert new.proximate_to == {3, tree.node(3).axis_y}
        assert (new.axis_x, new.axis_y, new.mult) == (3, 2, 0)
        vd = valuation_data(extended)
        assert (vd.k[4], vd.v[4]) == (1 + 4 + 2, 0 + 6 + 3)
        assert tree_lct(extended) == tree_lct(tree) == Fraction(5, 6)
        self.assert_same_verdicts(tree, extended)

    def test_free_extra_blowup(self):
        tree = resolve(CUSP)
        extended = blow_up_point(tree, 3, Fraction(7))
        assert extended.nodes[-1].mult == 0
        assert tree_lct(extended) == Fraction(5, 6)


class TestErrorPaths:
    def test_zero_pullback_rejected(self):
        tree = resolve(CUSP)
        with pytest.raises(InputError):
            ord_along(tree, Poly2())

    def test_negative_coefficient_in_membership(self):
        with pytest.raises(InputError):
            ideal_member(CUSP, Fraction(-1, 2), X, IdealKind.J)

    def test_reduced_divisor_of_threshold_pair_is_everything(self):
        from logpairs.snc import vojta_reduced_divisor

        tree = resolve(CUSP)
        data = pair_discrepancies(tree, valuation_data(tree), Fraction(5, 6))
        # fractional discrepancies and the integer one with positive pullback
        assert vojta_reduced_divisor(data) == {"E1", "E2", "E3", "C"}


def nested_scan_edges(tree) -> set:
    """Exceptional edges by the defining scan: E_anc and E_node meet unless
    some later center is proximate to both."""
    edges = set()
    for node in tree.nodes:
        for anc in node.proximate_to:
            later = (other for other in tree.nodes if other.id > node.id)
            if not any({anc, node.id} <= other.proximate_to for other in later):
                edges.add(frozenset((f"E{anc}", f"E{node.id}")))
    return edges


class TestDualGraph:
    def test_matches_nested_scan(self):
        rng = random.Random(17)
        curves = [(Y**2 - X**3) ** 2 - X**k * Y for k in range(7, 16)]
        for _ in range(12):
            a = rng.choice([2, 3, 4])
            b = rng.choice([b for b in range(a + 1, 60) if math.gcd(a, b) == 1])
            c = Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 4))
            curves.append(Y**a - Poly2.constant(c) * X**b)
        for curve in curves:
            tree = resolve(curve, max_depth=200)
            data = pair_discrepancies(tree, valuation_data(tree), Fraction(1, 2))
            strict = {frozenset((f"E{anc}", "C")) for anc in tree.curve_contacts}
            assert dual_graph_pair(tree, data).edges == nested_scan_edges(tree) | strict

    def test_cusp_configuration(self):
        tree = resolve(CUSP)
        data = pair_discrepancies(tree, valuation_data(tree), Fraction(5, 6))
        pair = dual_graph_pair(tree, data)
        edges = {tuple(sorted(e)) for e in pair.edges}
        assert edges == {("C", "E3"), ("E1", "E3"), ("E2", "E3")}
        assert classify(pair) is classify_resolved(data)

    def test_classification_matches_for_all_curves(self):
        for curve in (CUSP, NODE, TACNODE, TRIPLE):
            tree = resolve(curve)
            vd = valuation_data(tree)
            for c in (Fraction(0), Fraction(1, 2), Fraction(1)):
                data = pair_discrepancies(tree, vd, c)
                assert classify(dual_graph_pair(tree, data)) is classify_resolved(data)


def _sympy_rational_roots(coeffs):
    """Rational roots and the irrational-factor flag from a direct sympy
    factorization of the whole polynomial."""
    import sympy

    t = sympy.Symbol("t")
    expr = sum(sympy.Rational(c.numerator, c.denominator) * t**j for j, c in enumerate(coeffs))
    poly = sympy.Poly(expr, t, domain="QQ")
    if poly.degree() <= 0:
        return [], False
    roots, irrational = [], False
    for factor, _ in poly.factor_list()[1]:
        if factor.degree() == 1:
            lead, const = (Fraction(int(c.p), int(c.q)) for c in factor.all_coeffs())
            roots.append(-const / lead)
        else:
            irrational = True
    return sorted(roots), irrational


class TestRationalRoots:
    def _dense(self, terms):
        coeffs = [Fraction(0)] * (max(terms, default=-1) + 1)
        for j, c in terms.items():
            coeffs[j] = Fraction(c)
        return coeffs

    def test_monomials_and_constants(self):
        for k in range(6):
            for c in (1, -3, Fraction(2, 7)):
                coeffs = self._dense({k: c})
                assert _rational_roots(coeffs) == _sympy_rational_roots(coeffs)
                assert _rational_roots(coeffs) == ([Fraction(0)] if k else [], False)
        assert _rational_roots([]) == ([], False)
        assert _rational_roots([Fraction(0)] * 3) == ([], False)

    def test_power_times_linear(self):
        rng = random.Random(11)
        for _ in range(60):
            k = rng.randint(0, 4)
            a = Fraction(rng.choice([-4, -1, 1, 3]), rng.randint(1, 5))
            b = Fraction(rng.randint(-6, 6), rng.randint(1, 5))
            coeffs = self._dense({j: c for j, c in {k: b, k + 1: a}.items() if c})
            assert _rational_roots(coeffs) == _sympy_rational_roots(coeffs)

    def test_higher_degree_parts(self):
        for terms in (
            {0: -2, 2: 1},
            {0: -1, 2: 1},
            {2: -2, 4: 1},
            {1: 6, 2: -5, 3: 1},
            {0: Fraction(1, 4), 1: -1, 2: 1},
            {3: 1, 5: -3, 6: 2},
        ):
            coeffs = self._dense(terms)
            assert _rational_roots(coeffs) == _sympy_rational_roots(coeffs)
        assert _rational_roots(self._dense({0: -2, 2: 1})) == ([], True)
        assert _rational_roots(self._dense({0: -1, 2: 1})) == ([Fraction(-1), Fraction(1)], False)
