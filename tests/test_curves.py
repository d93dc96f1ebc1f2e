import itertools
import json
import math
import random
import sys
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from logpairs import cli
from logpairs.curves import (
    AffineCurve,
    IdealKind,
    _is_squarefree,
    _rational_roots,
    _unroll,
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
)
from logpairs import curves
from logpairs.errors import BadRangeError, DepthExceededError, InputError, NonRationalCenterError
from logpairs.polynomials import Poly2
from logpairs.snc import PairClass, classify, classify_resolved, loci_divisors, vojta_reduced_divisor

from oracles import count_calls, swap

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


def _big_rational(rng: random.Random) -> Fraction:
    """A nonzero rational with a large denominator."""
    return Fraction(rng.choice([-1, 1]) * rng.randint(1, 10**6), rng.randint(1, 10**9))


def _random_factor(rng: random.Random) -> Poly2:
    """A line, a branch u*y^k + v*x^l, or a general conic through nothing in
    particular, all with rational coefficients."""
    shape = rng.choice(["line", "branch", "conic"])
    if shape == "line":
        return Poly2({(1, 0): _big_rational(rng), (0, 1): _big_rational(rng), (0, 0): _big_rational(rng)})
    if shape == "branch":
        k, l = rng.randint(1, 3), rng.randint(1, 3)
        return Poly2({(0, k): _big_rational(rng), (l, 0): _big_rational(rng)})
    return Poly2({(i, j): _big_rational(rng) for i in range(3) for j in range(3 - i)})


def _sympy_is_squarefree(poly: Poly2) -> bool:
    """Independent oracle: every multiplicity of sympy's squarefree
    decomposition of the expression is 1."""
    import sympy

    x, y = sympy.symbols("x y")
    expr = sum(sympy.Rational(c.numerator, c.denominator) * x**i * y**j for (i, j), c in poly.terms.items())
    return all(mult == 1 for _, mult in sympy.sqf_list(expr)[1])


def _degrees(f: Poly2) -> tuple[int, int]:
    return max(i for i, _ in f.terms), max(j for _, j in f.terms)


def _random_p_y(rng: random.Random) -> Poly2:
    """A quadratic in y alone with large rational coefficients."""
    return Poly2({(0, 2): _big_rational(rng), (0, 1): _big_rational(rng), (0, 0): _big_rational(rng)})


class TestSquarefree:
    def test_random_products_of_distinct_factors(self):
        rng = random.Random(5)
        for _ in range(25):
            f = ONE
            for _ in range(rng.randint(1, 3)):
                f = f * _random_factor(rng)
            assert _is_squarefree(f) == _sympy_is_squarefree(f)

    def test_repeated_factors(self):
        rng = random.Random(6)
        for _ in range(10):
            g, h = _random_factor(rng), _random_factor(rng)
            p_y = _random_p_y(rng)
            for f in (g * h**2, X**2 * g, p_y**2):
                assert _sympy_is_squarefree(f) is False
                assert _is_squarefree(f) is False

    def test_second_gcd_decides(self):
        # For f = y*g taken x-first, y divides gcd(f, f_x), so only the gcd
        # with f_y shows that f is squarefree; a squarefree p(y) has f_x = 0.
        rng = random.Random(7)
        for _ in range(10):
            g = _random_factor(rng) + Poly2.constant(_big_rational(rng))
            p_y = _random_p_y(rng)
            for f in (Y * g, p_y):
                assert _sympy_is_squarefree(f) is True
                assert _is_squarefree(f) is True

    # Mirror images: deg_y < deg_x sends these through the f_y-first branch.
    def test_mirror_repeated_factors(self):
        rng = random.Random(8)
        for _ in range(10):
            base = _random_factor(rng) * _random_factor(rng) ** 2
            if _degrees(base)[1] > _degrees(base)[0]:
                base = swap(base)
            while _degrees(base)[1] >= _degrees(base)[0]:
                base = base * (X + Poly2.constant(_big_rational(rng)))
            for f in (base, swap(_random_p_y(rng)) ** 2, Y * swap(_random_p_y(rng)) ** 2):
                assert _degrees(f)[1] < _degrees(f)[0]
                assert _sympy_is_squarefree(f) is False
                assert _is_squarefree(f) is False

    def test_mirror_second_gcd_decides(self):
        # For f = y*p(x), p = gcd(f, f_y), so only the gcd with f_x shows that
        # f is squarefree; a squarefree p(x) has f_y = 0.
        rng = random.Random(9)
        for _ in range(10):
            p_x = swap(_random_p_y(rng))
            for f in (Y * p_x, p_x):
                assert _degrees(f)[1] < _degrees(f)[0]
                assert _sympy_is_squarefree(f) is True
                assert _is_squarefree(f) is True

    # One case per branch of the certificate; in one of the two orientations
    # u is y, in the other x.
    @pytest.mark.parametrize(
        "f, expected",
        [
            # g(x) = x + (x - 1)(x + 1)(x - 2) agrees with x at 1, -1 and 2, so
            # f(a, y) = (y - a)^2 at every tried a: the bivariate gcds decide.
            ((Y - X) * (Y - X - (X - ONE) * (X + ONE) * (X - Poly2.constant(2))), True),
            # Swapped, the leading column (y - 1)^2 vanishes at a = 1, where f is 1.
            (((X - ONE) * Y + ONE) ** 2, False),
            # The content x^2 + 1 has no column that is a monomial.
            ((X**2 + ONE) ** 2 * (Y - X), False),
            ((X**2 + ONE) * (Y - X) * (Y + X), True),
            # u^2 divides f (L = 2).
            (X**2 * (Y - ONE), False),
        ],
    )
    def test_each_branch_of_the_certificate(self, f, expected):
        for g in (f, swap(f)):
            assert _sympy_is_squarefree(g) is expected
            assert _is_squarefree(g) is expected

    def test_small_coefficient_products(self):
        # With small integer coefficients the content gcd runs, and no tried a
        # certifies, far more often than with the large rationals above.
        rng = random.Random(10)
        for _ in range(60):
            f = ONE
            for _ in range(rng.randint(1, 3)):
                terms = {(i, j): rng.randint(-2, 2) for i in range(3) for j in range(3 - i)}
                factor = Poly2(terms)
                if factor.total_degree() > 0:
                    f = f * factor ** rng.choice([1, 1, 2])
            for g in (f, swap(f)):
                assert _is_squarefree(g) == _sympy_is_squarefree(g)


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

    @pytest.mark.parametrize("pt", [(0,), (0, 0, 0), "00", 5], ids=["one", "three", "string", "int"])
    def test_a_point_that_is_not_a_pair_is_refused(self, pt):
        with pytest.raises(InputError):
            multiplicity_at(CUSP, pt)

    def test_a_pair_as_a_list_or_of_strings(self):
        assert multiplicity_at(CUSP, [0, 0]) == 2
        assert multiplicity_at(SMOOTH, ("1/2", "1/4")) == 1


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

    def test_node_ids_outside_the_tree_raise_key_error(self):
        tree = resolve(CUSP)
        assert [tree.node(i).id for i in (1, 2, 3)] == [1, 2, 3]
        for bad in (4, 99, -9, 0, -1):
            with pytest.raises(KeyError):
                tree.node(bad)
        with pytest.raises(KeyError):
            blow_up_point(tree, 7, 0)

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

    @pytest.mark.parametrize("curve", [CUSP, SMOOTH], ids=["singular", "smooth"])
    def test_negative_depth_is_refused_before_any_work(self, curve, monkeypatch):
        def no_work(f):
            raise AssertionError("the curve was read")

        monkeypatch.setattr(curves, "_as_poly", no_work)
        for call in (
            lambda: resolve(curve, max_depth=-1),
            lambda: resolve(curve, -5),
            lambda: lct(curve, max_depth=-1),
            lambda: ideal_member(curve, 1, X, IdealKind.J, max_depth=-1),
        ):
            with pytest.raises(BadRangeError, match="max_depth must be at least 0"):
                call()

    def test_depth_is_read_as_an_integer(self):
        for depth in (3.0, "3"):
            assert resolve(CUSP, depth).nodes == resolve(CUSP, 3).nodes
        for depth in (1.5, "x"):
            with pytest.raises(BadRangeError):
                resolve(CUSP, depth)
            with pytest.raises(BadRangeError):
                lct(CUSP, max_depth=depth)
            with pytest.raises(BadRangeError):
                ideal_member(CUSP, 1, X, IdealKind.J, max_depth=depth)

    def test_depth_zero_resolves_only_a_smooth_germ(self):
        assert resolve(SMOOTH, max_depth=0).nodes == ()
        with pytest.raises(DepthExceededError):
            resolve(CUSP, max_depth=0)

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
        tree = resolve(CUSP)
        assert tree.k == {1: 1, 2: 2, 3: 4}
        assert tree.v == {1: 2, 2: 3, 3: 6}

    def test_node_table(self):
        tree = resolve(NODE)
        assert tree.k == {1: 1}
        assert tree.v == {1: 2}

    def test_empty_tree(self):
        tree = resolve(SMOOTH)
        assert tree.k == {} and tree.v == {}

    def test_tables_unrolled_once_per_tree(self, monkeypatch, capsys):
        calls = []

        def counted(tree, base):
            calls.append(tree)
            return _unroll(tree, base)

        monkeypatch.setattr("logpairs.curves._unroll", counted)
        cusp = json.dumps({"f": [[[0, 2], "1"], [[3, 0], "-1"]]})
        assert cli.main(["resolve-curve", cusp, "--c", "1/2,5/6"]) == cli.EXIT_OK
        capsys.readouterr()
        assert len(calls) == 2
        # An extension is a new tree: reading the parent's cached tables
        # first must not hand them to it.
        tree = resolve(CUSP)
        assert (tree.k, tree.v) == ({1: 1, 2: 2, 3: 4}, {1: 2, 2: 3, 3: 6})
        extended = blow_up_point(tree, 3, 0)
        assert (extended.k, extended.v) == ({1: 1, 2: 2, 3: 4, 4: 7}, {1: 2, 2: 3, 3: 6, 4: 9})
        assert (tree.k, tree.v) == ({1: 1, 2: 2, 3: 4}, {1: 2, 2: 3, 3: 6})


class TestPairDiscrepancies:
    def test_cusp_at_five_sixths(self):
        tree = resolve(CUSP)
        data = pair_discrepancies(tree, Fraction(5, 6))
        by_id = {r.id: r for r in data.rows}
        assert by_id["E1"].a == Fraction(-2, 3)
        assert by_id["E2"].a == Fraction(-1, 2)
        assert by_id["E3"].a == Fraction(-1)
        assert by_id["C"].a == Fraction(-5, 6)
        assert not by_id["C"].exceptional

    def test_node_at_one(self):
        tree = resolve(NODE)
        data = pair_discrepancies(tree, 1)
        by_id = {r.id: r for r in data.rows}
        assert by_id["E1"].a == Fraction(-1)
        assert by_id["C"].a == Fraction(-1)
        assert classify_resolved(data) is PairClass.LOG_CANONICAL

    def test_zero_boundary_is_strongly_canonical(self):
        for curve in (CUSP, NODE, TACNODE, TRIPLE):
            tree = resolve(curve)
            data = pair_discrepancies(tree, 0)
            assert all(r.a >= 0 for r in data.rows)
            assert classify_resolved(data) is PairClass.STRONGLY_CANONICAL

    def test_negative_coefficient_rejected(self):
        tree = resolve(CUSP)
        with pytest.raises(InputError):
            pair_discrepancies(tree, Fraction(-1, 2))


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
            threshold = tree_lct(tree)
            below = classify_resolved(pair_discrepancies(tree, threshold - Fraction(1, 24)))
            at = classify_resolved(pair_discrepancies(tree, threshold))
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
    denominators = set(tree.v.values()) | {1}
    candidates = sorted(
        {Fraction(n, q) for q in denominators for n in range(0, 2 * q + 1)}
    )
    previous = Fraction(0)
    for c in candidates:
        if not tree_ideal_member(tree, c, ONE, IdealKind.J):
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
        tree = resolve(curve)
        assert tree.k == {1: 1, 2: 2}
        assert tree.v == {1: 2, 2: 4}

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


class TestHowaldMonomialCurves:
    """Howald's theorem (Trans. AMS 353, 2001) for y^a = x^b with a, b
    coprime: for c < 1, x^i y^j lies in the multiplier ideal J(c*f) iff
    (i+1)/b + (j+1)/a > c.  The jumping numbers in (0, 1) are the values
    p/b + q/a below 1 with p, q >= 1."""

    @pytest.mark.parametrize("a, b", [(2, 3), (2, 5), (2, 7), (3, 4), (3, 5), (3, 7), (4, 5), (5, 7)])
    def test_membership_matches_closed_form(self, a, b):
        tree = resolve(AffineCurve(Y**a - X**b))
        values = {Fraction(p, b) + Fraction(q, a) for p in range(1, b) for q in range(1, a)}
        jumps = sorted(c for c in values if c < 1)
        ends = [Fraction(0), *jumps, Fraction(1)]
        grid = jumps + [(lo + hi) / 2 for lo, hi in zip(ends, ends[1:])]
        for c in grid:
            for i in range(b + 1):
                for j in range(a + 1):
                    expected = Fraction(i + 1, b) + Fraction(j + 1, a) > c
                    assert tree_ideal_member(tree, c, X**i * Y**j, IdealKind.J) == expected, (c, i, j)



class TestTwoPuiseuxPairs:
    """The branch (y^2 - x^3)^2 - x^k*y, k odd, has Puiseux characteristic
    (4; 6, 2k - 3).  Enriques' rule (Casas-Alvero, Singularities of Plane
    Curves, 2000) turns the Euclidean algorithms on 6/4 and (2k - 9)/2 into
    the multiplicity sequence 4, 2^(k-3), 1, 1 of k centers, and Igusa's
    formula for a branch (1977) gives lct = 1/4 + 1/6 = 5/12."""

    @pytest.mark.parametrize("k", range(5, 22, 2))
    def test_multiplicities_and_threshold(self, k, capsys):
        f = (Y**2 - X**3) ** 2 - X**k * Y
        tree = resolve(f)
        assert len(tree.nodes) == k
        assert [n.mult for n in tree.nodes] == [4] + [2] * (k - 3) + [1, 1]
        assert tree_lct(tree) == Fraction(5, 12)
        curve = json.dumps({"f": [[[i, j], str(c)] for (i, j), c in f.terms.items()]})
        assert cli.main(["resolve-curve", curve, "--c", "1/3,5/12,1/2", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        classes = {c: info["class"] for c, info in payload["classification"].items()}
        assert classes == {
            "1/3": "kawamata_log_terminal",
            "5/12": "log_canonical",
            "1/2": "not_log_canonical",
        }

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
                assert tree.k[node.id] >= 1 and tree.v[node.id] >= 1
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
        assert orders.by_divisor == tree.v
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
        polys = [X**i * Y**j for i in range(3) for j in range(3)]
        for g, c in itertools.product(polys, [Fraction(1, 4), Fraction(5, 6), Fraction(7, 6)]):
            in_h = tree_ideal_member(tree, c, g, IdealKind.H)
            in_j = tree_ideal_member(tree, c, g, IdealKind.J)
            in_i = tree_ideal_member(tree, c, g, IdealKind.I)
            assert (not in_h or in_j) and (not in_j or in_i)

    def test_h_trivial_iff_strongly_canonical(self):
        for curve in (CUSP, NODE, TACNODE):
            tree = resolve(curve)
            for c in (Fraction(0), Fraction(1, 4), Fraction(1), Fraction(3, 2)):
                data = pair_discrepancies(tree, c)
                has_positive = any(
                    ideal_threshold(IdealKind.H, r.a, r.b) > 0 for r in data.rows
                )
                assert has_positive == bool(loci_divisors(data).non_sc)

    def test_nonlc_iff_positive_perturbed_threshold(self):
        for curve in (CUSP, NODE):
            tree = resolve(curve)
            for c in (Fraction(1, 4), Fraction(5, 6), Fraction(1), Fraction(7, 6)):
                data = pair_discrepancies(tree, c)
                has_positive = any(
                    ideal_threshold(IdealKind.I, r.a, r.b) > 0 for r in data.rows
                )
                assert has_positive == bool(loci_divisors(data).non_lc)

    def test_log_canonical_case_is_the_reduced_ideal(self):
        # at the boundary coefficient, the node pair is log canonical and the
        # round-down ideal consists exactly of the multiples of the curve
        tree = resolve(NODE)
        assert classify_resolved(pair_discrepancies(tree, 1)) is PairClass.LOG_CANONICAL
        for i, j, e in itertools.product(range(4), range(4), range(3)):
            g = X**i * Y**j * NODE.poly**e
            member = tree_ideal_member(tree, 1, g, IdealKind.H)
            assert member == (e >= 1)


class TestResolutionIndependence:
    @staticmethod
    def assert_same_verdicts(tree, extended):
        polys = [X**i * Y**j * CUSP.poly**e for i in range(3) for j in range(3) for e in range(2)]
        for g, c, kind in itertools.product(
            polys, [Fraction(1, 4), Fraction(5, 6), Fraction(1), Fraction(7, 6)], IdealKind
        ):
            assert tree_ideal_member(tree, c, g, kind) == tree_ideal_member(extended, c, g, kind)

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
        assert (extended.k[4], extended.v[4]) == (1 + 4 + 2, 0 + 6 + 3)
        assert tree_lct(extended) == tree_lct(tree) == Fraction(5, 6)
        self.assert_same_verdicts(tree, extended)

    def test_a_center_the_tree_has_is_refused(self):
        # On y^2 - x^7, node 2 is the center at shift 0 on E1; a second copy
        # of it would give E6 the (k, v) of E2.
        tree = resolve(Y**2 - X**7)
        assert (tree.node(2).parent, tree.node(2).shift) == (1, 0)
        for node_id, shift in ((1, 0), (2, "0"), (3, Fraction(0))):
            with pytest.raises(InputError, match="already has a child at shift 0"):
                blow_up_point(tree, node_id, shift)
        assert blow_up_point(tree, 1, 1).nodes[-1] == (6, 1, 0, 1, 1, None)

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
        data = pair_discrepancies(tree, Fraction(5, 6))
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
        # Deep towers up to b = 300, and swapped ones with centers whose
        # x-axis divisor is the newer one, so a separated pair comes axis_x first.
        curves += [Y**2 - X**297, X**3 - Poly2.constant(Fraction(2, 3)) * Y**151, X**120 - Y**121]
        for _ in range(12):
            a = rng.choice([2, 3, 4])
            b = rng.choice([b for b in range(a + 1, 301) if math.gcd(a, b) == 1])
            c = Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 4))
            curves.append(Y**a - Poly2.constant(c) * X**b)
        for curve in curves:
            tree = resolve(curve, max_depth=400)
            data = pair_discrepancies(tree, Fraction(1, 2))
            strict = {frozenset((f"E{anc}", "C")) for anc in tree.curve_contacts}
            assert dual_graph_pair(tree, data).edges == nested_scan_edges(tree) | strict

    def test_rows_and_edges_for_every_c(self):
        # Random towers y^a - c*x^b and two-Puiseux-pair germs
        # (y^2 - c1*x^3)^2 - c2*x^k*y; rows against k - c*v and c*v in
        # Fraction, edges against the defining scan for every c.
        rng = random.Random(23)
        germs = []
        for _ in range(6):
            a = rng.choice([2, 3])
            b = rng.choice([b for b in range(a + 1, 120) if math.gcd(a, b) == 1])
            germs.append(Y**a - Poly2.constant(_big_rational(rng)) * X**b)
        for k in (5, 7, 9):
            cusp = Y**2 - Poly2.constant(_big_rational(rng)) * X**3
            germs.append(cusp**2 - Poly2.constant(_big_rational(rng)) * X**k * Y)
        for curve in germs:
            tree = resolve(curve, max_depth=200)
            strict = {frozenset((f"E{anc}", "C")) for anc in tree.curve_contacts}
            edges = nested_scan_edges(tree) | strict
            for c in (0, 1, 3, Fraction(5, 6), tree_lct(tree), Fraction(10**9 + 7, 10**9)):
                data = pair_discrepancies(tree, c)
                want = [(tree.k[n.id] - Fraction(c) * tree.v[n.id], Fraction(c) * tree.v[n.id]) for n in tree.nodes]
                want.append((-Fraction(c), Fraction(c)))
                assert [(r.a, r.b) for r in data.rows] == want
                assert all(type(r.a) is Fraction and type(r.b) is Fraction for r in data.rows)
                pair = dual_graph_pair(tree, data)
                assert pair.edges == edges
                assert pair.divisors == tuple((r.id, -r.a) for r in data.rows)

    def test_cusp_configuration(self):
        tree = resolve(CUSP)
        data = pair_discrepancies(tree, Fraction(5, 6))
        pair = dual_graph_pair(tree, data)
        edges = {tuple(sorted(e)) for e in pair.edges}
        assert edges == {("C", "E3"), ("E1", "E3"), ("E2", "E3")}
        assert classify(pair) is classify_resolved(data)

    def test_classification_matches_for_all_curves(self):
        for curve in (CUSP, NODE, TACNODE, TRIPLE):
            tree = resolve(curve)
            for c in (Fraction(0), Fraction(1, 2), Fraction(1)):
                data = pair_discrepancies(tree, c)
                assert classify(dual_graph_pair(tree, data)) is classify_resolved(data)



# The Fraction formulas the discrepancy table and its readers used before the
# table was stored as integers over one denominator, kept as references.
def _reference_rows(tree, c):
    c = Fraction(c)
    rows = [(f"E{n.id}", tree.k[n.id] - c * tree.v[n.id], c * tree.v[n.id]) for n in tree.nodes]
    return rows + [("C", -c, c)]


def _reference_class(rows):
    worst = min((a for _, a, _ in rows), default=0)
    if worst >= 0:
        return PairClass.STRONGLY_CANONICAL
    if worst > -1:
        return PairClass.KAWAMATA_LOG_TERMINAL
    if worst >= -1:
        return PairClass.LOG_CANONICAL
    return PairClass.NOT_LOG_CANONICAL


def _reference_threshold(kind, a, b):
    if kind is IdealKind.H:
        return -math.floor(a)
    if kind is IdealKind.J:
        return -math.ceil(a)
    if b > 0 and a.denominator == 1:
        return -int(a) - 1
    return -math.ceil(a)


_NONZERO = st.fractions(min_value=-50, max_value=50, max_denominator=10**9).filter(bool)


@st.composite
def _germs(draw) -> Poly2:
    """Towers y^a - c*x^b, two-Puiseux-pair germs and products of a branch
    with a transverse line, all with rational centers."""
    shape = draw(st.sampled_from(["tower", "two_pairs", "branch_line"]))
    c, s = draw(_NONZERO), draw(_NONZERO)
    if shape == "tower":
        a = draw(st.sampled_from([2, 3]))
        b = draw(st.integers(a + 1, 40).filter(lambda b: math.gcd(a, b) == 1))
        return Y**a - Poly2.constant(c) * X**b
    if shape == "two_pairs":
        k = draw(st.sampled_from([5, 7, 9, 11]))
        return (Y**2 - Poly2.constant(s * s) * X**3) ** 2 - Poly2.constant(c) * X**k * Y
    b = draw(st.integers(3, 9))
    return (Y**2 - Poly2.constant(s * s) * X**b) * (Y - Poly2.constant(c) * X)


class TestIntegerTableMatchesFractionFormulas:
    TEST_POLYS = [X**i * Y**j for i in range(4) for j in range(3)]

    @settings(max_examples=30, deadline=None)
    @given(_germs(), st.integers(1, 10**9 - 1))
    def test_tables_classes_and_verdicts(self, f, p):
        tree = resolve(f, max_depth=100)
        threshold = tree_lct(tree)
        near = Fraction(10**9 + 7, 10**9)
        for c in (0, 1, 2, threshold, threshold - Fraction(1, 10**9), Fraction(p, 10**9 + 9), near):
            data = pair_discrepancies(tree, c)
            rows = _reference_rows(tree, c)
            assert [(r.id, r.a, r.b) for r in data.rows] == rows
            assert all(type(r.a) is Fraction and type(r.b) is Fraction for r in data.rows)
            assert classify_resolved(data) is _reference_class(rows)
            loci = loci_divisors(data)
            assert loci.non_sc == {i for i, a, _ in rows if a < 0}
            assert loci.non_klt == {i for i, a, _ in rows if a <= -1}
            assert loci.non_lc == {i for i, a, _ in rows if a < -1}
            assert vojta_reduced_divisor(data) == {i for i, a, b in rows if a.denominator != 1 or b > 0}
            for g in self.TEST_POLYS:
                orders = ord_along(tree, g)
                have = [orders.by_divisor[n.id] for n in tree.nodes] + [orders.strict]
                for kind in IdealKind:
                    want = all(w >= _reference_threshold(kind, a, b) for w, (_, a, b) in zip(have, rows))
                    assert tree_ideal_member(tree, c, g, kind) == want, (c, g, kind)


@st.composite
def _towers(draw) -> Poly2:
    """y^a - c*x^b with b up to 150, or its swap x^a - c*y^b, whose centers
    are a run of vertical-chart children rather than of x-chart ones."""
    a = draw(st.sampled_from([2, 3]))
    b = draw(st.integers(a + 1, 150).filter(lambda b: math.gcd(a, b) == 1))
    tower = Y**a - Poly2.constant(draw(_NONZERO)) * X**b
    return swap(tower) if draw(st.booleans()) else tower


def _twin(f: Poly2) -> Poly2:
    """A polynomial equal to f that is not f."""
    return Poly2(dict(f.terms))


class TestMemo:
    """A repeated curve reuses its squarefree answer and its centers, never a tree."""

    def test_an_equal_curve_makes_no_gcd(self, monkeypatch):
        import sympy

        f = Y**2 - X**3 + X**5 * Y
        gcd_calls = count_calls(monkeypatch, sympy, "gcd")
        AffineCurve(f)
        first = gcd_calls[0]
        AffineCurve(_twin(f))
        assert first > 0 and gcd_calls == [first]

    def test_a_repeated_factor_is_refused_every_time(self):
        for _ in range(3):
            with pytest.raises(InputError, match="squarefree"):
                AffineCurve((Y - X) ** 2 * (Y + X))
        assert curves._is_squarefree.cache_info().hits == 2

    def test_an_equal_poly_gets_the_centers_in_its_own_tree(self, monkeypatch):
        f = Y**2 - X**7
        first = resolve(f)
        k = dict(first.k)
        blowups = count_calls(monkeypatch, Poly2, "blowup_x")
        twin = _twin(f)
        second = resolve(twin)
        assert blowups == [0]
        assert second is not first and second.curve is twin
        assert (second.nodes, second.curve_contacts) == (first.nodes, first.curve_contacts)
        second.k[1] = 99
        assert resolve(f).k == k == first.k

    def test_a_shallower_depth_still_raises(self):
        tower = Y**2 - Poly2.constant(3) * X**151
        first = resolve(tower, 400)
        assert len(first.nodes) == 77
        for depth in (1, 76):
            with pytest.raises(DepthExceededError):
                resolve(tower, depth)
        # The kept tree's own depth is a hit.
        assert resolve(tower, 77).nodes is first.nodes

    def test_a_non_rational_center_raises_every_time(self):
        for _ in range(2):
            with pytest.raises(NonRationalCenterError):
                resolve(Y**2 - Poly2.constant(2) * X**2)

    @settings(max_examples=20, deadline=None)
    @given(_germs())
    def test_a_hit_matches_a_fresh_resolve(self, f):
        def read(tree):
            return tree.nodes, tree.curve_contacts, tree.k, tree.v, tree_lct(tree)

        curves._CENTERS.clear()
        first = resolve(f, max_depth=100)
        second = resolve(_twin(f), max_depth=100)
        assert second.nodes is first.nodes  # the stored centers, not found again
        hit = read(second)
        curves._CENTERS.clear()
        assert hit == read(resolve(f, max_depth=100))

    @settings(max_examples=25, deadline=None)
    @given(_germs() | _towers())
    def test_every_bound_reads_as_a_fresh_resolve(self, f):
        # After a resolve at depth 400, a resolve at any bound d gives the
        # nodes and contacts, or the DepthExceededError, of a fresh resolve
        # at d; the needed depth is the deepest node's, counted here from
        # the parents.
        def outcome(depth):
            try:
                tree = resolve(f, depth)
            except DepthExceededError as exc:
                return type(exc), str(exc)
            return tree.nodes, tree.curve_contacts

        curves._CENTERS.clear()
        full = resolve(f, 400)
        depths = {None: 0}
        for node in full.nodes:
            depths[node.id] = depths[node.parent] + 1
        needed = max(depths.values())
        assert curves._CENTERS[f][0] == needed
        for depth in range(needed + 2):
            curves._CENTERS.clear()
            full = resolve(f, 400)
            hit = outcome(depth)
            if depth >= needed:
                assert hit[0] is full.nodes
            curves._CENTERS.clear()
            assert hit == outcome(depth), depth
            assert (hit[0] is DepthExceededError) == (depth < needed)


class TestMemoTraffic:
    """The benchmark's job patterns through the public entry points: germs
    run resolve-curve and then member for H, J and I, towers resolve-curve and
    then ideal_member.  Each curve costs one squarefree check and one centers
    computation, and the centers memo keeps one entry after every job."""

    def test_each_curve_is_checked_and_resolved_once(self, monkeypatch):
        blowups = count_calls(monkeypatch, Poly2, "blowup_x")
        computed = [0]
        centers = curves._centers

        def counted(poly, max_depth):
            before = blowups[0]
            found = centers(poly, max_depth)
            computed[0] += blowups[0] > before  # a hit blows up nothing
            return found

        monkeypatch.setattr(curves, "_centers", counted)
        tower = Y**2 - Poly2.constant(3) * X**151
        two_branches = (Y**2 - X**3) * (Y**3 - Poly2.constant(2) * X**5)
        for f in (CUSP.poly, X * Y * (Y - X), two_branches, tower):
            curve = json.dumps({"f": [[[i, j], str(c)] for (i, j), c in f.terms.items()]})
            argvs = [["resolve-curve", curve, "--max-depth", "400", "--json"]]
            if f is not tower:
                member = ["member", curve, "--c", "1/2", "--g", '[[[0, 1], "1"]]', "--json", "--kind"]
                argvs += [[*member, kind] for kind in "HJI"]
            misses, computed[0] = curves._is_squarefree.cache_info().misses, 0
            for argv in argvs:
                assert cli.main(argv) == 0
                assert len(curves._CENTERS) <= 1
            if f is tower:
                read = AffineCurve.from_json(json.loads(curve))
                curves.ideal_member(read, Fraction(1, 2), X, IdealKind.J, max_depth=400)
                assert len(curves._CENTERS) <= 1
            assert (curves._is_squarefree.cache_info().misses - misses, computed[0]) == (1, 1), f


def _sympy_rational_roots(coeffs):
    """Rational roots with their multiplicities, and the irrational-factor
    flag, from a direct sympy factorization of the whole polynomial."""
    import sympy

    t = sympy.Symbol("t")
    expr = sum(sympy.Rational(c.numerator, c.denominator) * t**j for j, c in enumerate(coeffs))
    poly = sympy.Poly(expr, t, domain="QQ")
    if poly.degree() <= 0:
        return [], False
    roots, irrational = [], False
    for factor, mult in poly.factor_list()[1]:
        if factor.degree() == 1:
            lead, const = (Fraction(int(c.p), int(c.q)) for c in factor.all_coeffs())
            roots.append((-const / lead, mult))
        else:
            irrational = True
    return sorted(roots), irrational


def _roots_and_flag(coeffs):
    """The distinct rational roots of ``_rational_roots``, without their
    multiplicities, and its irrational-factor flag."""
    roots, irrational = _rational_roots(coeffs)
    return [t for t, _ in roots], irrational


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
                assert _roots_and_flag(coeffs) == ([Fraction(0)] if k else [], False)
                assert _rational_roots(coeffs) == ([(Fraction(0), k)] if k else [], False)
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
        assert _roots_and_flag(self._dense({0: -2, 2: 1})) == ([], True)
        assert _roots_and_flag(self._dense({0: -1, 2: 1})) == ([Fraction(-1), Fraction(1)], False)

    def test_repeated_factors(self):
        # t^3 (t - 1/2)^2 (t + 3), (t - 1)^3 (t^2 + 2)^2, t (2t + 1)^4 (t - 5)
        # and (t + 3)^2 (3t - 2): each multiplicity is read off the
        # construction and off sympy's factor_list of the whole polynomial.
        half, three = Fraction(1, 2), Fraction(3)
        cases = [
            ([(-half, 1)] * 2 + [(three, 1)], 3, [(Fraction(-3), 1), (Fraction(0), 3), (half, 2)], False),
            ([(Fraction(-1), 1)] * 3 + [(Fraction(2), 0, 1)] * 2, 0, [(Fraction(1), 3)], True),
            ([(Fraction(1), 2)] * 4 + [(Fraction(-5), 1)], 1, [(-half, 4), (Fraction(0), 1), (Fraction(5), 1)], False),
            ([(three, 1)] * 2 + [(Fraction(-2), 3)], 0, [(Fraction(-3), 2), (Fraction(2, 3), 1)], False),
        ]
        for factors, k, roots, irrational in cases:
            coeffs = [Fraction(1)]
            for factor in factors:
                coeffs = _dense_product(coeffs, list(factor))
            coeffs = [Fraction(0)] * k + coeffs
            assert _rational_roots(coeffs) == (roots, irrational)
            assert _rational_roots(coeffs) == _sympy_rational_roots(coeffs)

    def test_random_parts_with_rational_coefficients(self):
        # Products of linear factors t - r and irreducible quadratics
        # t^2 + q (q > 0), scaled and shifted by t^k: the roots, their
        # multiplicities and the flag are known by construction.
        rng = random.Random(12)
        for _ in range(60):
            degree = rng.randint(2, 5)
            coeffs = [_big_rational(rng)]
            roots, irrational = Counter(), False
            while len(coeffs) <= degree:
                if rng.random() < 0.3 and len(coeffs) < degree:
                    q = abs(_big_rational(rng))
                    factor, irrational = [q, Fraction(0), Fraction(1)], True
                else:
                    r = rng.choice([Fraction(0), _big_rational(rng), Fraction(rng.randint(-3, 3), 7)])
                    factor = [-r, Fraction(1)]
                    roots[r] += 1
                coeffs = _dense_product(coeffs, factor)
            k = rng.randint(0, 2)
            coeffs = [Fraction(0)] * k + coeffs
            if k:
                roots[Fraction(0)] += k
            assert _rational_roots(coeffs) == _sympy_rational_roots(coeffs)
            assert _rational_roots(coeffs) == (sorted(roots.items()), irrational)


def _dense_product(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, u in enumerate(a):
        for j, v in enumerate(b):
            out[i + j] += u * v
    return out
