import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from logpairs import places
from logpairs.errors import (
    AllZeroError,
    DimensionMismatchError,
    MalformedPolynomialError,
    NotPrimeError,
    NotPrimitiveError,
    SupportPointError,
    ZeroInputError,
)
from logpairs.heights import (
    HomogPoly,
    ProjPoint,
    Subscheme,
    arakelov_decompose,
    counting_gcd,
    normalize_point,
    subscheme_product,
    subscheme_union_generators,
    weil_arch_ratio,
    weil_finite_valuation,
    weil_local,
)
from logpairs.places import Place

V01 = Subscheme.of_coordinates(3, (0, 1))


def pt(*coords):
    return normalize_point(coords)


class TestNormalizePoint:
    def test_clears_denominators(self):
        assert pt(Fraction(2, 3), 4, 0).coords == (1, 6, 0)

    def test_already_primitive(self):
        assert pt(0, 0, 1).coords == (0, 0, 1)

    def test_sign_convention(self):
        assert pt(-3, -6, -9).coords == (1, 2, 3)

    def test_all_zero_rejected(self):
        for raw in ([0, 0, 0], [0], [Fraction(0), 0], ()):
            with pytest.raises(AllZeroError):
                normalize_point(raw)
        for coords in [(), (0, 0, 0)]:
            with pytest.raises(AllZeroError):
                ProjPoint(coords)

    def test_invariants_enforced(self):
        with pytest.raises(ValueError):
            ProjPoint((2, 4, 6))
        with pytest.raises(ValueError):
            ProjPoint((-1, 2, 3))

    def test_invariant_errors_are_typed(self):
        # the gcd is taken over signed coordinates, so a common factor is
        # caught whatever the signs
        for coords in [(2, 4, 6), (0, -1, 3), (-2, 4, 6), (0, -2, 4), (0, 0, -3), (0, -1, 2), (1.5, 1), ("a", 1)]:
            with pytest.raises(NotPrimitiveError):
                ProjPoint(coords)

    def test_integer_path_matches_rational_path(self):
        rng = random.Random(61)
        cases = [(0, 0, -5), (0, -4, 6), (-6, 0, 9), (12, -18, 30), (-(10**30), 10**20, 0)]
        for _ in range(300):
            factor = rng.choice([1, -1, 2, -6, 35, 10**12])
            size = rng.randint(1, 4)
            coords = tuple(factor * rng.choice([0, rng.randint(-50, 50)]) for _ in range(size))
            if any(coords):
                cases.append(coords)
        for coords in cases:
            point = normalize_point(coords)
            assert point == normalize_point([Fraction(c) for c in coords])
            assert point == normalize_point([Fraction(c, 7) for c in coords])
            assert all(type(c) is int for c in point.coords)


@st.composite
def homog_inputs(draw):
    """Raw ``from_terms`` input in 1-4 variables, some of it cancelling,
    and a point with small or 30-digit coordinates of either sign."""
    n = draw(st.integers(1, 4))
    d = draw(st.integers(0, 5))
    # a monomial of degree d is a multiset of d variable indices, so every
    # index not drawn gets exponent 0
    monomial = st.lists(st.integers(0, n - 1), min_size=d, max_size=d).map(
        lambda idx: tuple(idx.count(k) for k in range(n))
    )
    coeff = st.integers(-(10**30), 10**30) | st.integers(-3, 3)
    terms = draw(st.lists(st.tuples(monomial, coeff), min_size=1, max_size=6))
    terms += [(e, -c) for e, c in draw(st.lists(st.sampled_from(terms), max_size=3))]
    coord = st.integers(-(10**30), 10**30) | st.integers(-5, 5)
    return n, terms, draw(st.lists(coord, min_size=n, max_size=n))


class TestHomogPolyEvaluate:
    @given(homog_inputs())
    @example((1, [((3,), 2)], [-(10**29) - 7]))
    @example((4, [((0, 2, 0, 1), 5), ((1, 0, 2, 0), -1), ((0, 0, 0, 3), 4)], [-2, 0, 3, -(10**30)]))
    @example((3, [((1, 1, 0), 2), ((1, 1, 0), -2), ((0, 0, 2), 1)], [7, -7, 9]))
    def test_matches_the_naive_sum(self, case):
        n, terms, coords = case
        naive = sum(c * math.prod(x**e for x, e in zip(coords, exps)) for exps, c in terms)
        try:
            poly = HomogPoly.from_terms(n, terms)
        except ZeroInputError:
            assert naive == 0
            return
        assert poly.evaluate(coords) == naive
        assert poly.evaluate(tuple(coords)) == naive


class TestWeilLocal:
    def test_finite_place(self):
        # v_2 values of (4, 6) are (2, 1); the minimum gives one factor of 2
        assert weil_local(V01, pt(4, 6, 1), Place.finite(2)) == math.log(2)

    def test_archimedean(self):
        # min(-log(4/6), -log(6/6)) = 0
        assert weil_local(V01, pt(4, 6, 1), Place.archimedean()) == 0.0

    def test_support_is_infinite(self):
        assert weil_local(V01, pt(0, 0, 1), Place.finite(3)) == math.inf
        assert weil_local(V01, pt(0, 0, 1), Place.archimedean()) == math.inf

    def test_nonnegative_at_finite_places(self):
        rng = random.Random(7)
        for _ in range(50):
            coords = [rng.randint(-9, 9) for _ in range(3)]
            if all(c == 0 for c in coords):
                continue
            x = pt(*coords)
            for p in (2, 3, 5):
                assert weil_local(V01, x, Place.finite(p)) >= 0.0

    def test_finite_place_prime_is_not_tested_again(self, monkeypatch):
        # Place checked its prime; weil_finite_valuation checks the one it is given
        place, x = Place.finite(7), pt(49, 14, 1)
        tested = []
        is_prime = places.is_prime
        monkeypatch.setattr(places, "is_prime", lambda n: tested.append(n) or is_prime(n))
        assert weil_local(V01, x, place) == math.log(7)
        assert weil_local(V01, pt(0, 0, 1), place) == math.inf
        assert tested == []
        assert weil_finite_valuation(V01, x, 7) == 1
        assert tested == [7]
        with pytest.raises(NotPrimeError):
            weil_finite_valuation(V01, x, 8)


class TestArakelovDecompose:
    def test_counting_from_gcd(self):
        triple = arakelov_decompose(V01, pt(4, 6, 1))
        assert triple.N == math.log(2)
        assert triple.m == 0.0
        assert triple.h == math.log(2)

    def test_single_coordinate(self):
        # one generator x0: the gcd is just |x0|
        z = Subscheme.of_coordinates(3, (0,))
        assert arakelov_decompose(z, pt(6, 1, 1)).N == math.log(6)

    def test_archimedean_proximity_of_a_close_point(self):
        # (1:0:5) is archimedean-close to (0:0:1): ratio max(1,0)/5 gives log 5
        triple = arakelov_decompose(V01, pt(1, 0, 5))
        assert triple.N == 0.0
        assert triple.m == pytest.approx(math.log(5), abs=0)
        assert triple.h == triple.N + triple.m

    def test_support_point_rejected(self):
        with pytest.raises(SupportPointError):
            arakelov_decompose(V01, pt(0, 0, 1))

    def test_decomposition_identity(self):
        rng = random.Random(11)
        for _ in range(100):
            coords = [rng.randint(-50, 50) for _ in range(3)]
            if all(c == 0 for c in coords):
                continue
            x = pt(*coords)
            if counting_gcd(V01, x) == 0:
                continue
            triple = arakelov_decompose(V01, x)
            assert abs(triple.h - (triple.N + triple.m)) <= 1e-9
            assert triple.N >= 0.0


class TestTypeValidation:
    def test_homog_poly_degree_mismatch(self):
        with pytest.raises(ValueError):
            HomogPoly(num_vars=3, degree=2, terms=(((1, 0, 0), 1),))

    def test_homog_poly_duplicate_exponents(self):
        with pytest.raises(ValueError):
            HomogPoly(num_vars=3, degree=1, terms=(((1, 0, 0), 1), ((1, 0, 0), 2)))

    def test_subscheme_variable_mismatch(self):
        with pytest.raises(ValueError):
            Subscheme((HomogPoly.coordinate(3, 0), HomogPoly.coordinate(4, 0)))

    def test_cancelling_terms_rejected(self):
        with pytest.raises(ValueError):
            HomogPoly.from_terms(3, [((1, 0, 0), 1), ((1, 0, 0), -1)])

    def test_constructor_errors_are_typed(self):
        with pytest.raises(MalformedPolynomialError):
            HomogPoly(num_vars=3, degree=2, terms=(((1, 0, 0), 1),))
        with pytest.raises(MalformedPolynomialError):
            HomogPoly(num_vars=3, degree=1, terms=(((1, 0), 1),))
        with pytest.raises(MalformedPolynomialError):
            HomogPoly(num_vars=3, degree=1, terms=(((1, 0, 0), 0),))
        with pytest.raises(MalformedPolynomialError):
            HomogPoly(num_vars=3, degree=1, terms=(((1, 0, 0), 1), ((1, 0, 0), 2)))
        with pytest.raises(DimensionMismatchError):
            HomogPoly.coordinate(3, 0) * HomogPoly.coordinate(4, 0)
        with pytest.raises(DimensionMismatchError):
            Subscheme((HomogPoly.coordinate(3, 0), HomogPoly.coordinate(4, 0)))
        with pytest.raises(MalformedPolynomialError):
            Subscheme((HomogPoly.coordinate(3, 0), 1))
        with pytest.raises(DimensionMismatchError):
            V01.values_at(ProjPoint((1, 2, 3, 4)))

    @pytest.mark.parametrize(
        "data",
        [
            {"n": 2, "terms": [[[1, 0, 0], 1.5]]},
            {"n": 2, "terms": [[[1, 0, 0], "3/2"]]},
            {"n": 2, "terms": [[[1.5, 0, 0], "1"]]},
            {"n": 2.7, "terms": [[[1, 0, 0], "1"]]},
            {"n": "x", "terms": [[[1, 0, 0], "1"]]},
        ],
    )
    def test_non_integral_json_rejected(self, data):
        with pytest.raises(MalformedPolynomialError):
            HomogPoly.from_json(data)

    def test_integral_json_of_any_type_accepted(self):
        parsed = HomogPoly.from_json({"n": "2", "terms": [[["1", 0, 0], "2"], [[0, 1.0, 0], 3.0]]})
        assert parsed == HomogPoly.from_terms(3, [((1, 0, 0), 2), ((0, 1, 0), 3)])


def random_subscheme(rng, max_gens=3, max_degree=3) -> Subscheme:
    gens = []
    for _ in range(rng.randint(1, max_gens)):
        degree = rng.randint(1, max_degree)
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


def _mono(*exps) -> HomogPoly:
    return HomogPoly.from_terms(3, [(exps, 1)])


def _naive_value(g: HomogPoly, coords) -> int:
    return sum(c * math.prod(x**e for x, e in zip(coords, exps)) for exps, c in g.terms)


@st.composite
def generator_sets(draw):
    """1-3 generators in 3 variables, each of degree 1-3 with distinct
    monomials and nonzero coefficients."""
    gens = []
    for degree in draw(st.lists(st.integers(1, 3), min_size=1, max_size=3)):
        monomial = st.lists(st.integers(0, 2), min_size=degree, max_size=degree).map(
            lambda idx: tuple(idx.count(k) for k in range(3))
        )
        coeff = st.integers(-(10**6), 10**6).filter(bool)
        terms = draw(st.dictionaries(monomial, coeff, min_size=1, max_size=4))
        gens.append(HomogPoly.from_terms(3, terms.items()))
    return tuple(gens)


def points_p2():
    coord = st.integers(-(10**12), 10**12) | st.integers(-5, 5)
    return st.tuples(coord, coord, coord).filter(any)


def random_point(rng) -> ProjPoint:
    while True:
        coords = [rng.randint(-30, 30) for _ in range(3)]
        if any(coords):
            return pt(*coords)


class TestStructuredIdentities:
    """Exact additivity and monotonicity through the integer/rational layer."""

    def test_product_additivity_exact(self):
        rng = random.Random(2024)
        for _ in range(60):
            z1 = random_subscheme(rng)
            z2 = random_subscheme(rng)
            prod = subscheme_product(z1, z2)
            for _ in range(5):
                x = random_point(rng)
                g1, g2 = counting_gcd(z1, x), counting_gcd(z2, x)
                if g1 == 0 or g2 == 0:
                    continue
                assert counting_gcd(prod, x) == g1 * g2
                assert weil_arch_ratio(prod, x) == weil_arch_ratio(z1, x) * weil_arch_ratio(z2, x)
                for p in (2, 3, 5):
                    s = weil_finite_valuation(z1, x, p) + weil_finite_valuation(z2, x, p)
                    assert weil_finite_valuation(prod, x, p) == s

    def test_union_is_minimum(self):
        rng = random.Random(99)
        for _ in range(60):
            z1 = random_subscheme(rng)
            z2 = random_subscheme(rng)
            union = subscheme_union_generators(z1, z2)
            x = random_point(rng)
            for place in (Place.archimedean(), Place.finite(2), Place.finite(7)):
                lhs = weil_local(union, x, place)
                rhs = min(weil_local(z1, x, place), weil_local(z2, x, place))
                assert lhs == rhs

    def test_arch_ratio_matches_per_generator_fractions(self):
        # the integer max over |f(x)| * M^(D - deg f) against the max of one
        # Fraction |f(x)| / M^deg f per generator, on mixed-degree generators
        def per_generator_max(Z, x):
            m = max(abs(c) for c in x.coords)
            pairs = zip(Z.generators, Z.values_at(x))
            return max([Fraction(abs(v), m**g.degree) for g, v in pairs] + [Fraction(0)])

        rng = random.Random(77)
        for _ in range(60):
            z1, z2 = random_subscheme(rng), random_subscheme(rng)
            for z in (z1, subscheme_product(z1, z2), subscheme_union_generators(z1, z2)):
                for x in [random_point(rng) for _ in range(4)] + [pt(0, 0, 1), pt(1, 0, 0)]:
                    ratio = weil_arch_ratio(z, x)
                    assert type(ratio) is Fraction
                    assert ratio == per_generator_max(z, x)

    @given(generator_sets(), generator_sets(), points_p2())
    @example((_mono(1, 0, 0), _mono(0, 3, 0)), (_mono(0, 0, 2),), (1, 2, 3))
    @example((_mono(0, 2, 0), _mono(1, 0, 0)), (_mono(0, 0, 3), _mono(1, 1, 0)), (-(10**12), 7, 1))
    def test_arch_ratio_on_mixed_degrees(self, gens_a, gens_b, raw):
        # against one Fraction |g(x)| / M^deg g per generator, with g(x)
        # summed from the terms; the union of degrees 1, 3 and 2 has its top
        # degree inside the tuple, not at either end
        x = normalize_point(raw)
        m = max(abs(c) for c in x.coords)
        a, b = Subscheme(gens_a), Subscheme(gens_b)
        for z in (subscheme_product(a, b), subscheme_union_generators(a, b)):
            expected = max(Fraction(abs(_naive_value(g, x.coords)), m**g.degree) for g in z.generators)
            ratio = weil_arch_ratio(z, x)
            assert type(ratio) is Fraction
            assert ratio == expected

    def test_superset_monotone(self):
        rng = random.Random(5)
        for _ in range(60):
            z = random_subscheme(rng)
            extra = random_subscheme(rng, max_gens=1)
            bigger = subscheme_union_generators(z, extra)
            x = random_point(rng)
            for place in (Place.archimedean(), Place.finite(3)):
                assert weil_local(bigger, x, place) <= weil_local(z, x, place)
