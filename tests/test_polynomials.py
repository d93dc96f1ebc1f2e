import math
import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from logpairs.errors import MalformedPolynomialError, ZeroInputError
from logpairs.polynomials import Poly2, clear_denominators, univariate_gcd

X, Y = Poly2.x(), Poly2.y()


def random_poly(rng, max_degree=4, max_terms=5) -> Poly2:
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        i = rng.randint(0, max_degree)
        j = rng.randint(0, max_degree - i)
        terms[(i, j)] = terms.get((i, j), 0) + Fraction(rng.randint(-6, 6), rng.randint(1, 3))
    p = Poly2(terms)
    return p if not p.is_zero else Poly2.constant(1)


small_coeffs = st.integers(min_value=-5, max_value=5)


class TestArithmetic:
    def test_ring_identities(self):
        rng = random.Random(1)
        for _ in range(50):
            f, g, h = (random_poly(rng) for _ in range(3))
            assert (f + g) * h == f * h + g * h
            assert f * g == g * f
            assert f - f == Poly2()

    def test_evaluation_is_a_homomorphism(self):
        rng = random.Random(2)
        for _ in range(50):
            f, g = random_poly(rng), random_poly(rng)
            a, b = Fraction(rng.randint(-5, 5), 3), Fraction(rng.randint(-5, 5), 2)
            assert (f * g).evaluate(a, b) == f.evaluate(a, b) * g.evaluate(a, b)
            assert (f + g).evaluate(a, b) == f.evaluate(a, b) + g.evaluate(a, b)

    def test_order_and_degree(self):
        f = X**2 * Y + X**5
        assert f.order() == 3
        assert f.total_degree() == 5
        with pytest.raises(ZeroInputError):
            Poly2().order()

    def test_translate_round_trip(self):
        rng = random.Random(3)
        for _ in range(30):
            f = random_poly(rng)
            a, b = Fraction(rng.randint(-4, 4)), Fraction(rng.randint(-4, 4))
            assert f.translate(a, b).translate(-a, -b) == f


class TestBlowupSubstitutions:
    def test_chart_x_identity(self):
        # f(x, x*(y+t)) must equal x^k times the strict transform
        rng = random.Random(4)
        for _ in range(40):
            f = random_poly(rng)
            t = Fraction(rng.randint(-3, 3), 2)
            strict, k = f.blowup_x(t)
            for a, b in [(2, 3), (Fraction(1, 2), -1), (-3, Fraction(2, 5))]:
                a, b = Fraction(a), Fraction(b)
                assert strict.evaluate(a, b) * a**k == f.evaluate(a, a * (b + t))

    def test_chart_y_identity(self):
        rng = random.Random(5)
        for _ in range(40):
            f = random_poly(rng)
            strict, k = f.blowup_y()
            for a, b in [(2, 3), (Fraction(1, 2), -1), (-3, Fraction(2, 5))]:
                a, b = Fraction(a), Fraction(b)
                assert strict.evaluate(a, b) * b**k == f.evaluate(a * b, b)

    def test_strip_power_is_origin_multiplicity(self):
        f = (Y - X**2) * (Y + X) * X
        assert f.blowup_x()[1] == f.order() == 3

    def test_chart_x_identity_at_zero_shift(self):
        rng = random.Random(7)
        for _ in range(40):
            f = random_poly(rng)
            strict, k = f.blowup_x(0)
            assert (strict, k) == f.blowup_x(Fraction(0))
            for a, b in [(2, 3), (Fraction(1, 2), -1), (-3, Fraction(2, 5))]:
                a, b = Fraction(a), Fraction(b)
                assert strict.evaluate(a, b) * a**k == f.evaluate(a, a * b)


class TestZeroShifts:
    def test_translate_matches_shifted_evaluation(self):
        rng = random.Random(8)
        for _ in range(40):
            f = random_poly(rng)
            t = Fraction(rng.choice([-3, -1, 2, 5]), rng.randint(1, 3))
            for a, b in [(0, 0), (0, t), (t, 0), (t, -t)]:
                g = f.translate(a, b)
                for u, v in [(2, 3), (Fraction(1, 2), -1), (-3, Fraction(2, 5))]:
                    u, v = Fraction(u), Fraction(v)
                    assert g.evaluate(u, v) == f.evaluate(u + a, v + b)

    def test_zero_translate_is_unchanged(self):
        rng = random.Random(9)
        for _ in range(20):
            f = random_poly(rng)
            assert f.translate(0, 0) == f
            assert f.translate(Fraction(0), 0) == f

    def test_translate_in_y_keeps_powers_of_x(self):
        f = X**3 * Y**2 - Poly2.constant(Fraction(7, 2)) * X * Y + Y**4
        shifted = f.translate(0, Fraction(-2, 3))
        assert {i for i, _ in shifted.terms} <= {i for i, _ in f.terms}


class TestIntegerEvaluate:
    def test_matches_fraction_path(self):
        rng = random.Random(10)
        for _ in range(50):
            f = random_poly(rng)
            integral = Poly2({k: c.numerator for k, c in f.terms.items()})
            for p in (f, integral):
                for a, b in [(0, 0), (2, -3), (-7, 5), (10**12, -(10**9))]:
                    value = p.evaluate(a, b)
                    assert type(value) is Fraction
                    assert value == p.evaluate(Fraction(a), Fraction(b))

    def test_non_integer_coefficients(self):
        f = Poly2({(2, 0): Fraction(1, 2), (0, 1): 3})
        assert f.evaluate(3, 1) == Fraction(15, 2)
        assert f.evaluate(Fraction(1, 3), 2) == Fraction(109, 18)

    def test_non_integral_coefficient_after_integral_ones(self):
        # the integer pass has summed some terms when it meets the fraction
        integral = [((0, 0), 2), ((1, 0), -3), ((1, 1), 5), ((0, 3), 7)]
        for at in range(len(integral) + 1):
            terms = integral[:at] + [((2, 1), Fraction(-1, 6))] + integral[at:]
            f = Poly2(terms)
            assert list(f.terms)[at] == (2, 1)
            for a, b in [(0, 0), (4, -3), (-5, 2), (10**9, 7)]:
                expected = sum(
                    Fraction(c) * Fraction(a) ** i * Fraction(b) ** j for (i, j), c in terms
                )
                value = f.evaluate(a, b)
                assert type(value) is Fraction
                assert value == expected


class TestExactDivision:
    def test_product_division_round_trip(self):
        rng = random.Random(6)
        for _ in range(60):
            f, g = random_poly(rng), random_poly(rng)
            assert (f * g).divide_exact(g) == f

    def test_non_divisible_returns_none(self):
        assert (X * Y + Poly2.constant(1)).divide_exact(X) is None
        assert (Y**2 - X**3).divide_exact(Y - X) is None

    def test_divide_by_zero_rejected(self):
        with pytest.raises(ZeroInputError):
            X.divide_exact(Poly2())


def test_negative_exponents_rejected_with_typed_errors():
    with pytest.raises(MalformedPolynomialError):
        Poly2({(-1, 2): 1})
    with pytest.raises(MalformedPolynomialError):
        X ** -1


@pytest.mark.parametrize(
    "exponents", [(1.5, 0), (0, Fraction(1, 2)), ("1.5", 0), ("x", 0), (None, 0), (math.inf, 0), (math.nan, 0)]
)
def test_non_integral_exponents_rejected(exponents):
    with pytest.raises(MalformedPolynomialError):
        Poly2.from_json([[list(exponents), "1"]])
    with pytest.raises(MalformedPolynomialError):
        Poly2({exponents: 1})


def test_integral_exponents_of_any_type_accepted():
    assert Poly2.from_json([[["1", 2.0], "3"], [[Fraction(2), True], 1]]) == Poly2({(1, 2): 3, (2, 1): 1})
    assert Poly2.from_json([[[1, 0], "1"], [[0, 1], "1"]]) == X + Y


@given(st.lists(st.fractions(max_denominator=10**6)))
def test_clear_denominators_scales_by_the_lcm(values):
    den, ints = clear_denominators(values)
    assert den == math.lcm(*(v.denominator for v in values))
    assert ints == [int(v * den) for v in values]
    assert all(type(n) is int for n in ints)


def test_clear_denominators_mixes_ints_and_fractions():
    assert clear_denominators([Fraction(1, 6), 2, Fraction(-3, 4)]) == (12, [2, 24, -9])
    assert clear_denominators([]) == (1, [])


class TestUnivariateGcd:
    @given(st.lists(small_coeffs, min_size=1, max_size=4), st.lists(small_coeffs, min_size=1, max_size=4))
    def test_gcd_divides_both(self, a, b):
        fa = [Fraction(c) for c in a]
        fb = [Fraction(c) for c in b]
        g = univariate_gcd(fa, fb)
        if not g:
            assert all(c == 0 for c in a) and all(c == 0 for c in b)
            return
        assert g[-1] == 1  # monic
        for coeffs in (fa, fb):
            poly = _as_poly_y(coeffs)
            if poly.is_zero:
                continue
            assert poly.divide_exact(_as_poly_y(g)) is not None

    def test_known_values(self):
        # (y-1)(y-2) and (y-1)(y-3) share y-1
        a = [Fraction(c) for c in (2, -3, 1)]
        b = [Fraction(c) for c in (3, -4, 1)]
        assert univariate_gcd(a, b) == [Fraction(-1), Fraction(1)]

    def test_coprime(self):
        assert univariate_gcd([Fraction(1), Fraction(1)], [Fraction(2)]) == [Fraction(1)]


def _as_poly_y(coeffs) -> Poly2:
    return Poly2({(0, j): c for j, c in enumerate(coeffs)})
