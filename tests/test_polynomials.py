import math
import random
import time
from fractions import Fraction

import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from logpairs.errors import BadRangeError, InputError, MalformedPolynomialError, ZeroInputError
from logpairs.polynomials import (
    MAX_DIGITS,
    Poly2,
    _binomial,
    _exponent_too_large,
    clear_denominators,
    read_number,
)

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


class TestHash:
    @given(
        st.dictionaries(
            st.tuples(st.integers(0, 6), st.integers(0, 6)),
            st.fractions(min_value=-9, max_value=9, max_denominator=4),
            max_size=6,
        )
    )
    def test_equal_polynomials_hash_equal_and_as_their_terms(self, terms):
        # An integral coefficient given as an int and as a Fraction, in either
        # order of the terms, makes equal polynomials with equal hashes.
        p = Poly2(terms)
        q = Poly2({k: int(c) if c.denominator == 1 else c for k, c in reversed(terms.items())})
        r = Poly2.from_json([[list(k), str(c)] for k, c in terms.items()])
        assert p == q == r
        assert hash(p) == hash(q) == hash(r) == hash(frozenset(p.terms.items()))
        assert hash(p) == hash(frozenset(p.terms.items()))  # the kept value


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


@given(st.fractions(max_denominator=10**9).filter(bool), st.integers(0, 60))
def test_binomial_rows_match_the_closed_form(t, n):
    row = _binomial(t, n)
    assert [r for r, _ in row] == list(range(n + 1))
    assert [c for _, c in row] == [math.comb(n, r) * t ** (n - r) for r in range(n + 1)]


def test_binomial_row_of_a_zero_shift_is_one_term():
    assert list(_binomial(Fraction(0), 7)) == [(7, 1)]


INT_POINTS = [(0, 0), (2, -3), (-7, 5), (10**12, -(10**9))]


def _naive(f: Poly2, a, b) -> Fraction:
    return sum((c * Fraction(a) ** i * Fraction(b) ** j for (i, j), c in f.terms.items()), Fraction(0))


class TestIntegerEvaluate:
    def test_matches_fraction_path(self):
        # translate, blowup_x, blowup_y and * build their results through _of;
        # each polynomial is evaluated at ints first, and a copy of it at
        # Fractions first, so the integer view is built after either.  At two
        # ints an integral polynomial gives an int, any other a Fraction.
        rng = random.Random(10)
        for _ in range(50):
            f = random_poly(rng)
            integral = Poly2({k: c.numerator for k, c in f.terms.items()})
            integral_family = [
                integral,
                integral.translate(2, -1),
                integral.blowup_x(3)[0],
                integral.blowup_y()[0],
            ]
            others = [f, integral * random_poly(rng), f.translate(Fraction(1, 2), 0)]
            for p in integral_family + others:
                kind = int if all(c.denominator == 1 for c in p.terms.values()) else Fraction
                if any(p is q for q in integral_family):
                    assert kind is int
                rational_first = Poly2(p.terms)
                for a, b in INT_POINTS:
                    assert rational_first.evaluate(Fraction(a, 3), b) == _naive(p, Fraction(a, 3), b)
                for a, b in INT_POINTS:
                    value = p.evaluate(a, b)
                    assert type(value) is kind
                    assert value == p.evaluate(Fraction(a), Fraction(b)) == _naive(p, a, b)
                    later = rational_first.evaluate(a, b)
                    assert type(later) is kind and later == value

    def test_non_integer_coefficients(self):
        f = Poly2({(2, 0): Fraction(1, 2), (0, 1): 3})
        assert f.evaluate(3, 1) == Fraction(15, 2)
        assert f.evaluate(Fraction(1, 3), 2) == Fraction(109, 18)
        # a second call at ints reads the stored "not integral" view
        value = f.evaluate(3, 1)
        assert type(value) is Fraction and value == Fraction(15, 2)

    def test_non_integral_coefficient_after_integral_ones(self):
        # one non-integral coefficient, in any position, sends every call at
        # ints down the rational path
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

    def test_computed_degrees_are_not_input_limited(self):
        # MAX_DEGREE bounds what is read from input; the quotient f^2 and
        # the steps' monomials are computed and reach degree 4200.
        f = X**2100 + Y
        assert (f * f * f).divide_exact(f) == f * f


def test_negative_exponents_rejected_with_typed_errors():
    with pytest.raises(MalformedPolynomialError):
        Poly2({(-1, 2): 1})
    with pytest.raises(MalformedPolynomialError):
        X ** -1


@pytest.mark.parametrize(
    "exponents",
    [(1.5, 0), (0, Fraction(1, 2)), ("1.5", 0), ("x", 0), (None, 0), (math.inf, 0), (math.nan, 0), (True, 0)],
)
def test_non_integral_exponents_rejected(exponents):
    with pytest.raises(MalformedPolynomialError):
        Poly2.from_json([[list(exponents), "1"]])
    with pytest.raises(MalformedPolynomialError):
        Poly2({exponents: 1})


def test_integral_exponents_of_any_type_accepted():
    assert Poly2.from_json([[["1", 2.0], "3"], [[Fraction(2), 1], 1]]) == Poly2({(1, 2): 3, (2, 1): 1})
    assert Poly2.from_json([[[1, 0], "1"], [[0, 1], "1"]]) == X + Y


_signs = st.sampled_from(["", "-", "+"])
_digits = st.text("0123456789", min_size=1, max_size=8)
# Literals on both sides of the digit limit: exponents up to three times
# MAX_DIGITS, mantissas with leading and trailing zeros or all zeros, and
# integers of up to MAX_DIGITS + 2 digits.
_literals = st.one_of(
    st.builds("{}{}/{}".format, _signs, _digits, _digits.filter(lambda q: int(q))),
    st.builds("{}{}.{}".format, _signs, _digits, _digits),
    st.builds("{}{}.{}e{}".format, _signs, _digits, _digits, st.integers(-3 * MAX_DIGITS, 3 * MAX_DIGITS)),
    st.builds("{}{}E{:+d}".format, _signs, _digits, st.integers(-3 * MAX_DIGITS, 3 * MAX_DIGITS)),
    st.integers(-(10 ** (MAX_DIGITS + 2)), 10 ** (MAX_DIGITS + 2)).map(str),
)


@given(_literals)
def test_read_number_reads_a_literal_as_fraction_does(text):
    # Within the digit limit the reader agrees with Fraction.  Past it, or
    # with an exponent above MAX_DIGITS + len(text) in size (which a nonzero
    # mantissa cannot bring back within it), it raises BadRangeError.
    q = Fraction(text)
    exponent = int(text.lower().partition("e")[2] or 0)
    if max(abs(q.numerator), q.denominator) < 10**MAX_DIGITS and abs(exponent) <= MAX_DIGITS + len(text):
        assert read_number(text, MalformedPolynomialError) == q
    else:
        with pytest.raises(BadRangeError):
            read_number(text, MalformedPolynomialError)


@given(st.floats(allow_nan=False, allow_infinity=False))
def test_read_number_reads_a_float_as_its_repr(x):
    assert read_number(x, MalformedPolynomialError) == Fraction(repr(x))


def test_read_number_rules():
    q = Fraction(1, 10 ** (MAX_DIGITS + 5))
    assert read_number(q, MalformedPolynomialError) is q  # a Fraction is not read again
    with pytest.raises(MalformedPolynomialError, match="True is not a rational number"):
        read_number(True, MalformedPolynomialError)  # a bool is not a number
    assert read_number(0.1, MalformedPolynomialError) == Fraction(1, 10)
    assert read_number(" -0.0e-5 ", MalformedPolynomialError) == 0
    assert read_number(10**MAX_DIGITS - 1, MalformedPolynomialError) == 10**MAX_DIGITS - 1
    assert read_number(f"1/{10**MAX_DIGITS - 1}", MalformedPolynomialError).denominator == 10**MAX_DIGITS - 1
    # An exponent a little past MAX_DIGITS, which the mantissa brings back.
    assert read_number(f"0.001e{MAX_DIGITS + 1}", MalformedPolynomialError) == 10 ** (MAX_DIGITS - 2)
    assert read_number(f"100E-{MAX_DIGITS + 1}", MalformedPolynomialError) == Fraction(1, 10 ** (MAX_DIGITS - 1))
    for value in [10**MAX_DIGITS, f"1/{10**MAX_DIGITS}", f"1e{MAX_DIGITS}", f"1E{MAX_DIGITS}", f"-3e-{MAX_DIGITS}", "0e99999999"]:
        with pytest.raises(BadRangeError):
            read_number(value, MalformedPolynomialError)
    for value in [None, 1j, [1], "1/0", "nan", math.inf, "1e", "0x10"]:
        with pytest.raises(MalformedPolynomialError):
            read_number(value, MalformedPolynomialError)


def _rational_route(text: str):
    """What the reader makes of ``text`` through Fraction's string parser: the
    Fraction, or the class of the error it raises."""
    if _exponent_too_large(text):
        return BadRangeError
    try:
        q = Fraction(text)
    except (ValueError, ZeroDivisionError):
        return MalformedPolynomialError
    return q if max(abs(q.numerator), q.denominator) < 10**MAX_DIGITS else BadRangeError


# Strings near decimal integers: signs, spaces, underscores, slashes, points,
# exponents, a superscript two (isdigit, but not a decimal digit) and an
# Arabic-Indic three (a decimal digit outside ASCII); and integers with exactly
# MAX_DIGITS and MAX_DIGITS + 1 digits.
_near_integers = st.one_of(
    st.text("0123456789-+ _/.e\u00b2\u0663", max_size=10),
    st.builds(
        "{}{}".format,
        st.sampled_from(["", "-", "+", " "]),
        st.sampled_from([MAX_DIGITS, MAX_DIGITS + 1]).flatmap(lambda n: st.text("0123456789", min_size=n, max_size=n)),
    ),
)


@given(_near_integers)
@example("\u00b2")
@example("-\u00b2")
@example("\u0663")
@example("-0")
@example("1_000")
@example("9" * MAX_DIGITS)
@example("-" + "9" * MAX_DIGITS)
@example("1" + "0" * MAX_DIGITS)
@example("0" * (MAX_DIGITS + 1))
def test_integer_literals_read_as_the_rational_route(text):
    # The int path of the reader gives the same Fraction, or the same class
    # of error, as Fraction's parser under the digit limit; no bare
    # ValueError escapes.
    expected = _rational_route(text)
    if isinstance(expected, Fraction):
        got = read_number(text, MalformedPolynomialError)
        assert type(got) is Fraction and got == expected
    else:
        with pytest.raises(InputError) as caught:
            read_number(text, MalformedPolynomialError)
        assert caught.type is expected


def test_exponent_alone_refuses_a_literal_before_building_it():
    # Building 10**3000000 takes seconds; the exponent refuses it at once,
    # in an exponent, a coefficient or a shift alike.
    for make in (
        lambda: read_number("1e-3000000", ZeroInputError),
        lambda: Poly2.from_json([[[0, 2], "1"], [[3, 0], "1e3000000"]]),
        lambda: Poly2.from_json([[["1e3000000", 0], "1"]]),
        lambda: X.translate("-7.5e-3000000", 0),
    ):
        start = time.perf_counter()
        with pytest.raises(BadRangeError):
            make()
        assert time.perf_counter() - start < 0.5


@given(st.lists(st.fractions(max_denominator=10**6)))
def test_clear_denominators_scales_by_the_lcm(values):
    den, ints = clear_denominators(values)
    assert den == math.lcm(*(v.denominator for v in values))
    assert ints == [int(v * den) for v in values]
    assert all(type(n) is int for n in ints)


def test_clear_denominators_mixes_ints_and_fractions():
    assert clear_denominators([Fraction(1, 6), 2, Fraction(-3, 4)]) == (12, [2, 24, -9])
    assert clear_denominators([]) == (1, [])


class TestDivide:
    @given(
        st.booleans(),
        st.dictionaries(st.tuples(st.integers(0, 3), st.integers(0, 5)), small_coeffs, max_size=6),
        st.dictionaries(st.tuples(st.integers(0, 3), st.integers(0, 4)), small_coeffs, max_size=4),
    )
    @example(True, {(0, 2): 1, (0, 1): -3, (0, 0): 2}, {(0, 2): 1, (0, 1): -4, (0, 0): 3})
    @example(False, {(1, 1): 1, (0, 0): 1}, {(1, 0): 1})
    def test_division_stops_where_the_leading_term_stops_dividing(self, in_y, a, b):
        # f == quotient * g + rest, and rest is zero or g's leading term does
        # not divide rest's; in y alone that is division with remainder:
        # (y-1)(y-2) = 1 * (y-1)(y-3) + (y - 1)
        keep = lambda terms: {(0 if in_y else i, j): c for (i, j), c in terms.items()}
        f, g = Poly2(keep(a)), Poly2(keep(b))
        assume(g)
        quotient, rest = f.divide(g)
        assert quotient * g + rest == f
        assert f.divide_exact(g) == (None if rest else quotient)
        if rest:
            (ri, rj), _ = rest._leading()
            (gi, gj), _ = g._leading()
            assert ri < gi or rj < gj
            if in_y:
                assert rest.total_degree() < g.total_degree()
