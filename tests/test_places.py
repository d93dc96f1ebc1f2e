import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from logpairs.errors import InputError, NotPrimeError, ZeroInputError
from logpairs.heights import Subscheme, normalize_point, weil_finite_valuation, weil_local
from logpairs.places import Place, is_prime, local_log_norm, padic_valuation


def prime_factors(n: int) -> set[int]:
    n = abs(n)
    out = set()
    p = 2
    while p * p <= n:
        while n % p == 0:
            out.add(p)
            n //= p
        p += 1
    if n > 1:
        out.add(n)
    return out


class TestPadicValuation:
    def test_worked_examples(self):
        assert padic_valuation(12, 2) == 2
        assert padic_valuation(1, 7) == 0
        # 9/20 = 3^2 / (2^2 * 5): one factor of 5 downstairs
        assert padic_valuation(Fraction(9, 20), 5) == -1

    def test_zero_rejected(self):
        with pytest.raises(ZeroInputError):
            padic_valuation(Fraction(0), 3)

    def test_composite_rejected(self):
        with pytest.raises(NotPrimeError):
            padic_valuation(Fraction(1, 2), 6)

    @given(
        st.fractions(min_value=-1000, max_value=1000, max_denominator=10**6),
        st.fractions(min_value=-1000, max_value=1000, max_denominator=10**6),
        st.sampled_from([2, 3, 5, 7, 11, 13]),
    )
    def test_additive_under_multiplication(self, a, b, p):
        if a == 0 or b == 0:
            return
        assert padic_valuation(a * b, p) == padic_valuation(a, p) + padic_valuation(b, p)


class TestLocalLogNorm:
    def test_worked_examples(self):
        assert local_log_norm(8, Place.finite(2)) == pytest.approx(-3 * math.log(2), abs=0)
        assert local_log_norm(8, Place.archimedean()) == pytest.approx(math.log(8), abs=0)
        assert local_log_norm(Fraction(9, 20), Place.finite(5)) == pytest.approx(math.log(5), abs=0)

    def test_zero_rejected(self):
        with pytest.raises(ZeroInputError):
            local_log_norm(0, Place.archimedean())

    @given(st.fractions(min_value=Fraction(-10**6), max_value=Fraction(10**6), max_denominator=10**6))
    def test_product_formula(self, q):
        if q == 0:
            return
        total = local_log_norm(q, Place.archimedean())
        for p in prime_factors(q.numerator * q.denominator):
            total += local_log_norm(q, Place.finite(p))
        assert abs(total) <= 1e-9 * max(1.0, abs(local_log_norm(q, Place.archimedean())))


class TestPlace:
    def test_finite_requires_prime(self):
        with pytest.raises(NotPrimeError):
            Place.finite(91)  # 7 * 13
        assert Place.finite(97).prime == 97

    def test_archimedean_flag(self):
        assert Place.archimedean().is_archimedean
        assert not Place.finite(2).is_archimedean


def test_is_prime_small_table():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47}
    for n in range(50):
        assert is_prime(n) == (n in primes)


def test_is_prime_large_values():
    assert is_prime(2**61 - 1)
    assert not is_prime(2**61 + 1)


def test_is_prime_composites_without_a_small_factor():
    # No witness divides these, so Miller-Rabin decides: 1763 = 41 * 43, and
    # 3215031751 = 151 * 751 * 28351 is a strong pseudoprime to the bases
    # 2, 3, 5 and 7, so only a later witness shows it composite.
    assert not is_prime(1763)
    assert not is_prime(3215031751)


class TestReadingInputs:
    """A prime is read by the exact_int rule and a rational by read_number, with
    typed errors; a float prime is an int before any valuation is taken."""

    def test_a_prime_written_as_a_float_or_string_is_that_prime(self):
        # Float modulo loses the digits of 2*7^20: this read 0, not 20.
        assert padic_valuation(2 * 7**20, 7.0) == 20
        assert padic_valuation(7**400, 7.0) == 400  # an OverflowError before
        assert padic_valuation(Fraction(9, 20), "5") == -1
        assert Place(7.0) == Place("7") == Place(7)
        assert type(Place(7.0).prime) is int
        assert is_prime("7") and is_prime(7.0) and not is_prime("91")
        zed = Subscheme.of_coordinates(3, [0, 1])
        x = normalize_point([7**25, 3 * 7**25, 1])
        assert weil_finite_valuation(zed, x, 7.0) == weil_finite_valuation(zed, x, "7") == 25
        assert weil_local(zed, x, Place(7.0)) == pytest.approx(25 * math.log(7), abs=0)  # 48.65, not 0.0

    # None is no modulus (Place(None) is the archimedean place).
    @pytest.mark.parametrize("p", [7.5, "x", math.nan, math.inf, "7/2", 91.0, True])
    def test_a_modulus_that_is_not_a_prime_integer_is_refused(self, p):
        for call in (
            lambda: Place(p),
            lambda: padic_valuation(12, p),
            lambda: weil_finite_valuation(Subscheme.of_coordinates(3, [0]), normalize_point([2, 1, 1]), p),
        ):
            with pytest.raises(NotPrimeError):
                call()

    def test_is_prime_reads_its_argument_with_a_typed_error(self):
        for n in (7.5, "x", None):
            with pytest.raises(NotPrimeError):
                is_prime(n)
        with pytest.raises(NotPrimeError):
            padic_valuation(12, None)

    def test_an_unreadable_rational_is_typed(self):
        for call in (
            lambda: padic_valuation("x", 2),
            lambda: padic_valuation(None, 2),
            lambda: local_log_norm("x", Place.finite(2)),
            lambda: local_log_norm("x", Place.archimedean()),
        ):
            with pytest.raises(InputError):
                call()
        assert padic_valuation("9/20", 5) == padic_valuation(0.45, 5) == -1

    def test_computed_values_of_any_size_pass(self):
        # An int or Fraction is not held to the digit limit of read_number.
        big = 3**5000
        assert padic_valuation(big, 3) == 5000
        assert padic_valuation(Fraction(2, big), 3) == -5000
        assert local_log_norm(big, Place.finite(3)) == pytest.approx(-5000 * math.log(3))
