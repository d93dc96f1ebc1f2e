import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from logpairs.errors import BadOrderError, MalformedConfigurationError, NegativeBError
from logpairs.snc import (
    NEG_INFINITY,
    PairClass,
    ResolvedPairData,
    SNCPair,
    classify,
    classify_via_totaldiscrep,
    discrep,
    loci_divisors,
    quotient_discrepancy_1_1,
    totaldiscrep,
    vojta_reduced_coefficient_numeric,
    vojta_reduced_divisor,
)


def pair(coeffs, edges=()):
    return SNCPair.build([(f"E{i}", c) for i, c in enumerate(coeffs)], edges)


class TestDiscrep:
    def test_single_divisor(self):
        assert discrep(pair(["1/2"])) == Fraction(1, 2)

    def test_boundary_edge(self):
        assert discrep(pair([1, 1], [("E0", "E1")])) == Fraction(-1)

    def test_coefficient_above_one(self):
        assert discrep(pair(["3/2"])) == NEG_INFINITY

    def test_empty_configuration(self):
        assert discrep(pair([])) == Fraction(1)


class TestTotaldiscrep:
    def test_single_divisor(self):
        assert totaldiscrep(pair(["1/2"])) == Fraction(-1, 2)

    def test_empty_configuration(self):
        assert totaldiscrep(pair([])) == Fraction(0)

    def test_boundary_edge(self):
        assert totaldiscrep(pair([1, 1], [("E0", "E1")])) == Fraction(-1)

    def test_minus_infinity_propagates(self):
        assert totaldiscrep(pair(["3/2"])) == NEG_INFINITY


class TestClassify:
    def test_coefficient_thresholds(self):
        assert classify(pair([0, -2])) is PairClass.STRONGLY_CANONICAL
        assert classify(pair(["1/2"])) is PairClass.KAWAMATA_LOG_TERMINAL
        assert classify(pair([1, 1])) is PairClass.LOG_CANONICAL
        assert classify(pair(["5/4"])) is PairClass.NOT_LOG_CANONICAL

    def test_totaldiscrep_route(self):
        assert classify_via_totaldiscrep(pair(["1/2"])) is PairClass.KAWAMATA_LOG_TERMINAL
        assert classify_via_totaldiscrep(pair([1, 1], [("E0", "E1")])) is PairClass.LOG_CANONICAL
        assert classify_via_totaldiscrep(pair(["3/2"])) is PairClass.NOT_LOG_CANONICAL

    def test_harmless_extra_divisor(self):
        rng = random.Random(3)
        for _ in range(50):
            coeffs = [Fraction(rng.randint(-8, 8), rng.randint(1, 4)) for _ in range(rng.randint(0, 4))]
            p = pair(coeffs)
            divisors = list(p.divisors) + [("extra", Fraction(0))]
            q = SNCPair.build(divisors, [])
            assert classify(q) is classify(p)
            old = discrep(p)
            new = discrep(q)
            assert new == old or new == min(old, Fraction(1))


def random_snc_pair(rng) -> SNCPair:
    n = rng.randint(0, 8)
    divisors = []
    for i in range(n):
        den = rng.randint(1, 12)
        num = rng.randint(-2 * den, 2 * den)
        divisors.append((f"E{i}", Fraction(num, den)))
    edges = set()
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < 0.3:
                edges.add((f"E{i}", f"E{j}"))
    return SNCPair.build(divisors, edges)


class TestRandomizedAgreement:
    def test_two_classifications_agree(self):
        rng = random.Random(42)
        for _ in range(300):
            p = random_snc_pair(rng)
            assert classify(p) is classify_via_totaldiscrep(p)

    def test_totaldiscrep_range(self):
        rng = random.Random(43)
        for _ in range(300):
            td = totaldiscrep(random_snc_pair(rng))
            assert td == NEG_INFINITY or Fraction(-1) <= td <= Fraction(0)

    def test_relabeling_invariance(self):
        rng = random.Random(44)
        for _ in range(50):
            p = random_snc_pair(rng)
            perm = list(range(len(p.divisors)))
            rng.shuffle(perm)
            relabel = {f"E{i}": f"D{perm[i]}" for i in range(len(p.divisors))}
            q = SNCPair.build(
                [(relabel[d], c) for d, c in reversed(p.divisors)],
                [tuple(relabel[v] for v in e) for e in p.edges],
            )
            assert discrep(q) == discrep(p)
            assert totaldiscrep(q) == totaldiscrep(p)


class TestLoci:
    def test_threshold_reading(self):
        data = ResolvedPairData.build(
            [
                ("F1", Fraction(1, 2), Fraction(0), True),
                ("F2", Fraction(-1, 2), Fraction(0), True),
                ("F3", Fraction(-1), Fraction(0), True),
                ("F4", Fraction(-3, 2), Fraction(0), True),
            ]
        )
        loci = loci_divisors(data)
        assert loci.non_sc == {"F2", "F3", "F4"}
        assert loci.non_klt == {"F3", "F4"}
        assert loci.non_lc == {"F4"}
        assert loci.non_lc <= loci.non_klt <= loci.non_sc

    def test_all_nonnegative(self):
        data = ResolvedPairData.build([("F1", Fraction(0), Fraction(1), True)])
        loci = loci_divisors(data)
        assert not loci.non_sc and not loci.non_klt and not loci.non_lc

    def test_boundary_minus_one(self):
        data = ResolvedPairData.build([("F", Fraction(-1), Fraction(2), True)])
        loci = loci_divisors(data)
        assert loci.non_sc == loci.non_klt == {"F"}
        assert not loci.non_lc


class TestVojtaReducedDivisor:
    def test_examples(self):
        data = ResolvedPairData.build(
            [
                ("A", Fraction(2), Fraction(0), True),
                ("B", Fraction(-1), Fraction(3), True),
                ("C", Fraction(1, 2), Fraction(0), True),
            ]
        )
        assert vojta_reduced_divisor(data) == {"B", "C"}

    def test_negative_b_rejected(self):
        with pytest.raises(NegativeBError):
            ResolvedPairData.build([("A", Fraction(0), Fraction(-1), True)])

    def test_matches_numeric_oracle(self):
        rng = random.Random(77)
        eps = Fraction(1, 1000)
        for _ in range(200):
            den = rng.randint(1, 20)
            a = Fraction(rng.randint(-5 * den, 5 * den), den)
            b = Fraction(rng.randint(0, 5), 4)
            coeff = vojta_reduced_coefficient_numeric(a, b, eps)
            assert coeff in (0, 1)
            data = ResolvedPairData.build([("F", a, b, True)])
            analytic = 1 if "F" in vojta_reduced_divisor(data) else 0
            assert analytic == coeff

    def test_non_integral_always_included(self):
        data = ResolvedPairData.build([("F", Fraction(7, 3), Fraction(0), True)])
        assert vojta_reduced_divisor(data) == {"F"}


class TestQuotientDiscrepancy:
    def test_reported_value(self):
        assert quotient_discrepancy_1_1(5) == Fraction(-3, 5)

    def test_boundary_of_canonicity(self):
        assert quotient_discrepancy_1_1(2) == Fraction(0)

    def test_large_order(self):
        assert quotient_discrepancy_1_1(100) == Fraction(-49, 50)

    def test_order_below_two_rejected(self):
        with pytest.raises(BadOrderError):
            quotient_discrepancy_1_1(1)


class TestQuotientSncLink:
    def test_value_realized_by_one_exceptional_curve(self):
        # the minimal model of the weight-(1,1) cyclic quotient germ has a
        # single exceptional curve with boundary coefficient 1 - 2/n, and
        # its total discrepancy reproduces the closed form
        for n in range(2, 31):
            p = pair([1 - Fraction(2, n)])
            assert totaldiscrep(p) == quotient_discrepancy_1_1(n)
            expected = (
                PairClass.STRONGLY_CANONICAL if n == 2 else PairClass.KAWAMATA_LOG_TERMINAL
            )
            assert classify_via_totaldiscrep(p) is expected


class TestValidation:
    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValueError):
            SNCPair.build([("E", 1), ("E", 2)])

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError):
            SNCPair.build([("E0", 1), ("E1", 1)], [("E0", "E0")])

    def test_unknown_edge_rejected(self):
        with pytest.raises(ValueError):
            SNCPair.build([("E0", 1)], [("E0", "E9")])

    def test_rejections_are_typed(self):
        with pytest.raises(MalformedConfigurationError):
            SNCPair.build([("E", 1), ("E", 2)])
        with pytest.raises(MalformedConfigurationError):
            SNCPair.build([("E0", 1), ("E1", 1)], [("E0", "E0")])
        with pytest.raises(MalformedConfigurationError):
            SNCPair.build([("E0", 1)], [("E0", "E9")])
        with pytest.raises(MalformedConfigurationError):
            ResolvedPairData.build([("E1", 0, 1, True), ("E1", 0, 2, True)])
        # rows of the wrong shape, and columns of the wrong length
        with pytest.raises(MalformedConfigurationError):
            SNCPair.build([("E0",)])
        with pytest.raises(MalformedConfigurationError):
            SNCPair.build([("E0", 1)], [1])
        with pytest.raises(MalformedConfigurationError):
            ResolvedPairData.build([("E1", 0, 1)])
        with pytest.raises(MalformedConfigurationError):
            SNCPair(("E0", "E1"), 1, (1,), frozenset())
        with pytest.raises(MalformedConfigurationError):
            ResolvedPairData(("E1",), 1, (0,), (1,), ())

    @pytest.mark.parametrize("c", ["abc", "1/0", float("nan"), float("inf"), float("-inf"), None, [1]])
    def test_unreadable_coefficient_is_typed(self, c):
        with pytest.raises(MalformedConfigurationError):
            SNCPair.build([("E", c)])

    @pytest.mark.parametrize("c", [float("nan"), 0.5, "1/2", None, 1j])
    def test_direct_construction_needs_rational_coefficients(self, c):
        # The constructor takes int numerators over one denominator; a NaN
        # numerator would otherwise read as strongly canonical.
        with pytest.raises(MalformedConfigurationError):
            SNCPair(("E",), 1, (c,), frozenset())

    def test_direct_construction_accepts_int_and_fraction(self):
        # coefficients 1 and -1/2, as numerators over 2
        p = SNCPair(("E0", "E1"), 2, (2, -1), frozenset({frozenset(("E0", "E1"))}))
        assert p == SNCPair.build([("E0", 1), ("E1", Fraction(-1, 2))], [("E0", "E1")])
        assert discrep(p) == Fraction(0)
        assert totaldiscrep(p) == Fraction(-1)


def reference_discrep(pair: SNCPair):
    """The minimum formula evaluated directly in Fraction."""
    coeffs = dict(pair.divisors)
    if any(c > 1 for c in coeffs.values()):
        return NEG_INFINITY
    candidates = [Fraction(1)]
    candidates.extend(1 - c for c in coeffs.values())
    for e in pair.edges:
        a, b = tuple(e)
        candidates.append(1 - coeffs[a] - coeffs[b])
    return min(candidates)


def reference_totaldiscrep(pair: SNCPair):
    """min(0, min_i(-c_i), discrep) evaluated directly in Fraction."""
    d = reference_discrep(pair)
    if d == NEG_INFINITY:
        return NEG_INFINITY
    return min([Fraction(0), d] + [-c for _, c in pair.divisors])


_DENOMINATOR = st.integers(1, 10**9)
_COEFFICIENT = st.one_of(
    st.builds(Fraction, st.integers(-(10**9), 10**9), _DENOMINATOR),
    st.builds(lambda d: Fraction(d + 1, d), _DENOMINATOR),  # just above 1
    st.builds(lambda d: Fraction(d - 1, d), _DENOMINATOR),  # just below 1
    st.sampled_from([1, 0, -1, Fraction(1), Fraction(1, 2)]),
    st.integers(-3, 3),
)


@st.composite
def snc_pairs(draw) -> SNCPair:
    coeffs = draw(st.lists(_COEFFICIENT, max_size=12))
    labels = [f"E{i}" for i in range(len(coeffs))]
    pairs = [(a, b) for i, a in enumerate(labels) for b in labels[i + 1 :]]
    edges = draw(st.sets(st.sampled_from(pairs), max_size=len(pairs))) if pairs else set()
    return SNCPair.build(zip(labels, coeffs), edges)


class TestIntegerRouteMatchesFractionFormula:
    @given(snc_pairs())
    @example(SNCPair((), 1, (), frozenset()))
    @example(SNCPair(("E0", "E1"), 1, (1, 1), frozenset({frozenset(("E0", "E1"))})))
    @example(pair([Fraction(10**9 + 1, 10**9)]))
    @example(pair([Fraction(2, 3), Fraction(1, 2)], [("E0", "E1")]))
    def test_discrep_and_totaldiscrep(self, p):
        for got, want in ((discrep(p), reference_discrep(p)), (totaldiscrep(p), reference_totaldiscrep(p))):
            assert got == want
            assert type(got) is (float if want == NEG_INFINITY else Fraction)
