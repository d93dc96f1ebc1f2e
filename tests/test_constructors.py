"""Each value type has one constructor that owns its rules, and its parser
only coerces and then calls it: both reject the same malformed input with
an InputError subclass."""

import contextlib
import functools
import inspect
import io
import json
import math
from fractions import Fraction

import pytest

from logpairs import curves, snc
from logpairs.cli import EXIT_OK, build_parser, main
from logpairs.errors import (
    BadRangeError,
    InputError,
    MalformedConfigurationError,
    MalformedPolynomialError,
    NotPrimeError,
    NotPrimitiveError,
    ZeroInputError,
)
from logpairs.experiments import ParamCurve, nodal_cubic_param, sample_param_points
from logpairs.heights import HomogPoly, ProjPoint, Subscheme, normalize_point
from logpairs.places import is_prime, padic_valuation
from logpairs.polynomials import MAX_DEGREE, Poly2
from logpairs.snc import ResolvedPairData, SNCPair


def _homog_direct(num_vars, terms):
    degree = sum(terms[0][0]) if terms and isinstance(terms[0][0], tuple) else 0
    return HomogPoly(num_vars, degree, tuple((tuple(e), c) for e, c in terms))


def _snc_direct(divisors, edges):
    labels, nums = tuple(d for d, _ in divisors), tuple(c for _, c in divisors)
    return SNCPair(labels, 1, nums, frozenset(frozenset(e) for e in edges))


def _resolved_direct(rows):
    ids, a, b, e = zip(*rows)
    return ResolvedPairData(ids, 1, a, b, e)


def _cases(name, direct, parse, arg_lists):
    """One case per argument tuple, given to both ``direct`` and ``parse``."""
    return [pytest.param(direct, parse, args, id=f"{name}-{args!r}") for args in arg_lists]


UNREADABLE = [math.nan, None, "abc", 1j]
# A number past MAX_DIGITS digits, in exponent notation.  The float exponent
# 1e300 below reads as 10**300, a degree past MAX_DEGREE.
TOO_LONG = "1e-5000"

CASES = [
    *_cases(
        "HomogPoly",
        _homog_direct,
        HomogPoly.from_terms,
        [
            (3, [((1, 0, 0), 1.5)]),
            (3, [((1, 0, 0), "x")]),
            (3, [((2, -1, 0), 1)]),
            (3, [((0.5, 0.5, 0), 1)]),
            (3, [((1, 0), 1)]),
            (3, [((1, 0, 0), 1), ((2, 0, 0), 1)]),
            (3, [((1, 0, 0), 0)]),
            (3, []),
            (3, [("100", 1)]),
            (3, [((1, 0, 0), TOO_LONG)]),
            (3, [((1e300, 0, 0), 1)]),
            # A bool is not an int, as exponent or as coefficient.
            (3, [((True, False, False), 1)]),
            (3, [((1, 0, 0), True)]),
        ],
    ),
    *_cases(
        "Poly2",
        Poly2,
        Poly2.from_json,
        [([((0, 0), c)],) for c in [*UNREADABLE, "1/0", math.inf, TOO_LONG]]
        + [([((-1, 0), 1)],), ([((0.5, 0), 1)],), (5,), ([5],), ([((1, 2, 3), 1)],), ([("12", 3)],)]
        + [([((1e300, 0), 1)],)],
    ),
    *_cases(
        "SNCPair",
        _snc_direct,
        SNCPair.build,
        [
            *(([("E", c)], []) for c in [*UNREADABLE, TOO_LONG, math.inf]),
            ([("E", 1), ("E", 2)], []),
            ([("E0", 1), ("E1", 1)], [("E0", "E0")]),
            ([("E0", 1)], [("E0", "E9")]),
            (["E1"], []),
            ([("E", True)], []),
        ],
    ),
    *_cases(
        "ResolvedPairData",
        _resolved_direct,
        ResolvedPairData.build,
        [
            *(([("E", c, 0, True)],) for c in [*UNREADABLE, TOO_LONG, math.inf]),
            *(([("E", 0, c, True)],) for c in [*UNREADABLE, TOO_LONG, math.inf]),
            ([("E", 0, -1, True)],),
            ([("E", 0, 1, True), ("E", 0, 2, True)],),
            (["E011"],),
            ([("E", True, 0, True)],),
            ([("E", 0, False, True)],),
        ],
    ),
    *_cases(
        "ProjPoint",
        lambda coords: ProjPoint(tuple(coords)),
        normalize_point,
        [
            (coords,)
            for coords in [("a", 1), (None, 1), (math.nan, 1), (math.inf, 1), (1j, 1), (0, 0), (), (TOO_LONG, 1)]
        ],
    ),
]


@pytest.mark.parametrize("direct, parse, args", CASES)
def test_constructor_and_parser_reject_alike(direct, parse, args):
    for make in (direct, parse):
        with pytest.raises(InputError):
            make(*args)


FORM = {"n": 2, "terms": [[[1, 0, 0], "1"]]}
WRONG_SHAPES = [{}, [], 5, None]
NO_TARGET = {"p0": [], "p1": [], "p2": []}
# Each document reader, its error, and documents of the wrong shape: the four
# above, a missing inner key, a field of the wrong type.
DOCUMENTS = [
    (HomogPoly.from_json, MalformedPolynomialError, [*WRONG_SHAPES, {"n": 2}, {"n": 2, "terms": 5}]),
    (Subscheme.from_json, MalformedPolynomialError, [*WRONG_SHAPES, {"generators": [{"n": 2}]}, {"generators": 5}]),
    (
        SNCPair.from_json,
        MalformedConfigurationError,
        [*WRONG_SHAPES, {"divisors": [{"id": "E"}]}, {"divisors": [], "edges": 5}, {"divisors": 5}],
    ),
    # A bare [] is the rows of the zero polynomial, which is no curve (below).
    (curves.AffineCurve.from_json, MalformedPolynomialError, [{}, 5, None, {"g": []}, {"f": 5}, {"f": [[[0, 2]]]}]),
    (
        ParamCurve.from_json,
        MalformedPolynomialError,
        [*WRONG_SHAPES, NO_TARGET, {**NO_TARGET, "target": {"n": 2}}, {**NO_TARGET, "p0": 5, "target": FORM}],
    ),
]


@pytest.mark.parametrize(
    "make, error",
    [
        *((functools.partial(read, doc), error) for read, error, docs in DOCUMENTS for doc in docs),
        (lambda: curves.AffineCurve.from_json([]), ZeroInputError),
        (lambda: Poly2(5), MalformedPolynomialError),
        (lambda: Poly2.from_json(5), MalformedPolynomialError),
        (lambda: Poly2.from_json([[[1, 2]]]), MalformedPolynomialError),
        (lambda: HomogPoly.from_json({"n": 2, "terms": 5}), MalformedPolynomialError),
        (lambda: HomogPoly.from_terms(3, [(5, 1)]), MalformedPolynomialError),
        (lambda: SNCPair.build(5), MalformedConfigurationError),
        (lambda: SNCPair.build([("E0", 0), ("E1", 0)], [("E0",)]), MalformedConfigurationError),
        # A string is not a row: "AB" is not the edge A-B, nor "12" the exponents (1, 2).
        (lambda: SNCPair.build([("A", 0), ("B", 0)], ["AB"]), MalformedConfigurationError),
        (lambda: SNCPair.build(["A0"]), MalformedConfigurationError),
        (lambda: Poly2.from_json([["12", "3"]]), MalformedPolynomialError),
        (lambda: HomogPoly.from_json({"n": 2, "terms": [["100", "1"]]}), MalformedPolynomialError),
    ],
)
def test_rows_of_the_wrong_shape_raise_typed_errors(make, error):
    # Terms and edges that are not a list of rows of the right length raise
    # the type's own error, not a bare TypeError or ValueError.
    with pytest.raises(error):
        make()


def test_degree_limit():
    # A term of degree above MAX_DEGREE raises BadRangeError when it is read,
    # before any work; degree MAX_DEGREE itself is read.
    assert Poly2([((MAX_DEGREE - 1, 1), 1)]).total_degree() == MAX_DEGREE
    assert HomogPoly.from_terms(2, [((MAX_DEGREE, 0), 1)]).degree == MAX_DEGREE
    for make in (
        lambda: Poly2([((MAX_DEGREE, 1), 1)]),
        lambda: Poly2.from_json([[[0, 10**9], "1"]]),
        lambda: HomogPoly.from_terms(2, [((MAX_DEGREE, 1), 1)]),
        lambda: HomogPoly.from_json({"n": 1, "terms": [[[10**9, 0], "1"]]}),
        lambda: HomogPoly(2, MAX_DEGREE + 1, (((MAX_DEGREE + 1, 0), 1),)),
    ):
        with pytest.raises(BadRangeError):
            make()


def test_edge_row_is_exactly_two_labels():
    pair = SNCPair.build([("E0", 0), ("E1", 0)], [("E0", "E1")])
    assert pair.edges == {frozenset({"E0", "E1"})}
    for row in [("E0", "E1", "E0"), ("E0", "E0"), ("E0", "E1", "E2")]:
        with pytest.raises(MalformedConfigurationError):
            SNCPair.build([("E0", 0), ("E1", 0), ("E2", 0)], [row])


def test_snc_pair_equality_is_on_values():
    # The stored denominator is not canonical: 1/2 read by build is kept
    # over 2, and the same coefficient can be given over 4.
    built, direct = SNCPair.build([("E", Fraction(1, 2))]), SNCPair(("E",), 4, (2,), frozenset())
    assert (built.den, direct.den) == (2, 4)
    assert built == direct
    assert hash(built) == hash(direct)
    assert SNCPair(("E",), 4, (3,), frozenset()) != built


def test_max_depth_default_has_one_owner():
    for fn in (curves.resolve, curves.lct, curves.ideal_member):
        assert inspect.signature(fn).parameters["max_depth"].default == curves.MAX_DEPTH, fn.__name__
    parser = build_parser()
    for argv in (["resolve-curve", "{}"], ["member", "{}", "--c", "1", "--g", "[]", "--kind", "J"]):
        assert parser.parse_args(argv).max_depth == curves.MAX_DEPTH, argv[0]


def test_same_number_same_meaning():
    # Every reader takes a JSON float as the decimal it was written as, the
    # way it takes that decimal written as a string.
    outputs = []
    for c in (-0.01, "-0.01"):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(["resolve-curve", json.dumps({"f": [[[0, 2], 1], [[2, 0], c]]}), "--json"]) == EXIT_OK
        outputs.append(out.getvalue())
    assert outputs[0] == outputs[1]
    assert json.loads(outputs[0])["lct"] == "1"  # y^2 - x^2/100 is two lines

    edges = [("E1", "E2")]
    from_floats = SNCPair.build([("E1", 0.1), ("E2", 0.9)], edges)
    assert from_floats == SNCPair.build([("E1", "0.1"), ("E2", "0.9")], edges)
    assert snc.discrep(from_floats) == 0
    assert ResolvedPairData.build([("E", 0.1, 0.2, True)]) == ResolvedPairData.build([("E", "1/10", "1/5", True)])

    # A curve document is its rows, bare or under "f".
    rows = [[[0, 2], "1"], [[3, 0], -1]]
    assert curves.AffineCurve.from_json({"f": rows}) == curves.AffineCurve.from_json(rows)

    # The curve functions read their numbers by the same rule, with typed errors.
    tree = curves.resolve(Poly2.from_json([[[0, 2], "1"], [[3, 0], "-1"]]))
    assert curves.pair_discrepancies(tree, 0.5) == curves.pair_discrepancies(tree, "1/2")
    assert curves.multiplicity_at(tree.curve, (0.0, "0")) == 2
    for call in (
        lambda: curves.pair_discrepancies(tree, "x"),
        lambda: curves.multiplicity_at(tree.curve, ("a", 0)),
        lambda: curves.blow_up_point(tree, 1, "q"),
    ):
        with pytest.raises(InputError):
            call()


@pytest.mark.parametrize(
    "call, error",
    [
        pytest.param(lambda: curves.resolve(Poly2({(0, 2): 1, (3, 0): -1}), True), BadRangeError, id="resolve"),
        pytest.param(lambda: sample_param_points(nodal_cubic_param(), True), BadRangeError, id="sample_param_points"),
        pytest.param(lambda: Poly2({(0, 2): True}), MalformedPolynomialError, id="Poly2-coefficient"),
        pytest.param(lambda: Poly2.from_json([[[True, 0], 1]]), MalformedPolynomialError, id="Poly2-exponent"),
        pytest.param(lambda: normalize_point((True, 1)), NotPrimitiveError, id="normalize_point"),
        pytest.param(lambda: padic_valuation(True, 2), InputError, id="padic_valuation"),
        pytest.param(lambda: is_prime(True), NotPrimeError, id="is_prime"),
        pytest.param(lambda: SNCPair.build([("E", True)]), MalformedConfigurationError, id="SNCPair"),
    ],
)
def test_a_bool_is_not_a_number(call, error):
    # True == 1 in Python, but a bool, a JSON true too, is not a number: each
    # reader refuses it with its own error instead of reading 1.
    with pytest.raises(error, match="True is not a rational number"):
        call()
