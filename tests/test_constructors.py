"""Each value type has one constructor that owns its rules, and its parser
only coerces and then calls it: both reject the same malformed input with
an InputError subclass."""

import inspect
import math
from fractions import Fraction

import pytest

from logpairs import curves
from logpairs.cli import build_parser
from logpairs.errors import InputError
from logpairs.heights import HomogPoly, ProjPoint, normalize_point
from logpairs.polynomials import Poly2
from logpairs.snc import ResolvedPairData, SNCPair


def _homog_direct(num_vars, terms):
    degree = sum(terms[0][0]) if terms else 0
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
        ],
    ),
    *_cases(
        "Poly2",
        Poly2,
        Poly2.from_json,
        [([((0, 0), c)],) for c in [*UNREADABLE, "1/0", math.inf]] + [([((-1, 0), 1)],), ([((0.5, 0), 1)],)],
    ),
    *_cases(
        "SNCPair",
        _snc_direct,
        SNCPair.build,
        [
            *(([("E", c)], []) for c in UNREADABLE),
            ([("E", 1), ("E", 2)], []),
            ([("E0", 1), ("E1", 1)], [("E0", "E0")]),
            ([("E0", 1)], [("E0", "E9")]),
        ],
    ),
    *_cases(
        "ResolvedPairData",
        _resolved_direct,
        ResolvedPairData.build,
        [
            *(([("E", c, 0, True)],) for c in UNREADABLE),
            *(([("E", 0, c, True)],) for c in UNREADABLE),
            ([("E", 0, -1, True)],),
            ([("E", 0, 1, True), ("E", 0, 2, True)],),
        ],
    ),
    *_cases(
        "ProjPoint",
        lambda coords: ProjPoint(tuple(coords)),
        normalize_point,
        [(coords,) for coords in [("a", 1), (None, 1), (math.nan, 1), (math.inf, 1), (1j, 1), (0, 0), ()]],
    ),
]


@pytest.mark.parametrize("direct, parse, args", CASES)
def test_constructor_and_parser_reject_alike(direct, parse, args):
    for make in (direct, parse):
        with pytest.raises(InputError):
            make(*args)


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
