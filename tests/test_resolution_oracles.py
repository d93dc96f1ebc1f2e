"""Independent oracles for the resolution layer.

Two properties that hold on any log resolution, checked on hypothesis-drawn
germs, and a reference for the leaf rule in ``resolve``:

* Birational invariance: blowing up further points of a log resolution
  leaves the log canonical threshold and the three multiplier-like ideals
  unchanged.
* Howald's theorem (Multiplier ideals of sufficiently general polynomials,
  2003): for f nondegenerate with respect to its Newton polygon and c < 1,
  x^i y^j lies in J(c*f) iff u(i+1) + v(j+1) > c*phi(u, v) for the primitive
  normal (u, v) of every compact edge, phi(u, v) being the edge's support
  value; and lct(f) = min(1, 1/t) for t the largest phi(u, v)/(u + v).
* A simple tangent direction on one divisor is a transverse leaf
  (Casas-Alvero, Singularities of Plane Curves, 2000, ch. 3): ``resolve``
  records it at its parent and builds no strict transform there, and must
  give the same tree as a loop that builds every child.
* A run of forced centers, each the point t = 0 of multiplicity m on the
  previous divisor, is one Euclid step (Casas-Alvero, ch. 3-5): ``resolve``
  makes its nodes without blowing each one up, and must give the same tree
  as a loop that blows up every center.  ``ord_along`` and ``blow_up_point``
  replay a pullback along the runs the same way, and must give the orders of
  a replay that blows up every center.
* Divisorial valuations read on curvettes (Casas-Alvero, ch. 3-5): at
  shifted centers, ``ord_along`` must give ord_t g on a curvette of each
  exceptional divisor, found through the recorded chart maps alone.
* A change of coordinates phi (a shear y -> y + s*x or the swap x <-> y)
  keeps the lct and membership: on f o phi and g o phi, ``resolve`` and
  ``tree_ideal_member`` must give Howald's answers for f and g.
"""

import importlib.util
import math
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st

from logpairs import curves
from logpairs.curves import (
    MAX_DEPTH,
    IdealKind,
    ResolutionNode,
    ResolutionTree,
    _rational_roots,
    _unroll,
    blow_up_point,
    ord_along,
    resolve,
    tree_ideal_member,
    tree_lct,
)
from logpairs.errors import DepthExceededError, NonRationalCenterError
from logpairs.polynomials import Poly2

X, Y = Poly2.x(), Poly2.y()
ONE = Poly2.constant(1)

_RATIONAL = st.fractions(min_value=-9, max_value=9, max_denominator=9).filter(bool)
_COPRIME = st.tuples(st.integers(1, 3), st.integers(1, 4)).filter(lambda pq: math.gcd(*pq) == 1)


def _line(r: Fraction | None) -> Poly2:
    """The line y = r*x through the origin, or x = 0 for r None."""
    return X if r is None else Y - Poly2.constant(r) * X


@st.composite
def _germs(draw) -> Poly2:
    """y^a - s^a*x^b, a product of 2-4 distinct rational lines, or the
    two-Puiseux-pair branch (y^2 - x^3)^2 - x^k*y."""
    shape = draw(st.sampled_from(["power", "lines", "two_pairs"]))
    if shape == "power":
        a, b = draw(st.integers(2, 4)), draw(st.integers(2, 9))
        return Y**a - Poly2.constant(draw(_RATIONAL) ** a) * X**b
    if shape == "lines":
        slopes = draw(st.lists(st.none() | _RATIONAL, min_size=2, max_size=4, unique=True))
        f = ONE
        for r in slopes:
            f = f * _line(r)
        return f
    return (Y**2 - X**3) ** 2 - X ** draw(st.sampled_from([5, 7, 9])) * Y


MONOMIALS = [X**i * Y**j for i in range(4) for j in range(4 - i)]


def _replay_step_by_step(nodes, g: Poly2) -> dict[int, Poly2]:
    """Reference for ``_replay``'s runs: the strict transform of g at each
    center, one blowup per center through the recorded charts."""
    local: dict[int, Poly2] = {}
    for node in nodes:
        if node.parent is None:
            local[node.id] = g
        elif node.shift is not None:
            local[node.id] = local[node.parent].blowup_x(node.shift)[0]
        else:
            local[node.id] = local[node.parent].blowup_y()[0]
    return local


def _verdicts(tree, cs) -> list[bool]:
    return [tree_ideal_member(tree, c, g, kind) for c in cs for g in MONOMIALS for kind in IdealKind]


class TestBirationalInvariance:
    @settings(max_examples=25, deadline=None)
    @given(_germs(), st.data())
    def test_extra_blowups_keep_lct_and_ideals(self, f, data):
        try:
            tree = resolve(f)
        except NonRationalCenterError:
            reject()
        threshold = tree_lct(tree)
        cs = [*data.draw(st.lists(st.fractions(0, 2, max_denominator=12), min_size=3, max_size=3)), threshold]
        extended = tree
        for _ in range(data.draw(st.integers(1, 4))):
            # A point (node, shift) that no later center lies over: not the
            # origin of an x-chart child.  Half the time it is a point where
            # the curve's strict transform meets the node's divisor.
            taken = {(n.parent, n.shift) for n in extended.nodes}
            local = _replay_step_by_step(extended.nodes, f)
            on_curve = [
                (n.id, t)
                for n in extended.nodes
                for t, _ in _rational_roots(local[n.id].blowup_x()[0].on_x_axis_restriction())[0]
                if (n.id, t) not in taken
            ]
            anywhere = st.tuples(
                st.sampled_from([n.id for n in extended.nodes]), st.fractions(-3, 3, max_denominator=4)
            ).filter(lambda point: point not in taken)
            node, shift = data.draw(st.sampled_from(on_curve) | anywhere if on_curve else anywhere)
            extended = blow_up_point(extended, node, shift)
        assert tree_lct(extended) == threshold
        assert _verdicts(extended, cs) == _verdicts(tree, cs)


def _compact_edges(f: Poly2) -> list[tuple[int, int, int]]:
    """(u, v, phi) for each compact edge of the Newton polygon of f: the
    primitive inner normal and the edge's value of u*i + v*j."""
    hull: list[tuple[int, int]] = []
    for p in sorted(f.terms):
        # The lower convex hull, left to right (Andrew's monotone chain).
        while len(hull) >= 2:
            (i0, j0), (i1, j1) = hull[-2], hull[-1]
            if (i1 - i0) * (p[1] - j0) - (j1 - j0) * (p[0] - i0) > 0:
                break
            hull.pop()
        hull.append(p)
    edges = []
    for (i1, j1), (i2, j2) in zip(hull, hull[1:]):
        if j2 >= j1:
            break
        g = math.gcd(j1 - j2, i2 - i1)
        u, v = (j1 - j2) // g, (i2 - i1) // g
        edges.append((u, v, u * i1 + v * j1))
    return edges


@st.composite
def _nondegenerate_germs(draw) -> Poly2:
    """Products of branches y^p - r*x^q over distinct coprime (p, q), with
    distinct r per (p, q), optionally times x or y.  Each edge polynomial is a
    product of distinct rational linear factors in y^p/x^q, so f is
    nondegenerate and every center is rational."""
    f = draw(st.sampled_from([ONE, X, Y]))
    for p, q in draw(st.lists(_COPRIME, min_size=1, max_size=3, unique=True)):
        for r in draw(st.lists(_RATIONAL, min_size=1, max_size=2, unique=True)):
            f = f * (Y**p - Poly2.constant(r) * X**q)
    return f


def _howald(f: Poly2) -> tuple[Fraction, list[tuple[Fraction, int, int, bool]]]:
    """Howald's answers for a nondegenerate f: its lct, and (c, i, j, whether
    x^i y^j lies in J(c*f)) on a grid of c around every jump below 1."""
    edges = _compact_edges(f)
    top = max(Fraction(phi, u + v) for u, v, phi in edges)
    monomials = [(i, j) for i in range(4) for j in range(4)]
    jumps = {Fraction(u * (i + 1) + v * (j + 1), phi) for u, v, phi in edges for i, j in monomials}
    ends = [Fraction(0), *sorted(c for c in jumps if c < 1), Fraction(1)]
    grid = ends[1:-1] + [(lo + hi) / 2 for lo, hi in zip(ends, ends[1:])]
    cases = [
        (c, i, j, all(u * (i + 1) + v * (j + 1) > c * phi for u, v, phi in edges)) for c in grid for i, j in monomials
    ]
    return min(1, 1 / top), cases


class TestNewtonNondegenerate:
    @settings(max_examples=30, deadline=None)
    @given(_nondegenerate_germs())
    def test_multiplier_ideal_and_lct_match_newton_polygon(self, f):
        threshold, cases = _howald(f)
        tree = resolve(f)
        assert tree_lct(tree) == threshold
        for c, i, j, expected in cases:
            assert tree_ideal_member(tree, c, X**i * Y**j, IdealKind.J) == expected, (c, i, j)


def _resolve_by_children(f: Poly2, max_depth: int = MAX_DEPTH) -> ResolutionTree:
    """Reference for ``resolve``'s leaf rule: every rational tangent direction,
    simple or not, becomes a child with its own Taylor-shifted strict
    transform, and a transverse leaf stops only when it is popped."""
    nodes: list[ResolutionNode] = []
    contacts: set[int] = set()
    pending = [(f, None, None, (None, None), 1)] if (0, 0) not in f.terms else []
    while pending:
        local, parent, shift, (axis_x, axis_y), depth = pending.pop()
        m = local.order()
        axes = [a for a in (axis_x, axis_y) if a is not None]
        if m == 1:
            if not axes:
                continue
            if len(axes) == 1 and ((0, 1) if axis_x is not None else (1, 0)) in local.terms:
                contacts.add(axes[0])
                continue
        if depth > max_depth:
            raise DepthExceededError(f"resolution needs more than {max_depth} blowup levels")
        node = ResolutionNode(len(nodes) + 1, parent, m, shift, axis_x, axis_y)
        nodes.append(node)
        transformed, _ = local.blowup_x()
        restriction = transformed.on_x_axis_restriction()
        roots, has_irrational = _rational_roots(restriction)
        if has_irrational:
            raise NonRationalCenterError("irrational tangent directions")
        children = [(transformed.translate(0, t), node.id, t, node.child_axes(t), depth + 1) for t, _ in roots]
        if len(restriction) - 1 < m:
            children.append((local.blowup_y()[0], node.id, None, node.child_axes(None), depth + 1))
        pending.extend(reversed(children))
    return ResolutionTree(curve=f, nodes=tuple(nodes), curve_contacts=frozenset(contacts))


def _const(c) -> Poly2:
    return Poly2.constant(Fraction(c))


def _substitute(g: Poly2, u: Poly2, w: Poly2) -> Poly2:
    """g(u, w)."""
    value = Poly2()
    for (i, j), a in g.terms.items():
        value = value + _const(a) * u**i * w**j
    return value


def _two_pairs(k: int, c1=1, c2=-1) -> Poly2:
    """(y^2 - c1*x^3)^2 + c2*x^k*y, Puiseux characteristic (4; 6, 2k - 3)."""
    return (Y**2 - _const(c1) * X**3) ** 2 + _const(c2) * X**k * Y


def _lines(*slopes) -> Poly2:
    f = ONE
    for r in slopes:
        f = f * _line(None if r is None else Fraction(r))
    return f


def _branches(*branches) -> Poly2:
    """The product of y^p - r*x^q over (p, q, r)."""
    f = ONE
    for p, q, r in branches:
        f = f * (Y**p - _const(r) * X**q)
    return f


_SPLIT_GERMS = [
    *(pytest.param(Y**2 - _const(Fraction(4, 9)) * X ** (k + 1), id=f"A{k}") for k in range(1, 10)),
    *(pytest.param(X**2 * Y - _const(Fraction(9, 4)) * Y ** (k - 1), id=f"D{k}") for k in range(4, 10)),
    pytest.param(X**3 - _const(Fraction(16, 25)) * Y**4, id="E6"),
    pytest.param(X**3 - X * Y**3, id="E7"),
    pytest.param(X**3 - _const(Fraction(-7, 3)) * Y**5, id="E8"),
    pytest.param(_lines(0, None), id="lines-2"),
    pytest.param(_lines(1, -1, Fraction(1, 2)), id="lines-3"),
    pytest.param(_lines(None, 0, 3, Fraction(-2, 7)), id="lines-4"),
    pytest.param(_lines(1, 2, 3, 4, 5), id="lines-5"),
    pytest.param(_lines(Fraction(5, 3), None, Fraction(-1, 4), 0, 9, -9), id="lines-6"),
    pytest.param(_branches((2, 3, 1), (3, 2, 1)), id="branches-cusps"),
    pytest.param(_branches((2, 3, 1), (2, 3, Fraction(-4, 5))), id="branches-tangent-cusps"),
    pytest.param(_branches((2, 5, Fraction(1, 3)), (1, 2, 7), (1, 1, 2)), id="branches-3"),
    pytest.param(_branches((3, 7, 2), (2, 5, -1), (1, 3, Fraction(3, 8))), id="branches-3-mixed"),
    pytest.param(_branches((2, 9, 1), (2, 9, 2), (2, 9, 3)), id="branches-3-tangent"),
    pytest.param(_branches((1, 2, 1), (1, 2, 2)) * X, id="branches-times-x"),
    pytest.param(Y - X**2, id="smooth"),
    pytest.param(ONE + X, id="off-curve"),
    *(pytest.param(_two_pairs(k), id=f"two-pairs-{k}") for k in range(5, 22, 2)),
    *(
        pytest.param(_two_pairs(k, Fraction(2, 3), Fraction(3, 5)), id=f"two-pairs-rational-{k}")
        for k in range(5, 14, 2)
    ),
]


class TestTransverseLeaves:
    @pytest.mark.parametrize("f", _SPLIT_GERMS)
    def test_same_tree_as_building_every_child(self, f):
        tree, reference = resolve(f), _resolve_by_children(f)
        assert tree.nodes == reference.nodes
        assert tree.curve_contacts == reference.curve_contacts

    @pytest.mark.parametrize("f", [_two_pairs(9), _lines(None, 0, 1), Y**2 - X**9])
    def test_same_depth_limit(self, f):
        for max_depth in range(8):
            try:
                reference = _resolve_by_children(f, max_depth)
            except DepthExceededError:
                with pytest.raises(DepthExceededError):
                    resolve(f, max_depth)
                continue
            assert resolve(f, max_depth).nodes == reference.nodes

    @settings(max_examples=30, deadline=None)
    @given(_germs() | _nondegenerate_germs())
    def test_same_tree_on_drawn_germs(self, f):
        try:
            reference = _resolve_by_children(f)
        except NonRationalCenterError:
            reject()
        tree = resolve(f)
        assert (tree.nodes, tree.curve_contacts) == (reference.nodes, reference.curve_contacts)

    def test_deep_rational_two_pair_germ(self):
        oracles = _load_bench_oracles()
        tree = resolve(_two_pairs(61, Fraction(2, 3), Fraction(3, 5)))
        assert len(tree.nodes) == oracles.two_pair_nodes(61) == 61
        assert tree_lct(tree) == oracles.TWO_PAIR_LCT == Fraction(5, 12)

    def test_one_shift_per_repeated_direction(self, monkeypatch):
        # On (y^2 - (2/3)x^3)^2 + (3/5)x^21*y the only repeated direction off
        # the origin of a chart is the cusp's t = 2/3; the last center's
        # simple direction needs no shifted transform.
        shifts = []
        translate = Poly2.translate

        def counted(self, ax, ay):
            if ax or ay:
                shifts.append((ax, ay))
            return translate(self, ax, ay)

        monkeypatch.setattr(Poly2, "translate", counted)
        tree = resolve(_two_pairs(21, Fraction(2, 3), Fraction(3, 5)))
        assert len(tree.nodes) == 21
        assert shifts == [(0, Fraction(2, 3))]



def _resolve_step_by_step(f: Poly2, max_depth: int = MAX_DEPTH) -> ResolutionTree:
    """Reference for ``resolve``'s runs: its loop without them, so that every
    center, forced or not, is blown up on its own."""
    nodes: list[ResolutionNode] = []
    contacts: set[int] = set()
    pending = [(f, None, None, (None, None), 1)] if f.order() > 1 else []
    while pending:
        local, parent, shift, axes, depth = pending.pop()
        if depth > max_depth:
            raise DepthExceededError(f"resolution needs more than {max_depth} blowup levels")
        transformed, m = local.blowup_x()
        node = ResolutionNode(len(nodes) + 1, parent, m, shift, *axes)
        nodes.append(node)
        restriction = transformed.on_x_axis_restriction()
        directions, has_irrational = _rational_roots(restriction)
        if has_irrational:
            raise NonRationalCenterError("irrational tangent directions")
        if len(restriction) - 1 < m:
            directions.append((None, m - len(restriction) + 1))
        children = []
        for t, mult in directions:
            child_axes = node.child_axes(t)
            if mult == 1 and None in child_axes:
                contacts.add(node.id)
                continue
            if t is None:
                child = local.blowup_y()[0]
            else:
                child = transformed.translate(0, t) if t else transformed
            children.append((child, node.id, t, child_axes, depth + 1))
        pending.extend(reversed(children))
    return ResolutionTree(curve=f, nodes=tuple(nodes), curve_contacts=frozenset(contacts))


def _outcome(resolver, f: Poly2, max_depth: int):
    """The tree's nodes and contacts, or the type of the error raised."""
    try:
        tree = resolver(f, max_depth)
    except (DepthExceededError, NonRationalCenterError) as exc:
        return type(exc)
    return tree.nodes, tree.curve_contacts


def _assert_same_as_step_by_step(f: Poly2, max_depth: int = 2000) -> None:
    assert _outcome(resolve, f, max_depth) == _outcome(_resolve_step_by_step, f, max_depth), f


def _tower(a: int, b: int, c=3, swap: bool = False) -> Poly2:
    """y^a - c*x^b, or x^a - c*y^b when swapped."""
    u, v = (X, Y) if swap else (Y, X)
    return u**a - _const(c) * v**b


def _swap(f: Poly2) -> Poly2:
    """f(y, x), the mirror image in the diagonal, whose runs of vertical centers
    are the x-chart runs of f."""
    return Poly2({(j, i): c for (i, j), c in f.terms.items()})


_TOWER_BS = [*range(1, 1001, 37), 299, 300, 301, 997, 999, 1000]

_TOWER_PRODUCTS = [
    pytest.param(_tower(2, 97) * _lines(None), id="tower-times-x"),
    pytest.param(_tower(2, 97) * _lines(0), id="tower-times-y"),
    pytest.param(_tower(3, 100) * _lines(1, -2), id="tower-times-two-lines"),
    pytest.param(_tower(5, 301, Fraction(-2, 7)) * _lines(None, 0), id="tower-times-axes"),
    pytest.param(_tower(4, 201, swap=True) * _lines(None, Fraction(1, 3)), id="swapped-tower-times-lines"),
    pytest.param(_tower(2, 41) * _tower(2, 41, 5), id="two-tangent-towers"),
    pytest.param(_tower(2, 41) * _tower(3, 43, 2) * _lines(0), id="towers-and-y"),
]


@st.composite
def _tower_products(draw) -> Poly2:
    """Products of 1-3 branches y^p - r*x^q with p up to 5 and q up to 150,
    optionally times lines, and swapped half the time."""
    f = ONE
    for _ in range(draw(st.integers(1, 3))):
        f = f * (Y ** draw(st.integers(1, 5)) - Poly2.constant(draw(_RATIONAL)) * X ** draw(st.integers(1, 150)))
    for r in draw(st.lists(st.none() | _RATIONAL, max_size=2, unique=True)):
        f = f * _line(r)
    return _swap(f) if draw(st.booleans()) else f


class TestRuns:
    @pytest.mark.parametrize("swap", [False, True], ids=["y^a", "x^a"])
    @pytest.mark.parametrize("a", [2, 3, 4, 5])
    def test_same_tree_on_towers(self, a, swap):
        for b in _TOWER_BS:
            _assert_same_as_step_by_step(_tower(a, b, Fraction(-5, 7) if b % 2 else 4, swap))

    @pytest.mark.parametrize("rational", [False, True])
    def test_same_tree_on_two_pair_germs(self, rational):
        for k in range(5, 202, 2 if rational else 1):
            _assert_same_as_step_by_step(_two_pairs(k, Fraction(2, 3), Fraction(3, 5)) if rational else _two_pairs(k))

    @pytest.mark.parametrize("f", _TOWER_PRODUCTS)
    def test_same_tree_on_products_with_lines(self, f):
        _assert_same_as_step_by_step(f)

    @settings(max_examples=60, deadline=None)
    @given(_tower_products() | _germs() | _nondegenerate_germs())
    def test_same_tree_on_drawn_germs(self, f):
        _assert_same_as_step_by_step(f, 400)

    @pytest.mark.parametrize(
        "f",
        [
            _tower(2, 41),
            _tower(2, 41, swap=True),
            _tower(3, 31, swap=True),
            _tower(5, 37),
            _two_pairs(15),
            _tower(2, 41) * _lines(0),
        ],
    )
    def test_same_result_at_every_depth_limit(self, f):
        nodes = len(resolve(f, 2000).nodes)
        for max_depth in range(1, nodes + 2):
            curves._CENTERS.clear()  # a resolve under this bound, not the tree stored at 2000
            assert _outcome(resolve, f, max_depth) == _outcome(_resolve_step_by_step, f, max_depth), max_depth

    def test_node_counts_and_lcts_match_the_bench_oracles(self):
        oracles = _load_bench_oracles()
        for a in (2, 3, 4, 5):
            for b in _TOWER_BS:
                if b > a and math.gcd(a, b) == 1:
                    tree = resolve(_tower(a, b), 2000)
                    assert len(tree.nodes) == oracles.tower_nodes(a, b), (a, b)
                    assert tree_lct(tree) == oracles.tower_lct(a, b), (a, b)
        for k in range(5, 202):
            tree = resolve(_two_pairs(k), 2000)
            assert len(tree.nodes) == oracles.two_pair_nodes(k), k
            assert tree_lct(tree) == oracles.TWO_PAIR_LCT, k

    @pytest.mark.parametrize("f", [_tower(2, 97), _tower(3, 64, swap=True), _two_pairs(41)])
    def test_pullbacks_and_extra_blowups_match_the_reference(self, f):
        tree, reference = resolve(f, 2000), _resolve_step_by_step(f, 2000)
        for g in [*MONOMIALS, f, Y - X**5, X**7 + Y**3]:
            assert ord_along(tree, g) == ord_along(reference, g)
        for node_id in (1, 2, len(tree.nodes) // 2, len(tree.nodes)):
            for shift in (Fraction(1, 2), -3):
                assert blow_up_point(tree, node_id, shift).nodes == blow_up_point(reference, node_id, shift).nodes

    @pytest.mark.parametrize(
        "f, nodes, most",
        [
            (_tower(2, 297), 150, 3),
            (_tower(2, 297, swap=True), 150, 3),
            (_two_pairs(201), 201, 6),
            (_swap(_two_pairs(201)), 201, 6),
            (_two_pairs(201, Fraction(2, 3), Fraction(3, 5)), 201, 6),
        ],
        ids=["tower", "swapped-tower", "two-pairs", "swapped-two-pairs", "rational-two-pairs"],
    )
    def test_a_run_costs_no_blowup_per_center(self, monkeypatch, f, nodes, most):
        # Blown up one center at a time, these germs take one blowup_x or
        # blowup_y per node; with runs of either chart, a few per partial
        # quotient.  The same holds for the replay of a pullback along the tree.
        calls = []
        for name in ("blowup_x", "blowup_y"):

            def counted(self, *args, blowup=getattr(Poly2, name)):
                calls.append(1)
                return blowup(self, *args)

            monkeypatch.setattr(Poly2, name, counted)
        curves._CENTERS.clear()
        tree = resolve(f, 2000)
        assert len(tree.nodes) == nodes
        assert len(calls) <= most
        calls.clear()
        ord_along(tree, X * Y)
        assert len(calls) <= most


@st.composite
def _deep_towers(draw, swaps: bool = True) -> Poly2:
    """Towers with at least 100 centers: y^2 - c*x^b (odd b from 199) and
    y^3 - c*x^b (b from 298), swapped half the time if ``swaps``, and
    x^120 - c*y^121, whose shift-0 centers have axis_x > axis_y."""
    c, swap = draw(_RATIONAL), swaps and draw(st.booleans())
    shape = draw(st.sampled_from(["2", "3", "120"]))
    if shape == "2":
        return _tower(2, 2 * draw(st.integers(99, 150)) + 1, c, swap)
    if shape == "3":
        return _tower(3, draw(st.sampled_from([b for b in range(298, 331) if b % 3])), c, swap)
    return _tower(120, 121, c, swap=True)


@st.composite
def _pulled_back(draw, top: int = 320) -> Poly2:
    """One to four terms r*x^i*y^j, or a branch y^e - r*x^k, which follows
    a tower's centers for a while; i and k are at most ``top``."""
    if draw(st.booleans()):
        return Y ** draw(st.integers(1, 3)) - Poly2.constant(draw(_RATIONAL)) * X ** draw(st.integers(1, top))
    g = Poly2()
    for _ in range(draw(st.integers(1, 4))):
        g = g + Poly2.monomial(draw(st.integers(0, top)), draw(st.integers(0, 6)), draw(_RATIONAL))
    return g if g else X


def _assert_replay_matches_step_by_step(tree: ResolutionTree, g: Poly2) -> None:
    local = _replay_step_by_step(tree.nodes, g)
    assert ord_along(tree, g).by_divisor == _unroll(tree, lambda node: local[node.id].order()), g


_EXTRA_SHIFTS = [Fraction(t) for t in (0, 1, -1, Fraction(1, 2), Fraction(-2, 3), 3, Fraction(-5, 4))]


def _assert_extra_blowups_replay(f: Poly2, data, inside) -> None:
    """One to four extra centers on resolve(f), each on a node that ``inside``
    picks (a center inside a run) or on the last node made, so that a chart
    child of an extra center starts a chain the tree did not record.  Each
    extra center's multiplicity and then the pullbacks of a few g match the
    step-by-step reference."""
    extended = resolve(f, 2000)
    for _ in range(data.draw(st.integers(1, 4))):
        taken = {(n.parent, n.shift) for n in extended.nodes}
        node = data.draw(st.sampled_from([n.id for n in extended.nodes if inside(n)] + [len(extended.nodes)]))
        shift = data.draw(st.sampled_from([t for t in _EXTRA_SHIFTS if (node, t) not in taken]))
        extended = blow_up_point(extended, node, shift)
        new = extended.nodes[-1]
        assert new.mult == _replay_step_by_step(extended.nodes, f)[new.id].order()
    # An extra center's shift expands g's transform densely, so g stays of
    # low degree.
    for g in (f, X * Y, data.draw(_pulled_back(40))):
        _assert_replay_matches_step_by_step(extended, g)


class TestRunReplay:
    # ``_replay`` takes each chain of shift-0 x-chart centers, or of vertical
    # ones, in one substitution; the reference blows up every center on its own.
    @settings(max_examples=40, deadline=None)
    @given(_deep_towers(), st.lists(_pulled_back(), min_size=1, max_size=4))
    def test_ord_along_on_deep_towers(self, f, gs):
        tree = resolve(f, 2000)
        assert len(tree.nodes) >= 100
        for g in [f, *gs]:
            _assert_replay_matches_step_by_step(tree, g)

    @settings(max_examples=40, deadline=None)
    @given(_deep_towers(swaps=False), st.data())
    def test_extra_blowups_inside_runs(self, f, data):
        _assert_extra_blowups_replay(f, data, lambda n: n.shift == 0)

    # A swapped tower's vertical charts raise the y-degree of its transforms
    # to about b, which an extra center's shift expands densely: b <= 60
    # keeps the reference cheap.
    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from([2, 3]), _RATIONAL, st.data())
    def test_extra_blowups_inside_vertical_runs(self, a, c, data):
        f = _tower(a, data.draw(st.integers(4, 60).filter(lambda b: b % a)), c, swap=True)
        _assert_extra_blowups_replay(f, data, lambda n: n.shift is None and n.parent is not None)

    @pytest.mark.parametrize("f", [_tower(2, 41, swap=True), _tower(3, 40, Fraction(-5, 7), swap=True)])
    def test_a_branch_leaving_a_vertical_run(self, f):
        # Nodes 1 to n make a vertical chain from the root.  x - y^n / t passes
        # through each of them and meets node n's divisor at the point t, off
        # the curve, where the extra center is.
        tree = resolve(f, 2000)
        for n in (2, 5, 9):
            assert all(node.shift is None for node in tree.nodes[:n])
            for t in (Fraction(1), Fraction(-2, 3), Fraction(3)):
                extended, g = blow_up_point(tree, n, t), X - _const(1 / t) * Y**n
                assert _replay_step_by_step(extended.nodes, g)[extended.nodes[-1].id].order() == 1
                _assert_replay_matches_step_by_step(extended, g)


def _load_bench_oracles():
    """The benchmark's closed-form oracles, which import nothing from logpairs."""
    path = Path(__file__).resolve().parents[1] / "bench" / "oracles.py"
    spec = importlib.util.spec_from_file_location("bench_oracles", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _curvette_orders(tree: ResolutionTree, g: Poly2) -> dict[int, int]:
    """ord_{E_i}(g) for every node i, read on curvettes, with no strict transform.

    Node i's coordinates map to the root's through the recorded charts,
    (x, y) -> (x, x*(y + shift)) or (x*y, y).  The curve (t, c*t) there lifts
    to a curvette of E_i through its point c, and ord_{E_i}(g) is
    ord_t g(Phi_i(t, c*t)) for all but finitely many c (Casas-Alvero,
    Singularities of Plane Curves, 2000, ch. 3-5); a special c only raises
    it, so the least over three values of c is taken.
    """
    orders = {}
    for node in tree.nodes:
        seen = []
        for c in (Fraction(3, 7), Fraction(-5, 11), Fraction(13, 4)):
            u, w = X, _const(c) * X
            n = node
            while n.parent is not None:
                u, w = (u, u * (w + _const(n.shift))) if n.shift is not None else (u * w, w)
                n = tree.node(n.parent)
            value = _substitute(g, u, w)
            if value:
                seen.append(value.order())
        orders[node.id] = min(seen)
    return orders


_SLOPES = [1, 2, Fraction(1, 2), -3]


def _shifted_germs():
    """(y - s*x)^2 - x^3, (y - s*x)^2 - x^5, (y - s*x)^3 - x^7 and
    y*((y - s*x)^2 - x^3): the tangent y = s*x makes the second center the
    nonzero shift s, and every later center sits in its charts."""
    for s in _SLOPES:
        L = Y - _const(s) * X
        for name, f in [("A2", L**2 - X**3), ("A4", L**2 - X**5), ("E", L**3 - X**7), ("y-A2", Y * (L**2 - X**3))]:
            yield pytest.param(f, L, id=f"{name}-s={s}")


def _random_poly(rng: random.Random, a: Poly2, b: Poly2) -> Poly2:
    """A sum of one to four terms c*a^i*b^j with i + j <= 5."""
    g = Poly2()
    for _ in range(rng.randint(1, 4)):
        i = rng.randint(0, 5)
        j = rng.randint(0, 5 - i)
        g = g + _const(Fraction(rng.choice([-5, -3, -2, -1, 1, 2, 3, 5]), rng.randint(1, 3))) * a**i * b**j
    return g if g else X


class TestCurvettes:
    @pytest.mark.parametrize("f, L", _shifted_germs())
    def test_ord_along_matches_curvettes_at_shifted_centers(self, f, L):
        # Random g in (x, y), random g in (x, y - s*x), which share the
        # curve's centers, and a few that follow the curve further.
        rng = random.Random(str(f))
        gs = [
            *(_random_poly(rng, X, Y) for _ in range(14)),
            *(_random_poly(rng, X, L) for _ in range(14)),
            *(L + _const(a) * X**2 for a in (1, -2, Fraction(1, 3))),
            L**2 - X**3,
            L**3 - X**7,
            X * L,
            f,
            f + X**9,
        ]
        tree = resolve(f)
        for g in gs:
            assert ord_along(tree, g).by_divisor == _curvette_orders(tree, g), g

    def test_cusp_on_the_diagonal(self):
        # The shift-sign mirror in the replay reads {1: 1, 2: 1, 3: 2} here.
        L = Y - X
        assert ord_along(resolve(L**2 - X**3), L).by_divisor == {1: 1, 2: 2, 3: 3}


# Changes of coordinates phi, as (x, y) -> (u, w): shears y -> y + s*x, which
# move every tangent direction but x = 0 off the axes so that later centers
# have nonzero shifts, and the swap x <-> y.
_CHANGES = {**{f"y+{s}x": (X, Y + _const(s) * X) for s in (1, -1, Fraction(1, 2), -3)}, "swap": (Y, X)}


class TestChangeOfCoordinates:
    # Membership and the lct do not change under phi: g o phi lies in
    # J(c * f o phi) iff g lies in J(c * f).  Howald's answer is computed on
    # the nondegenerate f, before phi, and resolve sees only f o phi.
    @settings(max_examples=30, deadline=None)
    @given(_nondegenerate_germs(), st.sampled_from(sorted(_CHANGES)))
    @example(Y**2 - X**5, "y+-1x")  # y - x is in J((9/10) * ((y - x)^2 - x^5))
    def test_newton_answer_after_a_change_of_coordinates(self, f, change):
        u, w = _CHANGES[change]
        threshold, cases = _howald(f)
        tree = resolve(_substitute(f, u, w))
        assert tree_lct(tree) == threshold
        pulled = {(i, j): _substitute(X**i * Y**j, u, w) for _, i, j, _ in cases}
        for c, i, j, expected in cases:
            assert tree_ideal_member(tree, c, pulled[i, j], IdealKind.J) == expected, (c, i, j)
