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
"""

import importlib.util
import math
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from logpairs.curves import (
    MAX_DEPTH,
    IdealKind,
    ResolutionNode,
    ResolutionTree,
    _rational_roots,
    _replay,
    blow_up_point,
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
            local = _replay(extended.nodes, f)
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


class TestNewtonNondegenerate:
    @settings(max_examples=30, deadline=None)
    @given(_nondegenerate_germs())
    def test_multiplier_ideal_and_lct_match_newton_polygon(self, f):
        edges = _compact_edges(f)
        tree = resolve(f)
        top = max(Fraction(phi, u + v) for u, v, phi in edges)
        assert tree_lct(tree) == min(1, 1 / top)
        monomials = [(i, j) for i in range(4) for j in range(4)]
        jumps = {Fraction(u * (i + 1) + v * (j + 1), phi) for u, v, phi in edges for i, j in monomials}
        ends = [Fraction(0), *sorted(c for c in jumps if c < 1), Fraction(1)]
        grid = ends[1:-1] + [(lo + hi) / 2 for lo, hi in zip(ends, ends[1:])]
        for c in grid:
            for i, j in monomials:
                expected = all(u * (i + 1) + v * (j + 1) > c * phi for u, v, phi in edges)
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


def _load_bench_oracles():
    """The benchmark's closed-form oracles, which import nothing from logpairs."""
    path = Path(__file__).resolve().parents[1] / "bench" / "oracles.py"
    spec = importlib.util.spec_from_file_location("bench_oracles", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module
