"""Independent oracles for the resolution layer.

Two properties that hold on any log resolution, checked on hypothesis-drawn
germs:

* Birational invariance: blowing up further points of a log resolution
  leaves the log canonical threshold and the three multiplier-like ideals
  unchanged.
* Howald's theorem (Multiplier ideals of sufficiently general polynomials,
  2003): for f nondegenerate with respect to its Newton polygon and c < 1,
  x^i y^j lies in J(c*f) iff u(i+1) + v(j+1) > c*phi(u, v) for the primitive
  normal (u, v) of every compact edge, phi(u, v) being the edge's support
  value; and lct(f) = min(1, 1/t) for t the largest phi(u, v)/(u + v).
"""

import math
from fractions import Fraction

from hypothesis import given, reject, settings
from hypothesis import strategies as st

from logpairs.curves import (
    IdealKind,
    _rational_roots,
    _replay,
    blow_up_point,
    resolve,
    tree_ideal_member,
    tree_lct,
)
from logpairs.errors import NonRationalCenterError
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
                for t in _rational_roots(local[n.id].blowup_x()[0].on_x_axis_restriction())[0]
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
