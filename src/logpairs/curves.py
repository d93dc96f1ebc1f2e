"""Exact resolution of plane-curve germs at rational centers by point blowups.

The germ of a squarefree affine curve at the origin is resolved by iterated
point blowups until the total transform (strict transform plus exceptional
divisors) is a simple normal crossing configuration.  Each blowup center is
recorded as a tree node carrying its multiplicity and its proximity set, the
ancestors whose exceptional divisors pass through it.  Two classical
recursions then produce, for every exceptional divisor, its multiplicity in
the relative canonical divisor (k) and in the total transform of the curve
(v):

    k_i = 1 + sum of k_j over the proximity set of i,
    v_i = m_i + sum of v_j over the proximity set of i.

The tree carries both tables as ``tree.k`` and ``tree.v``, each computed once
per tree on first read.  From them one reads off discrepancies ``k - c*v`` of
the pair (plane, c * curve), the log canonical threshold
``min(1, min (k+1)/v)``, and per-divisor vanishing-order thresholds defining
membership in the three multiplier-like ideals (round-down, round-up, and the
small-perturbation round-up).  For c = p/q the discrepancy table is kept as
integers over q (``q*k - p*v`` and ``p*v``), and the thresholds are computed
from those integers.

Every center must be rational; a tangent direction that only exists over a
proper extension of Q raises :class:`~logpairs.errors.NonRationalCenterError`
rather than approximating.  The tangent directions on a new exceptional
divisor are the roots of the strict transform's restriction to it, each with
its multiplicity (the power of t for the root 0, 1 for a solved linear part,
sympy's ``factor_list`` otherwise), plus the vertical direction with the
multiplicity the restriction's degree leaves.  A simple direction whose
point lies on the new divisor alone (no older divisor passes through it) is
a smooth branch transverse to that divisor, which needs no further blowup
(Casas-Alvero, Singularities of Plane Curves, ch. 3): its contact is
recorded at the node that found it and its strict transform is never built.

Most centers of a deep germ come in runs, in either chart.  After a blowup
at a center of multiplicity m, when every term (i, j) of the strict
transform with j < m has a = i + j - m >= 0, the restriction to the new
divisor is c*y^m alone and the next center is the point t = 0 of the same
multiplicity m.  Each such blowup maps (i, j) to (i + j - m, j), lowering a
by m - j, so the next k centers are forced, k the least a // (m - j) + 1
over those terms: their nodes are made at once, and the transform after
them is the one substitution (i, j) -> (i + k*(j - m), j).  The vertical
chart (x*y, y) is the x chart of f(y, x), so its runs are those of f(y, x).
Runs are long because the centers of one Euclid step on the Puiseux
exponents share one chart and one multiplicity: a run and the center that
starts it make up to a partial quotient's worth of centers.  So y^a - c*x^b
and its mirror, whose resolutions have the sum of the partial quotients of
b/a as their number of centers (Casas-Alvero, Singularities of Plane Curves,
ch. 3-5), cost a few blowups per partial quotient instead of one per center.

Chart bookkeeping keeps exceptional divisors along coordinate axes: after a
blowup, the finite-direction chart is (x, y) -> (x, x*(y + t)) with the new
exceptional divisor at {x = 0}, and the vertical-direction chart is
(x, y) -> (x*y, y) with the new divisor at {y = 0}.  At any center at most
two exceptional divisors pass through, one per axis, so a center's
proximity set is read off its two axes.  A node keeps only its chart's shift
(None for the vertical chart) and its two axes; the order of the strict
transform of the curve, or of any other polynomial, at a center is replayed
from the origin through the recorded charts, by runs too: a chain of centers
of either chart costs one minimum per center, not one blowup.

Two exact steps keep their answer for the last input each, keyed by the
polynomial: the squarefree check and the centers of :func:`resolve`, kept
with the depth their tree needs (its deepest node's).  They serve every
``max_depth`` at or above it; a smaller one runs a fresh resolve, which
raises.  That is exact: a resolve that does not raise finds the same tree
at every bound, since a run cut short by the bound leaves a t = 0 or
vertical direction of multiplicity m >= 2 one level too deep.  A miss works
under the caller's own bound; only one that finishes replaces the kept
centers.  Errors are not kept, and each :func:`resolve` builds its own tree
from the immutable nodes and contacts, so its tables are never shared.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, NamedTuple, Union

from .errors import (
    BadRangeError,
    DepthExceededError,
    InputError,
    MalformedPolynomialError,
    NonRationalCenterError,
    ZeroInputError,
)
from .polynomials import Poly2, clear_denominators, exact_int, read_number, read_rows, read_shape
from .snc import ResolvedPairData, SNCPair

PolyLike = Union["AffineCurve", Poly2]

MAX_DEPTH = 64  # default bound on blowup levels, for resolve, its callers and the CLI
_ZERO = Fraction(0)  # the shift of every x-run node
# poly -> (the depth its tree needs, (nodes, contacts)), for the last resolve that finished
_CENTERS: dict[Poly2, tuple[int, tuple[tuple[ResolutionNode, ...], frozenset[int]]]] = {}


class IdealKind(enum.Enum):
    """The three multiplier-like ideals, ordered H inside J inside I."""

    H = "H"
    J = "J"
    I = "I"


def _as_poly(f: PolyLike) -> Poly2:
    return f.poly if isinstance(f, AffineCurve) else f


@functools.lru_cache(maxsize=1)
def _is_squarefree(poly: Poly2) -> bool:
    """Whether f = ``poly`` has no repeated factor over Q.

    Write f in Z[u][v], v the variable of lower degree, as c(u) * p(u, v)
    with c the content (the gcd of the v-columns, the coefficients of the
    powers of v) and p primitive.  As p has no factor in u alone, f is
    squarefree exactly when c and p are.  A column with one term fixes c as
    a constant times u^L, L the least power of u in a column, and u^2 | f is
    refused first, so then c is squarefree.  Otherwise the bivariate gcds
    below decide.

    When c is fixed, p is certified by one univariate gcd.  At a value a
    where the leading column of f does not vanish, neither c(a) nor the
    leading coefficient of p does, so the discriminant of p in v, taken at
    a, is that of p(a, v).  If f(a, v) = c(a) * p(a, v) is squarefree, that
    discriminant is nonzero, hence so is p's, and p is squarefree
    (characteristic 0).  a runs over 1, -1 and 2, not 0, where a germ is
    singular.  When no value certifies, the bivariate gcds below decide, so
    the answer is exact.
    """
    import sympy

    x, y = sympy.symbols("x y")
    # Scaling by a nonzero constant keeps the roots, factors and squarefreeness.
    coeffs = clear_denominators(poly.terms.values())[1]
    # v, the variable of lower degree, is sympy's first generator: its gcds
    # are cheaper that way.  keys are (v, u) exponents.
    if max(j for _, j in poly.terms) < max(i for i, _ in poly.terms):
        first, second = y, x
        keys = [(j, i) for i, j in poly.terms]
    else:
        first, second = x, y
        keys = list(poly.terms)
    terms = dict(zip(keys, coeffs))
    columns: dict[int, dict[int, int]] = {}
    for (k, e), c in terms.items():
        columns.setdefault(k, {})[e] = c
    if min(min(column) for column in columns.values()) > 1:
        return False  # u^2 divides f
    if any(len(column) == 1 for column in columns.values()):
        top = max(columns)
        for a in (1, -1, 2):
            values = {(k,): sum(c * a**e for e, c in column.items()) for k, column in columns.items()}
            if values[(top,)]:
                p = sympy.Poly.from_dict(values, first, domain="ZZ")
                if sympy.gcd(p, p.diff()).degree() == 0:
                    return True
    # A repeated factor h^2 | f divides into both f_v and f_u, so either gcd
    # settles it when constant; the one with f_v is cheaper.
    f = sympy.Poly.from_dict(terms, first, second, domain="ZZ")
    g = sympy.gcd(f, f.diff(first))
    if g.total_degree() == 0:
        return True
    return sympy.gcd(g, f.diff(second)).total_degree() == 0


def _rational_roots(coeffs: list[Fraction]) -> tuple[list[tuple[Fraction, int]], bool]:
    """Distinct rational roots of a dense univariate polynomial, each with its
    multiplicity, in increasing root order.

    Also reports whether the factorization over Q contains an irreducible
    factor of degree at least 2, i.e. roots that are not rational.  The
    lowest power of t gives the root 0 with that power as its multiplicity,
    and a remaining linear part is a simple root solved directly; only a
    remaining part of degree >= 2 is factored by sympy, whose ``factor_list``
    gives the multiplicities of its roots.
    """
    support = [j for j, c in enumerate(coeffs) if c]
    if not support:
        return [], False
    low, high = support[0], support[-1]
    roots = [(Fraction(0), low)] if low else []
    if high - low == 1:
        roots.append((-Fraction(coeffs[low], coeffs[high]), 1))
    if high - low <= 1:
        return sorted(roots), False
    import sympy

    _, part = clear_denominators(coeffs[low : high + 1])
    poly = sympy.Poly(part[::-1], sympy.Symbol("t"), domain="ZZ")
    has_irrational = False
    for factor, mult in poly.factor_list()[1]:
        if factor.degree() == 1:
            lead, const = factor.all_coeffs()
            roots.append((-Fraction(int(const), int(lead)), mult))
        elif factor.degree() >= 2:
            has_irrational = True
    return sorted(roots), has_irrational


def _run_length(exponents: Iterable[tuple[int, int]], m: int, limit: int) -> int:
    """How many centers after one of multiplicity m are forced (see the
    module docstring), at most limit; ``exponents`` are the terms of the
    strict transform that blowing that center up makes in the run's chart.

    A term (i, j) with j < m and a = i + j - m < 0 gives 0.  At m = 1 a
    center on one divisor is only reached tangent to it, which puts the
    constant term (0, 0) among the exponents of a run that would start at a
    transverse leaf: an x run on x = 0 alone, a vertical one on y = 0 alone.
    """
    return min([limit, *((i + j - m) // (m - j) + 1 for i, j in exponents if j < m)])


@dataclass(frozen=True)
class AffineCurve:
    """A reduced affine plane curve: nonzero, nonconstant, squarefree over Q."""

    poly: Poly2

    def __post_init__(self) -> None:
        if self.poly.is_zero:
            raise ZeroInputError("the zero polynomial does not define a curve")
        if self.poly.total_degree() == 0:
            raise InputError("a constant does not define a curve")
        if not _is_squarefree(self.poly):
            raise InputError("curve polynomial must be squarefree over Q")

    @classmethod
    def from_json(cls, data: list | dict) -> "AffineCurve":
        """The :meth:`Poly2.from_json` rows of the curve, bare or as ``{"f": rows}``."""
        rows = read_shape(lambda d: d["f"] if isinstance(d, dict) else d, data, MalformedPolynomialError)
        return cls(Poly2.from_json(rows))


class ResolutionNode(NamedTuple):
    """One blowup center.

    ``shift`` says how local coordinates at this center arise from the
    parent's: (x, x*(y + shift)) in the x chart, or (x*y, y) in the y chart
    when ``shift`` is None; the root has no parent and no shift.  ``axis_x``
    and ``axis_y`` name the exceptional divisors along the two coordinate
    axes here.  A named tuple: a deep tree makes one per center, several
    times faster than a frozen dataclass.
    """

    id: int
    parent: int | None
    mult: int
    shift: Fraction | None
    axis_x: int | None
    axis_y: int | None

    @property
    def proximate_to(self) -> frozenset[int]:
        """The ancestors whose exceptional divisors pass through this center:
        the divisors along its axes (the parent is always one of them)."""
        return frozenset(a for a in (self.axis_x, self.axis_y) if a is not None)

    def child_axes(self, shift: Fraction | None) -> tuple[int | None, int | None]:
        """(axis_x, axis_y) at a center on this node's exceptional divisor:
        the new divisor lies along x = 0 at (0, shift) in the x chart, where
        the divisor along this node's y-axis still passes only at shift 0,
        and along y = 0 in the y chart, which keeps this node's x-axis."""
        return (self.axis_x, self.id) if shift is None else (self.id, self.axis_y if shift == 0 else None)


@dataclass(frozen=True)
class ResolutionTree:
    """Blowup centers of a germ at the origin, in creation (parent-first) order.

    ``curve_contacts`` collects the exceptional divisors that the strict
    transform of the curve meets on the final model produced by
    :func:`resolve`; extensions made with :func:`blow_up_point` do not
    refresh it.
    """

    curve: Poly2
    nodes: tuple[ResolutionNode, ...]
    curve_contacts: frozenset[int]

    def node(self, node_id: int) -> ResolutionNode:
        if not 1 <= node_id <= len(self.nodes):
            raise KeyError(node_id)
        return self.nodes[node_id - 1]

    @functools.cached_property
    def k(self) -> dict[int, int]:
        """Multiplicity of each exceptional divisor in the relative canonical divisor."""
        return _unroll(self, lambda node: 1)

    @functools.cached_property
    def v(self) -> dict[int, int]:
        """Multiplicity of each exceptional divisor in the total transform of the curve."""
        return _unroll(self, lambda node: node.mult)

    @functools.cached_property
    def labels(self) -> tuple[str, ...]:
        """Divisor labels of the resolved model: ``E<id>`` per node in creation
        order, then the strict transform ``C``."""
        return (*[f"E{node.id}" for node in self.nodes], "C")

    @functools.cached_property
    def dual_edges(self) -> frozenset[frozenset[str]]:
        """Label pairs of meeting divisors on the resolved model: proximity
        edges (two exceptional divisors still meet unless a later center was
        proximate to both) and the recorded strict-transform contacts.

        Valid for trees as produced by :func:`resolve`.
        """
        # A center is proximate to at most two divisors, its axes, so E_anc
        # and E_node are separated exactly when a later center has both.
        meets: set[tuple[int, int]] = set()
        for node in self.nodes:
            ax, ay = node.axis_x, node.axis_y
            if ax is not None:
                meets.add((ax, node.id))
            if ay is not None:
                meets.add((ay, node.id))
                if ax is not None:
                    meets.discard((ax, ay) if ax < ay else (ay, ax))
        # Node ids count from 1 in creation order; labels[-1] is the strict transform.
        labels = self.labels
        edges = {frozenset((labels[a - 1], labels[b - 1])) for a, b in meets}
        edges.update(frozenset((labels[anc - 1], labels[-1])) for anc in self.curve_contacts)
        return frozenset(edges)


@dataclass(frozen=True)
class PullbackOrders:
    """Vanishing orders of an auxiliary polynomial along the tower.

    ``by_divisor`` maps each exceptional divisor to the multiplicity of the
    pulled-back polynomial along it; ``strict`` is the exact power of the
    curve polynomial dividing it.
    """

    by_divisor: dict[int, int]
    strict: int


def multiplicity_at(f: PolyLike, pt: tuple) -> int:
    """Order of the lowest form of f recentred at pt, a pair of rational
    numbers; 0 iff pt is off the curve.  Any other pt raises ``InputError``."""
    [(px, py)] = read_rows([pt], lambda x, y: (read_number(x, InputError), read_number(y, InputError)), InputError)
    return _as_poly(f).translate(px, py).order()


def resolve(f: PolyLike, max_depth: int = MAX_DEPTH) -> ResolutionTree:
    """Resolve the germ at the origin; all centers must be rational.

    Returns the tree of blown-up centers with multiplicities and proximity
    data.  A smooth germ (or a point off the curve) yields an empty tree.
    A ``max_depth`` that is negative or not an integer (read by ``exact_int``:
    3.0 and "3" are 3) raises ``BadRangeError`` before any work.
    """
    max_depth = exact_int(max_depth, "max_depth", BadRangeError)
    if max_depth < 0:
        raise BadRangeError(f"max_depth must be at least 0, got {max_depth}")
    return ResolutionTree(poly := _as_poly(f), *_centers(poly, max_depth))


def _centers(poly: Poly2, max_depth: int) -> tuple[tuple[ResolutionNode, ...], frozenset[int]]:
    """The nodes and curve contacts of :func:`resolve`, for a ``max_depth`` >= 0."""
    needed, centers = _CENTERS.get(poly, (max_depth + 1, None))
    if needed <= max_depth:
        return centers
    needed = 0
    nodes: list[ResolutionNode] = []
    contacts: set[int] = set()
    # Centers still to visit, as (strict transform, parent, shift, axes,
    # depth).  Directions are pushed in reverse so that they pop in order and
    # node ids follow a depth-first pre-order.  Only singular points are
    # pushed: the origin when the curve is singular there, and the tangent
    # directions that are not transverse leaves.
    pending = [(poly, None, None, (None, None), 1)] if poly.order() > 1 else []
    while pending:
        local, parent, shift, axes, depth = pending.pop()
        if depth > max_depth:
            raise DepthExceededError(f"resolution needs more than {max_depth} blowup levels")
        transformed, m = local.blowup_x()
        node = ResolutionNode(len(nodes) + 1, parent, m, shift, *axes)
        nodes.append(node)
        # A term x^m in ``local`` leaves a constant term in the transform: no x
        # run follows, but a vertical one may, an x run of f(y, x), which takes
        # (i, j) in ``local`` to (i + j - m, i).  Run nodes take child_axes(None)
        # or child_axes(0), written out: a run is all of a deep tree's nodes.
        vertical = (0, 0) in transformed.terms
        exponents = [(i + j - m, i) for i, j in local.terms] if vertical else transformed.terms
        run = _run_length(exponents, m, max_depth - depth)
        if vertical and run:
            nodes.extend(ResolutionNode(p + 1, p, m, None, node.axis_x, p) for p in range(node.id, node.id + run))
            transformed = (local := local.x_chart(run, run * m, mirror=True)).x_chart(1, m)
        elif run:
            # The transform after the run keeps its term (0, m), so the run's
            # last node has no vertical direction and ``local`` is not read.
            nodes.extend(ResolutionNode(p + 1, p, m, _ZERO, p, node.axis_y) for p in range(node.id, node.id + run))
            transformed = transformed.x_chart(run, run * m)
        node, depth = nodes[-1], depth + run
        needed = max(needed, depth)
        restriction = transformed.on_x_axis_restriction()
        directions, has_irrational = _rational_roots(restriction)
        if has_irrational:
            raise NonRationalCenterError("tangent directions include an irreducible factor of degree >= 2 over Q")
        # The vertical direction (None) takes what the restriction's degree
        # leaves of m.
        if len(restriction) - 1 < m:
            directions.append((None, m - len(restriction) + 1))
        for t, mult in reversed(directions):
            child_axes = node.child_axes(t)
            if mult == 1 and None in child_axes:
                # A simple direction on the new divisor alone is a smooth
                # branch transverse to it: the transform there has a nonzero
                # derivative along the divisor (the restriction's derivative
                # at its root).  It needs no blowup, so only its contact is
                # recorded and no transform is built.
                contacts.add(node.id)
                continue
            child = local.x_chart(1, m, mirror=True) if t is None else transformed.translate(0, t)
            pending.append((child, node.id, t, child_axes, depth + 1))
    centers = tuple(nodes), frozenset(contacts)
    _CENTERS.clear()
    _CENTERS[poly] = (needed, centers)
    return centers


def blow_up_point(tree: ResolutionTree, node_id: int, shift: Fraction | int) -> ResolutionTree:
    """Append one extra blowup at the rational point (0, shift) on the
    exceptional divisor of ``node_id``, in that node's post-blowup chart.

    Intended for resolution-independence experiments; the chosen divisor
    must not have been modified by later blowups near that point, and a
    point the tree already blew up (a child of ``node_id`` at that shift)
    raises ``InputError``.  The new center may lie off the strict
    transform, in which case its multiplicity is 0.
    """
    shift = read_number(shift, InputError)
    if any(n.parent == node_id and n.shift == shift for n in tree.nodes):
        raise InputError(f"node {node_id} already has a child at shift {shift}")
    new = ResolutionNode(len(tree.nodes) + 1, node_id, 0, shift, *tree.node(node_id).child_axes(shift))
    # Its multiplicity is the order of the curve's strict transform there.
    new = new._replace(mult=_replay((*tree.nodes, new), tree.curve)[new.id])
    return ResolutionTree(curve=tree.curve, nodes=(*tree.nodes, new), curve_contacts=tree.curve_contacts)


def _replay(nodes: Iterable[ResolutionNode], g: Poly2) -> dict[int, int]:
    """The order of the strict transform of g at each center, replayed from
    the recorded charts (parents come first).

    A shift-0 x-chart center maps each term (i, j) to (i + j - m, j), m the
    order at its parent, and a vertical one to its mirror (i, i + j - m); k
    of one chart in a row map a transform h to (i + k*j - s, j), or to
    (i, j + k*i - s), s the sum of their orders.  So h is kept with (k, s)
    and the chart, and blown up only where a center leaves the run.
    """
    # The root continues a vertical run of k = -1 below a parent of order 0.
    orders: dict[int | None, int] = {None: 0}
    runs: dict[int | None, tuple[Poly2, int, int, bool]] = {None: (g, -1, 0, True)}
    for node in nodes:
        h, k, s, vertical = runs[node.parent]
        if node.shift is None if vertical else node.shift == 0:
            k, s = k + 1, s + orders[node.parent]
        elif node.shift is None or node.shift == 0:  # a run in the other chart
            h, k, s, vertical = h.x_chart(k, s, vertical) if k else h, 1, orders[node.parent], not vertical
        else:
            h, k, s = (h.x_chart(k, s, vertical) if k else h).blowup_x(node.shift)[0], 0, 0
        runs[node.id] = (h, k, s, vertical)
        k, terms = k + 1, h.terms
        orders[node.id] = (min(k * i + j for i, j in terms) if vertical else min(i + k * j for i, j in terms)) - s
    del orders[None]
    return orders


def _unroll(tree: ResolutionTree, base: Callable[[ResolutionNode], int]) -> dict[int, int]:
    """The proximity recursion x_i = base(node_i) + sum of x_j over the
    proximity set of i, unrolled in creation (parent-first) order."""
    # The proximity set is the divisors along the node's two axes; an axis
    # with no divisor (None) adds 0.
    x: dict[int | None, int] = {None: 0}
    for node in tree.nodes:
        x[node.id] = base(node) + x[node.axis_x] + x[node.axis_y]
    del x[None]
    return x


def pair_discrepancies(tree: ResolutionTree, c: Fraction | int) -> ResolvedPairData:
    """Discrepancy table of (plane, c * curve) on the resolved model.

    Each exceptional divisor contributes a = k - c*v and b = c*v; the strict
    transform of the curve contributes a = -c and b = c.  For c = p/q the
    table holds the integers q*a and q*b over the denominator q.
    """
    c = read_number(c, InputError)
    if c < 0:
        raise InputError(f"boundary coefficient must be nonnegative, got {c}")
    p, q = c.numerator, c.denominator
    # tree.k and tree.v are both filled in node order.
    pv = [p * v for v in tree.v.values()]
    return ResolvedPairData(
        ids=tree.labels,
        den=q,
        a_num=(*[q * k - w for k, w in zip(tree.k.values(), pv)], -p),
        b_num=(*pv, p),
        exceptional=(True,) * len(tree.nodes) + (False,),
    )


def tree_lct(tree: ResolutionTree) -> Fraction:
    """Log canonical threshold from an already computed tree."""
    num, den = 1, 1
    for k, v in zip(tree.k.values(), tree.v.values()):  # both in node order
        if (k + 1) * den < num * v:
            num, den = k + 1, v
    return Fraction(num, den)


def lct(f: PolyLike, max_depth: int = MAX_DEPTH) -> Fraction:
    """Largest c with (plane, c * curve) Kawamata log terminal at the origin."""
    return tree_lct(resolve(f, max_depth=max_depth))


def ord_along(tree: ResolutionTree, g: Poly2) -> PullbackOrders:
    """Vanishing orders of g along every exceptional divisor of the tower,
    plus the exact power of the curve polynomial dividing g.

    Replays the recorded chart transformations on g: the multiplicity of the
    strict transform of g at each center feeds the same recursion that
    produces v for the curve itself.
    """
    if g.is_zero:
        raise ZeroInputError("cannot pull back the zero polynomial")
    orders = _replay(tree.nodes, g)
    w = _unroll(tree, lambda node: orders[node.id])
    strict, rem = 0, g
    while (quotient := rem.divide_exact(tree.curve)) is not None:
        strict, rem = strict + 1, quotient
    return PullbackOrders(by_divisor=w, strict=strict)


def _threshold(kind: IdealKind, a_num: int, b_num: int, den: int) -> int:
    """Required vanishing order along a divisor with discrepancy a_num/den
    and pullback multiplicity b_num/den.

    Round-down ideal: -floor(a).  Round-up ideal: -ceil(a).  The perturbed
    ideal takes the round-up threshold after replacing a by a + eps*b for
    vanishing eps > 0: -floor(a) - 1 when b > 0 (one less than the round-up
    value when a is an integer), the round-up value otherwise.
    """
    if kind is IdealKind.H:
        return -(a_num // den)
    if kind is IdealKind.I and b_num > 0:
        return -(a_num // den) - 1
    return -a_num // den


def ideal_threshold(kind: IdealKind, a: Fraction, b: Fraction) -> int:
    """:func:`_threshold` for a discrepancy a and pullback multiplicity b."""
    den, (a_num, b_num) = clear_denominators((a, b))
    return _threshold(kind, a_num, b_num, den)


def tree_ideal_member(tree: ResolutionTree, c: Fraction | int, g: Poly2, kind: IdealKind) -> bool:
    """Membership of g in the chosen ideal of (plane, c * curve) at the origin."""
    data = pair_discrepancies(tree, c)
    orders = ord_along(tree, g)
    have = [*(orders.by_divisor[node.id] for node in tree.nodes), orders.strict]
    return all(w >= _threshold(kind, a, b, data.den) for w, a, b in zip(have, data.a_num, data.b_num))


def ideal_member(
    f: PolyLike, c: Fraction | int, g: Poly2, kind: IdealKind, max_depth: int = MAX_DEPTH
) -> bool:
    """Resolve the curve and test membership of g; see :func:`tree_ideal_member`."""
    return tree_ideal_member(resolve(f, max_depth=max_depth), c, g, kind)


def dual_graph_pair(tree: ResolutionTree, data: ResolvedPairData) -> SNCPair:
    """SNC configuration of the resolved model: coefficients -a on :attr:`ResolutionTree.dual_edges`."""
    return SNCPair(data.ids, data.den, tuple(-a for a in data.a_num), tree.dual_edges)
