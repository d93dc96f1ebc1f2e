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

From the (k, v) table one reads off discrepancies ``k - c*v`` of the pair
(plane, c * curve), the log canonical threshold ``min(1, min (k+1)/v)``, and
per-divisor vanishing-order thresholds defining membership in the three
multiplier-like ideals (round-down, round-up, and the small-perturbation
round-up).

Every center must be rational; a tangent direction that only exists over a
proper extension of Q raises :class:`~logpairs.errors.NonRationalCenterError`
rather than approximating.

Chart bookkeeping keeps exceptional divisors along coordinate axes: after a
blowup, the finite-direction chart is (x, y) -> (x, x*(y + t)) with the new
exceptional divisor at {x = 0}, and the vertical-direction chart is
(x, y) -> (x*y, y) with the new divisor at {y = 0}.  At any center at most
two exceptional divisors pass through, one per axis, so a center's
proximity set is read off its two axes.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Union

from .errors import (
    DepthExceededError,
    InputError,
    NonRationalCenterError,
    ZeroInputError,
)
from .polynomials import Poly2
from .snc import ResolvedPairData, ResolvedRow, SNCPair

PolyLike = Union["AffineCurve", Poly2]


class IdealKind(enum.Enum):
    """The three multiplier-like ideals, ordered H inside J inside I."""

    H = "H"
    J = "J"
    I = "I"


def _as_poly(f: PolyLike) -> Poly2:
    return f.poly if isinstance(f, AffineCurve) else f


def _is_squarefree(poly: Poly2) -> bool:
    import sympy

    x, y = sympy.Symbol("x"), sympy.Symbol("y")
    expr = sympy.Add(
        *[
            sympy.Rational(c.numerator, c.denominator) * x**i * y**j
            for (i, j), c in poly.terms.items()
        ]
    )
    g = sympy.gcd(expr, sympy.diff(expr, x))
    g = sympy.gcd(g, sympy.diff(expr, y))
    return sympy.Poly(g, x, y).total_degree() == 0


def _rational_roots(coeffs: list[Fraction]) -> tuple[list[Fraction], bool]:
    """Distinct rational roots of a dense univariate polynomial, sorted.

    Also reports whether the factorization over Q contains an irreducible
    factor of degree at least 2, i.e. roots that are not rational.  The
    lowest power of t gives the root 0 and a remaining linear part is solved
    directly; only a remaining part of degree >= 2 is factored by sympy.
    """
    support = [j for j, c in enumerate(coeffs) if c]
    if not support:
        return [], False
    low, high = support[0], support[-1]
    roots = [Fraction(0)] if low else []
    if high - low == 1:
        roots.append(-Fraction(coeffs[low], coeffs[high]))
    if high - low <= 1:
        return sorted(roots), False
    import sympy

    t = sympy.Symbol("t")
    expr = sympy.Add(
        *[sympy.Rational(c.numerator, c.denominator) * t ** (j - low) for j, c in enumerate(coeffs) if c]
    )
    poly = sympy.Poly(expr, t, domain="QQ")
    has_irrational = False
    for factor, _mult in poly.factor_list()[1]:
        if factor.degree() == 1:
            lead, const = factor.all_coeffs()
            root = -Fraction(int(const.p), int(const.q)) / Fraction(int(lead.p), int(lead.q))
            roots.append(root)
        elif factor.degree() >= 2:
            has_irrational = True
    return sorted(roots), has_irrational


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
    def from_json(cls, data: list) -> "AffineCurve":
        return cls(Poly2.from_json(data))


@dataclass(frozen=True)
class ResolutionNode:
    """One blowup center.

    ``chart`` and ``shift`` say how local coordinates at this center arise
    from the parent's: chart "x" is (x, x*(y + shift)), chart "y" is
    (x*y, y).  ``local_poly`` is the strict transform of the curve in these
    coordinates, before this center is blown up.  ``axis_x`` and ``axis_y``
    name the exceptional divisors along the two coordinate axes here.
    """

    id: int
    parent: int | None
    mult: int
    chart: str | None
    shift: Fraction | None
    local_poly: Poly2
    axis_x: int | None
    axis_y: int | None

    @property
    def proximate_to(self) -> frozenset[int]:
        """The ancestors whose exceptional divisors pass through this center:
        the divisors along its axes (the parent is always one of them)."""
        return frozenset(a for a in (self.axis_x, self.axis_y) if a is not None)


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
        node = self.nodes[node_id - 1]
        if node.id != node_id:
            raise KeyError(node_id)
        return node


@dataclass(frozen=True)
class ValuationData:
    """Per-divisor multiplicities: k in the relative canonical divisor,
    v in the total transform of the curve."""

    k: dict[int, int]
    v: dict[int, int]


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
    """Order of the lowest form of f recentred at pt; 0 iff pt is off the curve."""
    poly = _as_poly(f)
    px, py = (Fraction(c) for c in pt)
    return poly.translate(px, py).order()


def resolve(f: PolyLike, max_depth: int = 64) -> ResolutionTree:
    """Resolve the germ at the origin; all centers must be rational.

    Returns the tree of blown-up centers with multiplicities and proximity
    data.  A smooth germ (or a point off the curve) yields an empty tree.
    """
    poly = _as_poly(f)
    if poly.is_zero:
        raise ZeroInputError("cannot resolve the zero polynomial")
    nodes: list[ResolutionNode] = []
    contacts: set[int] = set()
    # Centers still to visit, as (strict transform, axis_x, axis_y, parent,
    # chart, shift, depth).  Children are pushed in reverse so that they pop
    # in order and node ids follow a depth-first pre-order.
    pending = [(poly, None, None, None, None, None, 1)] if poly.evaluate(0, 0) == 0 else []
    while pending:
        local, axis_x, axis_y, parent, chart, shift, depth = pending.pop()
        m = local.order()
        axes = [a for a in (axis_x, axis_y) if a is not None]
        if m == 1:
            if not axes:
                continue
            if len(axes) == 1:
                which = "x" if axis_x is not None else "y"
                if local.contact_order_with_axis(which) == 1:
                    contacts.add(axes[0])
                    continue
        if depth > max_depth:
            raise DepthExceededError(f"resolution needs more than {max_depth} blowup levels")
        nid = len(nodes) + 1
        nodes.append(
            ResolutionNode(
                id=nid,
                parent=parent,
                mult=m,
                chart=chart,
                shift=shift,
                local_poly=local,
                axis_x=axis_x,
                axis_y=axis_y,
            )
        )
        transformed, _ = local.blowup_x()
        restriction = transformed.on_x_axis_restriction()
        roots, has_irrational = _rational_roots(restriction)
        if has_irrational:
            raise NonRationalCenterError(
                "tangent directions include an irreducible factor of degree >= 2 over Q"
            )
        children = [
            (transformed.translate(0, t), nid, axis_y if t == 0 else None, nid, "x", t, depth + 1)
            for t in roots
        ]
        if len(restriction) - 1 < m:
            child, _ = local.blowup_y()
            children.append((child, axis_x, nid, nid, "y", None, depth + 1))
        pending.extend(reversed(children))
    return ResolutionTree(curve=poly, nodes=tuple(nodes), curve_contacts=frozenset(contacts))


def blow_up_point(tree: ResolutionTree, node_id: int, shift: Fraction | int) -> ResolutionTree:
    """Append one extra blowup at the rational point (0, shift) on the
    exceptional divisor of ``node_id``, in that node's post-blowup chart.

    Intended for resolution-independence experiments; the chosen divisor
    must not have been modified by later blowups near that point.  The new
    center may lie off the strict transform, in which case its multiplicity
    is 0.
    """
    shift = Fraction(shift)
    node = tree.node(node_id)
    transformed, _ = node.local_poly.blowup_x(shift)
    new = ResolutionNode(
        id=len(tree.nodes) + 1,
        parent=node_id,
        mult=transformed.order(),
        chart="x",
        shift=shift,
        local_poly=transformed,
        axis_x=node_id,
        axis_y=node.axis_y if shift == 0 else None,
    )
    return ResolutionTree(
        curve=tree.curve, nodes=tree.nodes + (new,), curve_contacts=tree.curve_contacts
    )


def _unroll(tree: ResolutionTree, base: Callable[[ResolutionNode], int]) -> dict[int, int]:
    """The proximity recursion x_i = base(node_i) + sum of x_j over the
    proximity set of i, unrolled in creation (parent-first) order."""
    x: dict[int, int] = {}
    for node in tree.nodes:
        x[node.id] = base(node) + sum(x[j] for j in node.proximate_to)
    return x


def valuation_data(tree: ResolutionTree) -> ValuationData:
    """Unroll the proximity recursions for k and v over the tree."""
    return ValuationData(k=_unroll(tree, lambda node: 1), v=_unroll(tree, lambda node: node.mult))


STRICT_ID = "C"


def pair_discrepancies(tree: ResolutionTree, vd: ValuationData, c: Fraction | int) -> ResolvedPairData:
    """Discrepancy table of (plane, c * curve) on the resolved model.

    Each exceptional divisor contributes a = k - c*v and b = c*v; the strict
    transform of the curve contributes a = -c and b = c.
    """
    c = Fraction(c)
    if c < 0:
        raise InputError(f"boundary coefficient must be nonnegative, got {c}")
    rows = [
        ResolvedRow(id=f"E{node.id}", a=vd.k[node.id] - c * vd.v[node.id], b=c * vd.v[node.id], exceptional=True)
        for node in tree.nodes
    ]
    rows.append(ResolvedRow(id=STRICT_ID, a=-c, b=c, exceptional=False))
    return ResolvedPairData(rows=tuple(rows))


def tree_lct(tree: ResolutionTree) -> Fraction:
    """Log canonical threshold from an already computed tree."""
    vd = valuation_data(tree)
    best = Fraction(1)
    for node in tree.nodes:
        cand = Fraction(vd.k[node.id] + 1, vd.v[node.id])
        if cand < best:
            best = cand
    return best


def lct(f: PolyLike, max_depth: int = 64) -> Fraction:
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
    local: dict[int, Poly2] = {}
    for node in tree.nodes:
        if node.parent is None:
            local[node.id] = g
        elif node.chart == "x":
            local[node.id] = local[node.parent].blowup_x(node.shift)[0]
        else:
            local[node.id] = local[node.parent].blowup_y()[0]
    w = _unroll(tree, lambda node: local[node.id].order())
    strict, rem = 0, g
    while (quotient := rem.divide_exact(tree.curve)) is not None:
        strict, rem = strict + 1, quotient
    return PullbackOrders(by_divisor=w, strict=strict)


def ideal_threshold(kind: IdealKind, a: Fraction, b: Fraction) -> int:
    """Required vanishing order along a divisor with discrepancy a and
    pullback multiplicity b.

    Round-down ideal: -floor(a).  Round-up ideal: -ceil(a).  The perturbed
    ideal takes the round-up threshold after replacing a by a + eps*b for
    vanishing eps > 0: one less than the round-up value when a is an integer
    actually perturbed (b > 0), the round-up value otherwise.
    """
    if kind is IdealKind.H:
        return -math.floor(a)
    if kind is IdealKind.J:
        return -math.ceil(a)
    if b > 0 and a.denominator == 1:
        return -int(a) - 1
    return -math.ceil(a)


def tree_ideal_member(
    tree: ResolutionTree,
    vd: ValuationData,
    c: Fraction | int,
    g: Poly2,
    kind: IdealKind,
) -> bool:
    """Membership of g in the chosen ideal of (plane, c * curve) at the origin."""
    *exceptional, strict = pair_discrepancies(tree, vd, c).rows
    orders = ord_along(tree, g)
    for node, row in zip(tree.nodes, exceptional):
        if orders.by_divisor[node.id] < ideal_threshold(kind, row.a, row.b):
            return False
    return orders.strict >= ideal_threshold(kind, strict.a, strict.b)


def ideal_member(f: PolyLike, c: Fraction | int, g: Poly2, kind: IdealKind, max_depth: int = 64) -> bool:
    """Resolve the curve and test membership of g; see :func:`tree_ideal_member`."""
    tree = resolve(f, max_depth=max_depth)
    return tree_ideal_member(tree, valuation_data(tree), c, g, kind)


def dual_graph_pair(tree: ResolutionTree, data: ResolvedPairData) -> SNCPair:
    """SNC configuration of the resolved model: coefficients -a, edges from
    proximity (two exceptional divisors still meet unless a later center was
    proximate to both) and the recorded strict-transform contacts.

    Valid for trees as produced by :func:`resolve`.
    """
    # A center is proximate to at most two divisors, so E_anc and E_node are
    # separated exactly when a later center is proximate to both of them.
    separated = {n.proximate_to for n in tree.nodes if len(n.proximate_to) == 2}
    edges: set[tuple[str, str]] = set()
    for node in tree.nodes:
        for anc in node.proximate_to:
            if frozenset((anc, node.id)) not in separated:
                edges.add((f"E{anc}", f"E{node.id}"))
    for anc in tree.curve_contacts:
        edges.add((f"E{anc}", STRICT_ID))
    return SNCPair.build(
        divisors=[(row.id, -row.a) for row in data.rows],
        edges=edges,
    )
