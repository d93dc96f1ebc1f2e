"""Exact arithmetic for heights of projective subschemes over Q, discrepancy
calculus on simple-normal-crossing models, plane-curve resolution with
multiplier-like ideal membership, and gcd-growth experiments."""

from .curves import (
    AffineCurve,
    IdealKind,
    PullbackOrders,
    ResolutionNode,
    ResolutionTree,
    blow_up_point,
    dual_graph_pair,
    ideal_member,
    ideal_threshold,
    lct,
    multiplicity_at,
    ord_along,
    pair_discrepancies,
    resolve,
    tree_ideal_member,
    tree_lct,
)
from .heights import (
    HeightTriple,
    HomogPoly,
    ProjPoint,
    Subscheme,
    arakelov_decompose,
    counting_gcd,
    normalize_point,
    subscheme_product,
    subscheme_union_generators,
    weil_arch_ratio,
    weil_finite_valuation,
    weil_local,
)
from .places import Place, is_prime, local_log_norm, padic_valuation
from .polynomials import Poly2
from .snc import (
    NEG_INFINITY,
    LociSets,
    PairClass,
    ResolvedPairData,
    ResolvedRow,
    SNCPair,
    classify,
    classify_resolved,
    classify_via_totaldiscrep,
    discrep,
    loci_divisors,
    quotient_discrepancy_1_1,
    totaldiscrep,
    vojta_reduced_divisor,
)

__version__ = "0.1.0"
