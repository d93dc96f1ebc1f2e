"""Independent oracles for the benchmark's job outputs.

Nothing here imports ``logpairs``: every expected value comes from a closed
form or from a short reimplementation in plain integers and Fractions, so a
defect in the program cannot hide behind the same defect in its check.

Polynomials are ``{(i, j): Fraction}`` dicts in the variables x, y.
"""

from __future__ import annotations

import math
from fractions import Fraction

# -- small polynomial helpers -------------------------------------------------


def poly_mul(f: dict, g: dict) -> dict:
    out: dict = {}
    for (i, j), c in f.items():
        for (k, l), d in g.items():
            key = (i + k, j + l)
            out[key] = out.get(key, 0) + c * d
    return {k: Fraction(v) for k, v in out.items() if v}


def poly_json(f: dict) -> list:
    return [[[i, j], str(c)] for (i, j), c in sorted(f.items())]


# -- resolution oracles -------------------------------------------------------


def partial_quotient_sum(b: int, a: int) -> int:
    """Sum of the partial quotients of the continued fraction of b/a."""
    total = 0
    while a:
        total += b // a
        b, a = a, b % a
    return total


def tower_nodes(a: int, b: int) -> int:
    """Blowups resolving y^a - c*x^b (coprime a, b) to normal crossings."""
    return partial_quotient_sum(b, a)


def tower_lct(a: int, b: int) -> Fraction:
    return min(Fraction(1), Fraction(1, a) + Fraction(1, b))


def two_pair_nodes(k: int) -> int:
    """Blowups for (y^2 - x^3)^2 - c*x^k*y, k >= 5, Puiseux characteristic
    (4; 6, 2k - 3): the first pair costs the partial quotients of 6/4, the
    second those of (2k - 9)/2."""
    return partial_quotient_sum(6, 4) + partial_quotient_sum(2 * k - 9, 2)


TWO_PAIR_LCT = Fraction(1, 4) + Fraction(1, 6)
"""Igusa: an irreducible germ of multiplicity n with first characteristic
exponent b1 has lct 1/n + 1/b1; here (n, b1) = (4, 6)."""


def _weights(support: list[tuple[int, int]]) -> set[tuple[int, int]]:
    """Nonnegative primitive weight vectors containing every facet normal
    of the Newton polygon of a support (a superset is harmless below)."""
    out = {(1, 0), (0, 1)}
    for p in support:
        for q in support:
            w1, w2 = q[1] - p[1], p[0] - q[0]
            if w1 < 0 or w2 < 0:
                w1, w2 = -w1, -w2
            if w1 >= 0 and w2 >= 0 and (w1 or w2):
                g = math.gcd(w1, w2)
                out.add((w1 // g, w2 // g))
    return out


def _support_function(support, w) -> int:
    return min(w[0] * i + w[1] * j for i, j in support)


def newton_lct(f: dict) -> Fraction:
    """min(1, 1/t) with (t, t) where the diagonal meets the Newton polygon.

    Equals the log canonical threshold for Newton-nondegenerate f
    (Varchenko; Howald).  t is the largest phi(w)/(w1 + w2) over weights.
    """
    support = list(f)
    t = max(Fraction(_support_function(support, w), w[0] + w[1]) for w in _weights(support))
    return min(Fraction(1), 1 / t)


def howald_member(f: dict, c: Fraction, i: int, j: int, closed: bool) -> bool:
    """Whether (i+1, j+1) lies in the interior (closed=False) or in the
    closure (closed=True) of c * Newt(f).

    For Newton-nondegenerate f and c < 1 the interior test is membership of
    x^i y^j in the multiplier ideal J(c*f) (Howald); the closed test is
    membership in J((c - eps)*f), valid for c <= 1.
    """
    support = list(f)
    for w in _weights(support):
        lhs = w[0] * (i + 1) + w[1] * (j + 1)
        rhs = c * _support_function(support, w)
        if lhs < rhs or (lhs == rhs and not closed):
            return False
    return True


def expected_class(c: Fraction, threshold: Fraction) -> str:
    """Singularity class of (plane, c * curve) at a germ with lct < 1."""
    if c == 0:
        return "strongly_canonical"
    if c < threshold:
        return "kawamata_log_terminal"
    if c == threshold:
        return "log_canonical"
    return "not_log_canonical"


def check_resolution(payload: dict, nodes: int | None, threshold: Fraction) -> str | None:
    """Check a ``resolve-curve --json`` payload against oracle values."""
    if nodes is not None and len(payload["nodes"]) != nodes:
        return f"nodes {len(payload['nodes'])} != {nodes}"
    if Fraction(payload["lct"]) != threshold:
        return f"lct {payload['lct']} != {threshold}"
    for c, info in payload["classification"].items():
        want = expected_class(Fraction(c), threshold)
        if info["class"] != want:
            return f"class at c={c} is {info['class']}, expected {want}"
    return None


# -- heights oracles ----------------------------------------------------------


def normalize(coords: list[int]) -> tuple[int, ...]:
    g = math.gcd(*coords)
    out = [c // g for c in coords]
    if next(c for c in out if c) < 0:
        out = [-c for c in out]
    return tuple(out)


def monomial_value(exps: tuple[int, ...], coords: tuple[int, ...]) -> int:
    value = 1
    for x, e in zip(coords, exps):
        value *= x**e
    return value


def counting_gcd(generators: list[tuple[int, ...]], coords: tuple[int, ...]) -> int:
    return math.gcd(*[monomial_value(e, coords) for e in generators])


def arch_proximity(generators: list[tuple[int, ...]], coords: tuple[int, ...]) -> float:
    """-log of max |f(x)| / max|x|^deg over monomial generators, exactly."""
    big = max(abs(c) for c in coords)
    ratio = max(Fraction(abs(monomial_value(e, coords)), big ** sum(e)) for e in generators)
    return -(math.log(ratio.numerator) - math.log(ratio.denominator)) + 0.0


def valuation(n: int, p: int) -> int:
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def factor_over(n: int, primes: list[int]) -> dict[int, int]:
    """Exponents of n over a known prime set; raises if n has another factor."""
    out = {}
    for p in primes:
        v = valuation(n, p)
        if v:
            out[p] = v
            n //= p**v
    if n != 1:
        raise ValueError(f"cofactor {n} outside the known primes")
    return out


def snc_expected(coeffs: dict[str, Fraction], edges: list[tuple[str, str]]) -> tuple[str, str, str]:
    """(class, discrep, totaldiscrep) of an SNC configuration from the closed
    forms: class from the coefficients alone, discrepancies as minima."""
    cs = list(coeffs.values())
    if all(c <= 0 for c in cs):
        cls = "strongly_canonical"
    elif all(c < 1 for c in cs):
        cls = "kawamata_log_terminal"
    elif all(c <= 1 for c in cs):
        cls = "log_canonical"
    else:
        cls = "not_log_canonical"
    if any(c > 1 for c in cs):
        return cls, "-inf", "-inf"
    d = min([Fraction(1)] + [1 - c for c in cs] + [1 - coeffs[a] - coeffs[b] for a, b in edges])
    td = min([Fraction(0), d] + [-c for c in cs])
    return cls, str(d), str(td)


def class_from_totaldiscrep(td: str) -> str:
    t = float("-inf") if td == "-inf" else Fraction(td)
    if t >= 0:
        return "strongly_canonical"
    if t > -1:
        return "kawamata_log_terminal"
    if t == -1:
        return "log_canonical"
    return "not_log_canonical"


def gcd_family_checked(kind: str, a_min: int, a_max: int) -> int:
    if kind == "shifted":
        return sum(1 for a in range(a_min, a_max + 1) if abs(a) > 1)
    return a_max - a_min + 1


# -- experiments oracles ------------------------------------------------------

NODAL_CUBIC_RESIDUAL_SUP = 0.2813
"""Above the supremum (about 0.28120) of the nodal cubic's residuals."""


def sample_points(forms, bound: int) -> list[tuple[int, int, int]]:
    """Distinct normalized images of primitive parameter pairs, without
    (0:0:1) and all-zero images; ``forms`` are three ``{(i, j): int}``
    binary forms evaluated at (s, t) = (p, q)."""
    pairs = [(1, 0)] + [
        (p, q) for q in range(1, bound + 1) for p in range(-bound, bound + 1) if math.gcd(p, q) == 1
    ]
    seen = set()
    out = []
    for p, q in sorted(pairs):
        vals = [sum(c * p**i * q**j for (i, j), c in f.items()) for f in forms]
        if not any(vals):
            continue
        pt = normalize(vals)
        if pt == (0, 0, 1) or pt in seen:
            continue
        seen.add(pt)
        out.append(pt)
    return out


def far_from_origin(points, delta: float) -> int:
    """Points with max(|x|, |y|) >= delta * |z|, as ``gcd-bounds`` keeps them."""
    frac = Fraction(delta)
    return sum(1 for x, y, z in points if max(abs(x), abs(y)) >= frac * abs(z))
