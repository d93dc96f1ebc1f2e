"""Seeded job sets for the four benchmark workloads, and the oracle check of
each job's output.

A workload yields batches; each batch is one seeded job set.  Batch 0 is the
warm-up, and no job repeats within one seed, so timed batches never reuse a
cache entry that an earlier batch filled for the same input (sympy memoizes
its gcd and factoring results, which a cold command-line run never sees).
Batches of one workload have a fixed composition (the same germ families,
tower depths and sampling bounds) and only the seeded values inside each
slot vary, so a batch costs about the same under every seed and its job
latencies spread smoothly, which keeps the median and tail steady.

This module does not import ``logpairs``: a job is data (command-line argv
or a named library call), run by ``worker.py``.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction

import oracles as O

WORKLOADS = ("towers", "germs", "mdlaw", "heights")

TAIL_PERCENTILE = 90
"""job_tail_ms is this nearest-rank percentile; every run times at least
MIN_JOBS jobs, so at least 10 samples lie beyond it."""
MIN_JOBS = 100

MAX_DEPTH = 400


@dataclass(frozen=True)
class Job:
    """One closed-loop request: ``argv`` for ``logpairs.cli.main`` or a
    library ``call``; ``expect`` holds the oracle's data for the check."""

    label: str
    argv: tuple[str, ...] = ()
    call: tuple = ()
    expect: dict = field(default_factory=dict, compare=False)

    @property
    def key(self) -> str:
        return json.dumps([self.label, self.argv, self.call])


def _rational(rng: random.Random, num: int, den: int, nonzero: bool = True) -> Fraction:
    while True:
        q = Fraction(rng.randint(-num, num), rng.randint(1, den))
        if q or not nonzero:
            return q


def _germ_json(f: dict) -> str:
    return json.dumps({"f": O.poly_json(f)}, separators=(",", ":"))


def _c_values(rng: random.Random, lct: Fraction) -> list[Fraction]:
    """A coefficient below the threshold, the threshold, and one above it."""
    below = lct * Fraction(rng.randint(1, 9), 10)
    above = lct + (1 - lct) * Fraction(rng.randint(1, 10), 10) if lct < 1 else Fraction(5, 4)
    return [below, lct, above]


def _resolve_job(f: dict, rng: random.Random, lct: Fraction, nodes: int | None) -> Job:
    cs = _c_values(rng, lct)
    argv = (
        "resolve-curve",
        _germ_json(f),
        "--c",
        ",".join(str(c) for c in cs),
        "--max-depth",
        str(MAX_DEPTH),
        "--json",
    )
    return Job("resolve-curve", argv=argv, expect={"nodes": nodes, "lct": lct})


# -- towers -------------------------------------------------------------------

TOWER_BANDS = {2: (31, 71, 111, 151, 191, 253, 253, 253, 297), 3: (40, 150, 150, 150)}
"""Centres of b per batch.  Quantiles that fall in a gap between two job
sizes jump when the machine's speed shifts, so the median and p90 each get
a plateau of six jobs of about equal cost.  Of the 34 jobs, 12 are cheaper
than the a = 3, b near 150 plateau, which holds the median.  3.4 lie beyond
p90: the two for b near 297 and one or two of the six for a = 2, b near
253."""
TWO_PAIR_KS = (5, 7, 9, 11)
"""k of (y^2 - x^3)^2 - c*x^k*y; resolution cost grows steeply with k
(about 0.45 s at k = 13, 10 s at k = 20)."""


def _coprime_near(rng: random.Random, centre: int, a: int, spread: int) -> int:
    while True:
        b = centre + rng.randint(-spread, spread)
        if b > a and math.gcd(a, b) == 1:
            return b


def tower_jobs(rng: random.Random) -> list[Job]:
    jobs = []
    for a, bands in TOWER_BANDS.items():
        for centre in bands:
            b = _coprime_near(rng, centre, a, 2)
            f = {(0, a): Fraction(1), (b, 0): -_rational(rng, 9, 9)}
            lct = O.tower_lct(a, b)
            jobs.append(_resolve_job(f, rng, lct, O.tower_nodes(a, b)))
            c = Fraction(rng.randint(1, 19), 20)
            i, j = rng.randint(0, b // 2), rng.randint(0, a - 1)
            expect = {"member": O.howald_member(f, c, i, j, closed=False)}
            call = ("member", O.poly_json(f), str(c), [[[i, j], "1"]], "J", MAX_DEPTH)
            jobs.append(Job("member", call=call, expect=expect))
    for k in TWO_PAIR_KS:
        c1 = _rational(rng, 5, 5)
        cusp = {(0, 2): Fraction(1), (3, 0): -c1}
        f = O.poly_mul(cusp, cusp)
        f[(k, 1)] = f.get((k, 1), 0) - _rational(rng, 5, 5)
        jobs.append(_resolve_job(f, rng, O.TWO_PAIR_LCT, O.two_pair_nodes(k)))
        # 1 lies in J(c*f) exactly when c < lct.
        c = Fraction(rng.randint(1, 19), 20)
        call = ("member", O.poly_json(f), str(c), [[[0, 0], "1"]], "J", MAX_DEPTH)
        jobs.append(Job("member", call=call, expect={"member": c < O.TWO_PAIR_LCT}))
    return jobs


# -- germs --------------------------------------------------------------------

ADE_KINDS = ("A", "D", "E6", "E7", "E8") * 2
LINE_COUNTS = (2, 3, 4, 5, 6) * 2
BRANCH_COUNTS = (2, 3) * 5
BRANCH_TYPES = ((1, 1), (1, 2), (2, 1), (2, 3), (3, 2), (1, 3), (3, 1), (2, 5), (3, 4), (3, 5))


def _square_or_not(rng: random.Random, need_square: bool) -> Fraction:
    q = _rational(rng, 6, 6)
    return q * q if need_square else q


def ade_germ(rng: random.Random, kind: str) -> dict:
    """An ADE normal form whose tangent directions are rational."""
    if kind == "A":
        k = rng.randint(1, 12)
        return {(0, 2): Fraction(1), (k + 1, 0): -_square_or_not(rng, (k + 1) % 2 == 0)}
    if kind == "D":
        k = rng.randint(4, 12)
        return {(2, 1): Fraction(1), (0, k - 1): -_square_or_not(rng, k % 2 == 0)}
    c = _rational(rng, 6, 6)
    if kind == "E6":
        return {(0, 3): Fraction(1), (4, 0): -c}
    if kind == "E7":
        return {(0, 3): Fraction(1), (3, 1): -c}
    return {(0, 3): Fraction(1), (5, 0): -c}


def lines_germ(rng: random.Random, n: int) -> dict:
    """n >= 2 distinct rational lines through the origin, at least one
    off the axes, optionally with the vertical line x = 0."""
    vertical = rng.random() < 0.3
    slopes: set[Fraction] = set()
    while len(slopes) < n - vertical or all(s == 0 for s in slopes):
        slopes.add(_rational(rng, 5, 4, nonzero=False))
    f = {(1, 0): Fraction(1)} if vertical else {(0, 0): Fraction(1)}
    for s in slopes:
        f = O.poly_mul(f, {(0, 1): Fraction(1), (1, 0): -s})
    return f


def branches_germ(rng: random.Random, count: int) -> dict:
    """A product of ``count`` distinct branches y^a - c*x^b, coprime a, b."""
    f = {(0, 0): Fraction(1)}
    used = set()
    while len(used) < count:
        a, b = rng.choice(BRANCH_TYPES)
        c = _rational(rng, 4, 3)
        if (a, b, c) in used:
            continue
        used.add((a, b, c))
        f = O.poly_mul(f, {(0, a): Fraction(1), (b, 0): -c})
    return f


def _swap_and_scale(rng: random.Random, f: dict) -> dict:
    scale = _rational(rng, 7, 7)
    if rng.random() < 0.5:
        f = {(j, i): c for (i, j), c in f.items()}
    return {k: c * scale for k, c in f.items()}


def germ_jobs(rng: random.Random) -> list[Job]:
    slots = [(ade_germ, k) for k in ADE_KINDS] + [(lines_germ, n) for n in LINE_COUNTS]
    slots += [(branches_germ, n) for n in BRANCH_COUNTS]
    jobs = []
    for maker, param in slots:
        f = _swap_and_scale(rng, maker(rng, param))
        lct = O.newton_lct(f)
        jobs.append(_resolve_job(f, rng, lct, 1 if maker is lines_germ else None))
        for kind in ("H", "J", "I"):
            c = lct if rng.random() < 0.5 else Fraction(rng.randint(1, 20), 20)
            i = rng.randint(0, 3)
            j = rng.randint(0, 3 - i)
            argv = (
                "member",
                _germ_json(f),
                "--c",
                str(c),
                "--g",
                json.dumps([[[i, j], "1"]]),
                "--kind",
                kind,
                "--json",
            )
            expect = {
                "kind": kind,
                "J": O.howald_member(f, c, i, j, closed=False) if c < 1 else None,
                "I": O.howald_member(f, c, i, j, closed=True),
            }
            jobs.append(Job("member", argv=argv, expect=expect))
    return jobs


# -- mdlaw ----------------------------------------------------------------------

NODAL_CUBIC = {
    "p0": [[[2, 1], "1"], [[0, 3], "-1"]],
    "p1": [[[3, 0], "1"], [[1, 2], "-1"]],
    "p2": [[[0, 3], "1"]],
    "target": {"n": 2, "terms": [[[0, 2, 1], "1"], [[3, 0, 0], "-1"], [[2, 0, 1], "-1"]]},
}
PURE_POWERS = tuple((m, d) for d in range(2, 8) for m in range(1, d) if math.gcd(m, d) == 1)
NODAL_PER_BATCH = 4
BOUNDS = tuple(range(24, 36))
"""One sampling bound per curve of a batch: 4 nodal cubics, the rest pure
powers."""


def pure_power_param(m: int, d: int) -> dict:
    return {
        "p0": [[[m, d - m], "1"]],
        "p1": [[[d, 0], "1"]],
        "p2": [[[0, d], "1"]],
        "target": {"n": 2, "terms": [[[d, 0, 0], "1"], [[0, m, d - m], "-1"]]},
    }


def param_forms(param: dict) -> list[dict]:
    return [{(e[0], e[1]): int(c) for e, c in param[k]} for k in ("p0", "p1", "p2")]


def mdlaw_jobs(rng: random.Random) -> list[Job]:
    curves = [("nodal", (2, 3), NODAL_CUBIC)] * NODAL_PER_BATCH
    for _ in range(len(BOUNDS) - NODAL_PER_BATCH):
        m, d = rng.choice(PURE_POWERS)
        curves.append(("pure", (m, d), pure_power_param(m, d)))
    jobs = []
    for (family, md, param), bound in zip(curves, rng.sample(BOUNDS, len(BOUNDS))):
        text = json.dumps(param, separators=(",", ":"))
        expect = {"family": family, "md": md, "param": param, "bound": bound}
        h_min = round(rng.uniform(0.0, 3 * math.log(bound)), 3)
        argv = ("mdlaw", text, "--bound", str(bound), "--h-min", str(h_min), "--out", "{csv}", "--json")
        jobs.append(Job("mdlaw", argv=argv, expect=expect))
        eps = round(rng.uniform(0.01, 0.2), 3)
        delta = rng.choice((0.5, 1.0, 2.0))
        argv = ("gcd-bounds", text, "--bound", str(bound), "--eps", str(eps), "--delta", str(delta), "--json")
        jobs.append(Job("gcd-bounds", argv=argv, expect={**expect, "delta": delta, "eps": eps}))
    return jobs


# -- heights --------------------------------------------------------------------

PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97)
HEIGHTS_PER_BATCH = {"height-eval": 60, "classify-snc": 30, "gcd-family": 30, "places": 30}


def _big_coordinate(rng: random.Random, common: int) -> int:
    value = common
    for p in rng.sample(PRIMES, rng.randint(2, 6)):
        value *= p ** rng.randint(1, 4)
    return value if rng.random() < 0.5 else -value


def subscheme_and_point(rng: random.Random) -> tuple[list[tuple[int, ...]], list[int]]:
    """Monomial generators of a coordinate subscheme of P^2 or P^3 (or a
    product or union of two), and a point whose coordinates are products of
    known primes sharing a common factor in all but the last coordinate."""
    nv = rng.choice((3, 4))

    def coordinate_gens() -> list[tuple[int, ...]]:
        picked = rng.sample(range(nv), rng.randint(1, nv - 1))
        return [tuple(int(k == i) for k in range(nv)) for i in picked]

    shape = rng.choice(("coordinate", "product", "union"))
    gens = coordinate_gens()
    if shape == "product":
        other = coordinate_gens()
        gens = [tuple(a + b for a, b in zip(g, h)) for g in gens for h in other]
    elif shape == "union":
        gens = gens + coordinate_gens()
    common = math.prod(rng.sample(PRIMES[:8], rng.randint(1, 3)))
    coords = [_big_coordinate(rng, common) for _ in range(nv - 1)] + [_big_coordinate(rng, 1)]
    return gens, coords


def subscheme_json(gens: list[tuple[int, ...]]) -> str:
    nv = len(gens[0])
    data = {"generators": [{"n": nv - 1, "terms": [[list(g), "1"]]} for g in gens]}
    return json.dumps(data, separators=(",", ":"))


def snc_pair(rng: random.Random) -> dict:
    n = rng.randint(2, 10)
    ids = [f"D{i}" for i in range(n)]
    divisors = [{"id": d, "c": str(Fraction(rng.randint(-4, 12), rng.choice((4, 6, 8))))} for d in ids]
    edges = [[a, b] for i, a in enumerate(ids) for b in ids[i + 1 :] if rng.random() < 0.3]
    return {"divisors": divisors, "edges": edges}


def heights_jobs(rng: random.Random) -> list[Job]:
    jobs = []
    for _ in range(HEIGHTS_PER_BATCH["height-eval"]):
        gens, coords = subscheme_and_point(rng)
        point = ",".join(str(c) for c in coords)
        argv = ("height-eval", subscheme_json(gens), f"--point={point}", "--json")
        jobs.append(Job("height-eval", argv=argv, expect={"gens": gens, "coords": coords}))
    for _ in range(HEIGHTS_PER_BATCH["classify-snc"]):
        pair = snc_pair(rng)
        argv = ("classify-snc", json.dumps(pair, separators=(",", ":")), "--json")
        jobs.append(Job("classify-snc", argv=argv, expect={"pair": pair}))
    for _ in range(HEIGHTS_PER_BATCH["gcd-family"]):
        kind = rng.choice(("pure", "shifted", "mixed"))
        d = rng.randint(2, 9)
        m = rng.choice([m for m in range(1, d) if math.gcd(m, d) == 1])
        a_min = rng.randint(-50, 50)
        a_max = a_min + rng.randint(10, 40)
        argv = ("gcd-family", kind, str(d), str(m), str(a_min), str(a_max), "--json")
        jobs.append(Job("gcd-family", argv=argv, expect={"checked": O.gcd_family_checked(kind, a_min, a_max)}))
    for _ in range(HEIGHTS_PER_BATCH["places"]):
        gens, coords = subscheme_and_point(rng)
        pt = O.normalize(coords)
        g = O.counting_gcd(gens, pt)
        primes = sorted(O.factor_over(g, list(PRIMES)))
        call = ("places", [list(e) for e in gens], coords, primes)
        jobs.append(Job("places", call=call, expect={"gens": gens, "point": pt, "g": g}))
    return jobs


MAKERS = {"towers": tower_jobs, "germs": germ_jobs, "mdlaw": mdlaw_jobs, "heights": heights_jobs}


class JobStream:
    """Batches of one workload under one seed, with no job repeated."""

    def __init__(self, workload: str, seed: int):
        if workload not in MAKERS:
            raise ValueError(f"unknown workload {workload!r}")
        self.workload = workload
        self.seed = seed
        self.index = 0
        self.seen: set[int] = set()

    def batch(self) -> list[Job]:
        rng = random.Random(f"{self.workload}:{self.seed}:{self.index}")
        self.index += 1
        while True:
            jobs = MAKERS[self.workload](rng)
            # Short digests keep the benchmark's own memory flat.
            keys = {int.from_bytes(hashlib.blake2b(job.key.encode(), digest_size=8).digest(), "big") for job in jobs}
            if len(keys) == len(jobs) and not keys & self.seen:
                self.seen |= keys
                return jobs


# -- checks -----------------------------------------------------------------------


def check(job: Job, rc: int, out: str, csv_text: str | None = None) -> str | None:
    """Return why the output is wrong, or None when the oracle accepts it."""
    if rc != 0:
        return f"exit code {rc}"
    e = job.expect
    if job.call:
        return _check_call(job, out)
    payload = json.loads(out)
    if job.label == "resolve-curve":
        return O.check_resolution(payload, e["nodes"], e["lct"])
    if job.label == "member":
        got = payload["member"]
        if e["kind"] == "H" and got:
            return "monomial in the round-down ideal of a non-monomial curve"
        if e["kind"] in ("J", "I") and e[e["kind"]] is not None and got != e[e["kind"]]:
            return f"{e['kind']} membership {got}, Newton polygon says {e[e['kind']]}"
        return None
    if job.label == "mdlaw":
        return _check_mdlaw(payload, e, csv_text)
    if job.label == "gcd-bounds":
        m, d = e["md"]
        if (payload["m"], payload["d"]) != (m, d):
            return f"(m, d) = {(payload['m'], payload['d'])}, expected {(m, d)}"
        want = O.far_from_origin(_sample(json.dumps(e["param"]), e["bound"]), e["delta"])
        if payload["samples"] != want:
            return f"gcd-bounds kept {payload['samples']} samples, expected {want}"
        if payload["exponent_low"] != m / d - e["eps"]:
            return "exponent_low is not m/d - eps"
        return None
    if job.label == "height-eval":
        pt = O.normalize(e["coords"])
        if payload["point"] != "(" + ":".join(map(str, pt)) + ")":
            return f"point {payload['point']} is not the normalization of {e['coords']}"
        if payload["N"] != math.log(O.counting_gcd(e["gens"], pt)):
            return "N is not the log of the counting gcd"
        if payload["h"] != payload["N"] + payload["m"]:
            return "h != N + m"
        if payload["m"] != O.arch_proximity(e["gens"], pt):
            return "m is not the archimedean proximity"
        return None
    if job.label == "classify-snc":
        pair = e["pair"]
        coeffs = {d["id"]: Fraction(d["c"]) for d in pair["divisors"]}
        want = O.snc_expected(coeffs, [tuple(x) for x in pair["edges"]])
        got = (payload["class"], payload["discrep"], payload["totaldiscrep"])
        if got != want:
            return f"classify-snc gave {got}, expected {want}"
        if O.class_from_totaldiscrep(payload["totaldiscrep"]) != payload["class"]:
            return "class disagrees with the total-discrepancy ladder"
        return None
    if job.label == "gcd-family":
        if payload["violations"] or payload["checked"] != e["checked"]:
            return f"gcd-family checked {payload['checked']} (expected {e['checked']}), violations {payload['violations']}"
        return None
    raise ValueError(f"no check for {job.label}")


@functools.lru_cache(maxsize=1)
def _sample(param: str, bound: int) -> list:
    """The expected sample; an mdlaw job and the gcd-bounds job after it share one."""
    return O.sample_points(param_forms(json.loads(param)), bound)


def _check_mdlaw(payload: dict, e: dict, csv_text: str | None) -> str | None:
    m, d = e["md"]
    if (payload["m"], payload["d"]) != (m, d):
        return f"(m, d) = {(payload['m'], payload['d'])}, expected {(m, d)}"
    residual = payload["max_abs_residual"]
    if e["family"] == "pure" and residual != 0.0:
        return f"pure-power residual {residual} is not exactly 0.0"
    if e["family"] == "nodal" and not residual < O.NODAL_CUBIC_RESIDUAL_SUP:
        return f"nodal-cubic residual {residual} exceeds {O.NODAL_CUBIC_RESIDUAL_SUP}"
    want = len(_sample(json.dumps(e["param"]), e["bound"]))
    if payload["samples"] != want:
        return f"mdlaw sampled {payload['samples']} points, expected {want}"
    rows = csv_text.count("\n") if csv_text is not None else -1
    if rows != want + 1:
        return f"CSV has {rows} lines for {want} samples"
    return None


def _check_call(job: Job, out: str) -> str | None:
    result = json.loads(out)
    e = job.expect
    if job.label == "member":
        return None if result == e["member"] else f"member {result}, expected {e['member']}"
    # places: per prime p | g, [padic_valuation(g, p), weil_local at p]; then
    # the archimedean weil_local.
    *finite, arch = result
    for (v, w), p in zip(finite, job.call[3]):
        want = O.valuation(e["g"], p)
        if v != want or w != want * math.log(p):
            return f"at p={p}: valuation {v}, weil {w}; expected {want}"
    if arch != O.arch_proximity(e["gens"], e["point"]):
        return "archimedean Weil value disagrees"
    return None
