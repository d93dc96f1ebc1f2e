"""Command-line driver.

Exit codes: 0 on success, 2 when an exact identity check reports violations,
3 on invalid or unusable input.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from fractions import Fraction
from pathlib import Path

from . import curves, experiments, heights, snc
from .errors import InputError
from .polynomials import Poly2

EXIT_OK = 0
EXIT_VIOLATION = 2
EXIT_INPUT = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # usage problems are input errors
        self.print_usage(sys.stderr)
        raise InputError(message)


def _load_json_arg(arg: str):
    """Accept either a path to a JSON file or inline JSON text."""
    text = arg
    if not arg.lstrip().startswith(("{", "[")):
        try:
            text = Path(arg).read_text()
        except OSError as exc:
            raise InputError(f"cannot read {arg!r}: {exc.strerror}") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"invalid JSON: {exc}") from exc


def _parser(fn):
    """Report input of the wrong shape (a missing key, a bad number literal,
    a non-list) as an InputError naming what was being parsed."""
    what = fn.__name__.removeprefix("_parse_")

    @functools.wraps(fn)
    def parse(arg):
        try:
            return fn(arg)
        except InputError:
            raise
        except KeyError as exc:
            raise InputError(f"malformed {what}: missing key {exc}") from exc
        except (IndexError, TypeError, ValueError, ZeroDivisionError) as exc:
            raise InputError(f"malformed {what}: {exc}") from exc

    return parse


@_parser
def _parse_rational(arg: str) -> Fraction:
    return Fraction(arg)


@_parser
def _parse_point(arg: str) -> heights.ProjPoint:
    if arg.lstrip().startswith("["):
        entries = json.loads(arg)
    else:
        entries = arg.split(",")
    return heights.normalize_point([Fraction(str(e)) for e in entries])


@_parser
def _parse_subscheme(data: dict) -> heights.Subscheme:
    gens = tuple(heights.HomogPoly.from_json(g) for g in data["generators"])
    return heights.Subscheme(gens)


@_parser
def _parse_snc_pair(data: dict) -> snc.SNCPair:
    return snc.SNCPair.build(
        divisors=[(d["id"], Fraction(str(d["c"]))) for d in data["divisors"]],
        edges=[tuple(e) for e in data.get("edges", [])],
    )


@_parser
def _parse_curve(data) -> curves.AffineCurve:
    if isinstance(data, dict):
        data = data["f"]
    return curves.AffineCurve.from_json(data)


@_parser
def _parse_poly(data) -> Poly2:
    return Poly2.from_json(data)


@_parser
def _parse_param(data: dict) -> experiments.ParamCurve:
    return experiments.ParamCurve(
        p0=Poly2.from_json(data["p0"]),
        p1=Poly2.from_json(data["p1"]),
        p2=Poly2.from_json(data["p2"]),
        target=heights.HomogPoly.from_json(data["target"]),
    )


def _emit(payload: dict, as_json: bool) -> None:
    if as_json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for key, value in payload.items():
            print(f"{key}: {value}")


def _cmd_height_eval(args) -> int:
    zed = _parse_subscheme(_load_json_arg(args.subscheme))
    point = _parse_point(args.point)
    triple = heights.arakelov_decompose(zed, point)
    _emit({"point": str(point), "h": triple.h, "N": triple.N, "m": triple.m}, args.json)
    return EXIT_OK


def _cmd_classify_snc(args) -> int:
    pair = _parse_snc_pair(_load_json_arg(args.pair))
    d = snc.discrep(pair)
    td = snc.totaldiscrep(pair)
    _emit(
        {
            "class": str(snc.classify(pair)),
            "discrep": str(d),
            "totaldiscrep": str(td),
        },
        args.json,
    )
    return EXIT_OK


def _cmd_resolve_curve(args) -> int:
    curve = _parse_curve(_load_json_arg(args.curve))
    cs = [_parse_rational(c) for c in args.c.split(",")] if args.c else []
    tree = curves.resolve(curve, max_depth=args.max_depth)
    vd = curves.valuation_data(tree)
    threshold = curves.tree_lct(tree)
    per_c = {}
    for c in cs or [threshold]:
        data = curves.pair_discrepancies(tree, vd, c)
        pair = curves.dual_graph_pair(tree, data)
        per_c[str(c)] = {
            "class": str(snc.classify_resolved(data)),
            "discrep": str(snc.discrep(pair)),
            "totaldiscrep": str(snc.totaldiscrep(pair)),
        }
    payload = {
        "nodes": [
            {
                "id": n.id,
                "parent": n.parent,
                "proximate_to": sorted(n.proximate_to),
                "mult": n.mult,
            }
            for n in tree.nodes
        ],
        "k": {str(i): vd.k[i] for i in vd.k},
        "v": {str(i): vd.v[i] for i in vd.v},
        "lct": str(threshold),
        "classification": per_c,
    }
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for n in payload["nodes"]:
            print(
                f"node {n['id']}: parent={n['parent']} proximate_to={n['proximate_to']} mult={n['mult']}"
            )
        for node in tree.nodes:
            print(f"E{node.id}: k={vd.k[node.id]} v={vd.v[node.id]}")
        print(f"lct: {threshold}")
        for c, info in per_c.items():
            print(
                f"c={c}: class={info['class']} discrep={info['discrep']} totaldiscrep={info['totaldiscrep']}"
            )
    return EXIT_OK


def _cmd_member(args) -> int:
    curve = _parse_curve(_load_json_arg(args.curve))
    g = _parse_poly(_load_json_arg(args.g))
    kind = curves.IdealKind[args.kind]
    verdict = curves.ideal_member(curve, _parse_rational(args.c), g, kind)
    _emit({"c": args.c, "kind": args.kind, "member": verdict}, args.json)
    return EXIT_OK


def _cmd_mdlaw(args) -> int:
    pc = _parse_param(_load_json_arg(args.param))
    sample = experiments.sample_param_points(pc, args.bound)
    if not sample.points:
        raise InputError("sampling produced no usable points")
    records = experiments.mdlaw_records(pc.target, sample.points)
    report = experiments.mdlaw_report(pc.target, records, h_min=args.h_min)
    if args.out:
        try:
            fh = open(args.out, "w", newline="")
        except OSError as exc:
            raise InputError(f"cannot write {args.out!r}: {exc.strerror}") from exc
        with fh:
            experiments.write_mdlaw_csv(fh, sample.params, records)
    payload = report.to_json()
    payload["origin_hits"] = [list(pq) for pq in sample.origin_params]
    _emit(payload, args.json)
    return EXIT_OK


def _cmd_gcd_family(args) -> int:
    report = experiments.gcd_family_check(args.kind, args.d, args.m, (args.a_min, args.a_max))
    _emit(report.to_json(), args.json)
    return EXIT_OK if report.ok else EXIT_VIOLATION


def _cmd_gcd_bounds(args) -> int:
    pc = _parse_param(_load_json_arg(args.param))
    sample = experiments.sample_param_points(pc, args.bound)
    report = experiments.gcd_bounds_check(pc.target, sample.points, args.eps, args.delta)
    _emit(report.to_json(), args.json)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="logpairs", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("height-eval", help="height, counting, and proximity of a point")
    p.add_argument("subscheme", help="subscheme JSON (path or inline)")
    p.add_argument("--point", required=True, help="coordinates, comma separated or a JSON array")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_height_eval)

    p = sub.add_parser("classify-snc", help="classify an SNC configuration")
    p.add_argument("pair", help="pair JSON (path or inline)")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_classify_snc)

    p = sub.add_parser("resolve-curve", help="resolve a plane-curve germ at the origin")
    p.add_argument("curve", help="curve JSON (path or inline)")
    p.add_argument("--max-depth", type=int, default=64)
    p.add_argument("--c", default="", help="comma-separated boundary coefficients")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_resolve_curve)

    p = sub.add_parser("member", help="ideal membership of a polynomial")
    p.add_argument("curve", help="curve JSON (path or inline)")
    p.add_argument("--c", required=True, help="boundary coefficient (rational)")
    p.add_argument("--g", required=True, help="test polynomial JSON (path or inline)")
    p.add_argument("--kind", choices=[k.name for k in curves.IdealKind], required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_member)

    p = sub.add_parser("mdlaw", help="height-law report for a parametrized curve")
    p.add_argument("param", help="parametrization JSON (path or inline)")
    p.add_argument("--bound", type=int, default=30)
    p.add_argument("--h-min", type=float, default=0.0)
    p.add_argument("--out", help="CSV output path")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_mdlaw)

    p = sub.add_parser("gcd-family", help="exact gcd identity over a base range")
    p.add_argument("kind", choices=experiments.GCD_FAMILY_KINDS)
    p.add_argument("d", type=int)
    p.add_argument("m", type=int)
    p.add_argument("a_min", type=int)
    p.add_argument("a_max", type=int)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_gcd_family)

    p = sub.add_parser("gcd-bounds", help="fit sandwich constants for gcd growth")
    p.add_argument("param", help="parametrization JSON (path or inline)")
    p.add_argument("--bound", type=int, default=30)
    p.add_argument("--eps", type=float, default=0.05)
    p.add_argument("--delta", type=float, default=1.0)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_gcd_bounds)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
