"""Command-line driver.

Exit codes: 0 on success, 2 when an exact identity check reports violations,
3 on invalid or unusable input.

Each ``_cmd_*`` handler returns its payload; ``main`` writes it, as JSON with
``--json``, and returns 2 exactly when its ``violations`` is non-empty.
``resolve-curve`` writes its own output.  ``--help`` shows the paragraphs above.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from fractions import Fraction
from pathlib import Path

from . import curves, experiments, heights, snc
from .errors import InputError
from .polynomials import Poly2, read_number

EXIT_OK = 0
EXIT_VIOLATION = 2
EXIT_INPUT = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # usage problems are input errors
        self.print_usage(sys.stderr)
        raise InputError(message)


def _load_json(text: str):
    """The one JSON decoder: malformed or too deeply nested text raises InputError."""
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:  # also an integer past Python's digit limit
        raise InputError(f"invalid JSON: {exc}") from exc


def _load_json_arg(arg: str):
    """Accept either a path to a JSON file, read as UTF-8, or inline JSON text."""
    text = arg
    if not arg.lstrip().startswith(("{", "[")):
        try:
            text = Path(arg).read_text(encoding="utf-8")
        except OSError as exc:
            raise InputError(f"cannot read {arg!r}: {exc.strerror}") from exc
        except UnicodeDecodeError as exc:
            raise InputError(f"cannot read {arg!r}: not UTF-8 ({exc.reason} at byte {exc.start})") from exc
    return _load_json(text)


def _parse_point(arg: str) -> heights.ProjPoint:
    """A ``--point``: comma-separated coordinates, or a JSON array of them."""
    return heights.normalize_point(_load_json(arg) if arg.lstrip().startswith("[") else arg.split(","))


def _emit(payload: dict, as_json: bool) -> None:
    if as_json:
        print(_json(payload))
    else:
        for key, value in payload.items():
            print(f"{key}: {value}")


def _cmd_height_eval(args) -> dict:
    zed = heights.Subscheme.from_json(_load_json_arg(args.subscheme))
    point = _parse_point(args.point)
    triple = heights.arakelov_decompose(zed, point)
    return {"point": str(point), "h": triple.h, "N": triple.N, "m": triple.m}


def _cmd_classify_snc(args) -> dict:
    pair = snc.SNCPair.from_json(_load_json_arg(args.pair))
    d, td = snc.discrep(pair), snc.totaldiscrep(pair)
    return {"class": str(snc.classify(pair)), "discrep": str(d), "totaldiscrep": str(td)}


def _json_block(items: list[str], indent: str, brackets: str = "{}") -> str:
    """An indented JSON object, or array with ``brackets="[]"``, whose items
    are already written."""
    if not items:
        return brackets
    inner = indent + "  "
    return f"{brackets[0]}\n{inner}" + f",\n{inner}".join(items) + f"\n{indent}{brackets[1]}"


def _json(value, indent: str = "") -> str:
    """``json.dumps(value, indent=2, sort_keys=True)``, written directly for a
    payload of str-keyed dicts, lists and tuples; ints and finite floats are their repr."""
    inner = indent + "  "
    if isinstance(value, dict):
        return _json_block([f"{json.dumps(k)}: {_json(v, inner)}" for k, v in sorted(value.items())], indent)
    if isinstance(value, (list, tuple)):
        return _json_block([_json(v, inner) for v in value], indent, "[]")
    finite = type(value) is int or type(value) is float and math.isfinite(value)
    return repr(value) if finite else json.dumps(value)


def _resolve_curve_json(tree: curves.ResolutionTree, threshold: Fraction, per_c: dict) -> str:
    """``json.dumps(payload, indent=2, sort_keys=True)`` of the resolve-curve
    payload, written directly.  Every string in it is a rational, an integer
    or a class name, none of which JSON escapes; object keys are sorted as
    strings, as ``sort_keys`` does."""

    # Node ids sorted as strings, each with its k and v (both in node order).
    rows = sorted(zip(map(str, tree.k), tree.k.values(), tree.v.values()))

    def table(column: int) -> str:
        return _json_block([f'"{row[0]}": {row[column]}' for row in rows], "  ")

    def near(ax: int | None, ay: int | None) -> str:
        """A node's proximity list: its axes in increasing order, None left out."""
        if ax is not None and ay is not None:
            return "[\n        %d,\n        %d\n      ]" % (min(ax, ay), max(ax, ay))
        one = ay if ax is None else ax
        return "[]" if one is None else "[\n        %d\n      ]" % one

    node = '{\n      "id": %d,\n      "mult": %d,\n      "parent": %s,\n      "proximate_to": %s\n    }'
    nodes = [node % (i, m, "null" if p is None else p, near(ax, ay)) for i, p, m, _, ax, ay in tree.nodes]
    classes = [
        f'"{c}": ' + _json_block([f'"class": "{k}"', f'"discrep": "{d}"', f'"totaldiscrep": "{td}"'], "    ")
        for c, (k, d, td) in sorted(per_c.items())
    ]
    return _json_block(
        [
            '"classification": ' + _json_block(classes, "  "),
            '"k": ' + table(1),
            f'"lct": "{threshold}"',
            '"nodes": ' + _json_block(nodes, "  ", "[]"),
            '"v": ' + table(2),
        ],
        "",
    )


def _cmd_resolve_curve(args) -> None:
    curve = curves.AffineCurve.from_json(_load_json_arg(args.curve))
    cs = [read_number(c, InputError) for c in args.c.split(",")] if args.c else []
    tree = curves.resolve(curve, max_depth=args.max_depth)
    threshold = curves.tree_lct(tree)
    per_c = {}
    for c in cs or [threshold]:
        data = curves.pair_discrepancies(tree, c)
        pair = curves.dual_graph_pair(tree, data)
        per_c[str(c)] = (
            str(snc.classify_resolved(data)),
            str(snc.discrep(pair)),
            str(snc.totaldiscrep(pair)),
        )
    if args.json:
        print(_resolve_curve_json(tree, threshold, per_c))
    else:
        for n in tree.nodes:
            print(f"node {n.id}: parent={n.parent} proximate_to={sorted(n.proximate_to)} mult={n.mult}")
        for label, node in zip(tree.labels, tree.nodes):
            print(f"{label}: k={tree.k[node.id]} v={tree.v[node.id]}")
        print(f"lct: {threshold}")
        for c, (cls, d, td) in per_c.items():
            print(f"c={c}: class={cls} discrep={d} totaldiscrep={td}")


def _cmd_member(args) -> dict:
    curve = curves.AffineCurve.from_json(_load_json_arg(args.curve))
    g = Poly2.from_json(_load_json_arg(args.g))
    kind = curves.IdealKind[args.kind]
    verdict = curves.ideal_member(curve, read_number(args.c, InputError), g, kind, max_depth=args.max_depth)
    return {"c": args.c, "kind": args.kind, "member": verdict}


def _sample(args) -> tuple[experiments.ParamCurve, experiments.SampleResult]:
    """The parametrization of mdlaw or gcd-bounds, and its sample up to ``--bound``."""
    pc = experiments.ParamCurve.from_json(_load_json_arg(args.param))
    return pc, experiments.sample_param_points(pc, args.bound)


def _cmd_mdlaw(args) -> dict:
    pc, sample = _sample(args)
    records = experiments.mdlaw_records(pc.target, sample.points)
    report = experiments.mdlaw_report(pc.target, records, h_min=args.h_min)
    if args.out:
        try:
            fh = open(args.out, "w", newline="")
        except OSError as exc:
            raise InputError(f"cannot write {args.out!r}: {exc.strerror}") from exc
        with fh:
            experiments.write_mdlaw_csv(fh, sample.params, records)
    return {**vars(report), "origin_hits": [list(pq) for pq in sample.origin_params]}


def _cmd_gcd_family(args) -> dict:
    report = experiments.gcd_family_check(args.kind, args.d, args.m, (args.a_min, args.a_max))
    return {**vars(report), "violations": [list(v) for v in report.violations]}


def _cmd_gcd_bounds(args) -> dict:
    pc, sample = _sample(args)
    return vars(experiments.gcd_bounds_check(pc.target, sample.points, args.eps, args.delta))


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use and shared by every
    ``main`` call; ``parse_args`` returns a fresh namespace each time, and
    ``commands[name]`` alone parses an argv that starts with command ``name``."""
    parser = _Parser(prog="logpairs", description="\n\n".join(__doc__.split("\n\n")[:2]))
    sub = parser.add_subparsers(dest="command", required=True)
    parser.commands = sub.choices

    p = sub.add_parser("height-eval", help="height, counting, and proximity of a point")
    p.add_argument("subscheme", help="subscheme JSON (path or inline)")
    p.add_argument("--point", required=True, help="coordinates, comma separated or a JSON array")
    p.set_defaults(func=_cmd_height_eval)

    p = sub.add_parser("classify-snc", help="classify an SNC configuration")
    p.add_argument("pair", help="pair JSON (path or inline)")
    p.set_defaults(func=_cmd_classify_snc)

    p = sub.add_parser("resolve-curve", help="resolve a plane-curve germ at the origin")
    p.add_argument("curve", help="curve JSON (path or inline)")
    p.add_argument("--max-depth", type=int, default=curves.MAX_DEPTH)
    p.add_argument("--c", default="", help="comma-separated boundary coefficients")
    p.set_defaults(func=_cmd_resolve_curve)

    p = sub.add_parser("member", help="ideal membership of a polynomial")
    p.add_argument("curve", help="curve JSON (path or inline)")
    p.add_argument("--c", required=True, help="boundary coefficient (rational)")
    p.add_argument("--g", required=True, help="test polynomial JSON (path or inline)")
    p.add_argument("--kind", choices=[k.name for k in curves.IdealKind], required=True)
    p.add_argument("--max-depth", type=int, default=curves.MAX_DEPTH)
    p.set_defaults(func=_cmd_member)

    p = sub.add_parser("mdlaw", help="height-law report for a parametrized curve")
    p.add_argument("param", help="parametrization JSON (path or inline)")
    p.add_argument("--bound", type=int, default=30)
    p.add_argument("--h-min", type=float, default=0.0)
    p.add_argument("--out", help="CSV output path")
    p.set_defaults(func=_cmd_mdlaw)

    p = sub.add_parser("gcd-family", help="exact gcd identity over a base range")
    p.add_argument("kind", choices=experiments.GCD_FAMILY_KINDS)
    p.add_argument("d", type=int)
    p.add_argument("m", type=int)
    p.add_argument("a_min", type=int)
    p.add_argument("a_max", type=int)
    p.set_defaults(func=_cmd_gcd_family)

    p = sub.add_parser("gcd-bounds", help="fit sandwich constants for gcd growth")
    p.add_argument("param", help="parametrization JSON (path or inline)")
    p.add_argument("--bound", type=int, default=30)
    p.add_argument("--eps", type=float, default=0.05)
    p.add_argument("--delta", type=float, default=1.0)
    p.set_defaults(func=_cmd_gcd_bounds)

    for p in sub.choices.values():  # every command's last option
        p.add_argument("--json", action="store_true")
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    command = build_parser().commands.get(argv[0]) if argv else None
    try:
        args = command.parse_args(argv[1:]) if command else build_parser().parse_args(argv)
        payload = args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    if payload is None:  # resolve-curve has written its own output
        return EXIT_OK
    _emit(payload, args.json)
    return EXIT_VIOLATION if payload.get("violations") else EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
