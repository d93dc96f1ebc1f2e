"""The benchmark's tracer patches functions by name; every name it lists
must exist, and the sympy names it wraps and the layers it predicts for
each workload but ``heights`` must still be called, or a rename or a bypass
would only show up in a traced benchmark run."""

import importlib
import importlib.util
import json
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
import sympy

from logpairs.curves import AffineCurve, _rational_roots
from logpairs.polynomials import Poly2

from oracles import count_calls

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name, module, cls, attr", _load_tracing().SPANS)
def test_span_target_is_callable(name, module, cls, attr):
    owner = importlib.import_module(module)
    if cls is not None:
        owner = getattr(owner, cls)
    assert callable(getattr(owner, attr))


def test_sympy_spans_fire(monkeypatch):
    # curves.sympy_gcd and curves.sympy_factor wrap these two sympy names;
    # the benchmark expects both to record calls on germs and towers.
    gcd_calls = count_calls(monkeypatch, sympy, "gcd")
    factor_calls = count_calls(monkeypatch, sympy.Poly, "factor_list")
    AffineCurve(Poly2({(0, 2): 1, (3, 0): -1}))
    assert gcd_calls[0] > 0
    _rational_roots([Fraction(-2), Fraction(0), Fraction(1)])
    assert factor_calls[0] > 0


NODAL_PARAM = json.dumps(
    {
        "p0": [[[2, 1], "1"], [[0, 3], "-1"]],
        "p1": [[[3, 0], "1"], [[1, 2], "-1"]],
        "p2": [[[0, 3], "1"]],
        "target": {"n": 2, "terms": [[[0, 2, 1], "1"], [[3, 0, 0], "-1"], [[2, 0, 1], "-1"]]},
    }
)


def _count_layers(monkeypatch, workloads: set[str]) -> tuple[set[str], Counter]:
    """Count calls of every layer the benchmark predicts for one of
    ``workloads``.  Modules import functions by name, so each function is
    patched wherever a logpairs module binds it, as the tracer does."""
    tracing = _load_tracing()
    importlib.import_module("logpairs.cli")
    layers = {name for name, where in tracing.PREDICTIONS.items() if workloads & where.keys()}
    calls = Counter()
    for name, module, cls, attr in tracing.SPANS:
        if name not in layers:
            continue
        owner = importlib.import_module(module)
        if cls is not None:
            owner = getattr(owner, cls)
        original = getattr(owner, attr)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(owner, attr, counted)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name.startswith("logpairs"):
                for bound_name, value in list(vars(mod).items()):
                    if value is original:
                        monkeypatch.setattr(mod, bound_name, counted)
    return layers, calls


def test_mdlaw_spans_fire(monkeypatch, tmp_path, capsys):
    # Every layer the benchmark predicts for mdlaw must record a call on an
    # mdlaw and a gcd-bounds run.
    layers, calls = _count_layers(monkeypatch, {"mdlaw"})
    main = importlib.import_module("logpairs.cli").main
    out = str(tmp_path / "law.csv")
    assert main(["mdlaw", NODAL_PARAM, "--bound", "5", "--out", out, "--json"]) == 0
    assert main(["gcd-bounds", NODAL_PARAM, "--bound", "5", "--json"]) == 0
    capsys.readouterr()
    silent = sorted(name for name in layers if not calls[name])
    assert layers and not silent, silent


# Three rational lines through the origin: the tangent cone needs sympy's
# factoring, and the product is resolved by one blowup.
LINES = json.dumps({"f": [[[0, 3], "1"], [[1, 2], "-1"], [[2, 1], "-4"], [[3, 0], "4"]]})
TOWER = [[[0, 2], "1"], [[31, 0], "-2/3"]]


def test_resolution_spans_fire(monkeypatch, capsys):
    # Every layer the benchmark predicts for towers or germs must record a
    # call on resolve-curve at three values of c, member in each kind and a
    # direct ideal_member call.
    tower = Poly2.from_json(TOWER)
    g = tower * Poly2.x()
    layers, calls = _count_layers(monkeypatch, {"towers", "germs"})
    cli = importlib.import_module("logpairs.cli")
    curves = importlib.import_module("logpairs.curves")
    for curve in (LINES, json.dumps({"f": TOWER})):
        assert cli.main(["resolve-curve", curve, "--c", "1/3,1/2,5/4", "--json"]) == 0
        for kind in ("H", "J", "I"):
            assert cli.main(["member", curve, "--c", "1/2", "--g", '[[[1, 0], "1"]]', "--kind", kind]) == 0
    capsys.readouterr()
    assert curves.ideal_member(tower, Fraction(1, 2), g, curves.IdealKind.J)
    silent = sorted(name for name in layers if not calls[name])
    assert layers and not silent, silent
