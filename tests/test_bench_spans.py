"""The benchmark's tracer patches functions by name; every name it lists
must exist, and the sympy names it wraps must still be called, or a rename
or a bypass would only show up in a traced benchmark run."""

import importlib
import importlib.util
from fractions import Fraction
from pathlib import Path

import pytest
import sympy

from logpairs.curves import AffineCurve, _rational_roots
from logpairs.polynomials import Poly2

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.SPANS


@pytest.mark.parametrize("name, module, cls, attr", _load_spans())
def test_span_target_is_callable(name, module, cls, attr):
    owner = importlib.import_module(module)
    if cls is not None:
        owner = getattr(owner, cls)
    assert callable(getattr(owner, attr))


def _count_calls(monkeypatch, owner, attr) -> list[int]:
    calls = [0]
    original = getattr(owner, attr)

    def counted(*args, **kwargs):
        calls[0] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, attr, counted)
    return calls


def test_sympy_spans_fire(monkeypatch):
    # curves.sympy_gcd and curves.sympy_factor wrap these two sympy names;
    # the benchmark expects both to record calls on germs and towers.
    gcd_calls = _count_calls(monkeypatch, sympy, "gcd")
    factor_calls = _count_calls(monkeypatch, sympy.Poly, "factor_list")
    AffineCurve(Poly2({(0, 2): 1, (3, 0): -1}))
    assert gcd_calls[0] > 0
    _rational_roots([Fraction(-2), Fraction(0), Fraction(1)])
    assert factor_calls[0] > 0
