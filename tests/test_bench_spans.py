"""The benchmark's tracer patches functions by name; every name it lists
must exist, or a rename would only show up in a traced benchmark run."""

import importlib
import importlib.util
from pathlib import Path

import pytest

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
