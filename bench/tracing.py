"""Per-layer tracing of ``logpairs`` from outside the package.

``instrument`` replaces public functions and methods of each module (and
the two sympy entry points that ``curves`` calls) with wrappers that record
a span around every call.  Every ``from ... import`` binding of a wrapped
function in any ``logpairs`` module is rebound too, so that, for example,
``experiments.counting_gcd`` and ``heights.counting_gcd`` report under one
name.  A span's self time is its duration minus the time covered by the
spans it caused.  Spans are folded into per-name totals as they close and
kept in memory; the worker reports them once, after the run.  A record
per span (about a million in a run of ``mdlaw``) would take more memory
than the program being measured.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import Counter

# (span name, module, class or None, attribute).  Several attributes may
# share one span name.
SPANS = (
    ("cli.main", "logpairs.cli", None, "main"),
    ("polynomials.translate", "logpairs.polynomials", "Poly2", "translate"),
    ("polynomials.blowup", "logpairs.polynomials", "Poly2", "blowup_x"),
    ("polynomials.blowup", "logpairs.polynomials", "Poly2", "blowup_y"),
    ("polynomials.mul", "logpairs.polynomials", "Poly2", "__mul__"),
    ("polynomials.evaluate", "logpairs.polynomials", "Poly2", "evaluate"),
    ("polynomials.divide_exact", "logpairs.polynomials", "Poly2", "divide_exact"),
    ("curves.squarefree", "logpairs.curves", None, "_is_squarefree"),
    ("curves.sympy_gcd", "sympy", None, "gcd"),
    ("curves.sympy_factor", "sympy", "Poly", "factor_list"),
    ("curves.resolve", "logpairs.curves", None, "resolve"),
    ("curves.multiplicity_at", "logpairs.curves", None, "multiplicity_at"),
    ("curves.ord_along", "logpairs.curves", None, "ord_along"),
    ("curves.dual_graph_pair", "logpairs.curves", None, "dual_graph_pair"),
    ("snc.classify", "logpairs.snc", None, "classify"),
    ("snc.classify", "logpairs.snc", None, "classify_via_totaldiscrep"),
    ("snc.classify", "logpairs.snc", None, "classify_resolved"),
    ("snc.classify", "logpairs.snc", None, "discrep"),
    ("snc.classify", "logpairs.snc", None, "totaldiscrep"),
    ("experiments.sample", "logpairs.experiments", None, "sample_param_points"),
    ("experiments.mdlaw_records", "logpairs.experiments", None, "mdlaw_records"),
    ("experiments.gcd_bounds", "logpairs.experiments", None, "gcd_bounds_check"),
    ("experiments.gcd_family", "logpairs.experiments", None, "gcd_family_check"),
    ("experiments.csv", "logpairs.experiments", None, "write_mdlaw_csv"),
    ("heights.normalize_point", "logpairs.heights", None, "normalize_point"),
    ("heights.counting_gcd", "logpairs.heights", None, "counting_gcd"),
    ("heights.weil_arch_ratio", "logpairs.heights", None, "weil_arch_ratio"),
    ("heights.arakelov_decompose", "logpairs.heights", None, "arakelov_decompose"),
    ("heights.weil_local", "logpairs.heights", None, "weil_local"),
    ("places.padic_valuation", "logpairs.places", None, "padic_valuation"),
    ("places.is_prime", "logpairs.places", None, "is_prime"),
)

# Per-layer metrics: name -> (unit, better).  Values are per timed batch
# (one seeded job set) unless they are ratios.
METRICS = {
    "polynomials.translate.calls": ("count", "lower"),
    "polynomials.translate.self_s": ("s", "lower"),
    "polynomials.blowup.calls": ("count", "lower"),
    "polynomials.blowup.self_s": ("s", "lower"),
    "polynomials.mul.calls": ("count", "lower"),
    "polynomials.mul.self_s": ("s", "lower"),
    "polynomials.evaluate.calls": ("count", "lower"),
    "polynomials.evaluate.self_s": ("s", "lower"),
    "polynomials.divide_exact.self_s": ("s", "lower"),
    "curves.squarefree.self_s": ("s", "lower"),
    "curves.sympy_gcd.calls": ("count", "lower"),
    "curves.sympy_gcd.self_s": ("s", "lower"),
    "curves.sympy_factor.calls": ("count", "lower"),
    "curves.sympy_factor.self_s": ("s", "lower"),
    "curves.resolve.calls": ("count", "lower"),
    "curves.resolve.self_s": ("s", "lower"),
    "curves.nodes": ("count", "lower"),
    "curves.resolves_per_job": ("ratio", "lower"),
    "curves.multiplicity_at.calls": ("count", "lower"),
    "curves.ord_along.self_s": ("s", "lower"),
    "curves.dual_graph_pair.self_s": ("s", "lower"),
    "snc.classify.calls": ("count", "lower"),
    "snc.classify.self_s": ("s", "lower"),
    "experiments.sample.self_s": ("s", "lower"),
    "experiments.sample.pairs": ("count", "lower"),
    "experiments.sample.yield": ("ratio", "higher"),
    "experiments.mdlaw_records.self_s": ("s", "lower"),
    "experiments.records_per_point": ("ratio", "lower"),
    "experiments.gcd_bounds.self_s": ("s", "lower"),
    "experiments.gcd_family.self_s": ("s", "lower"),
    "experiments.csv.self_s": ("s", "lower"),
    "experiments.csv.bytes": ("bytes", "lower"),
    "heights.normalize_point.calls": ("count", "lower"),
    "heights.normalize_point.self_s": ("s", "lower"),
    "heights.counting_gcd.self_s": ("s", "lower"),
    "heights.weil_arch_ratio.self_s": ("s", "lower"),
    "heights.arakelov_decompose.self_s": ("s", "lower"),
    "heights.weil_local.self_s": ("s", "lower"),
    "places.padic_valuation.calls": ("count", "lower"),
    "places.padic_valuation.self_s": ("s", "lower"),
    "places.is_prime.calls": ("count", "lower"),
    "places.is_prime.self_s": ("s", "lower"),
    "cli.main.calls": ("count", "lower"),
    "cli.main.self_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
}

# Where each layer is predicted to do work, with the end-to-end metric it
# should move there.  A traced run fails when a layer records no calls on a
# workload listed for it: a span that never fires is a bug.
PREDICTIONS = {
    "polynomials.translate": {"towers": "run_s, job_tail_ms", "germs": "run_s", "mdlaw": "run_s"},
    "polynomials.blowup": {"towers": "run_s", "germs": "run_s"},
    "polynomials.mul": {"germs": "run_s", "mdlaw": "run_s"},
    "polynomials.evaluate": {"mdlaw": "run_s"},
    "polynomials.divide_exact": {"germs": "job_p50_ms", "towers": "run_s"},
    "curves.squarefree": {"germs": "job_p50_ms, run_s", "towers": "run_s"},
    "curves.sympy_gcd": {"germs": "job_p50_ms, run_s", "towers": "run_s"},
    "curves.sympy_factor": {"germs": "job_p50_ms, run_s", "towers": "run_s"},
    "curves.resolve": {"towers": "run_s", "germs": "run_s"},
    "curves.multiplicity_at": {"mdlaw": "run_s"},
    "curves.ord_along": {"towers": "job_tail_ms", "germs": "job_p50_ms"},
    "curves.dual_graph_pair": {"towers": "job_tail_ms", "germs": "job_p50_ms"},
    "snc.classify": {"heights": "job_p50_ms", "germs": "job_p50_ms", "towers": "run_s"},
    "experiments.sample": {"mdlaw": "run_s"},
    "experiments.mdlaw_records": {"mdlaw": "run_s, peak_rss_mb"},
    "experiments.gcd_bounds": {"mdlaw": "run_s"},
    "experiments.gcd_family": {"heights": "run_s"},
    "experiments.csv": {"mdlaw": "run_s"},
    "heights.normalize_point": {"mdlaw": "run_s", "heights": "run_s"},
    "heights.counting_gcd": {"mdlaw": "run_s", "heights": "run_s"},
    "heights.weil_arch_ratio": {"mdlaw": "run_s", "heights": "run_s"},
    "heights.arakelov_decompose": {"heights": "run_s"},
    "heights.weil_local": {"heights": "run_s"},
    "places.padic_valuation": {"heights": "run_s"},
    "places.is_prime": {"heights": "run_s"},
    "cli.main": {"heights": "job_p50_ms", "germs": "job_p50_ms", "towers": "run_s", "mdlaw": "run_s"},
}


class Tracer:
    """Span totals per name: calls, total time and self time; plus counts."""

    def __init__(self) -> None:
        self.stats: dict[str, list] = {}
        self.counts: Counter = Counter()
        self.job = ""
        self._stack: list[list[float]] = []

    def reset(self) -> None:
        for entry in self.stats.values():
            entry[:] = [0, 0.0, 0.0]
        self.counts.clear()

    def wrap(self, name: str, fn, on_result=None):
        entry = self.stats.setdefault(name, [0, 0.0, 0.0])
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            children = [0.0]
            stack.append(children)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                entry[0] += 1
                entry[1] += elapsed
                entry[2] += elapsed - children[0]
                if stack:
                    stack[-1][0] += elapsed
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def count(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    # -- result hooks: work counts read off return values ----------------------

    def _on_resolve(self, tree) -> None:
        self.counts["nodes"] += len(tree.nodes)

    def _on_sample(self, sample) -> None:
        self.counts["points"] += len(sample.points)
        self.counts["points." + self.job] += len(sample.points)

    def _on_records(self, records) -> None:
        self.counts["records"] += len(records)

    def metrics(self, batches: int, jobs: int, csv_bytes: int) -> dict[str, float]:
        """Per-layer values per timed batch, from totals over ``batches``."""
        out: dict[str, float] = {}
        for name in METRICS:
            layer, _, kind = name.rpartition(".")
            if kind in ("calls", "self_s") and layer in self.stats:
                calls, _total, self_s = self.stats[layer]
                out[name] = (calls if kind == "calls" else self_s) / batches
        c = self.counts
        resolves = self.stats["curves.resolve"][0]
        out["curves.nodes"] = c["nodes"] / batches
        out["curves.resolves_per_job"] = resolves / jobs
        out["experiments.sample.pairs"] = c["pairs"] / batches
        out["experiments.sample.yield"] = c["points"] / c["pairs"] if c["pairs"] else 0.0
        mdlaw_points = c["points.mdlaw"]
        out["experiments.records_per_point"] = c["records"] / mdlaw_points if mdlaw_points else 0.0
        out["experiments.csv.bytes"] = csv_bytes / batches
        return out

    def silent_layers(self, workload: str) -> list[str]:
        """Layers predicted to work on ``workload`` that recorded no call."""
        return [
            layer
            for layer, where in PREDICTIONS.items()
            if workload in where and self.stats[layer][0] == 0
        ]


def _rebind(original, wrapped) -> None:
    for name, module in list(sys.modules.items()):
        if name == "logpairs" or name.startswith("logpairs."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapped)


def instrument(tracer: Tracer) -> None:
    """Wrap every entry in SPANS; call once, after importing ``logpairs.cli``."""
    hooks = {
        "resolve": tracer._on_resolve,
        "sample_param_points": tracer._on_sample,
        "mdlaw_records": tracer._on_records,
    }
    for name, module_name, class_name, attr in SPANS:
        owner = importlib.import_module(module_name)
        if class_name is not None:
            owner = getattr(owner, class_name)
        original = getattr(owner, attr)
        wrapped = tracer.wrap(name, original, hooks.get(attr))
        setattr(owner, attr, wrapped)
        if class_name is None:
            _rebind(original, wrapped)
    experiments = importlib.import_module("logpairs.experiments")
    pc = experiments.ParamCurve
    pc.evaluate = tracer.count("pairs", pc.evaluate)
