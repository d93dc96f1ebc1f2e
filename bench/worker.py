"""Run one workload in this fresh interpreter and print one JSON line.

Started by ``run.py`` (the self-tests call ``main`` in-process).  Usage:

    python3 bench/worker.py ROOT WORKLOAD SEED SECONDS BATCHES TRACE

ROOT is the checkout holding ``src/logpairs``.  After a warm-up batch the
worker runs timed batches, one job at a time (a closed loop with one
client), until SECONDS have passed, at least ``MIN_BATCHES`` batches and
``workloads.MIN_JOBS`` jobs are done; BATCHES > 0 fixes the count instead.
With TRACE 1 the package is instrumented from outside (``tracing.py``).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import resource
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

import speed
import tracing
import workloads

MIN_BATCHES = 3


def main(argv: list[str]) -> int:
    root, workload, seed, seconds, fixed, trace = argv
    sys.path.insert(0, str(Path(root, "src")))
    from logpairs import cli, curves, heights, places, polynomials

    tracer = None
    if trace == "1":
        tracer = tracing.Tracer()
        tracing.instrument(tracer)

    scratch = Path(root, ".bench_out", f"worker-{os.getpid()}")
    scratch.mkdir(parents=True, exist_ok=True)
    csv_path = scratch / "job.csv"

    def run_cli(job: workloads.Job) -> tuple[int, str]:
        args = [str(csv_path) if a == "{csv}" else a for a in job.argv]
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            rc = cli.main(args)
        return rc, out.getvalue()

    def run_call(job: workloads.Job) -> tuple[int, str]:
        if job.call[0] == "member":
            _, f, c, g, kind, depth = job.call
            verdict = curves.ideal_member(
                curves.AffineCurve.from_json(f),
                Fraction(c),
                polynomials.Poly2.from_json(g),
                curves.IdealKind[kind],
                max_depth=depth,
            )
            return 0, json.dumps(verdict)
        _, gens, coords, primes = job.call
        zed = heights.Subscheme(tuple(heights.HomogPoly.from_terms(len(e), [(e, 1)]) for e in gens))
        x = heights.normalize_point(coords)
        g = heights.counting_gcd(zed, x)
        result = [
            [places.padic_valuation(g, p), heights.weil_local(zed, x, places.Place.finite(p))]
            for p in primes
        ]
        result.append(heights.weil_local(zed, x, places.Place.archimedean()))
        return 0, json.dumps(result)

    stream = workloads.JobStream(workload, int(seed))
    digest = hashlib.sha256()
    failures: list[str] = []
    latencies: list[float] = []
    batch_times: list[float] = []
    raw_batch_times: list[float] = []
    counts = {"attempted": 0, "failed": 0, "csv_bytes": 0}

    def run_batch(jobs: list[workloads.Job], timed: bool, record: bool) -> None:
        # Reference-kernel samples bracket every job: one before the batch,
        # then one after each job that ends SAMPLE_EVERY_S after the last.
        # A job is scaled by the median of the three samples on either side
        # of it, which smooths the kernel's own jitter but still follows
        # swings of the machine's speed lasting a second or more.
        samples = [speed.kernel_s()]
        last_sample = time.perf_counter()
        timings = []  # (wall time, index of the sample before the job)
        for job in jobs:
            if tracer is not None:
                tracer.job = job.label
            if csv_path.exists():
                csv_path.unlink()
            start = time.perf_counter()
            try:
                rc, out = run_call(job) if job.call else run_cli(job)
            except Exception:
                rc, out = -1, traceback.format_exc()
            elapsed = time.perf_counter() - start
            csv_text = csv_path.read_text() if "{csv}" in job.argv and csv_path.exists() else None
            try:
                problem = workloads.check(job, rc, out, csv_text)
            except Exception:
                problem = "check raised " + traceback.format_exc()
            if record:
                digest.update(json.dumps([job.key, rc, out, csv_text]).encode())
            timings.append((elapsed, len(samples) - 1))
            if time.perf_counter() - last_sample >= speed.SAMPLE_EVERY_S:
                samples.append(speed.kernel_s())
                last_sample = time.perf_counter()
            if timed:
                counts["attempted"] += 1
                counts["csv_bytes"] += len(csv_text.encode()) if csv_text else 0
                if problem:
                    counts["failed"] += 1
            if problem and len(failures) < 5:
                failures.append(f"{job.label}: {problem}")
        if timed:
            samples.append(speed.kernel_s())
            scaled = [t * speed.scale(samples[max(0, i - 2) : i + 4]) for t, i in timings]
            raw_batch_times.append(sum(t for t, _ in timings))
            batch_times.append(sum(scaled))
            latencies.extend(scaled)

    run_batch(stream.batch(), timed=False, record=True)
    if tracer is not None:
        tracer.reset()
    deadline = time.monotonic() + float(seconds)
    fixed = int(fixed)
    peak_rss_kb = 0
    while True:
        run_batch(stream.batch(), timed=True, record=len(batch_times) == 0)
        done = len(batch_times)
        if done <= MIN_BATCHES:
            # Peak memory after a fixed amount of work: sympy's caches keep
            # growing with the number of distinct inputs, and the number of
            # batches in a run depends on the machine's speed.
            peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if fixed:
            if done >= fixed:
                break
        elif time.monotonic() >= deadline and done >= MIN_BATCHES and counts["attempted"] >= workloads.MIN_JOBS:
            break
    csv_path.unlink(missing_ok=True)
    scratch.rmdir()

    result = {
        "batch_s": batch_times,
        "raw_batch_s": raw_batch_times,
        "latency_s": latencies,
        "attempted": counts["attempted"],
        "failed": counts["failed"],
        "failures": failures,
        "digest": digest.hexdigest()[:16],
        "peak_rss_kb": peak_rss_kb,
    }
    if tracer is not None:
        result["layers"] = tracer.metrics(len(batch_times), counts["attempted"], counts["csv_bytes"])
        result["silent"] = tracer.silent_layers(workload)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
