"""Benchmark of the logpairs toolkit: four seeded workloads, end-to-end job
timings, and per-layer counts and self time from a separately traced run.

    python3 bench/run.py --workload towers --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20

Run it from anywhere; it measures the checkout it sits in (``src/logpairs``
next to this directory) and writes only under ``.bench_out/`` there.  Each
workload runs in a fresh child interpreter (``worker.py``), so one
workload's imports, caches and memory never reach another.  Every job's
output is checked by an oracle (``oracles.py``).  The last line of standard
output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones below; with
``--trace 1`` they are the per-layer ones of ``tracing.METRICS``, from a
traced worker that repeats the batches of an untraced one.

  setup_s      median time of fresh interpreters importing logpairs.cli and
               sympy, as every cold command-line run does
  run_s        median time of one timed batch (a seeded job set)
  job_p50_ms   median job latency
  job_tail_ms  nearest-rank p90 job latency (a run times >= 100 jobs, so
               >= 10 samples lie beyond it)

Times are wall times scaled to a reference machine speed (``speed.py``):
the speed of this kind of machine swings by up to 2x within a minute, which
would otherwise swamp every change worth measuring.  The table above the
JSON line also prints the unscaled median batch time.

  peak_rss_mb  peak resident memory of the worker process, after the
               warm-up and the first three timed batches
  fail_ratio   failed / attempted jobs (printed, and carried by the JSON's
               "failed" and "attempted")
"""

from __future__ import annotations

import argparse
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_RUNS = 5
CHILD_TIMEOUT_S = 170


def _env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


def measure_setup() -> float:
    """Median scaled wall time of a fresh interpreter importing the CLI and
    sympy; one discarded import first warms the file cache and bytecode."""
    times = []
    for _ in range(SETUP_RUNS + 1):
        samples = [speed.kernel_s() for _ in range(3)]
        start = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", "import logpairs.cli, sympy"],
            env=_env(),
            cwd=ROOT,
            check=True,
            timeout=CHILD_TIMEOUT_S,
        )
        elapsed = time.perf_counter() - start
        samples += [speed.kernel_s() for _ in range(3)]
        times.append(elapsed * speed.scale(samples))
    return statistics.median(times[1:])


def run_worker(workload: str, seed: int, seconds: float, batches: int, trace: bool) -> dict:
    args = [str(ROOT), workload, str(seed), str(seconds), str(batches), str(int(trace))]
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), *args],
        env=_env(),
        cwd=ROOT,
        stdout=subprocess.PIPE,
        text=True,
        timeout=CHILD_TIMEOUT_S,
        check=True,
    )
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    res["problems"] = []
    return res


def percentile(values: list[float], pct: int) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(pct / 100 * len(ordered)) - 1)]


def end_to_end(workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    setup = measure_setup()
    res = run_worker(workload, seed, seconds, 0, trace=False)
    lat = res["latency_s"]
    metrics = {
        "setup_s": (setup, "s"),
        "run_s": (statistics.median(res["batch_s"]), "s"),
        "job_p50_ms": (statistics.median(lat) * 1000, "ms"),
        "job_tail_ms": (percentile(lat, workloads.TAIL_PERCENTILE) * 1000, "ms"),
        "peak_rss_mb": (res["peak_rss_kb"] / 1024, "MB"),
    }
    return res, metrics


def per_layer(workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    plain = run_worker(workload, seed, seconds / 2, 0, trace=False)
    traced = run_worker(workload, seed, seconds / 2, len(plain["batch_s"]), trace=True)
    if traced["digest"] != plain["digest"]:
        traced["problems"].append("traced outputs differ from untraced outputs")
    for layer in traced["silent"]:
        traced["problems"].append(f"layer {layer} predicted to work on {workload} recorded no call")
    layers = dict(traced["layers"])
    layers["trace.overhead_s"] = statistics.median(traced["batch_s"]) - statistics.median(plain["batch_s"])
    metrics = {name: (layers[name], unit) for name, (unit, _better) in tracing.METRICS.items()}
    return traced, metrics


def report(workload: str, res: dict, metrics: dict) -> None:
    fail_ratio = res["failed"] / res["attempted"]
    print(
        f"{workload}: {res['attempted']} jobs in {len(res['batch_s'])} batches, "
        f"fail_ratio {fail_ratio:.4g}, output digest {res['digest']}, "
        f"unscaled run_s {statistics.median(res['raw_batch_s']):.4g} s"
    )
    for name, (value, unit) in metrics.items():
        print(f"  {name:36s} {value:14.6g} {unit}")
    for problem in res["failures"] + res["problems"]:
        print(f"  FAILED {problem}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # Exit through SystemExit on SIGTERM, so that subprocess.run kills and
    # reaps a running worker instead of leaving it behind.
    signal.signal(signal.SIGTERM, lambda signum, _frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "logpairs" / "cli.py").is_file():
        print(f"error: no logpairs sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    measure = per_layer if args.trace else end_to_end
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    attempted = failed = 0
    correct = True
    metrics: dict = {}
    for name in names:
        res, values = measure(name, args.seed, args.seconds)
        report(name, res, values)
        attempted += res["attempted"]
        failed += res["failed"]
        # "failures" also lists wrong outputs of the untimed warm-up batch.
        correct = correct and res["failed"] == 0 and not res["failures"] and not res["problems"]
        prefix = f"{name}." if args.workload == "all" else ""
        metrics.update({prefix + k: {"value": v, "unit": u} for k, (v, u) in values.items()})
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
