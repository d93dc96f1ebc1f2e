"""Self-tests of the benchmark's generator, oracles and tracing.

    python3 bench/selftest.py

They run the program in-process on a few inputs with known answers, check
that a fixed seed reproduces its job set, and that a wrong output is caught
and counted as a failure.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import unittest
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import oracles as O  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from logpairs import cli, heights  # noqa: E402


def run_cli(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.main(argv)
    return rc, out.getvalue()


def run_worker(workload: str, seed: int) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        worker.main([str(ROOT), workload, str(seed), "0", "1", "0"])
    return json.loads(out.getvalue())


def tower(a: int, b: int) -> dict:
    return {(0, a): Fraction(1), (b, 0): Fraction(-1)}


class ResolutionOracles(unittest.TestCase):
    def resolve(self, f: dict, cs: str) -> dict:
        rc, out = run_cli(["resolve-curve", json.dumps(O.poly_json(f)), "--c", cs, "--max-depth", "400", "--json"])
        self.assertEqual(rc, 0)
        return json.loads(out)

    def test_cusp(self):
        self.assertEqual(O.tower_nodes(2, 3), 3)
        self.assertEqual(O.tower_lct(2, 3), Fraction(5, 6))
        self.assertEqual(O.newton_lct(tower(2, 3)), Fraction(5, 6))
        payload = self.resolve(tower(2, 3), "1/2,5/6,1")
        self.assertEqual(payload["k"], {"1": 1, "2": 2, "3": 4})
        self.assertIsNone(O.check_resolution(payload, 3, Fraction(5, 6)))

    def test_deep_tower(self):
        self.assertEqual(O.tower_nodes(2, 401), 202)
        payload = self.resolve(tower(2, 401), "1/4,403/802,1")
        self.assertIsNone(O.check_resolution(payload, 202, Fraction(403, 802)))

    def test_two_puiseux_pairs(self):
        cusp = tower(2, 3)
        f = O.poly_mul(cusp, cusp)
        f[(7, 1)] = Fraction(-1)
        self.assertEqual(O.two_pair_nodes(7), 7)
        payload = self.resolve(f, "1/3,5/12,1/2")
        self.assertIsNone(O.check_resolution(payload, 7, O.TWO_PAIR_LCT))

    def test_newton_thresholds(self):
        x, y = (1, 0), (0, 1)
        d4 = {(2, 1): Fraction(1), (0, 3): Fraction(-1)}
        e7 = {(0, 3): Fraction(1), (3, 1): Fraction(-1)}
        self.assertEqual(O.newton_lct(d4), Fraction(2, 3))
        self.assertEqual(O.newton_lct(e7), Fraction(5, 9))
        quadruple = {(0, 0): Fraction(1)}
        for s in (0, 1, 2, 3):
            quadruple = O.poly_mul(quadruple, {y: Fraction(1), x: Fraction(-s)})
        self.assertEqual(O.newton_lct(quadruple), Fraction(1, 2))

    def test_howald_on_cusp(self):
        # J(5/6 * cusp) is the maximal ideal; just below 5/6 it is everything.
        c = Fraction(5, 6)
        self.assertFalse(O.howald_member(tower(2, 3), c, 0, 0, closed=False))
        self.assertTrue(O.howald_member(tower(2, 3), c, 1, 0, closed=False))
        self.assertTrue(O.howald_member(tower(2, 3), c, 0, 1, closed=False))
        self.assertTrue(O.howald_member(tower(2, 3), c, 0, 0, closed=True))

    def test_classes_ordered_around_threshold(self):
        lct = Fraction(5, 6)
        got = [O.expected_class(c, lct) for c in (Fraction(1, 2), lct, Fraction(1))]
        self.assertEqual(got, ["kawamata_log_terminal", "log_canonical", "not_log_canonical"])


class Generator(unittest.TestCase):
    def test_fixed_seed_reproduces_job_set(self):
        for name in workloads.WORKLOADS:
            first, second = workloads.JobStream(name, 7), workloads.JobStream(name, 7)
            for _ in range(2):
                self.assertEqual([j.key for j in first.batch()], [j.key for j in second.batch()])
            other = workloads.JobStream(name, 8).batch()
            self.assertNotEqual([j.key for j in other], [j.key for j in workloads.JobStream(name, 7).batch()])

    def test_batches_do_not_overlap(self):
        stream = workloads.JobStream("germs", 3)
        keys = [job.key for _ in range(3) for job in stream.batch()]
        self.assertEqual(len(keys), len(set(keys)))

    def test_every_workload_passes_its_oracles(self):
        csv_path = ROOT / ".bench_out" / "selftest.csv"
        csv_path.parent.mkdir(exist_ok=True)
        try:
            for name in workloads.WORKLOADS:
                for job in workloads.JobStream(name, 11).batch()[:6]:
                    if job.call:
                        continue
                    rc, out = run_cli([str(csv_path) if a == "{csv}" else a for a in job.argv])
                    csv_text = csv_path.read_text() if job.label == "mdlaw" else None
                    self.assertIsNone(workloads.check(job, rc, out, csv_text), job.argv[:1])
        finally:
            csv_path.unlink(missing_ok=True)


class FailureDetection(unittest.TestCase):
    def test_wrong_outputs_are_rejected(self):
        job = workloads.JobStream("heights", 5).batch()[0]
        rc, out = run_cli(list(job.argv))
        self.assertIsNone(workloads.check(job, rc, out))
        payload = json.loads(out)
        payload["N"] += 1e-12
        self.assertIsNotNone(workloads.check(job, rc, json.dumps(payload)))
        self.assertIsNotNone(workloads.check(job, 3, out))
        cusp = run_cli(["resolve-curve", json.dumps(O.poly_json(tower(2, 3))), "--c", "1/2", "--json"])[1]
        self.assertIsNotNone(O.check_resolution(json.loads(cusp), 4, Fraction(5, 6)))
        self.assertIsNotNone(O.check_resolution(json.loads(cusp), 3, Fraction(4, 5)))

    def test_wrong_experiment_outputs_are_rejected(self):
        job = next(j for j in workloads.JobStream("mdlaw", 5).batch() if j.expect["family"] == "pure")
        csv_path = ROOT / ".bench_out" / "selftest.csv"
        csv_path.parent.mkdir(exist_ok=True)
        try:
            rc, out = run_cli([str(csv_path) if a == "{csv}" else a for a in job.argv])
            csv_text = csv_path.read_text()
        finally:
            csv_path.unlink(missing_ok=True)
        self.assertIsNone(workloads.check(job, rc, out, csv_text))
        self.assertIsNotNone(workloads.check(job, rc, out, csv_text.split("\n", 1)[1]))
        for key, wrong in (("max_abs_residual", 1e-17), ("samples", 1)):
            payload = json.loads(out)
            payload[key] += wrong
            self.assertIsNotNone(workloads.check(job, rc, json.dumps(payload), csv_text), key)

    def test_wrong_output_raises_fail_ratio(self):
        healthy = run_worker("heights", 2)
        self.assertEqual(healthy["failed"], 0)
        original = heights.arakelov_decompose

        def off_by_one(Z, x):
            t = original(Z, x)
            return heights.HeightTriple(h=t.h + 1, N=t.N + 1, m=t.m)

        heights.arakelov_decompose = off_by_one
        try:
            broken = run_worker("heights", 2)
        finally:
            heights.arakelov_decompose = original
        self.assertGreater(broken["failed"] / broken["attempted"], 0)
        self.assertNotEqual(broken["digest"], healthy["digest"])
        self.assertEqual(run_worker("heights", 2)["digest"], healthy["digest"])


class Declaration(unittest.TestCase):
    def test_benchmark_json_matches_the_code(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        self.assertEqual([w["name"] for w in spec["workloads"]], list(workloads.WORKLOADS))
        layers = {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]}
        self.assertEqual(layers, tracing.METRICS)
        names = [m["name"] for m in spec["end_to_end"]]
        self.assertEqual(names, ["setup_s", "run_s", "job_p50_ms", "job_tail_ms", "peak_rss_mb"])

    def test_every_prediction_names_a_traced_layer(self):
        traced = {name for name, *_ in tracing.SPANS}
        self.assertLessEqual(set(tracing.PREDICTIONS), traced)
        for where in tracing.PREDICTIONS.values():
            self.assertLessEqual(set(where), set(workloads.WORKLOADS))


if __name__ == "__main__":
    unittest.main()
