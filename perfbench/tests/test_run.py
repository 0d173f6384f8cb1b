"""Tests of the benchmark's reduction, validation and plumbing.

    python3 -m unittest discover -s perfbench/tests

The reduction tests are pure Python. SmokeTest builds perfbench (about a
minute from cold) and runs every declared workload in its seconds-long
smoke mode; set PERFBENCH_SKIP_SMOKE=1 to skip it.
"""

import json
import math
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import run  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)

LAYERS = ("sim", "net", "mutex", "core", "service", "workload")


def make_pass(cpu_ns, ref_ns, completed=1000, traced=False, setup_ns=1e6):
    return {
        "setup_ns": setup_ns, "cpu_ns": cpu_ns, "wall_ns": cpu_ns,
        "attempted": completed, "completed": completed, "traced": traced,
        "net_setup_ns": 1000, "mutex_setup_ns": 2000,
        "service_setup_ns": 3000, "ref_before_ns": ref_ns,
        "ref_after_ns": ref_ns, "net_sends": 500,
        "self_ns": {name: (100000 if traced else 0) for name in LAYERS},
    }


def make_raw(passes):
    counts = {m["name"]: 1.0 for m in SPEC["per_layer"]}
    return {
        "workload": "paper_grid", "seed": 1, "trace": 0, "smoke": False,
        "failures": [], "passes": passes,
        "summary": {
            "obtain_ms": 10.0, "obtain_sd_ms": 5.0, "obtain_p50_ms": 8.0,
            "obtain_p99_ms": 40.0, "obtain_samples": 1000,
            "inter_msgs_per_cs": 3.0, "inter_bytes_per_cs": 30.0,
            "note": "", "counts": counts, "unreached": [],
        },
        "host": {"world_peak_kb": 20480, "steal_share": 0.01},
    }


class ReductionTest(unittest.TestCase):
    def test_reference_normalisation_cancels_host_speed(self):
        # The same work on a host running at half speed: both the pass and
        # the reference loop take twice as long.
        fast = make_pass(cpu_ns=8e6, ref_ns=run.REF_NOMINAL_NS)
        slow = make_pass(cpu_ns=16e6, ref_ns=2 * run.REF_NOMINAL_NS)
        self.assertAlmostEqual(
            run.cpu_us_per_cs(fast) * run.norm_factor(fast),
            run.cpu_us_per_cs(slow) * run.norm_factor(slow))
        self.assertAlmostEqual(
            run.cpu_us_per_cs(fast) * run.norm_factor(fast), 8.0)

    def test_reference_measured_during_the_pass_wins(self):
        # lockd_loopback's load generator: its CPU during the pass replaces
        # the reference loop timed around it.
        p = make_pass(cpu_ns=8e6, ref_ns=run.REF_NOMINAL_NS)
        p["ref_during_ns"] = 2 * run.REF_NOMINAL_NS
        self.assertAlmostEqual(run.cpu_us_per_cs(p) * run.norm_factor(p), 4.0)

    def test_pass_reduction_is_the_median_of_normalised_passes(self):
        nominal = run.REF_NOMINAL_NS
        passes = [make_pass(cpu_ns=c * 1e6, ref_ns=nominal)
                  for c in (8, 9, 10, 11, 50)]  # one disturbed pass
        e2e, _, _ = run.reduce_raw(make_raw(passes))
        self.assertAlmostEqual(e2e["cpu_us_per_cs"], 10.0)
        self.assertAlmostEqual(e2e["setup_s"], 1e-3)

    def test_traced_passes_do_not_enter_end_to_end_cost(self):
        nominal = run.REF_NOMINAL_NS
        passes = [make_pass(10e6, nominal), make_pass(20e6, nominal, traced=True),
                  make_pass(10e6, nominal), make_pass(20e6, nominal, traced=True)]
        e2e, layer, split = run.reduce_raw(make_raw(passes))
        self.assertAlmostEqual(e2e["cpu_us_per_cs"], 10.0)
        self.assertAlmostEqual(layer["bench.trace_overhead"], 1.0)
        self.assertIn("% sim", split)

    def test_split_range_spans_the_traced_passes(self):
        nominal = run.REF_NOMINAL_NS
        low = make_pass(20e6, nominal, traced=True)
        high = make_pass(20e6, nominal, traced=True)
        high["self_ns"]["sim"] = 400000  # 4 of 9 parts instead of 1 of 6
        text = run.split_range([low, high])
        self.assertIn("sim 17-44%", text)
        self.assertIn("net 11-17%", text)

    def test_peak_memory_is_the_program_world(self):
        passes = [make_pass(10e6, run.REF_NOMINAL_NS)]
        raw = make_raw(passes)
        raw["host"]["process_peak_kb"] = 99999
        e2e, _, _ = run.reduce_raw(raw)
        self.assertAlmostEqual(e2e["peak_rss_mb"], 20.0)

    def test_pass_without_reference_fails(self):
        bad = make_pass(10e6, 0)
        with self.assertRaises(ValueError):
            run.reduce_raw(make_raw([bad]))


class ValidationTest(unittest.TestCase):
    def reduced(self):
        nominal = run.REF_NOMINAL_NS
        passes = [make_pass(10e6, nominal), make_pass(12e6, nominal, traced=True)]
        return run.reduce_raw(make_raw(passes))

    def test_printed_names_and_units_match_the_spec(self):
        e2e, layer, _ = self.reduced()
        for trace, declared in ((False, SPEC["end_to_end"]),
                                (True, SPEC["per_layer"])):
            metrics = run.select_metrics(SPEC, trace, e2e, layer)
            self.assertEqual(list(metrics), [m["name"] for m in declared])
            for m in declared:
                self.assertEqual(metrics[m["name"]]["unit"], m["unit"])

    def test_missing_metric_fails(self):
        e2e, layer, _ = self.reduced()
        del e2e["obtain_p99_ms"]
        with self.assertRaisesRegex(ValueError, "obtain_p99_ms missing"):
            run.select_metrics(SPEC, False, e2e, layer)
        name = SPEC["per_layer"][0]["name"]
        del layer[name]
        with self.assertRaisesRegex(ValueError, name + " missing"):
            run.select_metrics(SPEC, True, e2e, layer)

    def test_non_finite_metric_fails(self):
        for bad in (math.nan, math.inf, None, "1.0"):
            e2e, layer, _ = self.reduced()
            e2e["obtain_ms"] = bad
            with self.assertRaises(ValueError):
                run.select_metrics(SPEC, False, e2e, layer)
            layer["bench.ref_ms"] = bad
            with self.assertRaises(ValueError):
                run.select_metrics(SPEC, True, e2e, layer)

    def test_end_to_end_metric_of_zero_fails(self):
        e2e, layer, _ = self.reduced()
        e2e["inter_msgs_per_cs"] = 0.0
        with self.assertRaisesRegex(ValueError, "not positive"):
            run.select_metrics(SPEC, False, e2e, layer)


@unittest.skipIf(os.environ.get("PERFBENCH_SKIP_SMOKE") == "1",
                 "PERFBENCH_SKIP_SMOKE=1")
class SmokeTest(unittest.TestCase):
    def run_bench(self, workload, trace):
        cmd = [sys.executable, os.path.join(BENCH, "run.py"), "--workload",
               workload, "--seed", "3", "--seconds", "1", "--trace",
               str(trace), "--smoke"]
        r = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                           stderr=subprocess.PIPE, text=True, timeout=900)
        return r.returncode, r.stdout

    def test_every_workload_in_both_modes(self):
        for w in SPEC["workloads"]:
            for trace in (0, 1):
                with self.subTest(workload=w["name"], trace=trace):
                    code, out = self.run_bench(w["name"], trace)
                    self.assertEqual(code, 0, out)
                    result = json.loads(out.strip().splitlines()[-1])
                    self.assertEqual(set(result),
                                     {"correct", "attempted", "failed",
                                      "metrics"})
                    self.assertTrue(result["correct"], out)
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.assertEqual(result["failed"], 0)
                    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
                    self.assertEqual(list(result["metrics"]),
                                     [m["name"] for m in declared])
                    if trace:
                        self.assertIn("split: ", out)
                    if trace and w["name"] == "lockd_loopback":
                        # Its checks (fence order, exclusion, closure
                        # against the daemons' kStats) passed over real
                        # datagrams.
                        sent = result["metrics"]["transport.datagrams_per_cs"]
                        self.assertGreater(sent["value"], 0)

    def test_fails_without_the_program_sources(self):
        # A directory holding only BENCHMARK.json and perfbench/ must fail
        # fast and print no result.
        bare = os.path.join(ROOT, ".bench_build", "tests-bare")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        try:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            shutil.copytree(BENCH, os.path.join(bare, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            env = dict(os.environ, CARGO_TARGET_DIR=".bench_build")
            r = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload",
                 SPEC["workloads"][0]["name"], "--seed", "1", "--seconds",
                 "1", "--trace", "0"], cwd=bare, env=env,
                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                timeout=180)
            self.assertNotEqual(r.returncode, 0)
            self.assertNotIn('"correct"', r.stdout)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
