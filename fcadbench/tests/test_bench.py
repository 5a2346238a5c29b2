"""The benchmark's own tests, at the tiny size. From the checkout root:

    python3 -m unittest discover -s fcadbench/tests
"""

import json
import math
import os
import subprocess
import sys
import tempfile
import unittest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import run as bench  # noqa: E402


def run_tiny(workload, trace, seed=0):
    command = [
        sys.executable, os.path.join(BENCH, "run.py"),
        "--workload", workload, "--seed", str(seed), "--seconds", "0",
        "--trace", str(trace), "--size", "tiny",
    ]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=300)
    if done.returncode != 0:
        raise AssertionError(f"run.py exited {done.returncode}: {done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


class BenchmarkTest(unittest.TestCase):
    def test_benchmark_json_names_what_run_emits(self):
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
            spec = json.load(handle)
        self.assertEqual([w["name"] for w in spec["workloads"]], list(bench.VARIANTS))
        self.assertEqual([(m["name"], m["unit"]) for m in spec["end_to_end"]], bench.END_TO_END)
        self.assertEqual([(m["name"], m["unit"]) for m in spec["per_layer"]], bench.PER_LAYER)

    def test_wall_time_drops_the_extreme_tenth_of_samples(self):
        self.assertEqual(bench.trimmed_mean([1.0, 3.0]), 2.0)
        self.assertEqual(bench.trimmed_mean([9.0, 1.0, 2.0, 3.0, 4.0]), 3.0)
        self.assertEqual(bench.trimmed_mean([100.0, 0.0] + [5.0] * 18), 5.0)

    def test_every_metric_is_emitted_with_its_unit_and_nothing_fails(self):
        for workload in bench.VARIANTS:
            for trace, names in ((0, bench.END_TO_END), (1, bench.PER_LAYER)):
                with self.subTest(workload=workload, trace=trace):
                    result = run_tiny(workload, trace)
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    metrics = result["metrics"]
                    self.assertEqual(list(metrics), [name for name, _ in names])
                    for name, unit in names:
                        self.assertEqual(metrics[name]["unit"], unit, name)
                        self.assertTrue(math.isfinite(metrics[name]["value"]), name)
                    if trace == 0:
                        self.assertEqual(metrics["ok_frac"]["value"], 1.0)
                        for name, _ in names:
                            self.assertGreater(metrics[name]["value"], 0, name)
                    else:
                        self.assertGreaterEqual(metrics["bench.span_coverage"]["value"], 0.9)

    def test_each_layer_is_attributed_on_the_workload_that_calls_it(self):
        called = {
            "design_table4": ["dse.explore_s", "dse.inbranch_us", "accel.evaluate_us", "cyclesim.simulate_us"],
            "serve_metropolis": ["serve.engine_s", "serve.generate_s", "window.w2_s", "window.speedup_w2"],
            "serve_coupled": ["serve.events", "fleet.rr_swap_s", "obs.recorder_peak_rss_mb"],
        }
        for workload, names in called.items():
            metrics = run_tiny(workload, 1)["metrics"]
            for name in names:
                with self.subTest(workload=workload, metric=name):
                    self.assertGreater(metrics[name]["value"], 0)

    def test_a_corrupted_digest_is_counted_as_a_failure(self):
        with open(bench.DIGESTS, encoding="utf-8") as handle:
            digests = json.load(handle)
        pinned = digests["tiny"]["0"]["design_table4"]
        pinned["case1_z7045_int8/s0"] = "0" * 16
        os.makedirs(bench.STATE_DIR, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=bench.STATE_DIR) as scratch:
            path = os.path.join(scratch, "digests.json")
            with open(path, "w", encoding="utf-8") as handle:
                json.dump(digests, handle)
            result, _ = bench.run("design_table4", 0, 0, 0, size="tiny", digests_path=path)
        self.assertFalse(result["correct"])
        # One sample per DSE search, five cases each; only search 0's case 1 is corrupted.
        searches = bench.DSE_SEARCHES["design_table4"]
        self.assertEqual(result["attempted"], searches * bench.OPS_PER_SAMPLE["design_table4"])
        self.assertEqual(result["failed"], 1)
        self.assertLess(result["metrics"]["ok_frac"]["value"], 1.0)

    def test_a_crashing_sample_fails_its_operations(self):
        os.makedirs(bench.STATE_DIR, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=bench.STATE_DIR) as scratch:
            runner = os.path.join(scratch, "runner")
            with open(runner, "w", encoding="utf-8") as handle:
                handle.write("#!/bin/sh\necho 'thread main panicked' >&2\nexit 101\n")
            os.chmod(runner, 0o755)
            samples = bench.collect(runner, "serve_coupled", 0, 0, 0, "tiny")
        attempted, failed, problems = bench.verify(samples, "serve_coupled", 0, "tiny", bench.DIGESTS)
        self.assertEqual(attempted, bench.OPS_PER_SAMPLE["serve_coupled"])
        self.assertEqual(failed, attempted)
        self.assertIn("panicked", problems[0])

    def test_an_unpinned_seed_still_checks_every_operation(self):
        result = run_tiny("serve_coupled", 0, seed=7)
        self.assertTrue(result["correct"])
        self.assertEqual(result["attempted"], 2 * bench.MIN_PLAIN_SAMPLES)


if __name__ == "__main__":
    unittest.main()
