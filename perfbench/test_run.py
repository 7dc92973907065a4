#!/usr/bin/env python3
"""Tests of the benchmark harness.

    python3 perfbench/test_run.py

Builds the driver (as run.py does), runs the C++ harness checks
(percentiles, zipf sampler, open-loop schedule, result JSON), checks that
a seed fixes each workload's inputs and accuracy counts, and checks
run.py's result schema validation against BENCHMARK.json.  Takes about a
minute after the build.
"""

import json
import subprocess
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402


def driver_info(binary, workload, seed, tmpdir):
    out = subprocess.run(
        [str(binary), "--workload", workload, "--seed", str(seed),
         "--seconds", "0.2", "--trace", "0", "--tmpdir", str(tmpdir)],
        stdout=subprocess.PIPE, text=True, check=True, timeout=170)
    return json.loads(out.stdout.strip().splitlines()[-1])


class HarnessTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.out_dir = run.build_dir()
        cls.binary = run.build(cls.out_dir, run.build_jobs())
        subprocess.run(["cmake", "--build", str(cls.out_dir), "--target",
                        "perfbench_harness_test"], check=True,
                       stdout=sys.stderr)
        cls.spec = run.load_spec()

    def test_cpp_harness_checks(self):
        done = subprocess.run([str(self.out_dir / "perfbench_harness_test")],
                              capture_output=True, text=True)
        self.assertEqual(done.returncode, 0, done.stderr)

    def test_seed_fixes_inputs(self):
        tmp = self.out_dir / "tmp"
        digests = {}
        for workload in run.WORKLOADS:
            a = driver_info(self.binary, workload, 5, tmp)
            b = driver_info(self.binary, workload, 5, tmp)
            self.assertTrue(a["correct"] and b["correct"])
            self.assertEqual(a["info"]["input_digest"],
                             b["info"]["input_digest"], workload)
            # Accuracy counts are decisions on those inputs: exact repeats.
            for key in ("genuine_attempts", "genuine_rejected",
                        "attack_attempts", "attacks_accepted"):
                self.assertEqual(a["info"][key], b["info"][key], workload)
            digests[workload] = a["info"]["input_digest"]
        other = driver_info(self.binary, "device_mixed", 6, tmp)
        self.assertNotEqual(digests["device_mixed"],
                            other["info"]["input_digest"])

    def test_driver_output_passes_schema(self):
        raw = driver_info(self.binary, "device_mixed", 1, self.out_dir / "tmp")
        result = run.validate(raw, self.spec, trace=False)
        self.assertEqual(list(result), ["correct", "attempted", "failed",
                                        "metrics"])
        for name, entry in result["metrics"].items():
            self.assertGreater(entry["value"], 0, name)


class ValidateTest(unittest.TestCase):
    def setUp(self):
        self.spec = {
            "end_to_end": [{"name": "latency_p50_us", "unit": "us"},
                           {"name": "setup_s", "unit": "s"}],
            "per_layer": [{"name": "io.open_us", "unit": "us"}],
        }
        self.good = {
            "correct": True, "attempted": 10, "failed": 0,
            "metrics": {"latency_p50_us": {"value": 1.5, "unit": "us"},
                        "setup_s": {"value": 0.25, "unit": "s"}},
            "info": {"seed": "1"},
        }

    def test_accepts_and_drops_info(self):
        out = run.validate(self.good, self.spec, trace=False)
        self.assertEqual(set(out), {"correct", "attempted", "failed",
                                    "metrics"})
        self.assertEqual(out["metrics"]["setup_s"]["value"], 0.25)

    def test_rejects(self):
        cases = []
        missing = json.loads(json.dumps(self.good))
        del missing["metrics"]["setup_s"]
        cases.append(missing)
        extra = json.loads(json.dumps(self.good))
        extra["metrics"]["other"] = {"value": 1, "unit": "us"}
        cases.append(extra)
        unit = json.loads(json.dumps(self.good))
        unit["metrics"]["setup_s"]["unit"] = "ms"
        cases.append(unit)
        null = json.loads(json.dumps(self.good))
        null["metrics"]["setup_s"]["value"] = None
        cases.append(null)
        nothing = json.loads(json.dumps(self.good))
        nothing["attempted"] = 0
        cases.append(nothing)
        fractional = json.loads(json.dumps(self.good))
        fractional["failed"] = 0.5
        cases.append(fractional)
        for bad in cases:
            with self.assertRaises(run.BenchError):
                run.validate(bad, self.spec, trace=False)
        # The traced run must report the per-layer set instead.
        with self.assertRaises(run.BenchError):
            run.validate(self.good, self.spec, trace=True)

    def test_spec_names_are_unique(self):
        spec = run.load_spec()
        names = [m["name"] for key in ("end_to_end", "per_layer")
                 for m in spec[key]]
        self.assertEqual(len(names), len(set(names)))
        self.assertIn("setup_s", names)


if __name__ == "__main__":
    unittest.main()
