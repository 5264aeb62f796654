#!/usr/bin/env python3
"""The benchmark's own tests.

    python3 perfbench/test_perfbench.py        (from the repository root)

- The same seed gives a byte-identical frame stream for each workload,
  and another seed gives another stream.
- Every metric the benchmark prints appears in BENCHMARK.json with the
  same unit and a direction, and every per-layer metric has a layer in
  perfbench/layers.json.
- A short run of each workload completes, correct, with no failed
  request (fail_ratio = 0).
"""

import json
import os
import subprocess
import sys
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = [sys.executable, os.path.join("perfbench", "run.py")]
WORKLOADS = ["churn", "hard", "tiny"]


def bench(workload, trace, seconds=2, seed=7):
    p = subprocess.run(
        RUN + ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    lines = p.stdout.strip().splitlines()
    return p.returncode, (json.loads(lines[-1]) if lines else None), p


def frames(workload, seed, count=400):
    # Builds and generates the host through a 1-second run first.
    sites = {"churn": 296, "hard": 296, "tiny": 40}[workload]
    host = os.path.join(ROOT, ".bench_out", "planetlab-%d.graphml" % sites)
    exe = os.path.join(ROOT, ".bench_build", "default", "perfbench", "nebench.exe")
    return subprocess.run(
        [exe, "frames", "--workload", workload, "--seed", str(seed), "--host", host, "--count", str(count)],
        cwd=ROOT, capture_output=True, check=True,
    ).stdout


class Benchmark(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            cls.spec = json.load(f)
        with open(os.path.join(ROOT, "perfbench", "layers.json")) as f:
            cls.layers = json.load(f)
        cls.runs = {}
        for w in WORKLOADS:
            cls.runs[(w, 0)] = bench(w, 0)
        cls.runs[("tiny", 1)] = bench("tiny", 1)

    def test_frames_are_deterministic(self):
        for w in WORKLOADS:
            a, b = frames(w, 3), frames(w, 3)
            self.assertEqual(a, b, w)
            self.assertNotEqual(a, frames(w, 4), w)
            self.assertIn(b"\n.\n", a)

    def test_metric_names_units_and_layers(self):
        e2e = {m["name"]: m for m in self.spec["end_to_end"]}
        layer = {m["name"]: m for m in self.spec["per_layer"]}
        for (w, trace), (_, result, _) in self.runs.items():
            table = layer if trace else e2e
            self.assertEqual(set(result["metrics"]), set(table), (w, trace))
            for name, m in result["metrics"].items():
                self.assertEqual(m["unit"], table[name]["unit"], name)
                self.assertIn(table[name]["better"], ("higher", "lower"), name)
                if trace:
                    self.assertIn(name, self.layers, name)
                    self.assertTrue(self.layers[name]["layer"], name)
        self.assertEqual(set(self.layers), set(layer))

    def test_smoke_runs_are_clean(self):
        for (w, trace), (rc, result, p) in self.runs.items():
            self.assertEqual(rc, 0, (w, trace, p.stderr[-2000:]))
            self.assertTrue(result["correct"], (w, trace))
            self.assertEqual(result["failed"], 0, (w, trace))
            self.assertGreaterEqual(result["attempted"], 1)
            if not trace:
                self.assertEqual(result["metrics"]["ok_ratio"]["value"], 1.0, w)


if __name__ == "__main__":
    unittest.main()
