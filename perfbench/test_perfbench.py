#!/usr/bin/env python3
"""Tests of the end-to-end benchmark itself (not of aa_serve).

Run from the repository root:

    python3 -m unittest perfbench/test_perfbench.py

Builds the benchmark like perfbench/run.py does, then checks that the seeded
request stream is reproducible, that the metric catalogue matches
BENCHMARK.json, that a smoke-length run of every workload validates with no
failure, and that the command refuses to run without the repository sources.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import run  # noqa: E402  (perfbench/run.py)

WORKLOADS = ["drift", "tenants", "replan"]


def program(*args):
    return subprocess.run([run.PROGRAM, *args], cwd=ROOT, check=True,
                          capture_output=True).stdout


def bench(workload, seconds, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "11", "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=200)
    return proc


class PerfbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        run.build()
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            cls.spec = json.load(f)

    def test_same_seed_same_stream_other_seed_other_stream(self):
        for workload in WORKLOADS:
            first = program("--emit-stream", "3000", "--workload", workload,
                            "--seed", "7")
            again = program("--emit-stream", "3000", "--workload", workload,
                            "--seed", "7")
            other = program("--emit-stream", "3000", "--workload", workload,
                            "--seed", "8")
            self.assertEqual(first, again, workload)
            self.assertNotEqual(first, other, workload)
            self.assertGreater(first.count(b"\n"), 3000, workload)

    def test_catalogue_matches_benchmark_json(self):
        catalogue = json.loads(program("--list-metrics", "1"))
        for section in ("end_to_end", "per_layer"):
            want = [(m["name"], m["unit"]) for m in self.spec[section]]
            have = [(m["name"], m["unit"]) for m in catalogue[section]]
            self.assertEqual(sorted(want), sorted(have), section)
        self.assertEqual([w["name"] for w in self.spec["workloads"]],
                         WORKLOADS)

    def check_result(self, proc, section):
        self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        self.assertEqual(sorted(result), ["attempted", "correct", "failed",
                                          "metrics"])
        self.assertTrue(result["correct"], proc.stderr[-2000:])
        self.assertEqual(result["failed"], 0)  # fail_ratio 0
        self.assertGreaterEqual(result["attempted"], 1)
        for metric in self.spec[section]:
            got = result["metrics"][metric["name"]]
            self.assertEqual(got["unit"], metric["unit"], metric["name"])
            self.assertIsInstance(got["value"], (int, float))
        self.assertEqual(len(result["metrics"]), len(self.spec[section]))
        return result

    def test_smoke_every_workload(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                result = self.check_result(bench(workload, 1, 0),
                                           "end_to_end")
                self.assertGreater(result["metrics"]["setup_s"]["value"], 0)
                self.assertGreaterEqual(
                    result["metrics"]["quality_ratio"]["value"], 0.828)

    def test_traced_smoke_every_workload(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                proc = bench(workload, 1, 1)
                self.check_result(proc, "per_layer")
                self.assertIn("unattributed", proc.stdout)
                trace = os.path.join(run.BUILD_DIR, "out",
                                     "trace-%s-11.json" % workload)
                with open(trace) as f:
                    events = json.load(f)["traceEvents"]
                self.assertTrue(any(e.get("name") == "svc.protocol.parse"
                                    for e in events))

    def test_refuses_without_sources(self):
        # A bare checkout: BENCHMARK.json and perfbench/ only, kept inside
        # the build directory.
        with tempfile.TemporaryDirectory(dir=run.BUILD_DIR) as tmp:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
            shutil.copytree(HERE, os.path.join(tmp, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "drift",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=tmp, capture_output=True, text=True, timeout=180)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
