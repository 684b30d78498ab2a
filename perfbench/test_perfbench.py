#!/usr/bin/env python3
"""Tests of the benchmark itself: python3 perfbench/test_perfbench.py

- the serve-output checker catches wrong replies (checker_test);
- smoke mode runs every workload untraced and traced with checks on, and
  each run prints exactly the metrics BENCHMARK.json names;
- without the library sources the benchmark fails fast and prints no result.
"""
import json
import os
import pathlib
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
import run  # noqa: E402


def results(stdout):
    return [json.loads(line) for line in stdout.splitlines() if line.startswith("{")]


class PerfbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.binary = run.build(run.build_dir())
        if cls.binary is None:
            raise RuntimeError("perfbench build failed")

    def test_checker_catches_wrong_replies(self):
        proc = subprocess.run([str(self.binary.parent / "checker_test")], capture_output=True,
                              text=True)
        self.assertEqual(proc.returncode, 0, proc.stderr)

    def test_smoke_runs_every_workload_with_checks(self):
        proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--smoke"],
                              capture_output=True, text=True, cwd=ROOT, timeout=600)
        self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
        got = results(proc.stdout)
        self.assertEqual(len(got), 2 * len(run.WORKLOADS))
        spec_path = ROOT / "BENCHMARK.json"
        spec = json.loads(spec_path.read_text()) if spec_path.is_file() else None
        for i, r in enumerate(got):
            self.assertEqual(set(r), {"correct", "attempted", "failed", "metrics"})
            self.assertTrue(r["correct"])
            self.assertEqual(r["failed"], 0)
            self.assertGreater(r["attempted"], 0)
            if spec is None:
                continue
            listed = spec["per_layer"] if i % 2 else spec["end_to_end"]
            self.assertEqual(set(r["metrics"]), {m["name"] for m in listed})
            for m in listed:
                self.assertEqual(r["metrics"][m["name"]]["unit"], m["unit"])
        for r in got[0::2]:  # untraced runs: every end-to-end metric is positive
            self.assertTrue(all(m["value"] > 0 for m in r["metrics"].values()), r)

    def test_without_library_sources_fails_without_a_result(self):
        with tempfile.TemporaryDirectory(dir=run.build_dir()) as tmp:
            shutil.copytree(HERE, pathlib.Path(tmp) / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            if (ROOT / "BENCHMARK.json").is_file():
                shutil.copy(ROOT / "BENCHMARK.json", tmp)
            env = {k: v for k, v in os.environ.items() if k != "CARGO_TARGET_DIR"}
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "serve_read", "--seed", "1",
                 "--seconds", "1", "--trace", "0"],
                capture_output=True, text=True, cwd=tmp, env=env, timeout=120)
            self.assertNotEqual(proc.returncode, 0)
            self.assertEqual(results(proc.stdout), [])


if __name__ == "__main__":
    unittest.main()
