"""Self-test of the benchmark harness.

    python3 perfbench/selftest.py

Runs the cheapest workload in-process, with and without tracing, and checks
that every metric ``BENCHMARK.json`` names is printed with its unit, that a
corrupted reference value makes jobs fail, and that the benchmark refuses
to run without the program's sources.
"""

from __future__ import annotations

import io
import json
import shutil
import subprocess
import sys
import unittest

import inputs
import run

SPEC = json.loads((inputs.ROOT / "BENCHMARK.json").read_text())


def setUpModule():
    inputs.import_program()


def run_check(trace):
    out, err = io.StringIO(), io.StringIO()
    argv = ["--workload", "check", "--seed", "3", "--seconds", "0", "--trace", str(trace)]
    code = run.main(argv, out=out, err=err)
    return code, json.loads(out.getvalue().splitlines()[-1]), err.getvalue()


class HarnessTest(unittest.TestCase):
    def test_every_metric_is_printed_with_its_unit(self):
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            code, result, _ = run_check(trace)
            self.assertEqual(code, 0)
            self.assertEqual((result["correct"], result["failed"]), (True, 0))
            self.assertGreater(result["attempted"], 0)
            units = {m["name"]: m["unit"] for m in SPEC[section]}
            self.assertEqual(set(result["metrics"]), set(units))
            for name, m in result["metrics"].items():
                self.assertEqual(m["unit"], units[name], name)
                self.assertIsInstance(m["value"], (int, float), name)

    def test_corrupted_reference_makes_jobs_fail(self):
        import workloads

        expect = workloads.WORKLOADS["check"].jobs[-1].expect
        key = "observed-max-k lambda=3"
        original = expect[key]
        expect[key] = original + 1
        try:
            code, result, err = run_check(0)
        finally:
            expect[key] = original
        self.assertEqual(code, 0)
        self.assertFalse(result["correct"])
        self.assertGreater(result["failed"] / result["attempted"], 0)
        self.assertIn(key, err)

    def test_refuses_to_run_without_sources(self):
        bare = run.WORK / ("selftest-bare-%d" % id(self))
        shutil.rmtree(bare, ignore_errors=True)
        try:
            shutil.copytree(run.HERE, bare / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            shutil.copy(inputs.ROOT / "BENCHMARK.json", bare)
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "check", "--seed", "1",
                 "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=60,
            )
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
