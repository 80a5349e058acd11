#!/usr/bin/env python3
"""Reduced-size self-test of the benchmark.

    python3 perfbench/selftest.py

Runs a few small ops per workload through the code run.py uses and checks
that a passing op's output passes its check, that corrupting that output
makes the op fail as wrong output, and that a run prints on its last line
every metric BENCHMARK.json names, with its unit, and in traced runs layer
self times that add up to the traced op time.  A stub workload checks that
a run makes the same ops and failures whatever the ops' speed.  It also checks that the
benchmark refuses to run without the package source.
"""

from __future__ import annotations

import argparse
import dataclasses
import io
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
import time
import unittest
from pathlib import Path

import run

sys.path.insert(0, str(run.ROOT / "src"))

import workloads  # noqa: E402  (needs the package on the path)

SMALL = {
    "solve_subsolution_4001": {"grid_size": 401},
    "check_structure": {"samples": 50, "separation_samples": 20},
    "blowup_example1_1001": {"node_count": 401},
}
SEED = 3


def _corrupt_solve(workload, result):
    path = workload.out / "monitors.csv"
    lines = path.read_text().splitlines()
    fields = lines[-1].split(",")
    fields[4] = "1.0"                      # residual_norm of the last t
    lines[-1] = ",".join(fields)
    path.write_text("\n".join(lines) + "\n")
    return result


def _corrupt_check(workload, result):
    path = workload.out / "report.json"
    report = json.loads(path.read_text())
    report["checks"][0]["status"] = "fail"
    path.write_text(json.dumps(report))
    return result


def _corrupt_blowup(workload, result):
    last = result.states[-1]
    halved = (*last.monitors[:2], 0.5 * last.monitors[2])   # sup|u''| drops at the last t
    states = result.states[:-1] + [dataclasses.replace(last, monitors=halved)]
    return dataclasses.replace(result, states=states)


CORRUPT = {
    "solve_subsolution_4001": _corrupt_solve,
    "check_structure": _corrupt_check,
    "blowup_example1_1001": _corrupt_blowup,
}


class _EveryThirdFails:
    """Stub workload: input x fails when x % 3 == 0; odd inputs sleep."""

    name = "stub"
    round_size = 1
    op_s = 1.0

    def __init__(self, delay):
        self.delay = delay
        self.inputs = list(range(100))

    def prepare(self, x):
        pass

    def execute(self, x):
        time.sleep(self.delay * (x % 2))
        return x

    def verify(self, x, result):
        return workloads.Failure("stub") if result % 3 == 0 else None

    def output_bytes(self):
        return 0


class BenchmarkSelfTest(unittest.TestCase):

    @classmethod
    def setUpClass(cls):
        out_root = run.ROOT / ".perfbench_out"
        out_root.mkdir(exist_ok=True)
        cls.tmp = Path(tempfile.mkdtemp(prefix="selftest-", dir=out_root))
        spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        cls.end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        cls.per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
        cls.workload_names = [w["name"] for w in spec["workloads"]]

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(cls.tmp, ignore_errors=True)
        try:
            cls.tmp.parent.rmdir()
        except OSError:
            pass

    def _workload(self, name):
        work_dir = self.tmp / name
        work_dir.mkdir(exist_ok=True)
        return workloads.WORKLOADS[name](SEED, work_dir, **SMALL[name])

    def test_workloads_match_benchmark_json(self):
        self.assertEqual(sorted(self.workload_names), sorted(workloads.WORKLOADS))

    def test_run_length_does_not_depend_on_speed(self):
        runs = []
        for delay in (0.0, 0.02):
            records, capped = run.measure(_EveryThirdFails(delay), seconds=5)
            self.assertFalse(capped)
            runs.append([op.failure for op in records])
        self.assertEqual(runs[0], runs[1])
        self.assertEqual((len(runs[0]), sum(f is not None for f in runs[0])), (8, 3))

    def test_corrupted_output_fails_the_op(self):
        for name in workloads.WORKLOADS:
            with self.subTest(workload=name):
                workload = self._workload(name)
                for inputs in workload.inputs[:8]:
                    workload.prepare(inputs)
                    result = workload.execute(inputs)
                    if workload.verify(inputs, result) is None:
                        break
                else:
                    self.fail("no passing op among the first eight inputs")
                failure = workload.verify(inputs, CORRUPT[name](workload, result))
                self.assertIsNotNone(failure)
                self.assertTrue(failure.wrong_output, failure)

    def test_every_metric_is_printed_with_its_unit(self):
        for name in workloads.WORKLOADS:
            for trace in (0, 1):
                with self.subTest(workload=name, trace=trace):
                    start = time.perf_counter()
                    workload = self._workload(name)
                    elapsed = time.perf_counter() - start
                    setup = (elapsed, elapsed)
                    args = argparse.Namespace(seed=SEED, seconds=0.0, trace=trace)
                    buf = io.StringIO()
                    run.run(workload, args, setup, out=buf)
                    lines = buf.getvalue().splitlines()
                    detail = json.loads(lines[-2])["detail"]
                    result = json.loads(lines[-1])
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertGreaterEqual(result["attempted"], 1)
                    expected = self.per_layer if trace else self.end_to_end
                    printed = {k: v["unit"] for k, v in result["metrics"].items()}
                    self.assertEqual(printed, expected)
                    for k, v in result["metrics"].items():
                        self.assertTrue(math.isfinite(v["value"]), k)
                    if trace:
                        # self times split the traced op time, in the same seconds
                        self_s = sum(v["value"] for k, v in result["metrics"].items()
                                     if k.endswith(".self_s"))
                        op_s = detail["traced_wall_s_mean"]
                        self.assertLessEqual(self_s, op_s * (1 + 1e-9))
                        self.assertGreaterEqual(self_s, 0.8 * op_s)

    def test_refuses_to_run_without_the_package(self):
        bare = self.tmp / "bare"
        shutil.copytree(Path(run.__file__).resolve().parent, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "check_structure",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, env=env, capture_output=True, text=True, timeout=120)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn("metrics", proc.stdout)


if __name__ == "__main__":
    unittest.main()
