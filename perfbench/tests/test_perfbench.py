"""Tests of the repository benchmark itself.

    python3 -m unittest discover -s perfbench/tests -v

Run from the repository root. The tests build the harness like
perfbench/run.py does (the first run takes a few minutes) and run each
workload in its quick mode, which uses tiny inputs and measures nothing
worth reporting.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import run  # noqa: E402  (perfbench/run.py)

BUILD_DIR = os.path.abspath(
    os.path.join(os.environ.get("CARGO_TARGET_DIR") or ".bench_build",
                 "perfbench"))
HARNESS = os.path.join(BUILD_DIR, "perfbench_harness")


def setUpModule():
    run.build(ROOT, BUILD_DIR)


def run_bench(*args):
    return subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py")] + list(args),
        capture_output=True, text=True, cwd=os.getcwd(), timeout=600)


class TailPercentileTest(unittest.TestCase):
    def test_at_least_ten_samples_beyond(self):
        for n in range(20, 3000, 7):
            p = run.tail_percentile(n)
            self.assertIsNotNone(p, n)
            beyond = n - run.rank(p, n)
            self.assertGreaterEqual(beyond, 10, (n, p))
            # No higher ladder step would also leave ten beyond.
            higher = [q for q in run.TAIL_LADDER if q > p]
            for q in higher:
                self.assertLess(n - run.rank(q, n), 10, (n, q))

    def test_known_sizes(self):
        self.assertEqual(run.tail_percentile(20), 50.0)
        self.assertEqual(run.tail_percentile(100), 90.0)
        self.assertEqual(run.tail_percentile(1000), 99.0)
        self.assertEqual(run.tail_percentile(10000), 99.9)
        self.assertIsNone(run.tail_percentile(19))

    def test_small_sample_reports_max(self):
        p50, tail, label, n = run.p50_and_tail([3.0, 1.0, 2.0])
        self.assertEqual((p50, tail, label, n), (2.0, 3.0, "max", 3))

    def test_nearest_rank(self):
        values = list(range(1, 101))
        self.assertEqual(run.percentile(values, 50), 50)
        self.assertEqual(run.percentile(values, 90), 90)
        self.assertEqual(run.percentile(values, 99.9), 100)


class PerTraceP50Test(unittest.TestCase):
    def test_each_trace_weighs_the_same(self):
        # Trace 0 has one queued outlier and more sessions than trace 1.
        sessions = ([{"trace": 0, "srt_ms": v} for v in (9, 10, 11, 90)] +
                    [{"trace": 1, "srt_ms": v} for v in (31, 30, 29)])
        self.assertEqual(run.per_trace_p50(sessions, "srt_ms"), (20, 2))


class SelfTimeTest(unittest.TestCase):
    def test_children_are_subtracted(self):
        # session [0, 100] > core [10, 40] and core [50, 60]; net [70, 90].
        spans = [(1, 0, "bench", 0, 100), (2, 1, "core", 10, 40),
                 (3, 1, "core", 50, 60), (4, 1, "net", 70, 90)]
        self_ms = run.self_times(spans)
        self.assertAlmostEqual(self_ms["bench"], 40 / 1e6)
        self.assertAlmostEqual(self_ms["core"], 40 / 1e6)
        self.assertAlmostEqual(self_ms["net"], 20 / 1e6)


class SessionRateTest(unittest.TestCase):
    def test_rate_over_the_measured_phase(self):
        phase = {"start_s": 2.0}
        # 100 sessions in 10 s, a 5 s stall included.
        ends = [2.0 + 0.05 * (i + 1) + (5.0 if i >= 50 else 0.0)
                for i in range(100)]
        sessions = [{"end_s": e, "session_ms": 1.0} for e in ends]
        rate, _ = run.session_rate(phase, sessions)
        self.assertAlmostEqual(rate, 10.0)

    def test_serial_rate_is_one_over_the_median_session(self):
        phase = {"start_s": 0.0, "session_wall_s": 1.0}
        sessions = [{"end_s": i, "session_ms": ms}
                    for i, ms in enumerate((100.0, 200.0, 900.0))]
        self.assertEqual(run.session_rate(phase, sessions)[0], 5.0)


class ThreadPlanTest(unittest.TestCase):
    def plan(self, workload, nproc):
        out = subprocess.run([HARNESS, "--print-plan", "--workload", workload,
                              "--nproc", str(nproc)], capture_output=True,
                             text=True, check=True).stdout.split()
        return {out[i]: int(out[i + 1]) for i in range(0, len(out), 2)}

    def test_runnable_threads_within_cores(self):
        for workload in run.WORKLOADS:
            for nproc in range(2, 33):
                p = self.plan(workload, nproc)
                self.assertLessEqual(p["runnable"], nproc, (workload, p))
                self.assertGreaterEqual(p["clients"], 1)

    def test_fixed_plan_on_four_or_more_cores(self):
        for nproc in (4, 8, 64):
            self.assertEqual(self.plan("serve_wire", nproc)["clients"], 2)
            self.assertEqual(self.plan("serve_wire", nproc)["workers"], 2)
            self.assertEqual(self.plan("serve_pressure", nproc)["clients"], 2)
            self.assertEqual(self.plan("serve_pressure", nproc)["workers"], 2)
            self.assertEqual(self.plan("blend_flickr", nproc)["runnable"], 1)


class TraceDeterminismTest(unittest.TestCase):
    def digest(self, workload, seed):
        return subprocess.run(
            [HARNESS, "--dump-traces", "--quick", "--workload", workload,
             "--seed", str(seed)], capture_output=True, text=True,
            check=True).stdout.strip()

    def test_same_seed_same_traces(self):
        for workload in run.WORKLOADS:
            self.assertEqual(self.digest(workload, 5),
                             self.digest(workload, 5), workload)

    def test_other_seed_other_traces(self):
        for workload in run.WORKLOADS:
            self.assertNotEqual(self.digest(workload, 5),
                                self.digest(workload, 6), workload)


class QuickRunTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            cls.spec = json.load(f)

    def check(self, workload, trace):
        proc = run_bench("--workload", workload, "--seed", "3", "--seconds",
                         "1", "--trace", str(trace), "--quick")
        self.assertEqual(proc.returncode, 0, proc.stderr)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        self.assertEqual(set(result),
                         {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        key = "per_layer" if trace else "end_to_end"
        expected = {m["name"]: m["unit"] for m in self.spec[key]}
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        self.assertEqual(got, expected)
        return result

    def test_blend_flickr(self):
        for trace in (0, 1):
            self.check("blend_flickr", trace)

    def test_serve_wire(self):
        for trace in (0, 1):
            self.check("serve_wire", trace)

    def test_serve_pressure(self):
        for trace in (0, 1):
            self.check("serve_pressure", trace)

    def test_wrong_result_fails_the_run(self):
        for workload in run.WORKLOADS:
            proc = run_bench("--workload", workload, "--seed", "3",
                             "--seconds", "1", "--trace", "0", "--quick",
                             "--inject-wrong-result")
            self.assertNotEqual(proc.returncode, 0, workload)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            self.assertFalse(result["correct"])
            self.assertEqual(result["failed"], 1)


class MissingProgramTest(unittest.TestCase):
    def test_exits_nonzero_without_a_result(self):
        # A directory holding only BENCHMARK.json and perfbench/.
        os.makedirs(BUILD_DIR, exist_ok=True)
        tmp = tempfile.mkdtemp(dir=BUILD_DIR)
        try:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
            shutil.copytree(BENCH, os.path.join(tmp, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload",
                 "serve_wire", "--seed", "1", "--seconds", "1", "--trace",
                 "0"], cwd=tmp, capture_output=True, text=True, timeout=180)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn("metrics", proc.stdout)
        finally:
            shutil.rmtree(tmp)


if __name__ == "__main__":
    unittest.main()
