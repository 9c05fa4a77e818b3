#!/usr/bin/env python3
"""Self-test of the benchmark: span arithmetic, wrappers, tiny runs.

    python3 perfbench/selftest.py

Runs every workload at tiny size, untraced and traced, and checks that
each run passes its own output checks, reports exactly the metrics that
BENCHMARK.json lists, and repeats its count metrics exactly.  Also checks
the self-time computation on a hand-built span tree, and that the
benchmark refuses to run without the package's source.
"""

import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402  (puts the checkout's src/ on the path)
import tracing  # noqa: E402

#: per-layer counts that must not change between runs with one seed
COUNTS = ("miner.templates", "miner.nodes", "miner.max_depth",
          "miner.merge_ratio", "miner.sim_f.calls_per_msg",
          "miner.descend.steps_per_msg", "miner.split.count",
          "tokens.tokenize.calls_per_line")


def bench(*args, cwd=ROOT, script=HERE / "run.py"):
    return subprocess.run([sys.executable, str(script), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


class SpanArithmetic(unittest.TestCase):

    def tree(self):
        spans = tracing.Spans()
        a = spans.add("a", 0, 100)
        b = spans.add("b", 10, 40, parent=a)
        spans.add("c", 15, 25, parent=b)
        spans.add("d", 50, 70, parent=a)
        spans.add("e", 200, 210)
        return spans

    def test_self_time_subtracts_direct_children(self):
        self.assertEqual(list(self.tree().self_ns()), [50, 20, 10, 20, 10])

    def test_child_overhead_is_charged_to_the_parent(self):
        self.assertEqual(list(self.tree().self_ns(child_overhead_ns=2)),
                         [46, 18, 10, 20, 10])

    def test_roots(self):
        self.assertEqual(list(self.tree().roots()), [0, 0, 0, 0, 4])


class Wrappers(unittest.TestCase):

    def test_uninstall_restores_every_target(self):
        from ustep.miner import Miner
        before = ([getattr(m, attr) for _, m, attr in tracing.FUNCTIONS]
                  + [Miner.__dict__[attr] for _, attr in tracing.METHODS])
        tracer = tracing.Tracer()
        tracer.install()
        try:
            self.assertIsNot(Miner.__dict__["process_message"], before[-3])
        finally:
            tracer.uninstall()
        after = ([getattr(m, attr) for _, m, attr in tracing.FUNCTIONS]
                 + [Miner.__dict__[attr] for _, attr in tracing.METHODS])
        self.assertEqual(before, after)

    def test_spans_nest_and_share_the_line_id(self):
        from ustep.miner import Miner
        tracer = tracing.Tracer()
        tracer.install()
        try:
            miner = Miner()
            tracer.active = True
            miner.process_message("a b c")
            miner.process_message("a b d")
            tracer.active = False
        finally:
            tracer.uninstall()
        spans = tracer.spans
        messages = [i for i, n in enumerate(spans.name)
                    if n == "miner.process_message"]
        self.assertEqual(len(messages), 2)
        for i, parent in enumerate(spans.parent):
            if i not in messages:
                self.assertIn(parent, messages)
                self.assertEqual(spans.line[i], spans.line[parent])
                self.assertLessEqual(spans.start[parent], spans.start[i])
                self.assertLessEqual(spans.end[i], spans.end[parent])
        self.assertEqual(tracer.cost["simf_evals"], 1)


class TinyRuns(unittest.TestCase):

    @classmethod
    def setUpClass(cls):
        with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
            cls.spec = json.load(fh)

    def result(self, workload, trace, seed=5):
        done = bench("--workload", workload, "--seed", str(seed),
                     "--seconds", "1", "--trace", str(trace), "--tiny")
        self.assertEqual(done.returncode, 0, done.stderr)
        result = json.loads(done.stdout.splitlines()[-1])
        self.assertEqual(set(result),
                         {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"], done.stderr)
        self.assertEqual(result["failed"], 0)
        self.assertGreater(result["attempted"], 0)
        return result["metrics"]

    def test_workload_names_match(self):
        self.assertEqual([w["name"] for w in self.spec["workloads"]],
                         list(run.WORKLOADS))

    def test_every_workload_untraced(self):
        want = {m["name"]: m["unit"] for m in self.spec["end_to_end"]}
        self.assertEqual(want, run.END_TO_END)
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                metrics = self.result(workload, 0)
                self.assertEqual({k: v["unit"] for k, v in metrics.items()},
                                 want)
                for name, metric in metrics.items():
                    self.assertGreater(metric["value"], 0, name)

    def test_every_workload_traced_with_repeatable_counts(self):
        want = {m["name"]: m["unit"] for m in self.spec["per_layer"]}
        self.assertEqual(want, run.PER_LAYER)
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                first = self.result(workload, 1)
                second = self.result(workload, 1)
                self.assertEqual({k: v["unit"] for k, v in first.items()},
                                 want)
                for name in COUNTS:
                    self.assertEqual(first[name]["value"],
                                     second[name]["value"], name)

    def test_refuses_to_run_without_the_package(self):
        bare = run.OUT / "bare-checkout"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(HERE, bare / HERE.name,
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        try:
            done = bench("--workload", run.WORKLOADS[0], "--seed", "1",
                         "--seconds", "1", "--trace", "0", cwd=bare,
                         script=bare / HERE.name / "run.py")
            self.assertNotEqual(done.returncode, 0)
            self.assertNotIn('"metrics"', done.stdout)
        finally:
            shutil.rmtree(bare)


if __name__ == "__main__":
    unittest.main()
