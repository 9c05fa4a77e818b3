#!/usr/bin/env python3
"""Benchmark of the ustep package on three seeded workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads, all generated from --seed by perfbench/generate.py:

  parse-steady    `ustep parse` in-process over an HDFS-like log whose
                  variable spans the mask file catches
  sweep-labeled   `ustep.evaluation.sweep` over a labeled corpus and a grid
                  of (sigma, phi) pairs
  template-churn  `Miner.process_message` on a stream in which unseen
                  templates keep arriving, at phi = 4

Every workload also replays its stream through `Miner.process_message`
one line per call (the "stream pass"), timing each call, then times
`snapshot()`/`restore()` of the final state and checks that the restored
miner answers a held-out tail exactly like the original.  For
template-churn the stream pass is the workload itself.  Set-up time is
taken in fresh interpreters; all three kinds of pass take turns for the
whole run.  Other times are given in units of the time per message of
the frozen reference miner, measured between passes, because the host's
speed drifts by tens of percent; perfbench/NOTES.md defines every metric.

All load comes from one caller in this single-threaded process, a closed
loop: the next line is sent when the previous call returns.  Every output
is checked against a frozen reference (perfbench/reference.py, run in a
child process so its memory stays out of this process's peak RSS).

With --trace 0 the end-to-end metrics are measured; with --trace 1 the
package's functions are wrapped in spans (perfbench/tracing.py) and the
per-layer metrics are reported.  Lines before the last give every metric
with its unit; the last stdout line is one JSON object with `correct`,
`attempted`, `failed` and `metrics`.  --tiny shrinks the inputs for the
self-test.
"""

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
from array import array
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# the package is run from the checkout's own source tree
sys.path.insert(0, str(SRC))

import generate  # noqa: E402
import reference  # noqa: E402

WORKLOADS = tuple(generate.SIZES)

END_TO_END = {
    "setup_s": "s",
    "throughput_vs_ref": "x",
    "latency_p50_refmsg": "refmsg",
    "latency_p99_refmsg": "refmsg",
    "snapshot_refmsg": "refmsg",
    "restore_refmsg": "refmsg",
    "peak_rss_mib": "MiB",
}

PER_LAYER = {
    "tokens.preprocess.ns_per_msg": "ns/msg",
    "tokens.tokenize.ns_per_msg": "ns/msg",
    "tokens.tokenize.calls_per_line": "calls/line",
    "tokens.render.calls_per_msg": "calls/msg",
    "tokens.render.ns_per_msg": "ns/msg",
    "tokens.render.useful_ratio": "ratio",
    "miner.sim_f.calls_per_msg": "calls/msg",
    "miner.sim_f.ns_per_msg": "ns/msg",
    "miner.update_template.ns_per_msg": "ns/msg",
    "miner.descend.steps_per_msg": "steps/msg",
    "miner.split.count": "count",
    "miner.split.pivot_scans": "count",
    "miner.select_pivot.ns_total": "ns",
    "miner.process_message.self_ns_per_msg": "ns/msg",
    "miner.merge_ratio": "ratio",
    "miner.templates": "count",
    "miner.nodes": "count",
    "miner.max_depth": "count",
    "miner.rate_last_over_first": "ratio",
    "miner.snapshot.bytes": "B",
    "evaluation.parsing_accuracy": "fraction",
    "evaluation.run_miner.s_per_grid_point": "s",
    "evaluation.grouping_accuracy.s": "s",
    "cli.output.ns_per_msg": "ns/msg",
    "gc.gen0.collections": "count",
    "gc.gen1.collections": "count",
    "gc.gen2.collections": "count",
    "gc.gen0.pause_s": "s",
    "gc.gen1.pause_s": "s",
    "gc.gen2.pause_s": "s",
    "gc.pause_share": "ratio",
    "trace.overhead": "x",
}

#: lines of the fixed stream on which the reference speed is measured
SPEED_LINES = 2000
#: snapshot() and restore() calls timed per stream pass
SNAPSHOT_REPEATS = 3
#: shares of --seconds for the untraced and the traced phase (traced run)
UNTRACED_SHARE, TRACED_SHARE = 0.3, 0.5

SETUP_CODE = """\
import sys, time
t0 = time.perf_counter()
import ustep
ustep.Miner(ustep.MinerConfig(sigma={sigma!r}, phi={phi!r},
                              mask_rules={masks!r}))
elapsed = time.perf_counter() - t0
if not ustep.__file__.startswith({src!r}):
    sys.exit("ustep imported from outside the checkout: " + ustep.__file__)
print(elapsed)
"""


def fail(message):
    print(f"error: {message}", file=sys.stderr)
    sys.exit(1)


def import_package():
    """Import the package from the checkout, or exit non-zero."""
    try:
        import ustep
    except ImportError as exc:
        fail(f"cannot import ustep from {SRC}: {exc}")
    if not Path(ustep.__file__).resolve().is_relative_to(SRC.resolve()):
        fail(f"ustep imported from outside the checkout: {ustep.__file__}")


class Checks:
    """Operations attempted and failed, output checks included."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def count(self, attempted, failed, what):
        self.attempted += attempted
        self.failed += failed
        if failed:
            print(f"check failed: {what}: {failed} of {attempted}",
                  file=sys.stderr)


class Bench:
    """One workload's inputs, reference outputs and measured passes.

    A pass returns a dict with the messages it processed and the seconds
    they took, plus, for a stream pass, its latency quantiles, snapshot and
    restore times and snapshot size.
    """

    def __init__(self, workload, seed, tiny, workdir):
        self.workload = workload
        self.lines, self.labels, self.tail = generate.generate(
            workload, seed, tiny)
        self.lengths = [len(line.split()) for line in self.lines]
        sigma, phi, masks = generate.STREAM_CONFIG[workload]
        self.config = dict(sigma=sigma, phi=phi, mask_rules=list(masks))
        self.checks = Checks()
        self.tracer = None
        self.gc_meter = None
        self.accuracy = None
        stem = Path(workdir) / workload
        self.expected = self._reference(workload, seed, tiny, stem)
        if workload == "parse-steady":
            self.log = stem.with_suffix(".log")
            self.masks = stem.with_suffix(".masks")
            self.parse_out = stem.with_suffix(".jsonl")
            self.parse_err = stem.with_suffix(".stderr")
            generate.write_parse_inputs(self.lines, self.log, self.masks)
            digests = bytes.fromhex(self.expected["line_digests"])
            self.want_digests = [digests[i:i + 8]
                                 for i in range(0, len(digests), 8)]
            self.main_pass = self.parse_pass
        elif workload == "sweep-labeled":
            from ustep.evaluation import load_labeled_dataset
            csv_path = stem.with_suffix(".csv")
            generate.write_sweep_csv(self.lines, self.labels, csv_path)
            self.records = load_labeled_dataset(csv_path)
            self.main_pass = self.sweep_pass
        else:
            self.main_pass = self.stream_pass
        self.speed_lines = generate.template_churn(0, SPEED_LINES, 0)[0]
        self.setup_code = SETUP_CODE.format(
            src=str(SRC.resolve()), sigma=sigma, phi=phi, masks=list(masks))

    @staticmethod
    def _reference(workload, seed, tiny, stem):
        path = stem.with_suffix(".expected.json")
        cmd = [sys.executable, str(HERE / "reference.py"), "--workload",
               workload, "--seed", str(seed), "--out", str(path)]
        subprocess.run(cmd + (["--tiny"] if tiny else []), check=True,
                       timeout=600)
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)

    # -- passes -----------------------------------------------------------

    def parse_pass(self):
        import ustep.cli
        argv = ["parse", "--input", str(self.log), "--masks", str(self.masks)]
        with open(self.parse_out, "w", encoding="utf-8") as out, \
                open(self.parse_err, "w", encoding="utf-8") as err, \
                redirect_stdout(out), redirect_stderr(err):
            t0 = perf_counter()
            code = ustep.cli.main(argv)
            seconds = perf_counter() - t0
        self.checks.count(1, int(code != 0), f"ustep parse exit code {code}")
        want = self.want_digests
        try:
            with open(self.parse_out, encoding="utf-8") as fh:
                got = [reference.line_digest(row["template_id"],
                                             row["template"],
                                             row["variables"])
                       for row in map(json.loads, fh)]
        except (ValueError, KeyError, TypeError) as exc:
            print(f"unreadable parse output: {exc!r}", file=sys.stderr)
            got = []
        bad = sum(a != b for a, b in zip(got, want))
        self.checks.count(len(want), bad + abs(len(got) - len(want)),
                          "parse output lines differing from the reference")
        return {"messages": len(self.lines), "seconds": seconds}

    def sweep_pass(self):
        from ustep.evaluation import sweep
        t0 = perf_counter()
        best, results = sweep(self.records, generate.SWEEP_GRID)
        seconds = perf_counter() - t0
        got = [res["parsing_accuracy"] for res in results]
        want = self.expected["grid_pa"]
        bad = sum(a != b for a, b in zip(got, want))
        self.checks.count(len(want), bad + abs(len(got) - len(want)),
                          "grid points whose accuracy differs")
        self.accuracy = best["parsing_accuracy"]
        return {"messages": len(self.lines) * len(generate.SWEEP_GRID),
                "seconds": seconds}

    def setup_pass(self):
        """Time `import ustep` plus building the workload's miner in a
        fresh interpreter; input generation is not included."""
        done = subprocess.run([sys.executable, "-c", self.setup_code],
                              env=dict(os.environ, PYTHONPATH=str(SRC)),
                              cwd=ROOT, capture_output=True, text=True,
                              timeout=120)
        if done.returncode:
            fail(f"setup probe failed: {done.stderr.strip()}")
        return {"seconds": float(done.stdout)}

    def stream_pass(self):
        """Replay the stream one line per call, then snapshot and restore."""
        from ustep.miner import Miner, MinerConfig
        miner = Miner(MinerConfig(**self.config))
        process = miner.process_message
        phi = self.config["phi"]
        n = len(self.lines)
        latency = array("d", bytes(8 * n))
        ids = array("l", bytes(array("l").itemsize * n))
        out_of_bound = set()
        clock = perf_counter
        t0 = clock()
        for i, line in enumerate(self.lines):
            start = clock()
            result = process(line)
            latency[i] = clock() - start
            ids[i] = result.template_id
            cost = miner.last_cost
            if (cost.simf_evals > phi
                    or cost.descent_steps > self.lengths[i] + 1):
                out_of_bound.add(i)
        seconds = clock() - t0
        wrong = {i for i, (a, b) in enumerate(zip(ids, self.expected["ids"]))
                 if a != b}
        self.checks.count(n, len(out_of_bound | wrong),
                          "stream calls over the phi/descent bound or with "
                          "an id differing from the reference")
        if self.workload != "sweep-labeled":
            self.accuracy = reference.parsing_accuracy(self.labels, ids)
        q = statistics.quantiles(latency, n=100)
        del latency
        out = {"messages": n, "seconds": seconds, "p50_us": q[49] * 1e6,
               "p99_us": q[98] * 1e6, "snapshot_s": [], "restore_s": []}
        for _ in range(SNAPSHOT_REPEATS):
            t0 = clock()
            blob = miner.snapshot()
            out["snapshot_s"].append(clock() - t0)
        for _ in range(SNAPSHOT_REPEATS):
            t0 = clock()
            restored = Miner.restore(blob)
            out["restore_s"].append(clock() - t0)
        out["snapshot_bytes"] = len(blob)
        del blob
        if self.tracer:
            self.tracer.active = False
        bad = 0
        for line, want in zip(self.tail, self.expected["tail_ids"]):
            a = miner.process_message(line)
            b = restored.process_message(line)
            bad += ((a.template_id, a.template_text, a.variables,
                     a.created_new)
                    != (b.template_id, b.template_text, b.variables,
                        b.created_new)
                    or a.template_id != want)
        self.checks.count(len(self.tail), bad,
                          "held-out tail lines where the restored miner "
                          "differs from the original or the reference")
        return out

    # -- runs -------------------------------------------------------------

    def repeat(self, passes, seconds, warmup=True, paced=False,
               on_pass=None):
        """Run the `passes` in turn until `seconds` have gone, each at least
        once besides its warm-up run, whose result is dropped.  Taking turns
        spreads every kind of pass over the whole run, so that all of them
        see the same share of the host's slow and fast spells.  Each pass
        starts from a collected heap.  With `paced`, the reference speed is
        measured between passes and each result gets, as "ref_s", the mean
        of the measurements just before and just after it.  Returns one
        result list per pass."""
        results = [[] for _ in passes]
        end = perf_counter() + seconds
        for run_pass in passes if warmup else ():
            self._collect()
            run_pass()
        before = self.reference_speed() if paced else None
        while not results[0] or perf_counter() < end:
            for run_pass, done in zip(passes, results):
                self._collect()
                done.append(run_pass())
                if paced:
                    after = self.reference_speed()
                    done[-1]["ref_s"] = (before + after) / 2
                    before = after
                if on_pass:
                    on_pass(done[-1])
        return results

    def reference_speed(self):
        """Seconds per message of the frozen reference miner on a fixed
        stream, independent of the workload and seed: the unit in which
        the end-to-end times are given."""
        ref = reference.RefMiner(0.5, 4)
        t0 = perf_counter()
        for line in self.speed_lines:
            ref.process(line)
        return (perf_counter() - t0) / len(self.speed_lines)

    def _collect(self):
        """Collect garbage, unseen by the GC accounting of a traced run."""
        if self.gc_meter:
            self.gc_meter.counting = False
        gc.collect()
        if self.gc_meter:
            self.gc_meter.counting = True

    def run(self, seconds):
        """End-to-end metrics, untraced.  Times are given in units of the
        reference miner's time per message, measured next to each pass,
        which cancels the host's changing speed; `self.raw` keeps the same
        figures in seconds."""
        if self.main_pass == self.stream_pass:
            main, setup = self.repeat((self.stream_pass, self.setup_pass),
                                      seconds, paced=True)
            stream = main
        else:
            main, stream, setup = self.repeat(
                (self.main_pass, self.stream_pass, self.setup_pass), seconds,
                paced=True)
        usage = resource.getrusage(resource.RUSAGE_SELF)
        self.stream_passes = len(stream)
        median = statistics.median

        def figures(unit):
            """Every timing, with `unit(result)` seconds as its unit."""
            return {
                "throughput": median(r["messages"] * unit(r) / r["seconds"]
                                     for r in main),
                "latency_p50": median(r["p50_us"] / 1e6 / unit(r)
                                      for r in stream),
                "latency_p99": median(r["p99_us"] / 1e6 / unit(r)
                                      for r in stream),
                "snapshot": median(t / unit(r) for r in stream
                                   for t in r["snapshot_s"]),
                "restore": median(t / unit(r) for r in stream
                                  for t in r["restore_s"]),
            }

        ref = figures(lambda r: r["ref_s"])
        sec = figures(lambda r: 1.0)
        self.raw = {
            "throughput_msg_s": (sec["throughput"], "msg/s"),
            "latency_p50_us": (sec["latency_p50"] * 1e6, "us"),
            "latency_p99_us": (sec["latency_p99"] * 1e6, "us"),
            "snapshot_s": (sec["snapshot"], "s"),
            "restore_s": (sec["restore"], "s"),
            "reference_us_per_msg": (
                median(r["ref_s"] for r in main) * 1e6, "us"),
        }
        return {
            "setup_s": median(r["seconds"] for r in setup),
            "throughput_vs_ref": ref["throughput"],
            "latency_p50_refmsg": ref["latency_p50"],
            "latency_p99_refmsg": ref["latency_p99"],
            "snapshot_refmsg": ref["snapshot"],
            "restore_refmsg": ref["restore"],
            "peak_rss_mib": usage.ru_maxrss / 1024,
        }

    def run_traced(self, seconds):
        """Per-layer metrics: an untraced phase with GC accounting, then
        the same passes with every layer wrapped in spans."""
        from tracing import GcMeter, Tracer
        self.repeat((self.main_pass,), 0, warmup=False)
        with GcMeter() as gc_meter:
            self.gc_meter = gc_meter
            t0 = perf_counter()
            plain, = self.repeat((self.main_pass,), seconds * UNTRACED_SHARE,
                                 warmup=False)
            plain_s = perf_counter() - t0
            self.gc_meter = None
        tracer = Tracer()
        layers = LayerTotals(len(self.lines),
                             OUT / f"{self.workload}.spans.tsv")

        def traced_pass():
            tracer.reset()
            tracer.active = True
            try:
                return self.main_pass()
            finally:
                tracer.active = False

        tracer.install()
        self.tracer = tracer
        try:
            traced, = self.repeat((traced_pass,), seconds * TRACED_SHARE,
                                  warmup=False,
                                  on_pass=lambda r: layers.add(tracer))
        finally:
            tracer.uninstall()
            self.tracer = None
        stream = plain
        if self.main_pass != self.stream_pass:
            stream, = self.repeat((self.stream_pass,), 0, warmup=False)
        metrics = layers.metrics()
        passes = len(plain)
        for gen in range(3):
            metrics[f"gc.gen{gen}.collections"] = (
                gc_meter.collections[gen] / passes)
            metrics[f"gc.gen{gen}.pause_s"] = (
                gc_meter.pause_ns[gen] / 1e9 / passes)
        metrics["gc.pause_share"] = sum(gc_meter.pause_ns) / 1e9 / plain_s
        metrics["miner.snapshot.bytes"] = stream[-1]["snapshot_bytes"]
        metrics["evaluation.parsing_accuracy"] = self.accuracy

        def sec_per_msg(results):
            return statistics.median(r["seconds"] / r["messages"]
                                     for r in results)

        metrics["trace.overhead"] = sec_per_msg(traced) / sec_per_msg(plain)
        print(f"# tracer cost per child call, taken off parent self time: "
              f"{tracer.child_overhead_ns} ns")
        return metrics


class LayerTotals:
    """Per-layer sums over the traced passes."""

    def __init__(self, lines_per_pass, spans_path):
        self.lines_per_pass = lines_per_pass
        self.spans_path = spans_path
        self.passes = 0
        self.count = {}
        self.incl_ns = {}
        self.self_ns = {}
        self.useful_renders = 0
        self.cost = {}
        self.stats = {"templates": 0, "nodes": 0, "splits": 0,
                      "messages": 0, "max_depth": 0}
        self.rate_ratios = []

    def add(self, tracer):
        """Fold in one traced pass; the first one's spans go to a file."""
        spans = tracer.spans
        own = spans.self_ns(tracer.child_overhead_ns)
        for i, name in enumerate(spans.name):
            self.count[name] = self.count.get(name, 0) + 1
            self.incl_ns[name] = (self.incl_ns.get(name, 0)
                                  + spans.end[i] - spans.start[i])
            self.self_ns[name] = self.self_ns.get(name, 0) + own[i]
        roots = spans.roots()
        self.useful_renders += sum(
            1 for i, name in enumerate(spans.name)
            if name == "tokens.render"
            and spans.name[roots[i]] == "cli.cmd_parse")
        for key, value in tracer.cost.items():
            self.cost[key] = self.cost.get(key, 0) + value
        for st in tracer.stats.values():
            self.stats["templates"] += st.template_count
            self.stats["nodes"] += st.node_count
            self.stats["splits"] += st.splits_performed
            self.stats["messages"] += st.messages_processed
            self.stats["max_depth"] = max(self.stats["max_depth"],
                                          st.max_depth)
        for calls in tracer.miner_messages.values():
            tenth = len(calls) // 10
            if tenth:
                first = spans.start[calls[tenth]] - spans.start[calls[0]]
                last = (spans.end[calls[-1]]
                        - spans.start[calls[len(calls) - tenth]])
                self.rate_ratios.append(first / last)
        if not self.passes:
            with open(self.spans_path, "w", encoding="utf-8") as fh:
                spans.write(fh)
        self.passes += 1

    def metrics(self):
        passes = self.passes
        msgs = self.count.get("miner.process_message", 0)

        def per_msg(table, name):
            return table.get(name, 0) / msgs if msgs else 0.0

        def per_call_s(name):
            calls = self.count.get(name, 0)
            return self.incl_ns.get(name, 0) / calls / 1e9 if calls else 0.0

        renders = self.count.get("tokens.render", 0)
        st = self.stats
        return {
            "tokens.preprocess.ns_per_msg":
                per_msg(self.incl_ns, "tokens.preprocess"),
            "tokens.tokenize.ns_per_msg":
                per_msg(self.incl_ns, "tokens.tokenize"),
            "tokens.tokenize.calls_per_line":
                self.count.get("tokens.tokenize", 0)
                / (self.lines_per_pass * passes),
            "tokens.render.calls_per_msg":
                per_msg(self.count, "tokens.render"),
            "tokens.render.ns_per_msg": per_msg(self.incl_ns, "tokens.render"),
            "tokens.render.useful_ratio":
                self.useful_renders / renders if renders else 0.0,
            "miner.sim_f.calls_per_msg": per_msg(self.cost, "simf_evals"),
            "miner.sim_f.ns_per_msg": per_msg(self.incl_ns, "miner.sim_f"),
            "miner.update_template.ns_per_msg":
                per_msg(self.incl_ns, "miner.update_template"),
            "miner.descend.steps_per_msg": per_msg(self.cost, "descent_steps"),
            "miner.split.count": st["splits"] / passes,
            "miner.split.pivot_scans": self.cost["pivot_scans"] / passes,
            "miner.select_pivot.ns_total":
                self.incl_ns.get("miner.select_pivot", 0) / passes,
            "miner.process_message.self_ns_per_msg":
                per_msg(self.self_ns, "miner.process_message"),
            "miner.merge_ratio":
                1 - st["templates"] / st["messages"] if st["messages"]
                else 0.0,
            "miner.templates": st["templates"] / passes,
            "miner.nodes": st["nodes"] / passes,
            "miner.max_depth": st["max_depth"],
            "miner.rate_last_over_first":
                statistics.median(self.rate_ratios) if self.rate_ratios
                else 0.0,
            "evaluation.run_miner.s_per_grid_point":
                per_call_s("evaluation.run_miner"),
            "evaluation.grouping_accuracy.s":
                per_call_s("evaluation.grouping_accuracy"),
            "cli.output.ns_per_msg": per_msg(self.self_ns, "cli.cmd_parse"),
        }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="tiny inputs, for the self-test")
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        fail("--seconds must be positive")
    import_package()
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as workdir:
        bench = Bench(args.workload, args.seed, args.tiny, workdir)
        if args.trace:
            values, units = bench.run_traced(args.seconds), PER_LAYER
        else:
            values, units = bench.run(args.seconds), END_TO_END
    checks = bench.checks
    error_rate = checks.failed / checks.attempted if checks.attempted else 1.0
    print(f"# workload {args.workload} seed {args.seed} trace {args.trace}")
    for name, unit in units.items():
        print(f"{name} = {values[name]:.6g} {unit}")
    print(f"error_rate = {error_rate:.6g} fraction "
          f"({checks.failed} of {checks.attempted} operations)")
    if not args.trace:
        print("# the same timings in physical units:")
        for name, (value, unit) in bench.raw.items():
            print(f"{name} = {value:.6g} {unit}")
        print(f"parsing_accuracy = {bench.accuracy:.6g} fraction")
        print(f"# latency: median over {bench.stream_passes} stream passes "
              f"of each pass's quantiles over {len(bench.lines)} calls")
    print(json.dumps({
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }))


if __name__ == "__main__":
    main()
