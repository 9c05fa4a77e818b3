"""Span tracing and GC accounting installed from outside the package.

`Tracer.install` replaces module attributes and `Miner` methods of the
package with wrappers that record one span per call (name, start, end,
parent span, line id) in flat in-memory arrays.  Nothing under `src/`
knows about it; `uninstall` puts the originals back.
"""

import gc
import sys
from array import array
from collections import defaultdict
from time import perf_counter_ns

import ustep.cli
import ustep.evaluation
import ustep.miner
from ustep.miner import Miner

#: (span name, module, attribute) of every module-level function traced
FUNCTIONS = (
    ("tokens.preprocess", ustep.miner, "preprocess"),
    ("tokens.tokenize", ustep.miner, "tokenize"),
    ("tokens.render", ustep.miner, "render"),
    ("miner.sim_f", ustep.miner, "sim_f"),
    ("miner.update_template", ustep.miner, "update_template"),
    ("miner.select_pivot", ustep.miner, "select_pivot"),
    ("evaluation.run_miner", ustep.evaluation, "run_miner"),
    ("evaluation.grouping_accuracy", ustep.evaluation, "grouping_accuracy"),
    ("cli.cmd_parse", ustep.cli, "cmd_parse"),
)
#: (span name, Miner attribute) of every method traced
METHODS = (
    ("miner.process_message", "process_message"),
    ("miner.snapshot", "snapshot"),
    ("miner.restore", "restore"),
)


class Spans:
    """Flat span table, one row per span in start order; parent -1 is none."""

    def __init__(self):
        self.name = []
        self.start = array("q")
        self.end = array("q")
        self.parent = array("l")
        self.line = array("l")

    def __len__(self):
        return len(self.name)

    def add(self, name, start, end, parent=-1, line=0):
        """Append a finished span; returns its index."""
        self.name.append(name)
        self.start.append(start)
        self.end.append(end)
        self.parent.append(parent)
        self.line.append(line)
        return len(self.name) - 1

    def clear(self):
        for column in (self.name, self.start, self.end, self.parent,
                       self.line):
            del column[:]

    def self_ns(self, child_overhead_ns=0):
        """Each span's duration minus the time its direct children cover.

        `child_overhead_ns`, the tracer's own cost per child call outside
        the child's interval, is also taken off the parent.
        """
        own = array("q", (e - s for s, e in zip(self.start, self.end)))
        for i, p in enumerate(self.parent):
            if p >= 0:
                own[p] -= self.end[i] - self.start[i] + child_overhead_ns
        return own

    def roots(self):
        """Index of each span's outermost ancestor."""
        root = array("l", range(len(self)))
        for i, p in enumerate(self.parent):
            if p >= 0:
                root[i] = root[p]
        return root

    def write(self, fh):
        """Write the table as tab-separated text with a header line."""
        fh.write("name\tstart_ns\tend_ns\tparent\tline\n")
        for row in zip(self.name, self.start, self.end, self.parent,
                       self.line):
            fh.write("%s\t%d\t%d\t%d\t%d\n" % row)


class Tracer:
    """Records spans for every traced call while `active` is true.

    Besides spans it keeps, per pass, the counters the package exposes
    publicly: `miner.last_cost` after each `process_message`, and the
    `miner.stats` object of each miner seen, read when the pass ends.
    Only the stats are kept, not the miners, so that tracing does not
    keep dead trees alive for the garbage collector to scan.
    """

    def __init__(self):
        self.spans = Spans()
        self.active = False
        self.line = 0             # id of the line being processed, 0 if none
        self._lines_seen = 0
        self._stack = [-1]
        self._originals = []
        self.child_overhead_ns = 0
        self.reset()

    def reset(self):
        """Forget the spans and counters of the previous pass."""
        self.spans.clear()
        self.cost = {"simf_evals": 0, "descent_steps": 0, "pivot_scans": 0}
        self.stats = {}
        self.miner_messages = defaultdict(list)

    def _wrap(self, name, fn, message=False):
        spans = self.spans
        names, starts, ends = spans.name, spans.start, spans.end
        parents, lines, stack = spans.parent, spans.line, self._stack

        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            if message:
                self._lines_seen += 1
                self.line = self._lines_seen
            i = len(names)
            names.append(name)
            parents.append(stack[-1])
            lines.append(self.line)
            ends.append(0)
            stack.append(i)
            starts.append(perf_counter_ns())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[i] = perf_counter_ns()
                stack.pop()
                if message:
                    self.line = 0
                    self._count_message(args[0], i)

        traced.__wrapped__ = fn
        return traced

    def _count_message(self, miner, span):
        cost = miner.last_cost
        self.cost["simf_evals"] += cost.simf_evals
        self.cost["descent_steps"] += cost.descent_steps
        self.cost["pivot_scans"] += cost.pivot_scans
        # keyed by the stats object, which stays alive, so keys stay unique
        self.stats[id(miner.stats)] = miner.stats
        self.miner_messages[id(miner.stats)].append(span)

    def install(self):
        for name, module, attr in FUNCTIONS:
            fn = getattr(module, attr, None)
            if fn is None:
                print(f"trace: {module.__name__}.{attr} is gone; "
                      f"span {name} not recorded", file=sys.stderr)
                continue
            self._originals.append((module, attr, fn))
            setattr(module, attr, self._wrap(name, fn))
        for name, attr in METHODS:
            raw = Miner.__dict__.get(attr)
            if raw is None:
                print(f"trace: Miner.{attr} is gone; span {name} not "
                      "recorded", file=sys.stderr)
                continue
            self._originals.append((Miner, attr, raw))
            if isinstance(raw, classmethod):
                wrapped = classmethod(self._wrap(name, raw.__func__))
            else:
                wrapped = self._wrap(name, raw,
                                     message=attr == "process_message")
            setattr(Miner, attr, wrapped)
        self.child_overhead_ns = self._calibrate()

    def uninstall(self):
        for owner, attr, original in reversed(self._originals):
            setattr(owner, attr, original)
        self._originals.clear()

    def _calibrate(self, calls=1000, rounds=15):
        """Tracer cost per child call that lands in the parent's self time.

        A traced parent makes `calls` traced no-op calls; its self time
        minus that of the same loop over the bare no-op, per call, is the
        bookkeeping outside each child's interval.  The least of `rounds`
        estimates, since noise from other processes only ever adds.
        """
        def noop():
            return None

        child = self._wrap("calibrate.child", noop)

        def loop(fn):
            for _ in range(calls):
                fn()

        parent = self._wrap("calibrate.parent", loop)
        estimates = []
        self.active = True
        try:
            for _ in range(rounds):
                self.spans.clear()
                t0 = perf_counter_ns()
                loop(noop)
                bare = perf_counter_ns() - t0
                parent(child)
                traced_self = self.spans.self_ns()[0]
                estimates.append((traced_self - bare) / calls)
        finally:
            self.active = False
            self.spans.clear()
        return max(0, round(min(estimates)))


class GcMeter:
    """Collections and pause time per generation, from `gc.callbacks`.

    Collections that start while `counting` is false are ignored.
    """

    def __init__(self):
        self.collections = [0, 0, 0]
        self.pause_ns = [0, 0, 0]
        self.counting = True
        self._started = None

    def _callback(self, phase, info):
        if phase == "start":
            self._started = perf_counter_ns() if self.counting else None
        elif self._started is not None:
            gen = info["generation"]
            self.collections[gen] += 1
            self.pause_ns[gen] += perf_counter_ns() - self._started

    def __enter__(self):
        gc.callbacks.append(self._callback)
        return self

    def __exit__(self, *exc):
        gc.callbacks.remove(self._callback)
