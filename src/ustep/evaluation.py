"""Scoring and measurement harness: grouping accuracy, throughput, robustness."""

import csv
import os
import random
import statistics
import time
from collections import defaultdict
from dataclasses import dataclass, field

from . import miner as miner_module
from .miner import Miner, MinerConfig
from .tokens import compile_rules


class DatasetFormatError(ValueError):
    """Labeled CSV is missing a required column or cannot be parsed."""


@dataclass
class LabeledRecord:
    line_id: int
    content: str
    event_id: str
    event_template: str = ""


@dataclass
class GroupingReport:
    dataset_name: str
    total_messages: int
    parsing_accuracy: float
    correct_groups: int
    total_groups: int
    #: ground-truth group -> sorted predicted template ids seen in it
    group_detail: dict = field(default_factory=dict)


@dataclass
class ThroughputReport:
    dataset_name: str
    total_messages: int
    total_seconds: float
    chunk_size: int
    chunk_seconds: list


@dataclass
class RobustnessReport:
    values: list
    minimum: float
    q1: float
    median: float
    q3: float
    maximum: float
    iqr: float

    def as_dict(self):
        return {
            "values": self.values,
            "min": self.minimum,
            "q1": self.q1,
            "median": self.median,
            "q3": self.q3,
            "max": self.maximum,
            "iqr": self.iqr,
        }


REQUIRED_COLUMNS = ("LineId", "Content", "EventId")


def load_labeled_dataset(path):
    """Read a loghub-style structured CSV into LabeledRecords, in file order."""
    records = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        try:
            header = reader.fieldnames or []
            for col in REQUIRED_COLUMNS:
                if col not in header:
                    raise DatasetFormatError(
                        f"{path}: missing required column {col!r}")
            has_template = "EventTemplate" in header
            for row in reader:
                if any(row[col] is None for col in REQUIRED_COLUMNS):
                    raise csv.Error("fewer fields than the header")
                try:
                    line_id = int(row["LineId"])
                except ValueError:
                    raise csv.Error(f"LineId {row['LineId']!r} is not an "
                                    "integer") from None
                records.append(LabeledRecord(
                    line_id=line_id,
                    content=row["Content"],
                    event_id=row["EventId"],
                    event_template=row["EventTemplate"] if has_template
                    else "",
                ))
        except csv.Error as exc:   # e.g. a field over csv.field_size_limit()
            raise DatasetFormatError(
                f"{path}: row {len(records) + 1} (line {reader.line_num}): "
                f"{exc}") from exc
    return records


def grouping_accuracy(records, predicted, dataset_name=""):
    """Score predictions against ground-truth groups.

    A ground-truth group counts as correct only when its messages all got
    one single predicted template id and no outside message got that id.
    Accuracy is the fraction of messages lying in correct groups.
    """
    if len(records) != len(predicted):
        raise ValueError("predicted length must match record count")
    truth = defaultdict(list)
    pred_sizes = defaultdict(int)
    for rec, tid in zip(records, predicted):
        truth[rec.event_id].append(tid)
        pred_sizes[tid] += 1
    correct_groups = 0
    correct_messages = 0
    detail = {}
    for event_id, tids in truth.items():
        uniq = set(tids)
        detail[event_id] = sorted(uniq)
        if len(uniq) == 1 and pred_sizes[tids[0]] == len(tids):
            correct_groups += 1
            correct_messages += len(tids)
    total = len(records)
    return GroupingReport(
        dataset_name=dataset_name,
        total_messages=total,
        parsing_accuracy=correct_messages / total if total else 0.0,
        correct_groups=correct_groups,
        total_groups=len(truth),
        group_detail=detail,
    )


def run_miner(config, lines, chunk_size=1000, dataset_name=""):
    """Feed lines through a fresh miner, timing each chunk.

    Returns (predicted template ids, ThroughputReport, miner).  Miner
    state persists across chunks; timings cover preprocessing through
    template assignment end to end.
    """
    if chunk_size < 1:
        raise ValueError("chunk_size must be >= 1")
    miner = Miner(config)
    predicted = []
    chunk_seconds = []
    total = 0
    it = iter(lines)
    done = False
    while not done:
        start = time.perf_counter()
        n = 0
        for line in it:
            predicted.append(miner.template_id(line))
            n += 1
            if n == chunk_size:
                break
        else:
            done = True
        if n:
            chunk_seconds.append(time.perf_counter() - start)
            total += n
    report = ThroughputReport(
        dataset_name=dataset_name,
        total_messages=total,
        total_seconds=sum(chunk_seconds),
        chunk_size=chunk_size,
        chunk_seconds=chunk_seconds,
    )
    return predicted, report, miner


def synthetic_stream(n_lines, n_templates, seed=0):
    """`n_lines` lines cycling through a shuffled pool of 5 per template.

    Each template has 5-12 tokens, two of them variable (drawn from 40
    values per line); everything comes from `seed`.
    """
    rng = random.Random(seed)
    pool = []
    for k in range(n_templates):
        length = rng.randrange(5, 13)
        variable = set(rng.sample(range(length), 2))
        tokens = [None if j in variable else f"k{k}p{j}"
                  for j in range(length)]
        for _ in range(5):
            pool.append(" ".join(
                f"u{rng.randrange(40)}" if t is None else t for t in tokens))
    rng.shuffle(pool)
    for i in range(n_lines):
        yield pool[i % len(pool)]


def robustness_stats(values):
    """Five-number summary of accuracy values.

    Quartiles use inclusive linear interpolation so results are
    reproducible across implementations.
    """
    vals = [float(v) for v in values]
    if not vals:
        raise ValueError("robustness_stats requires at least one value")
    if len(vals) == 1:  # quantiles() needs two points before Python 3.13
        q1 = med = q3 = vals[0]
    else:
        q1, med, q3 = statistics.quantiles(vals, n=4, method="inclusive")
    return RobustnessReport(
        values=vals,
        minimum=min(vals),
        q1=q1,
        median=med,
        q3=q3,
        maximum=max(vals),
        iqr=q3 - q1,
    )


def _template_ids(config, messages):
    """Template ids of `messages` (token lists) on a fresh miner."""
    match = Miner(config)._match
    return [match(tokens)[0].id for tokens in messages]


#: a sweep worker's token lists, inherited from the parent by fork
_worker_messages = None


def _init_worker(messages):
    global _worker_messages
    _worker_messages = messages


def _worker_template_ids(config):
    return _template_ids(config, _worker_messages)


def _grid_template_ids(configs, messages):
    """Yield each config's template ids over `messages`, in grid order.

    Fork, unlike spawn, hands the token lists to the workers without
    pickling them.  ProcessPoolExecutor, unlike multiprocessing.Pool,
    raises BrokenProcessPool when a worker dies instead of hanging.
    """
    affinity = getattr(os, "sched_getaffinity", None)
    jobs = min(len(configs), len(affinity(0))) if affinity else 1
    if jobs < 2:
        yield from (_template_ids(cfg, messages) for cfg in configs)
        return
    from concurrent.futures import ProcessPoolExecutor
    from multiprocessing import get_context
    with ProcessPoolExecutor(jobs, mp_context=get_context("fork"),
                             initializer=_init_worker,
                             initargs=(messages,)) as pool:
        yield from pool.map(_worker_template_ids, configs)


def sweep(records, grid, mask_rules=(), strict=False, dataset_name=""):
    """Score every (sigma, phi) pair over a labeled corpus.

    Returns (best result, all results) where each result is a dict with
    sigma, phi and parsing_accuracy.  Ties go to the earliest grid entry.
    Each line is masked and tokenized once, for the whole grid.

    On Linux the grid points run in up to min(grid size, usable CPUs)
    forked processes, elsewhere one after another; nothing selects this.
    Workers share the token lists copy-on-write and return only template
    ids; scoring stays in the calling process.  Forking a process that
    runs threads can deadlock the child, so call `sweep` before starting
    any.  A worker that dies raises
    `concurrent.futures.process.BrokenProcessPool`.
    """
    if not grid:
        raise ValueError("empty hyperparameter grid")
    configs = [MinerConfig(sigma=sigma, phi=phi, mask_rules=list(mask_rules),
                           strict_wildcard_sim=strict)
               for sigma, phi in grid]
    # called through ustep.miner, as Miner.process_message calls them, so
    # that whatever wraps those functions also sees these calls
    rules = compile_rules(mask_rules)
    messages = [miner_module.tokenize(miner_module.preprocess(r.content,
                                                              rules))
                for r in records]
    results = []
    best = None
    for cfg, predicted in zip(configs, _grid_template_ids(configs, messages)):
        report = grouping_accuracy(records, predicted, dataset_name)
        res = {"sigma": cfg.sigma, "phi": cfg.phi,
               "parsing_accuracy": report.parsing_accuracy}
        results.append(res)
        if best is None or res["parsing_accuracy"] > best["parsing_accuracy"]:
            best = res
    return best, results


def write_timing_csv(report, fh):
    """Per-chunk timing rows suitable for plotting cumulative speed curves."""
    writer = csv.writer(fh)
    writer.writerow(["chunk_index", "messages", "seconds",
                     "cumulative_seconds"])
    cum = 0.0
    done = 0
    for i, secs in enumerate(report.chunk_seconds):
        msgs = min(report.chunk_size, report.total_messages - done)
        done += msgs
        cum += secs
        writer.writerow([i, msgs, f"{secs:.6f}", f"{cum:.6f}"])
