"""Scoring and measurement harness: grouping accuracy, throughput, robustness."""

import csv
import random
import statistics
import time
from collections import defaultdict
from dataclasses import dataclass, field
from itertools import cycle, islice
from operator import itemgetter

from . import miner as miner_module
from .miner import Miner, MinerConfig
from .tokens import compile_rules
from .workers import forked_map, usable_cpus


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
    min: float
    q1: float
    median: float
    q3: float
    max: float
    iqr: float


REQUIRED_COLUMNS = ("LineId", "Content", "EventId")


def load_labeled_dataset(path):
    """Read a loghub-style structured CSV into LabeledRecords, in file order.

    A UTF-8 byte order mark at the start of the file is skipped."""
    records = []
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.DictReader(fh)
        try:
            header = reader.fieldnames or []
            for col in REQUIRED_COLUMNS:
                if col not in header:
                    raise DatasetFormatError(
                        f"{path}: missing required column {col!r}")
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
                    event_template=row.get("EventTemplate", ""),
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
    it = iter(lines)
    while True:
        start = time.perf_counter()
        before = len(predicted)
        predicted += map(miner.template_id, islice(it, chunk_size))
        if len(predicted) == before:
            break
        chunk_seconds.append(time.perf_counter() - start)
    report = ThroughputReport(
        dataset_name=dataset_name,
        total_messages=len(predicted),
        total_seconds=sum(chunk_seconds),
        chunk_size=chunk_size,
        chunk_seconds=chunk_seconds,
    )
    return predicted, report, miner


def synthetic_stream(n_lines, n_templates, seed=0):
    """`n_lines` lines cycling through a shuffled pool of 5 per template.

    Each template has 5-12 tokens, two of them variable (drawn from 40
    values per line); everything comes from `seed`.  Raises ValueError
    when `n_lines` is negative or `n_templates` below 1.
    """
    if n_templates < 1:
        raise ValueError(f"n_templates must be >= 1, got {n_templates}")
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
    return islice(cycle(pool), n_lines)


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
        min=min(vals),
        q1=q1,
        median=med,
        q3=q3,
        max=max(vals),
        iqr=q3 - q1,
    )


def _template_ids(config, messages):
    """Template ids of `messages` (token lists) on a fresh miner."""
    match = Miner(config)._match
    return [match(tokens)[0].id for tokens in messages]


def sweep(records, grid, mask_rules=(), strict=False):
    """Score every (sigma, phi) pair over a labeled corpus.

    Returns (best result, all results) where each result is a dict with
    sigma, phi and parsing_accuracy.  Ties go to the earliest grid entry.
    Each line is masked and tokenized once, for the whole grid.

    On Linux the grid points run in up to min(grid size, usable CPUs)
    forked processes, elsewhere one after another; nothing selects this.
    The points expected to run longest go first.  Workers share the token
    lists copy-on-write, run with the cyclic collector off and return only
    template ids; scoring stays in the calling process, and results and
    the best point come in grid order.  Forking a process that
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
    results = [{"sigma": cfg.sigma, "phi": cfg.phi, "parsing_accuracy": None}
               for cfg in configs]
    # highest sigma first, then highest phi: fewer merges and fuller leaves
    # make those the longest to run, so no worker is left with a long point
    # once the others are done
    order = sorted(range(len(configs)), reverse=True,
                   key=lambda i: (configs[i].sigma, configs[i].phi))
    todo = [configs[i] for i in order]
    jobs = min(len(configs), usable_cpus())
    if jobs < 2:
        ids = (_template_ids(cfg, messages) for cfg in todo)
    else:
        ids = forked_map(lambda cfg: _template_ids(cfg, messages), todo,
                         jobs)
    for i, predicted in zip(order, ids):
        results[i]["parsing_accuracy"] = grouping_accuracy(
            records, predicted).parsing_accuracy
    # max keeps the first maximum: a tie goes to the earliest grid entry
    return max(results, key=itemgetter("parsing_accuracy")), results


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
