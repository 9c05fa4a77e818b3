"""End-to-end acceptance gate.

Each test covers one numbered criterion and prints a PASS line on
success.  Criteria 4, 6 and the replay half of 7 need the public loghub
2k corpora on disk; point USTEP_DATA_DIR at a directory laid out as
<Name>/<Name>_2k.log_structured.csv (default: ./data).  Without the
corpora those tests skip with an explicit message.
"""

import os
import random
import time
from pathlib import Path

import pytest

from synth import make_mixed_corpus, make_template_corpus
from ustep.cli import main as cli_main
from ustep.evaluation import (
    grouping_accuracy,
    load_labeled_dataset,
    run_miner,
    sweep,
    synthetic_stream,
)
from ustep.miner import Miner, MinerConfig
from ustep.tokens import WILDCARD, read_mask_rules

REPO = Path(__file__).resolve().parent.parent
DATA_DIR = Path(os.environ.get("USTEP_DATA_DIR", REPO / "data"))
MASK_DIR = REPO / "scripts" / "masks"

LOGHUB_DATASETS = ["Apache", "BGL", "Hadoop", "HDFS", "HPC", "Mac",
                   "OpenSSH", "OpenStack", "Thunderbird", "Zookeeper"]
PA_FLOORS = {"Apache": 0.95, "HDFS": 0.95, "Zookeeper": 0.90,
             "OpenSSH": 0.90}

SWEEP_GRID = [(s / 10, p) for s in range(3, 9) for p in (2, 4, 6, 8, 12, 16)]


def _dataset_path(name):
    return DATA_DIR / name / f"{name}_2k.log_structured.csv"


def _mask_rules(name):
    return read_mask_rules(MASK_DIR / f"{name}.txt")


def _require_dataset(name):
    path = _dataset_path(name)
    if not path.exists():
        pytest.skip(f"loghub corpus not available: {path} "
                    "(set USTEP_DATA_DIR; no network in this environment)")
    return path


def _passed(criterion, detail=""):
    print(f"ACCEPTANCE CRITERION {criterion}: PASS {detail}".rstrip())


# -- helpers shared by criteria 1 and 5 ------------------------------------

def _walk_tree_invariants(miner, phi):
    """Structural checks over every node of the tree."""
    stack = [(miner.root, None, set())]
    node_count = 0
    while stack:
        node, length_label, pivots = stack.pop()
        node_count += 1
        if node.templates is not None:
            # a leaf past phi is one whose split failed, and it stops there
            assert len(node.templates) <= phi + 1, \
                "leaf over phi + 1 templates"
            for tpl in node.templates:
                assert len(tpl.tokens) == length_label, \
                    "leaf holds template of wrong length"
        else:
            seen = set()
            for label, child in node.children.items():
                key = (type(label), label)
                assert key not in seen, "duplicate sibling label"
                seen.add(key)
                child_pivots = pivots
                if child.pivot is not None:
                    assert child.pivot not in pivots, \
                        "pivot repeated on root-to-leaf path"
                    child_pivots = pivots | {child.pivot}
                ll = label if node is miner.root else length_label
                stack.append((child, ll, child_pivots))
    assert node_count == miner.stats.node_count, "node counter drift"


def _check_monotone(prev, miner):
    """Templates only ever wildcard positions; ids and lengths are stable."""
    current = {}
    for leaf in miner.iter_leaves():
        for tpl in leaf.templates:
            assert tpl.id not in current, "duplicate template id"
            current[tpl.id] = list(tpl.tokens)
    for tid, before in prev.items():
        after = current.get(tid)
        assert after is not None, "template id vanished"
        assert len(after) == len(before)
        for b, a in zip(before, after):
            if b == WILDCARD:
                assert a == WILDCARD
            else:
                assert a == WILDCARD or a == b
    return current


def test_criterion_1_invariant_suite_on_random_corpora():
    start = time.perf_counter()
    total_lines = 0
    for phi in (2, 4, 8, 16):
        for sigma in (0.3, 0.5, 0.7):
            rng = random.Random(1000 * phi + int(10 * sigma))
            lines = make_mixed_corpus(rng, 9000, max_length=30)
            lengths = [len(l.split()) for l in lines]
            miner = Miner(MinerConfig(sigma=sigma, phi=phi))
            prev_templates = {}
            prev_stats = (0, 0, 0, 0, 0)
            for i, (line, n_tok) in enumerate(zip(lines, lengths)):
                miner.process_message(line)
                cost = miner.last_cost
                assert cost.descent_steps <= n_tok + 1, "descent bound"
                assert cost.simf_evals <= phi + 1, "scoring bound"
                if i % 1500 == 1499:
                    prev_templates = _check_monotone(prev_templates, miner)
            s = miner.stats
            stats_now = (s.node_count, s.template_count,
                         s.messages_processed, s.splits_performed,
                         s.max_depth)
            assert all(a >= b for a, b in zip(stats_now, prev_stats)), \
                "stats counters must be non-decreasing"
            assert s.max_depth <= max(lengths) + 1
            _walk_tree_invariants(miner, phi)
            _check_monotone(prev_templates, miner)
            total_lines += len(lines)

    # space accounting: cyclic input stabilizes nodes/templates while
    # messages_processed keeps growing
    rng = random.Random(99)
    cycle = make_mixed_corpus(rng, 2000, max_length=20)
    miner = Miner(MinerConfig(sigma=0.5, phi=8))
    for line in cycle:
        miner.process_message(line)
    frozen = (miner.stats.node_count, miner.stats.template_count)
    for _ in range(2):
        for line in cycle:
            miner.process_message(line)
    assert (miner.stats.node_count, miner.stats.template_count) == frozen
    assert miner.stats.messages_processed == 3 * len(cycle)
    total_lines += 3 * len(cycle)

    elapsed = time.perf_counter() - start
    assert total_lines >= 100_000
    assert elapsed < 60, f"invariant suite took {elapsed:.1f}s"
    _passed(1, f"({total_lines} lines, {elapsed:.1f}s)")


def test_criterion_2_oracle_equivalence_on_synthetic_corpora():
    from ustep.evaluation import LabeledRecord

    for seed in range(100):
        rng = random.Random(seed)
        n_templates = rng.randrange(1, 6)
        length = rng.randrange(4, 13)
        lines, labels = make_template_corpus(rng, n_templates, length, 200)
        cfg = MinerConfig(sigma=0.5, phi=8)
        predicted, _, _ = run_miner(cfg, lines)
        records = [LabeledRecord(i + 1, line, str(g))
                   for i, (line, g) in enumerate(zip(lines, labels))]
        report = grouping_accuracy(records, predicted)
        assert report.parsing_accuracy == 1.0, \
            f"corpus seed {seed}: PA {report.parsing_accuracy}"
    _passed(2, "(100 corpora, PA = 1.0 on all)")


def test_criterion_3_saturated_leaf_split_structure():
    miner = Miner(MinerConfig(sigma=0.5, phi=3, strict_wildcard_sim=True))
    for line in ["Send 5 bytes", "Send 6 bytes",
                 "Receive 5 bytes", "Receive 8 bytes",
                 "Send 5 packages", "Send 6 packages"]:
        miner.process_message(line)
    node = miner.root.children[3]
    assert node.templates is not None and len(node.templates) == 3
    miner.process_message("Send 5 packets")  # fourth template, > phi
    assert node.templates is None
    assert node.pivot == 2  # third token position
    assert set(node.children) == {"bytes", "packages", "packets"}
    assert all(c.templates is not None for c in node.children.values())
    _passed(3, "(pivot on third token, 3 child leaves)")


def _tune_dataset(name):
    records = load_labeled_dataset(_require_dataset(name))
    best, _ = sweep(records, SWEEP_GRID, mask_rules=_mask_rules(name))
    return records, best


@pytest.fixture(scope="module")
def loghub_results():
    results = {}
    for name in LOGHUB_DATASETS:
        records, best = _tune_dataset(name)
        results[name] = (records, best)
    return results


def test_criterion_4_public_dataset_accuracy(loghub_results):
    pas = {}
    for name, (records, best) in loghub_results.items():
        pas[name] = best["parsing_accuracy"]
        # tuned single run must stay under the per-dataset time budget
        cfg = MinerConfig(sigma=best["sigma"], phi=best["phi"],
                          mask_rules=_mask_rules(name))
        start = time.perf_counter()
        run_miner(cfg, [r.content for r in records])
        assert time.perf_counter() - start < 2.0, f"{name}: run too slow"
    for name, floor in PA_FLOORS.items():
        assert pas[name] >= floor, f"{name}: PA {pas[name]:.3f} < {floor}"
    mean_pa = sum(pas.values()) / len(pas)
    assert mean_pa >= 0.85, f"mean PA {mean_pa:.3f} < 0.85"
    detail = " ".join(f"{n}={pas[n]:.3f}" for n in LOGHUB_DATASETS)
    _passed(4, f"(mean={mean_pa:.3f} {detail})")


def test_criterion_5_constant_time_processing():
    import gc

    pool = list(synthetic_stream(1000, 200, seed=5))
    lengths = [len(l.split()) for l in pool]
    window = pool * 10  # the first chunk, and the lines timed at both ends

    phi = 8
    miner = Miner(MinerConfig(sigma=0.5, phi=phi))
    n_total = 1_000_000
    violations = 0
    gc.disable()  # keep collector pauses out of the timings
    try:
        for n in range(n_total):
            i = n % len(pool)
            miner.process_message(pool[i])
            cost = miner.last_cost
            if (cost.simf_evals > phi
                    or cost.descent_steps > lengths[i] + 1):
                violations += 1
            if n + 1 == len(window):
                early_state = miner.snapshot()

        def seconds(m):
            start = time.perf_counter()
            for line in window:
                m.process_message(line)
            return time.perf_counter() - start

        # The same lines on the state after the first chunk (restored
        # afresh, untimed, each round) and on the final state, alternating,
        # so a spell of host slowness lands on both sides; best of each.
        early = late = float("inf")
        for _ in range(5):
            early = min(early, seconds(Miner.restore(early_state)))
            late = min(late, seconds(miner))
    finally:
        gc.enable()

    assert violations == 0, f"{violations} messages broke the work bounds"
    assert late <= 1.5 * early, \
        f"best late pass {late:.3f}s vs best early pass {early:.3f}s"
    _passed(5, f"(best late/early pass ratio "
               f"{late / early:.2f}, 0 bound violations)")


def test_criterion_6_robustness_statistic_advisory(loghub_results):
    from ustep.evaluation import robustness_stats

    values = [best["parsing_accuracy"]
              for _, best in loghub_results.values()]
    rep = robustness_stats(values)
    # advisory: reported, not gating
    status = "within" if rep.iqr <= 0.15 else "above"
    _passed(6, f"(IQR={rep.iqr:.3f}, {status} 0.15 advisory target)")


def test_criterion_7_snapshot_replay_on_public_corpus():
    records = load_labeled_dataset(_require_dataset("HDFS"))
    lines = [r.content for r in records]
    cfg = MinerConfig(sigma=0.5, phi=8, mask_rules=_mask_rules("HDFS"))

    uninterrupted = Miner(cfg)
    straight = [uninterrupted.process_message(l).template_id for l in lines]

    first = Miner(cfg)
    cut = len(lines) // 2
    replayed = [first.process_message(l).template_id for l in lines[:cut]]
    resumed = Miner.restore(first.snapshot())
    replayed += [resumed.process_message(l).template_id for l in lines[cut:]]

    assert replayed == straight
    _passed(7, f"(replay-equivalent over {len(lines)} lines)")


def test_criterion_7_byte_identical_cli_output(tmp_path, capsys):
    raw = tmp_path / "stream.log"
    rng = random.Random(77)
    raw.write_text("\n".join(make_mixed_corpus(rng, 500)) + "\n")
    outputs = set()
    for _ in range(3):
        code = cli_main(["parse", "--input", str(raw),
                         "--sigma", "0.5", "--phi", "8"])
        assert code == 0
        outputs.add(capsys.readouterr().out)
    assert len(outputs) == 1
    _passed(7, "(3 identical parse runs)")
