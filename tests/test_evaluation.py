import csv
import errno
import gc
import json
import os
import random
import subprocess
import sys
import warnings
from concurrent.futures.process import BrokenProcessPool
from dataclasses import asdict
from pathlib import Path

import pytest

from synth import (make_mixed_corpus, make_template_corpus, pa_oracle,
                   partition_to_labels, set_partitions)
from ustep import workers
from ustep.evaluation import (
    DatasetFormatError,
    LabeledRecord,
    grouping_accuracy,
    load_labeled_dataset,
    robustness_stats,
    run_miner,
    sweep,
    synthetic_stream,
)
from ustep.miner import Miner, MinerConfig
from ustep.tokens import ConfigError, compile_rules


REPO = Path(__file__).resolve().parent.parent


def _run_script(name, *args, timeout=None):
    """Run scripts/`name` with the package on its path; returns the
    CompletedProcess with text output."""
    return subprocess.run(
        [sys.executable, str(REPO / "scripts" / name), *args],
        env={**os.environ, "PYTHONPATH": str(REPO / "src")},
        capture_output=True, text=True, timeout=timeout)


def _records(labels):
    return [LabeledRecord(i + 1, f"msg {i}", str(g))
            for i, g in enumerate(labels)]


# -- grouping accuracy -----------------------------------------------------

def test_perfect_parse():
    recs = _records(["A", "A", "B", "B"])
    rep = grouping_accuracy(recs, [1, 1, 2, 2])
    assert rep.parsing_accuracy == 1.0
    assert (rep.correct_groups, rep.total_groups) == (2, 2)


def test_merged_groups_fail_both():
    recs = _records(["A", "A", "B", "B"])
    rep = grouping_accuracy(recs, [1, 1, 1, 2])
    assert rep.parsing_accuracy == 0.0
    assert rep.correct_groups == 0


def test_split_group_fails_only_itself():
    recs = _records(["A", "A", "B", "B"])
    rep = grouping_accuracy(recs, [1, 1, 2, 3])
    assert rep.parsing_accuracy == 0.5
    assert rep.correct_groups == 1
    assert rep.group_detail["B"] == [2, 3]


def test_length_mismatch_rejected():
    with pytest.raises(ValueError):
        grouping_accuracy(_records(["A"]), [1, 2])


def test_relabeling_predictions_never_changes_accuracy():
    rng = random.Random(7)
    for _ in range(50):
        n = rng.randrange(1, 12)
        truth = [rng.randrange(3) for _ in range(n)]
        pred = [rng.randrange(4) for _ in range(n)]
        base = grouping_accuracy(_records(truth), pred).parsing_accuracy
        perm = {v: f"p{v}" for v in set(pred)}
        relabeled = [perm[v] for v in pred]
        assert grouping_accuracy(_records(truth),
                                 relabeled).parsing_accuracy == base


def test_exhaustive_partitions_match_brute_force_oracle():
    # every pair of partitions of 5 messages, scored both ways
    n = 5
    parts = list(set_partitions(range(n)))
    for truth_part in parts:
        truth = partition_to_labels(truth_part, n)
        recs = _records(truth)
        for pred_part in parts:
            pred = partition_to_labels(pred_part, n)
            got = grouping_accuracy(recs, pred).parsing_accuracy
            assert got == pytest.approx(pa_oracle(truth, pred))


def test_accuracy_one_iff_partitions_equal():
    n = 4
    parts = list(set_partitions(range(n)))
    for truth_part in parts:
        truth = partition_to_labels(truth_part, n)
        recs = _records(truth)
        for pred_part in parts:
            pred = partition_to_labels(pred_part, n)
            pa = grouping_accuracy(recs, pred).parsing_accuracy
            same = sorted(map(sorted, truth_part)) == \
                sorted(map(sorted, pred_part))
            assert (pa == 1.0) == same


# -- dataset loading -------------------------------------------------------

def test_load_labeled_csv(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text(
        "LineId,Content,EventId,EventTemplate\n"
        '1,"hello, world",E1,hello <*>\n'
        "2,bye now,E2,bye <*>\n"
        "3,no template,E3,\n")
    recs = load_labeled_dataset(path)
    assert len(recs) == 3
    assert recs[0].content == "hello, world"
    assert recs[0].event_id == "E1"
    assert recs[1].line_id == 2
    assert [r.event_template for r in recs] == ["hello <*>", "bye <*>", ""]


def test_load_refuses_a_row_short_of_any_column(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("LineId,Content,EventId,EventTemplate\n"
                    "1,a 1,E1,a <*>\n"
                    "2,b 2,E2\n")
    with pytest.raises(DatasetFormatError,
                       match=r"row 2 \(line 3\): fewer fields than the header"):
        load_labeled_dataset(path)


def test_load_refuses_a_row_with_more_fields_than_the_header(tmp_path):
    # an unquoted comma in Content would shift EventId one field right
    path = tmp_path / "d.csv"
    path.write_text("LineId,Content,EventId\n"
                    "1,a 1,E1,extra\n")
    with pytest.raises(DatasetFormatError) as caught:
        load_labeled_dataset(path)
    assert str(caught.value) == \
        f"{path}: row 1 (line 2): more fields than the header"


def test_load_without_template_column(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("LineId,Content,EventId\n1,hello,E1\n")
    assert load_labeled_dataset(path)[0].event_template == ""


def test_load_header_only(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("LineId,Content,EventId\n")
    assert load_labeled_dataset(path) == []


def test_load_missing_column(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("LineId,Content\n1,x\n")
    with pytest.raises(DatasetFormatError, match="EventId"):
        load_labeled_dataset(path)


def test_load_unreadable_file(tmp_path):
    with pytest.raises(OSError):
        load_labeled_dataset(tmp_path / "missing.csv")


# -- throughput ------------------------------------------------------------

def test_chunk_bookkeeping():
    lines = [f"evt {i % 3} ok" for i in range(95)]
    rep = run_miner(MinerConfig(), lines, chunk_size=10)[1]
    assert rep.total_messages == 95
    assert len(rep.chunk_seconds) == 10
    assert rep.total_seconds == pytest.approx(sum(rep.chunk_seconds))


def test_state_persists_across_chunks():
    lines = ["same line here"] * 40
    predicted, rep, miner = run_miner(MinerConfig(), lines, chunk_size=7)
    assert set(predicted) == {1}
    assert miner.stats.template_count == 1


def test_empty_stream():
    rep = run_miner(MinerConfig(), [], chunk_size=5)[1]
    assert rep.total_messages == 0
    assert rep.chunk_seconds == []
    assert rep.total_seconds == 0.0


def test_bad_chunk_size():
    with pytest.raises(ValueError):
        run_miner(MinerConfig(), ["x"], chunk_size=0)


def test_synthetic_stream_needs_a_template():
    with pytest.raises(ValueError):
        synthetic_stream(5, 0)


@pytest.mark.parametrize("args, error", [
    (["--lines", "0"], "--lines must be >= 1"),
    (["--templates", "0"], "--templates must be >= 1"),
    (["--chunk-size", "0"], "--chunk-size must be >= 1"),
    (["--phi", "0"], "phi must be >= 1"),
    (["--sigma", "2"], "sigma must be in [0, 1]"),
])
def test_throughput_script_refuses_bad_values(args, error, tmp_path):
    out = tmp_path / "timings.csv"
    proc = _run_script("throughput_experiment.py", *args, "--out", str(out))
    assert proc.returncode == 2
    assert f"error: {error}" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not out.exists()


def test_throughput_script_refuses_an_unwritable_out_before_the_run(
        tmp_path):
    # a run of this many lines takes minutes, so returning within the
    # timeout shows that the script refused the path before streaming
    proc = _run_script("throughput_experiment.py", "--lines", "100000000",
                       "--out", str(tmp_path / "missing" / "t.csv"),
                       timeout=60)
    assert proc.returncode == 2
    assert "error: --out: " in proc.stderr
    assert "Traceback" not in proc.stderr


def test_run_loghub_script_reports_each_dataset_found(tmp_path):
    lines, labels = make_template_corpus(random.Random(7), 6, 8, 120)
    data = tmp_path / "data"
    (data / "HDFS").mkdir(parents=True)
    with open(data / "HDFS" / "HDFS_2k.log_structured.csv", "w",
              newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["LineId", "Content", "EventId"])
        writer.writerows([i + 1, line, f"E{g}"]
                         for i, (line, g) in enumerate(zip(lines, labels)))
    out = tmp_path / "report.json"
    proc = _run_script("run_loghub.py", "--data-dir", str(data),
                       "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert list(report["per_dataset"]) == ["HDFS"]
    assert set(report["per_dataset"]["HDFS"]) == {"sigma", "phi",
                                                  "parsing_accuracy"}
    assert report["robustness"]["values"] == [
        report["per_dataset"]["HDFS"]["parsing_accuracy"]]
    assert report["mean_pa"] == report["robustness"]["median"]
    assert out.read_text() == proc.stdout

    # refused before the sweep: exit 2, no traceback, no report
    proc = _run_script("run_loghub.py", "--data-dir", str(data),
                       "--out", str(tmp_path / "missing" / "report.json"))
    assert proc.returncode == 2
    assert "error: --out: " in proc.stderr
    assert "Traceback" not in proc.stderr
    assert "PA=" not in proc.stderr
    assert proc.stdout == ""

    empty = tmp_path / "empty"
    empty.mkdir()
    proc = _run_script("run_loghub.py", "--data-dir", str(empty))
    assert proc.returncode == 1
    assert "no datasets found" in proc.stderr
    assert proc.stdout == ""


def test_run_loghub_script_reports_a_bad_dataset_and_keeps_the_old_out(
        tmp_path):
    csv_path = tmp_path / "data" / "HDFS" / "HDFS_2k.log_structured.csv"
    csv_path.parent.mkdir(parents=True)
    csv_path.write_text("LineId,Content,EventId\n1,a 1,E1\n2,b 2\n")
    out = tmp_path / "report.json"
    out.write_text("the old report\n")
    proc = _run_script("run_loghub.py", "--data-dir", str(tmp_path / "data"),
                       "--out", str(out))
    assert proc.returncode == 1
    assert [line for line in proc.stderr.splitlines()
            if not line.startswith("skipping ")] == [
        f"error: {csv_path}: row 2 (line 3): fewer fields than the header"]
    assert proc.stdout == ""
    assert out.read_text() == "the old report\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["data",
                                                          "report.json"]


def test_throughput_script_keeps_the_old_out_when_its_write_fails(tmp_path):
    pytest.importorskip("resource")
    out = tmp_path / "timings.csv"
    out.write_text("the old timings\n")
    # a disk that fills up: a write past 64 bytes fails with EFBIG
    small_files = ("import resource, runpy, sys; "
                   "resource.setrlimit(resource.RLIMIT_FSIZE, (64, 64)); "
                   "sys.argv = sys.argv[1:]; "
                   "runpy.run_path(sys.argv[0], run_name='__main__')")
    proc = subprocess.run(
        [sys.executable, "-c", small_files,
         str(REPO / "scripts" / "throughput_experiment.py"), "--lines",
         "200", "--chunk-size", "10", "--out", str(out)],
        env={**os.environ, "PYTHONPATH": str(REPO / "src")},
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 1
    assert "File too large" in proc.stderr
    assert proc.stderr == f"error: [Errno {errno.EFBIG}] " \
        f"{os.strerror(errno.EFBIG)}\n"
    assert out.read_text() == "the old timings\n"
    assert [p.name for p in tmp_path.iterdir()] == ["timings.csv"]


@pytest.mark.parametrize("strict", [False, True])
def test_run_miner_ids_are_process_message_ids(strict):
    lines = make_mixed_corpus(random.Random(5), 600)
    cfg = MinerConfig(sigma=0.5, phi=4, mask_rules=[r"x1\d"],
                      strict_wildcard_sim=strict)
    predicted, _, miner = run_miner(cfg, lines, chunk_size=50)
    reference = Miner(cfg)
    assert predicted == [reference.process_message(line).template_id
                         for line in lines]
    assert miner.snapshot() == reference.snapshot()


def test_sweep_scores_like_process_message_per_grid_point(usable_cpus,
                                                          no_child_left):
    rng = random.Random(3)
    lines, labels = make_template_corpus(rng, 12, 8, 400)
    records = [LabeledRecord(i + 1, line, str(g))
               for i, (line, g) in enumerate(zip(lines, labels))]
    grid = [(0.3, 2), (0.5, 8), (0.6, 4), (0.8, 1)]
    rules = [r"v[1-3]\d"]
    want = []
    for sigma, phi in grid:
        miner = Miner(MinerConfig(sigma=sigma, phi=phi, mask_rules=rules,
                                  strict_wildcard_sim=True))
        predicted = [miner.process_message(line).template_id
                     for line in lines]
        want.append({"sigma": sigma, "phi": phi, "parsing_accuracy":
                     grouping_accuracy(records, predicted).parsing_accuracy})
    assert len({r["parsing_accuracy"] for r in want}) > 1
    collector_on = gc.isenabled()
    for cpus in (1, 4):     # serial, then forked workers
        usable_cpus(cpus)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _, results = sweep(records, grid, mask_rules=rules, strict=True)
        assert results == want
        no_child_left()
        assert gc.isenabled() == collector_on


def test_sweep_raises_when_a_worker_dies(dying_workers, no_child_left):
    records = _records(["A", "A", "B"])
    with pytest.raises(BrokenProcessPool):
        sweep(records, [(0.5, 4), (0.6, 4), (0.7, 4)])
    no_child_left()


def test_sweep_hands_out_the_longest_points_first(usable_cpus,
                                                  monkeypatch):
    handed = []
    forked_map = workers.forked_map

    def spy(fn, configs, jobs):
        handed.extend((cfg.sigma, cfg.phi) for cfg in configs)
        return forked_map(fn, configs, jobs)

    monkeypatch.setattr(workers, "forked_map", spy)
    usable_cpus(2)
    records = [LabeledRecord(i, "same line", "E1") for i in range(1, 4)]
    grid = [(0.5, 8), (0.9, 2), (0.3, 16), (0.9, 16), (0.5, 8)]
    best, results = sweep(records, grid)
    assert handed == [(0.9, 16), (0.9, 2), (0.5, 8), (0.5, 8), (0.3, 16)]
    # every point scores 1.0, so the tie goes to the first grid entry
    assert [(r["sigma"], r["phi"]) for r in results] == grid
    assert best is results[0]


def test_sweep_masks_with_rules_given_once_or_refuses_them():
    records = [LabeledRecord(i + 1, f"job {i} done", "E1") for i in range(5)]
    records.append(LabeledRecord(6, "disk full", "E2"))
    for rules in ([r"\d+"], (r"\d+",)):
        best, _ = sweep(records, [(0.9, 8)], mask_rules=rules)
        assert best["parsing_accuracy"] == 1.0
    # a generator would be used up by the first of its two readers, and
    # the corpus left unmasked; it is refused as `MinerConfig` refuses it
    with pytest.raises(ConfigError, match="mask_rules"):
        sweep(records, [(0.9, 8)], mask_rules=(r for r in [r"\d+"]))


def test_sweep_compiles_the_rules_once_per_config(usable_cpus,
                                                   monkeypatch):
    compiled = []

    def counted(patterns):
        compiled.append(patterns)
        return compile_rules(patterns)

    monkeypatch.setattr("ustep.miner.compile_rules", counted)
    usable_cpus(1)
    records = [LabeledRecord(i + 1, f"job {i} done", "E1") for i in range(5)]
    sweep(records, [(0.5, 8), (0.7, 4), (0.9, 2)], mask_rules=[r"\d+"])
    # one per `MinerConfig`; its miners and `sweep` share that one
    assert len(compiled) == 3


def test_sweep_rejects_an_empty_grid():
    with pytest.raises(ValueError, match="empty hyperparameter grid"):
        sweep(_records(["A"]), [])


# -- robustness ------------------------------------------------------------

def test_robustness_as_dict_keys_in_report_order():
    rep = robustness_stats([0.8, 0.2, 1.0, 0.5, 0.4, 0.7])
    assert list(asdict(rep).items()) == [
        ("values", rep.values), ("min", 0.2), ("q1", rep.q1),
        ("median", rep.median), ("q3", rep.q3), ("max", 1.0),
        ("iqr", rep.iqr)]


def test_singleton_stats():
    rep = robustness_stats([1.0])
    assert (rep.min, rep.q1, rep.median, rep.q3, rep.max) == \
        (1.0, 1.0, 1.0, 1.0, 1.0)
    assert rep.iqr == 0.0


def test_two_point_median():
    assert robustness_stats([0.0, 1.0]).median == 0.5


def test_constant_list_has_zero_iqr():
    rep = robustness_stats([0.42] * 9)
    assert rep.iqr == 0.0


@pytest.mark.parametrize("values, quartiles", [
    # 7 points: positions 1.5, 3 and 4.5 of the sorted list
    ([13, 1, 8, 4, 10, 2, 7], (3.0, 7.0, 9.0)),
    # 6 points: positions 1.25, 2.5 and 3.75 of the sorted list
    ([0.8, 0.2, 1.0, 0.5, 0.4, 0.7], (0.425, 0.6, 0.775)),
])
def test_inclusive_linear_quartiles(values, quartiles):
    rep = robustness_stats(values)
    assert (rep.q1, rep.median, rep.q3) == pytest.approx(quartiles)
    assert rep.iqr == pytest.approx(quartiles[2] - quartiles[0])
    assert (rep.min, rep.max) == (min(values), max(values))


def test_published_benchmark_mean():
    values = [1.0, 0.964, 0.951, 0.998, 0.906, 0.848, 0.996, 0.764,
              0.954, 0.988]
    rep = robustness_stats(values)
    assert sum(rep.values) / len(rep.values) == pytest.approx(0.937, abs=5e-4)
    assert rep.q1 <= rep.median <= rep.q3


def test_empty_values_rejected():
    with pytest.raises(ValueError):
        robustness_stats([])


def test_import_check_passes_in_a_fresh_interpreter():
    # import ustep loads no evaluation harness, json, statistics or
    # dataclasses, which a streaming miner does not need, nor the process
    # pool modules, which only forking sweep and parse runs import; the
    # exports still resolve.  A module that site preloads cannot show up
    # as one ustep imports, hence the second run, without site
    for flags in [], ["-S"]:
        subprocess.run(
            [sys.executable, *flags, str(REPO / "tests" / "import_check.py")],
            env={**os.environ, "PYTHONPATH": str(REPO / "src")}, check=True)
