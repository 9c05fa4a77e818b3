import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from ustep.cli import EXIT_IO, EXIT_OK, EXIT_SNAPSHOT, EXIT_USAGE, main
from ustep.miner import Miner, MinerConfig

SRC = Path(__file__).resolve().parent.parent / "src"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def raw_file(tmp_path):
    path = tmp_path / "raw.log"
    path.write_text("Send 500 bytes\nSend 512 bytes\n")
    return str(path)


@pytest.fixture
def labeled_file(tmp_path):
    path = tmp_path / "labeled.csv"
    rows = ["LineId,Content,EventId,EventTemplate"]
    for i in range(1, 11):
        if i % 2:
            rows.append(f"{i},job {i} started,E1,job <*> started")
        else:
            rows.append(f"{i},disk full on node{i},E2,disk full on <*>")
    path.write_text("\n".join(rows) + "\n")
    return str(path)


# -- parse -----------------------------------------------------------------

def test_parse_first_line(raw_file, capsys, tmp_path):
    single = tmp_path / "one.log"
    single.write_text("Send 500 bytes\n")
    code, out, err = run_cli(capsys, "parse", "--input", str(single))
    assert code == EXIT_OK
    assert json.loads(out.strip()) == {
        "line_no": 1, "template_id": 1, "template": "Send 500 bytes",
        "variables": [], "created_new": True}
    assert "1 messages" in err


def test_parse_update_path(raw_file, capsys):
    code, out, _ = run_cli(capsys, "parse", "--input", raw_file,
                           "--sigma", "0.5")
    assert code == EXIT_OK
    lines = [json.loads(l) for l in out.strip().splitlines()]
    assert len(lines) == 2
    assert lines[1]["template"] == "Send <*> bytes"
    assert lines[1]["variables"] == ["512"]
    assert lines[1]["template_id"] == 1


def test_parse_empty_input(tmp_path, capsys):
    empty = tmp_path / "empty.log"
    empty.write_text("")
    code, out, err = run_cli(capsys, "parse", "--input", str(empty))
    assert code == EXIT_OK
    assert out == ""
    assert "0 messages" in err


def test_parse_line_count_preserved(tmp_path, capsys):
    path = tmp_path / "mixed.log"
    path.write_text("a b\n\n   \nc d e\n")
    code, out, _ = run_cli(capsys, "parse", "--input", str(path))
    assert code == EXIT_OK
    lines = out.strip().splitlines()
    assert len(lines) == 4
    assert [json.loads(l)["line_no"] for l in lines] == [1, 2, 3, 4]


def test_parse_repeated_runs_byte_identical(raw_file, capsys):
    outputs = {run_cli(capsys, "parse", "--input", raw_file)[1]
               for _ in range(3)}
    assert len(outputs) == 1


def test_parse_unreadable_input(capsys):
    code, _, err = run_cli(capsys, "parse", "--input", "/nonexistent/x.log")
    assert code == EXIT_IO
    assert "error" in err


def test_parse_stdin_decodes_like_input_file(tmp_path):
    data = b"caf\xe9 ok\nSend 500 bytes\r\nSend \xff\xfe bytes\rlast\n"
    path = tmp_path / "latin1.log"
    path.write_bytes(data)
    cmd = [sys.executable, "-m", "ustep.cli", "parse"]
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    via_file = subprocess.run(cmd + ["--input", str(path)], env=env,
                              capture_output=True, check=True)
    via_stdin = subprocess.run(cmd, input=data, env=env,
                               capture_output=True, check=True)
    assert via_stdin.stdout == via_file.stdout
    first, *_, last = via_file.stdout.decode().splitlines()
    assert json.loads(first)["template"] == "caf\ufffd ok"
    assert json.loads(last)["template"] == "last"


def test_parse_bad_masks_file_fails_before_processing(raw_file, tmp_path,
                                                      capsys):
    masks = tmp_path / "masks.txt"
    masks.write_text("[broken\n")
    code, out, err = run_cli(capsys, "parse", "--input", raw_file,
                             "--masks", str(masks))
    assert code == EXIT_USAGE
    assert out == ""


def test_parse_snapshot_round_trip(raw_file, tmp_path, capsys):
    snap = tmp_path / "state.bin"
    code, _, _ = run_cli(capsys, "parse", "--input", raw_file,
                         "--snapshot-out", str(snap))
    assert code == EXIT_OK
    code, out, _ = run_cli(capsys, "parse", "--input", raw_file,
                           "--snapshot-in", str(snap))
    assert code == EXIT_OK
    first = json.loads(out.strip().splitlines()[0])
    assert first["template"] == "Send <*> bytes"
    assert not first["created_new"]


# -- bench -----------------------------------------------------------------

def test_bench_reports(labeled_file, capsys, tmp_path):
    timing = tmp_path / "timing.csv"
    code, out, _ = run_cli(capsys, "bench", "--input", labeled_file,
                           "--sigma", "0.5", "--phi", "8",
                           "--chunk-size", "4", "--timing-csv", str(timing))
    assert code == EXIT_OK
    rep = json.loads(out)
    assert rep["grouping"]["parsing_accuracy"] == 1.0
    assert rep["grouping"]["total_messages"] == 10
    assert len(rep["throughput"]["chunk_seconds"]) == 3
    rows = timing.read_text().strip().splitlines()
    assert rows[0] == "chunk_index,messages,seconds,cumulative_seconds"
    assert len(rows) == 4
    assert rows[3].split(",")[1] == "2"


def test_bench_single_message(tmp_path, capsys):
    path = tmp_path / "one.csv"
    path.write_text("LineId,Content,EventId\n1,hello world,E1\n")
    code, out, _ = run_cli(capsys, "bench", "--input", str(path))
    assert code == EXIT_OK
    assert json.loads(out)["grouping"]["parsing_accuracy"] == 1.0


def test_bench_missing_column(tmp_path, capsys):
    path = tmp_path / "bad.csv"
    path.write_text("LineId,Content\n1,x\n")
    code, _, err = run_cli(capsys, "bench", "--input", str(path))
    assert code == EXIT_USAGE
    assert "EventId" in err


def test_bench_matches_library_run(labeled_file, capsys):
    from ustep.evaluation import (grouping_accuracy, load_labeled_dataset,
                                  run_miner)

    code, out, _ = run_cli(capsys, "bench", "--input", labeled_file,
                           "--sigma", "0.6", "--phi", "4")
    cli_pa = json.loads(out)["grouping"]["parsing_accuracy"]
    recs = load_labeled_dataset(labeled_file)
    predicted, _, _ = run_miner(MinerConfig(sigma=0.6, phi=4),
                                [r.content for r in recs])
    assert cli_pa == grouping_accuracy(recs, predicted).parsing_accuracy


# -- sweep -----------------------------------------------------------------

def test_sweep_best_and_grid(labeled_file, tmp_path, capsys):
    grid = tmp_path / "grid.csv"
    grid.write_text("# sigma,phi\n0.3,4\n0.5,4\n0.7,8\n")
    code, out, _ = run_cli(capsys, "sweep", "--input", labeled_file,
                           "--grid", str(grid))
    assert code == EXIT_OK
    rep = json.loads(out)
    assert len(rep["results"]) == 3
    assert rep["best"]["parsing_accuracy"] == 1.0
    # ties go to earliest grid entry
    top = max(r["parsing_accuracy"] for r in rep["results"])
    first = next(r for r in rep["results"] if r["parsing_accuracy"] == top)
    assert rep["best"] == first


def test_sweep_duplicate_rows_deterministic(labeled_file, tmp_path, capsys):
    grid = tmp_path / "grid.csv"
    grid.write_text("0.5,8\n0.5,8\n")
    code, out, _ = run_cli(capsys, "sweep", "--input", labeled_file,
                           "--grid", str(grid))
    assert code == EXIT_OK
    r1, r2 = json.loads(out)["results"]
    assert r1 == r2


def test_sweep_empty_grid(labeled_file, tmp_path, capsys):
    grid = tmp_path / "grid.csv"
    grid.write_text("# nothing\n")
    code, _, err = run_cli(capsys, "sweep", "--input", labeled_file,
                           "--grid", str(grid))
    assert code == EXIT_USAGE
    assert "grid" in err


# -- stats -----------------------------------------------------------------

def test_stats_fresh_snapshot(tmp_path, capsys):
    snap = tmp_path / "fresh.bin"
    snap.write_bytes(Miner().snapshot())
    code, out, _ = run_cli(capsys, "stats", "--snapshot-in", str(snap))
    assert code == EXIT_OK
    rep = json.loads(out)
    assert rep["stats"]["node_count"] == 1
    assert rep["templates"] == []


def test_stats_after_updates(raw_file, tmp_path, capsys):
    snap = tmp_path / "state.bin"
    run_cli(capsys, "parse", "--input", raw_file,
            "--snapshot-out", str(snap))
    code, out, _ = run_cli(capsys, "stats", "--snapshot-in", str(snap))
    assert code == EXIT_OK
    rep = json.loads(out)
    assert rep["templates"] == [
        {"id": 1, "template": "Send <*> bytes", "match_count": 2}]


def test_stats_corrupt_snapshot(tmp_path, capsys):
    snap = tmp_path / "bad.bin"
    snap.write_bytes(b"\x00\x01garbage")
    code, _, err = run_cli(capsys, "stats", "--snapshot-in", str(snap))
    assert code == EXIT_SNAPSHOT
    assert "error" in err


def _split_tree_snapshot():
    """Snapshot whose length-3 leaf has split on pivot 0 into two leaves."""
    miner = Miner(MinerConfig(phi=1))
    miner.process_message("a b x")
    miner.process_message("c d y")
    return json.loads(miner.snapshot())


def _pivot_out_of_range():
    payload = _split_tree_snapshot()
    payload["tree"]["children"][0][1]["pivot"] = 7
    return json.dumps(payload).encode()


def _template_of_wrong_length():
    payload = _split_tree_snapshot()
    leaf = payload["tree"]["children"][0][1]["children"][0][1]
    leaf["templates"][0]["tokens"].pop()
    return json.dumps(payload).encode()


def _tree_100k_levels_deep():
    good = Miner().snapshot().decode()
    head, _ = good.split('"tree":')
    depth = 100_000
    tree = ('{"kind":"root","splittable":true,"children":[[1,'
            + '{"kind":"internal","splittable":true,"pivot":0,'
              '"children":[["a",' * depth
            + '{"kind":"leaf","splittable":true,"templates":[]}'
            + "]]}" * depth + "]]}")
    return (head + '"tree":' + tree + "}").encode()


@pytest.mark.parametrize("crafted", [
    _pivot_out_of_range, _template_of_wrong_length, _tree_100k_levels_deep])
def test_stats_rejects_crafted_tree(crafted, tmp_path, capsys):
    snap = tmp_path / "crafted.bin"
    snap.write_bytes(crafted())
    code, out, err = run_cli(capsys, "stats", "--snapshot-in", str(snap))
    assert code == EXIT_SNAPSHOT
    assert out == ""
    assert err.startswith("error: ") and "Traceback" not in err


def test_invalid_sigma_rejected(raw_file, capsys):
    code, _, _ = run_cli(capsys, "parse", "--input", raw_file,
                         "--sigma", "1.7")
    assert code == EXIT_USAGE
