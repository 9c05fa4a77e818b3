import csv
import io
import json
import os
import subprocess
import sys
import tempfile
from contextlib import redirect_stdout
from pathlib import Path

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from synth import replace_at
from ustep.cli import EXIT_IO, EXIT_OK, EXIT_SNAPSHOT, EXIT_USAGE, main
from ustep.evaluation import DatasetFormatError, load_labeled_dataset
from ustep.miner import Miner, MinerConfig
from ustep.tokens import WILDCARD

SRC = Path(__file__).resolve().parent.parent / "src"
DATA = Path(__file__).resolve().parent / "data"


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


def test_parse_leaves_stdin_open(monkeypatch, capsys):
    stdin = io.BytesIO(b"Send 500 bytes\nSend 512 bytes\n")
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(stdin))
    first = run_cli(capsys, "parse")
    stdin.seek(0)
    second = run_cli(capsys, "parse")
    assert first[0] == second[0] == EXIT_OK
    assert first[1] == second[1] != ""


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


# -- parse output, pinned ---------------------------------------------------

# tests/data/parse_golden.log holds quotes, backslashes, control characters,
# U+2028, non-ASCII and non-BMP text, literal <*>, undecodable bytes, CRLF
# and lone CR.  Each parse_golden.<mode>.jsonl / .snap is the stdout and
# --snapshot-out file of `ustep parse --input parse_golden.log` plus the
# mode's flags.  Rewrite them only for a deliberate format change: files
# regenerated from the code under test would pin nothing.
GOLDEN_MODES = {
    "default": [],
    "masks": ["--masks", str(DATA / "parse_golden.masks")],
    "strict": ["--masks", str(DATA / "parse_golden.masks"), "--strict-sim"],
}


@pytest.mark.parametrize("mode", GOLDEN_MODES)
def test_parse_matches_golden_output(mode, tmp_path, capsys):
    snap = tmp_path / "state.bin"
    code, out, _ = run_cli(capsys, "parse", "--input",
                           str(DATA / "parse_golden.log"),
                           *GOLDEN_MODES[mode], "--snapshot-out", str(snap))
    assert code == EXIT_OK
    assert out.encode("utf-8") == \
        (DATA / f"parse_golden.{mode}.jsonl").read_bytes()
    assert snap.read_bytes() == \
        (DATA / f"parse_golden.{mode}.snap").read_bytes()


@pytest.mark.parametrize("mode", GOLDEN_MODES)
def test_restored_wildcards_are_the_one_wildcard_object(mode):
    blob = (DATA / f"parse_golden.{mode}.snap").read_bytes()
    miner = Miner.restore(blob)
    labels, stack = [], list(miner.root.children.values())
    while stack:
        node = stack.pop()
        if node.templates is None:
            labels += node.children
            stack += node.children.values()
    tokens = [t for leaf in miner.iter_leaves() for tpl in leaf.templates
              for t in tpl.tokens]
    assert WILDCARD in labels and WILDCARD in tokens
    assert all(t is WILDCARD for t in labels + tokens if t == WILDCARD)
    assert miner.snapshot() == blob


# lines whose tokens JSON must escape, and that merge into templates
hostile_token = st.one_of(
    st.sampled_from(['"q"', "a\\b", "<*>", "x<*>", "caf\u00e9", "\U0001f600",
                     "a\u2028b", "\x07", "\x00", "\x7f", "7", "42", "x"]),
    st.text(st.characters(exclude_categories=("Cs",),
                          exclude_characters="\r\n"),
            min_size=1, max_size=4))
hostile_line = st.lists(hostile_token, max_size=4).map(" ".join)


@settings(max_examples=60, deadline=None)
@given(st.lists(hostile_line, max_size=20), st.booleans())
def test_parse_line_is_compact_json_dumps(lines, masked):
    rules = [r"\d+"] if masked else []
    with tempfile.TemporaryDirectory() as tmp:
        raw = Path(tmp, "raw.log")
        raw.write_bytes("".join(line + "\n" for line in lines).encode())
        masks = Path(tmp, "masks.txt")
        masks.write_text("".join(rule + "\n" for rule in rules))
        out = io.StringIO()
        with redirect_stdout(out):
            code = main(["parse", "--input", str(raw), "--masks", str(masks)])
    assert code == EXIT_OK
    miner = Miner(MinerConfig(mask_rules=rules))
    want = []
    for n, line in enumerate(lines, 1):
        result = miner.process_message(line)
        fields = {"line_no": n, "template_id": result.template_id,
                  "template": result.template_text,
                  "variables": result.variables,
                  "created_new": result.created_new}
        want.append(json.dumps(fields, separators=(",", ":")) + "\n")
    assert out.getvalue() == "".join(want)


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


@pytest.mark.parametrize("row", [
    pytest.param(f"2,{'x' * (csv.field_size_limit() + 1)},E1",
                 id="oversized_field"),
    pytest.param("2,short", id="missing_field"),
])
def test_bench_and_sweep_reject_an_unreadable_csv_row(row, tmp_path, capsys):
    path = tmp_path / "bad.csv"
    path.write_text(f"LineId,Content,EventId\n1,ok,E1\n{row}\n")
    grid = tmp_path / "grid.csv"
    grid.write_text("0.5,8\n")
    with pytest.raises(DatasetFormatError, match="row 2"):
        load_labeled_dataset(path)
    for argv in (["bench", "--input", str(path)],
                 ["sweep", "--input", str(path), "--grid", str(grid)]):
        code, out, err = run_cli(capsys, *argv)
        assert code == EXIT_USAGE
        assert out == ""
        assert err.startswith(f"error: {path}: row 2")


def test_bench_and_sweep_name_the_row_of_a_non_integer_line_id(
        tmp_path, capsys):
    path = tmp_path / "bad.csv"
    path.write_text("LineId,Content,EventId\n1,ok,E1\nx,no,E1\n")
    grid = tmp_path / "grid.csv"
    grid.write_text("0.5,8\n")
    with pytest.raises(DatasetFormatError, match="row 2 .*'x'"):
        load_labeled_dataset(path)
    for argv in (["bench", "--input", str(path)],
                 ["sweep", "--input", str(path), "--grid", str(grid)]):
        code, out, err = run_cli(capsys, *argv)
        assert code == EXIT_USAGE
        assert out == ""
        assert err.startswith(f"error: {path}: row 2 (line 3): LineId 'x'")


@pytest.mark.parametrize("line", ["abc,3", "0.5,x", "0.5", "0.5,8,1"])
def test_sweep_names_the_file_and_line_of_a_bad_grid_line(
        line, labeled_file, tmp_path, capsys):
    grid = tmp_path / "grid.csv"
    grid.write_text(f"# sigma,phi\n0.5,8\n\n{line}\n")
    code, out, err = run_cli(capsys, "sweep", "--input", labeled_file,
                             "--grid", str(grid))
    assert code == EXIT_USAGE
    assert out == ""
    assert err.startswith(f"error: {grid}: line 4: bad grid line {line!r}")


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


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_sweep_output_is_the_same_serial_and_forked(
        fmt, labeled_file, tmp_path, capsys, usable_cpus):
    grid = tmp_path / "grid.csv"
    grid.write_text("0.3,4\n0.5,4\n0.7,8\n0.9,2\n")
    runs = []
    for cpus in (1, 4):
        usable_cpus(cpus)
        runs.append(run_cli(capsys, "sweep", "--input", labeled_file,
                            "--grid", str(grid), "--format", fmt))
    serial, forked = runs
    assert serial[0] == EXIT_OK
    assert forked == serial


def test_sweep_reports_a_dead_worker(labeled_file, tmp_path, capfd,
                                     dying_workers):
    grid = tmp_path / "grid.csv"
    grid.write_text("0.3,4\n0.5,4\n")
    code = main(["sweep", "--input", labeled_file, "--grid", str(grid)])
    out, err = capfd.readouterr()
    assert code == EXIT_IO
    assert out == ""
    assert err.startswith("error: a sweep worker process died")
    assert len(err.splitlines()) == 1


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
    """Snapshot whose length-3 leaf has split on pivot 0 into two leaves.

    Its nodes are root, the length-3 node and leaves "a" and "c"; its
    templates are id 1 ("a b x") and id 2 ("c d y"), in that order.
    """
    miner = Miner(MinerConfig(phi=1))
    miner.process_message("a b x")
    miner.process_message("c d y")
    return json.loads(miner.snapshot())


def _with(*changes):
    """Crafts the split-tree snapshot with each (path, value) set in it."""
    def crafted():
        payload = _split_tree_snapshot()
        for path, value in changes:
            replace_at(payload, path, value)
        return json.dumps(payload).encode()
    return crafted


def _pivot_out_of_range():
    return _with((("nodes", 1, 2), 7))()


def _template_of_wrong_length():
    return _with((("templates", 0, 2), "a b"))()


def _tree_100k_levels_deep():
    payload = _split_tree_snapshot()
    depth = 100_000
    payload["nodes"] = ([[-1, None, None], [0, 1, 0]]
                        + [[i, "a", 0] for i in range(1, depth)]
                        + [[depth, "a", None]])
    payload["templates"] = []
    payload["messages_processed"] = 0
    return json.dumps(payload).encode()


_V1_SNAPSHOT = (
    b'{"magic":"ustep-snapshot","version":1,"config":{"sigma":0.5,"phi":1,'
    b'"mask_rules":[],"strict_wildcard_sim":false},"next_template_id":3,'
    b'"stats":{"node_count":4,"template_count":2,"messages_processed":2,'
    b'"splits_performed":1,"max_depth":2},"tree":{"kind":"root",'
    b'"splittable":true,"children":[[3,{"kind":"internal","splittable":true,'
    b'"pivot":0,"children":[["a",{"kind":"leaf","splittable":true,'
    b'"templates":[{"id":1,"tokens":["a","b","x"],"match_count":1}]}],'
    b'["c",{"kind":"leaf","splittable":true,"templates":[{"id":2,'
    b'"tokens":["c","d","y"],"match_count":1}]}]]}]]}}')

_V2_SNAPSHOT = (
    b'{"magic":"ustep-snapshot","version":2,"config":{"sigma":0.5,"phi":1,'
    b'"mask_rules":[],"strict_wildcard_sim":false},"messages_processed":2,'
    b'"nodes":[[-1,null,null,true],[0,3,0,true],[1,"a",null,true],'
    b'[1,"c",null,true]],"templates":[[2,1,"a b x",1],[3,2,"c d y",1]]}')


@pytest.mark.parametrize("crafted", [
    _pivot_out_of_range, _template_of_wrong_length, _tree_100k_levels_deep,
    pytest.param(lambda: _V1_SNAPSHOT, id="v1_snapshot"),
    pytest.param(lambda: _V2_SNAPSHOT, id="v2_snapshot"),
    pytest.param(_with((("nodes", 0), [0, None, None])),
                 id="root_not_first"),
    pytest.param(_with((("nodes", 2, 0), 3)), id="parent_not_earlier"),
    pytest.param(_with((("nodes", 3, 0), 2)), id="parent_is_leaf"),
    pytest.param(_with((("nodes",), [
        [-1, None, None], [0, 3, 0], [1, "a", None], [0, 2, None],
        [1, "c", None]]),
        (("templates", 1, 0), 4)), id="parent_off_the_path"),
    pytest.param(_with((("nodes", 2, 0), True)), id="bool_parent"),
    pytest.param(_with((("nodes", 1, 1), -1)), id="negative_length"),
    pytest.param(_with((("nodes", 1, 1), "3")), id="string_length"),
    pytest.param(_with((("nodes", 2, 1), 5)), id="int_label"),
    pytest.param(_with((("nodes", 3, 1), "a")), id="duplicate_label"),
    pytest.param(_with((("nodes", 1, 2), -1)), id="negative_pivot"),
    pytest.param(_with((("nodes", 1, 2), 0.5)), id="float_pivot"),
    pytest.param(_with((("nodes", 2, 2), 0)), id="pivot_repeated_on_path"),
    pytest.param(_with((("nodes", 2), [1, "a"])), id="short_node"),
    pytest.param(_with((("nodes", 2), [1, "a", None, True])),
                 id="four_field_node"),
    pytest.param(_with((("templates", 0, 0), 1)), id="template_on_inner"),
    pytest.param(_with((("templates", 0, 1), "x")), id="string_id"),
    pytest.param(_with((("templates", 0, 1), 3)), id="id_above_count"),
    pytest.param(_with((("templates", 0, 1), 0)), id="id_zero"),
    pytest.param(_with((("templates", 0, 1), 2)), id="repeated_id"),
    pytest.param(_with((("templates",), [[2, 2, "a b x", 1],
                                         [2, 1, "a b y", 1]])),
                 id="ids_descend_in_leaf"),
    pytest.param(_with((("templates",), [[2, 1, "a b x", 1],
                                         [2, 2, "a b y", 1],
                                         [2, 3, "a b z", 1]]),
                       (("messages_processed",), 3)),
                 id="leaf_over_phi_plus_one"),
    pytest.param(_with((("templates", 0, 3), 0)), id="zero_match_count"),
    pytest.param(_with((("templates", 0, 2), 5)), id="int_template_text"),
    pytest.param(_with((("templates", 0, 2), ["a", "b", "x"])),
                 id="token_list_text"),
    pytest.param(_with((("messages_processed",), "2")),
                 id="string_messages_processed"),
    pytest.param(_with((("messages_processed",), 3)),
                 id="messages_processed_not_match_total"),
    pytest.param(_with((("config", "sigma"), 5)), id="sigma_above_one"),
    pytest.param(_with((("config", "phi"), 0)), id="phi_zero"),
    pytest.param(_with((("config", "mask_rules"), ["("])),
                 id="bad_mask_rule"),
    pytest.param(_with((("config", "mask_rules"), ["a{4294967296}"])),
                 id="overflowing_mask_rule"),
    pytest.param(_with((("config", "sigma"), "x")), id="string_sigma"),
    pytest.param(_with((("config", "sigma"), True)), id="bool_sigma"),
    pytest.param(_with((("config", "phi"), 2.5)), id="float_phi"),
    pytest.param(_with((("config", "phi"), True)), id="bool_phi"),
    pytest.param(_with((("config", "mask_rules"), "ab")),
                 id="string_mask_rules"),
    pytest.param(_with((("config", "mask_rules"), {"": None})),
                 id="dict_mask_rules"),
    pytest.param(_with((("config", "strict_wildcard_sim"), "no")),
                 id="string_strict_wildcard_sim"),
    pytest.param(_with((("config", "colour"), "red")), id="unknown_config"),
])
def test_stats_rejects_crafted_tree(crafted, tmp_path, capsys):
    snap = tmp_path / "crafted.bin"
    snap.write_bytes(crafted())
    code, out, err = run_cli(capsys, "stats", "--snapshot-in", str(snap))
    assert code == EXIT_SNAPSHOT
    assert out == ""
    assert err.startswith("error: ") and "Traceback" not in err


def test_deep_tree_snapshot_round_trip(tmp_path, capsys):
    n = 1200
    lines = [" ".join("b" if j == i else "a" for j in range(n))
             for i in range(n)]
    raw = tmp_path / "chain.log"
    raw.write_text("\n".join(lines) + "\n")
    snap = tmp_path / "chain.bin"
    code, _, _ = run_cli(capsys, "parse", "--input", str(raw), "--sigma",
                         "0.9999", "--phi", "1", "--snapshot-out", str(snap))
    assert code == EXIT_OK
    original = Miner(MinerConfig(sigma=0.9999, phi=1))
    for line in lines:
        original.process_message(line)
    assert original.stats.max_depth == n
    assert snap.read_bytes() == original.snapshot()
    restored = Miner.restore(snap.read_bytes())
    assert restored.stats == original.stats
    assert restored.templates() == original.templates()
    for line in lines[::100] + [line.replace("b", "c") for line in lines[:3]]:
        assert restored.process_message(line) == original.process_message(line)
    code, out, _ = run_cli(capsys, "stats", "--snapshot-in", str(snap))
    assert code == EXIT_OK
    assert json.loads(out)["stats"]["max_depth"] == n


def test_invalid_sigma_rejected(raw_file, capsys):
    code, _, _ = run_cli(capsys, "parse", "--input", raw_file,
                         "--sigma", "1.7")
    assert code == EXIT_USAGE
