import csv
import errno
import gc
import io
import json
import os
import random
import re
import signal
import stat
import subprocess
import sys
import tempfile
import time
from collections import Counter
from contextlib import closing, redirect_stdout
from itertools import islice
from pathlib import Path

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from synth import labels_and_tokens, replace_at
from ustep import cli, evaluation
from ustep.cli import EXIT_IO, EXIT_OK, EXIT_SNAPSHOT, EXIT_USAGE, main
from ustep.evaluation import DatasetFormatError, load_labeled_dataset
from ustep.miner import Miner, MinerConfig
from ustep.tokens import WILDCARD, compile_rules, preprocess, read_mask_rules

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


@pytest.mark.parametrize("flag", [
    ["--sigma", "0.1"], ["--phi", "2"], ["--strict-sim"], ["--masks", "m"]],
    ids=["sigma", "phi", "strict-sim", "masks"])
def test_parse_snapshot_in_refuses_miner_flags(flag, raw_file, tmp_path,
                                                capsys):
    snap = tmp_path / "state.bin"
    snap.write_bytes(Miner(MinerConfig(sigma=0.9)).snapshot())
    out_snap = tmp_path / "out.bin"
    code, out, err = run_cli(capsys, "parse", "--input", raw_file,
                             "--snapshot-in", str(snap), *flag,
                             "--snapshot-out", str(out_snap))
    assert code == EXIT_USAGE
    assert out == ""
    assert err == ("error: --snapshot-in takes the whole config from the "
                   f"snapshot; drop {flag[0]}\n")
    assert not out_snap.exists()


def in_a_directory_of_its_own(tmp_path, monkeypatch):
    """Make a new empty directory under `tmp_path` the working directory,
    and return every path under `tmp_path`.  An empty output path once put
    a temporary file in the working directory's parent."""
    (tmp_path / "cwd").mkdir()
    monkeypatch.chdir(tmp_path / "cwd")
    return sorted(tmp_path.rglob("*"))


@pytest.mark.parametrize("target", ["missing/state.bin", ".", ""],
                         ids=["missing-dir", "directory", "empty-path"])
def test_parse_refuses_an_unwritable_snapshot_out_before_reading(
        target, raw_file, tmp_path, capsys, monkeypatch):
    files = in_a_directory_of_its_own(tmp_path, monkeypatch)
    snap = str(tmp_path / target) if target else ""
    code, out, err = run_cli(capsys, "parse", "--input", raw_file,
                             "--snapshot-out", snap)
    assert code == EXIT_IO
    assert out == ""
    assert err.startswith("error: ") and str(snap) in err
    assert len(err.splitlines()) == 1
    assert sorted(tmp_path.rglob("*")) == files


def test_parse_resumes_a_snapshot_in_place(raw_file, tmp_path, capsys):
    twice = tmp_path / "twice.log"
    twice.write_text(Path(raw_file).read_text() * 2)
    one_pass = tmp_path / "one_pass.bin"
    assert run_cli(capsys, "parse", "--input", str(twice),
                   "--snapshot-out", str(one_pass))[0] == EXIT_OK
    snap = tmp_path / "state.bin"
    assert run_cli(capsys, "parse", "--input", raw_file,
                   "--snapshot-out", str(snap))[0] == EXIT_OK
    assert run_cli(capsys, "parse", "--input", raw_file, "--snapshot-in",
                   str(snap), "--snapshot-out", str(snap))[0] == EXIT_OK
    assert snap.read_bytes() == one_pass.read_bytes()


def test_parse_interrupted_while_snapshotting_keeps_the_old_snapshot(
        raw_file, tmp_path, capsys, monkeypatch):
    snap = tmp_path / "state.bin"
    assert run_cli(capsys, "parse", "--input", raw_file,
                   "--snapshot-out", str(snap))[0] == EXIT_OK
    before = snap.read_bytes()

    def interrupted(miner):
        raise KeyboardInterrupt

    monkeypatch.setattr(Miner, "snapshot", interrupted)
    with pytest.raises(KeyboardInterrupt):
        main(["parse", "--input", raw_file, "--snapshot-in", str(snap),
              "--snapshot-out", str(snap)])
    assert snap.read_bytes() == before


@pytest.mark.parametrize("target", ["missing.log", "."],
                         ids=["missing-file", "directory"])
def test_parse_an_unreadable_input_keeps_the_old_snapshot(
        target, raw_file, tmp_path, capsys):
    snap = tmp_path / "state.bin"
    assert run_cli(capsys, "parse", "--input", raw_file,
                   "--snapshot-out", str(snap))[0] == EXIT_OK
    before, files = snap.read_bytes(), sorted(tmp_path.iterdir())
    code, out, err = run_cli(capsys, "parse", "--input",
                             str(tmp_path / target), "--snapshot-out",
                             str(snap))
    assert code == EXIT_IO
    assert out == ""
    assert err.startswith("error: ") and len(err.splitlines()) == 1
    assert snap.read_bytes() == before
    assert sorted(tmp_path.iterdir()) == files


#: a child `ustep` that may write no file past 64 bytes, as on a disk that
#: fills up: a longer write fails with EFBIG
SMALL_FILES_MAIN = (
    "import resource, sys; "
    "resource.setrlimit(resource.RLIMIT_FSIZE, (64, 64)); "
    "from ustep.cli import main; sys.exit(main(sys.argv[1:]))")


@pytest.mark.parametrize("argv", [
    ["parse", "--input", "raw.log", "--snapshot-out"],
    ["bench", "--input", "labeled.csv", "--snapshot-out"],
    ["bench", "--input", "labeled.csv", "--chunk-size", "4", "--timing-csv"]],
    ids=["parse-snapshot", "bench-snapshot", "bench-timing-csv"])
def test_a_failed_write_leaves_the_old_output_whole(argv, raw_file,
                                                    labeled_file, tmp_path):
    pytest.importorskip("resource")
    target = tmp_path / "out"
    target.write_bytes(b"the old output\n")
    proc = subprocess.run(
        [sys.executable, "-c", SMALL_FILES_MAIN, *argv, str(target)],
        cwd=tmp_path, env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True, timeout=120)
    assert proc.returncode == EXIT_IO, proc.stderr
    assert proc.stderr.startswith(
        f"error: [Errno {errno.EFBIG}] {os.strerror(errno.EFBIG)}".encode())
    assert target.read_bytes() == b"the old output\n"
    assert {p.name for p in tmp_path.iterdir()} == \
        {"raw.log", "labeled.csv", "out"}


def test_bench_interrupted_while_writing_keeps_the_old_timing_csv(
        labeled_file, tmp_path, monkeypatch):
    timing = tmp_path / "timing.csv"
    timing.write_bytes(b"the old output\n")

    def interrupted(report, fh):
        fh.write("chunk_index,messages")
        raise KeyboardInterrupt

    monkeypatch.setattr(evaluation, "write_timing_csv", interrupted)
    with pytest.raises(KeyboardInterrupt):
        main(["bench", "--input", labeled_file, "--timing-csv", str(timing)])
    assert timing.read_bytes() == b"the old output\n"
    assert {p.name for p in tmp_path.iterdir()} == {"labeled.csv",
                                                    "timing.csv"}


#: each output file a command writes through `cli._replacing`
OUTPUTS = pytest.mark.parametrize("command, flag", [
    ("parse", "--snapshot-out"), ("bench", "--snapshot-out"),
    ("bench", "--timing-csv")],
    ids=["parse-snapshot", "bench-snapshot", "bench-timing-csv"])


@OUTPUTS
def test_an_output_gets_the_mode_open_would_leave(command, flag, raw_file,
                                                   labeled_file, tmp_path,
                                                   capsys):
    source = raw_file if command == "parse" else labeled_file
    old, new = tmp_path / "old.out", tmp_path / "new.out"
    old.write_bytes(b"the old output\n")
    old.chmod(0o600)
    umask = os.umask(0o027)
    try:
        for target in (old, new):
            assert run_cli(capsys, command, "--input", source, flag,
                           str(target))[0] == EXIT_OK
    finally:
        os.umask(umask)
    assert old.read_bytes() != b"the old output\n"
    assert stat.S_IMODE(old.stat().st_mode) == 0o600    # kept
    assert stat.S_IMODE(new.stat().st_mode) == 0o640    # 0o666 & ~umask


@OUTPUTS
def test_an_output_through_a_symlink_replaces_the_file_it_names(
        command, flag, raw_file, labeled_file, tmp_path, capsys):
    source = raw_file if command == "parse" else labeled_file
    (tmp_path / "real").mkdir()
    real, link = tmp_path / "real" / "out", tmp_path / "link"
    real.write_bytes(b"the old output\n")
    link.symlink_to(Path("real", "out"))
    assert run_cli(capsys, command, "--input", source, flag,
                   str(link))[0] == EXIT_OK
    assert os.readlink(link) == os.path.join("real", "out")
    assert real.read_bytes() != b"the old output\n"
    assert [p.name for p in (tmp_path / "real").iterdir()] == ["out"]


# -- parse output, pinned ---------------------------------------------------

# tests/data/parse_golden.log holds quotes, backslashes, control characters,
# U+2028, non-ASCII and non-BMP text, literal <*>, undecodable bytes, CRLF
# and lone CR.  Each parse_golden.<mode>.jsonl / .snap is the stdout and
# --snapshot-out file of `ustep parse --input parse_golden.log` plus the
# mode's flags.  Rewrite them only for a deliberate format change: files
# regenerated from the code under test would pin nothing.
GOLDEN_LOG = DATA / "parse_golden.log"
GOLDEN_MASKS = str(DATA / "parse_golden.masks")
GOLDEN_MODES = {
    "default": [],
    "masks": ["--masks", GOLDEN_MASKS],
    "strict": ["--masks", GOLDEN_MASKS, "--strict-sim"],
}


def golden(mode):
    """(stdout, --snapshot-out) bytes of the one-pass run in `mode`."""
    return tuple((DATA / f"parse_golden.{mode}.{ext}").read_bytes()
                 for ext in ("jsonl", "snap"))


@pytest.mark.parametrize("mode", GOLDEN_MODES)
def test_restored_wildcards_are_the_one_wildcard_object(mode):
    blob = (DATA / f"parse_golden.{mode}.snap").read_bytes()
    miner = Miner.restore(blob)
    labels, tokens = labels_and_tokens(miner)
    assert WILDCARD in labels and WILDCARD in tokens
    assert all(t is WILDCARD for t in labels + tokens if t == WILDCARD)
    assert miner.snapshot() == blob


# -- parse with mask workers --------------------------------------------------

#: lines the mask workers read in each chunk of `long_log`; the log ends
#: without a newline, so the caller reads its last line
CHUNKS_OF_LONG_LOG = [1036, 1002, 1002, 1002, 997, 1003, 338]


@pytest.fixture
def long_log(tmp_path, monkeypatch):
    """parse_golden.log 20 times over, 126,640 bytes, with CHUNK_BYTES set
    to 20,000: so six full chunks and a partial one, each holding
    undecodable bytes, CRLF and lone CR.  A lone CR ends a line too, so
    `parse` reads 6,381 lines: the last after the workers' chunks, and the
    rest split among them as in CHUNKS_OF_LONG_LOG."""
    monkeypatch.setattr(cli, "CHUNK_BYTES", 20_000)
    path = tmp_path / "long.log"
    path.write_bytes(GOLDEN_LOG.read_bytes() * 20)
    return str(path)


class ChunkLog:
    """What a pipelined `parse` did with its chunks: `masked` grows by the
    number of masked lines in each chunk `parse` receives, in order, and
    `started()` reads the index of each chunk a mask worker began on."""

    def __init__(self, path):
        self.path = path
        self.masked = []

    def started(self):
        return [int(i) for i in self.path.read_bytes().split()] \
            if self.path.exists() else []


@pytest.fixture
def chunk_log(monkeypatch, tmp_path_factory):
    """A ChunkLog of every pipelined `parse` in the test.  Each worker
    notes a chunk index in one write to a file opened for appending, so
    notes from two workers never mix."""
    log = ChunkLog(tmp_path_factory.mktemp("chunks") / "started")
    forked_map = cli.forked_map

    def logged(fn, items, workers):
        def started(index):
            fd = os.open(log.path, os.O_WRONLY | os.O_APPEND | os.O_CREAT)
            try:
                os.write(fd, b"%d\n" % index)
            finally:
                os.close(fd)
            return fn(index)

        with closing(forked_map(started, items, workers)) as chunks:
            for masked in chunks:
                log.masked.append(len(masked))
                yield masked

    monkeypatch.setattr(cli, "forked_map", logged)
    return log


def parse_run(capsys, tmp_path, *argv):
    """(exit code, stdout bytes, --snapshot-out bytes) of `ustep parse`."""
    snap = tmp_path / "run.snap"
    code, out, _ = run_cli(capsys, "parse", *argv, "--snapshot-out",
                           str(snap))
    blob = snap.read_bytes()
    snap.unlink()
    return code, out.encode("utf-8"), blob


@pytest.mark.parametrize("mode, cpus, chunks", [
    ("default", 1, []), ("masks", 1, []), ("strict", 1, []),
    ("masks", 3, [319]), ("strict", 3, [319])],
    ids=["default", "masks", "strict", "masks-pipelined", "strict-pipelined"])
def test_parse_matches_golden_output(mode, cpus, chunks, tmp_path, capsys,
                                     usable_cpus, chunk_log, no_child_left):
    collector_on = gc.isenabled()
    usable_cpus(cpus)
    code, out, snap = parse_run(capsys, tmp_path, "--input", str(GOLDEN_LOG),
                                *GOLDEN_MODES[mode])
    assert code == EXIT_OK
    assert (out, snap) == golden(mode)
    assert chunk_log.masked == chunks
    no_child_left()
    assert gc.isenabled() == collector_on


@pytest.mark.parametrize("mode", GOLDEN_MODES)
def test_parse_resumed_mid_stream_ends_as_the_one_pass_run(mode, tmp_path,
                                                           capsys):
    # split after the 150th "\n", as `head -n 150` does; a lone CR ends a
    # line too, so the head holds 187 of the 320 lines parse sees
    lines = GOLDEN_LOG.read_bytes().split(b"\n")
    head, rest = tmp_path / "head.log", tmp_path / "rest.log"
    head.write_bytes(b"\n".join(lines[:150]) + b"\n")
    rest.write_bytes(b"\n".join(lines[150:]))
    snap, resumed = tmp_path / "head.snap", tmp_path / "resumed.snap"
    code, out, _ = run_cli(capsys, "parse", "--input", str(head),
                           *GOLDEN_MODES[mode], "--snapshot-out", str(snap))
    assert code == EXIT_OK
    assert out.count("\n") == 187
    code, out, _ = run_cli(capsys, "parse", "--input", str(rest),
                           "--snapshot-in", str(snap),
                           "--snapshot-out", str(resumed))
    assert code == EXIT_OK
    want_out, want_snap = golden(mode)
    assert resumed.read_bytes() == want_snap

    # the resumed run numbers its lines from 1 and starts with an empty
    # exact-line memo; past line_no it prints what the one-pass run printed
    def past_line_no(jsonl):
        return [line.split(b",", 1)[1] for line in jsonl.splitlines()]

    assert past_line_no(out.encode("utf-8")) == \
        past_line_no(want_out)[187:]


@pytest.mark.parametrize("strict", [[], ["--strict-sim"]],
                         ids=["default", "strict"])
@pytest.mark.parametrize("rules", [GOLDEN_MASKS, r"\d*"],
                         ids=["golden-masks", "empty-match"])
def test_parse_pipelined_output_is_the_serial_output(
        rules, strict, long_log, tmp_path, capsys, usable_cpus, chunk_log):
    if not rules.endswith(".masks"):
        # masking again would add a wildcard beside each one already there
        masks = tmp_path / "masks.txt"
        masks.write_text(rules + "\n")
        rules = str(masks)
    argv = ("--input", long_log, "--masks", rules, *strict)
    usable_cpus(1)
    serial = parse_run(capsys, tmp_path, *argv)
    assert chunk_log.masked == []
    usable_cpus(3)
    assert parse_run(capsys, tmp_path, *argv) == serial
    assert chunk_log.masked == CHUNKS_OF_LONG_LOG
    assert serial[0] == EXIT_OK
    assert serial[1].count(b"\n") == 6381


#: 1,000 lines in 13,618 bytes: two chunks of 6,809 bytes exactly
THOUSAND_LINES = b"".join(b"at 0x%x: %d\n" % (i, i) for i in range(1000))
#: a regular file whose size reads 0 although it holds lines, on Linux
PROC_FILE = "/proc/self/mounts"


@pytest.mark.parametrize("data, chunk_bytes, chunks", [
    (b"", 200, []),                 # size 0: read serially
    # 13,618 bytes, so the file ends exactly on a chunk boundary
    (THOUSAND_LINES, 6809, [514, 486]),
    (THOUSAND_LINES + b"at 0x3e8: 1000\n", 6809, [514, 486, 1]),
    # the caller reads the line after the last b"\n" at open
    (b"a 1\nb 2", 200, [1]),
    (b"a 1\nb 2\r", 200, [1]),
    (b"a 1\n" * 999 + b"b 2\r\n\rc 3\n", 4001, [1000, 2]),
    (b"abcdefg 1\n" * 9, 25, [3, 2, 3, 1]),
    (b"abcdefg 1\n" * 5, 20, [2, 2, 1]),
    (b"a 1\r\n" * 10, 9, [2, 2, 2, 2, 1, 1]),
    ("\u00e9 1\n".encode() * 10 + b"\xff\n", 6, [2, 1, 1, 1, 1, 2, 1, 1, 1]),
    # the second line starts in chunk 0 and ends in chunk 3
    (b"a 1\n" + b"x" * 50 + b" 2\n" + b"b 3\n", 16, [2, 0, 0, 1]),
    # at the shipped size: 20,000-byte lines, at most
    # CHUNK_BYTES // 20,000 + 1 = 7 to a chunk; then the golden log
    # 60 times over, 379,920 bytes in 3 chunks
    ((b"x" * 19_997 + b" 1\n") * 40, None, [7, 7, 6, 7, 6, 7, 0]),
    (GOLDEN_LOG.read_bytes() * 60, None, [6611, 6618, 5911])],
    ids=["empty", "1000-lines", "1001-lines", "no-final-newline",
         "lone-cr-last", "cr-starts-a-chunk", "boundary-mid-line",
         "boundary-after-a-newline", "boundary-inside-a-crlf",
         "boundary-inside-utf-8", "line-over-two-chunks", "20-kb-lines",
         "shipped-chunk-size"])
def test_parse_pipelined_output_is_the_serial_output_at_the_edges(
        data, chunk_bytes, chunks, tmp_path, capsys, usable_cpus, chunk_log,
        monkeypatch):
    """`chunk_bytes` None runs at the shipped CHUNK_BYTES."""
    if chunk_bytes is not None:
        monkeypatch.setattr(cli, "CHUNK_BYTES", chunk_bytes)
    log = tmp_path / "edge.log"
    log.write_bytes(data)
    argv = ("--input", str(log), "--masks", GOLDEN_MASKS)
    usable_cpus(1)
    serial = parse_run(capsys, tmp_path, *argv)
    usable_cpus(3)
    assert parse_run(capsys, tmp_path, *argv) == serial
    assert chunk_log.masked == chunks
    assert serial[0] == EXIT_OK


def test_parse_workers_read_the_file_parse_opened(long_log, tmp_path, capsys,
                                                   usable_cpus, chunk_log,
                                                   monkeypatch):
    argv = ("--input", long_log, "--masks", GOLDEN_MASKS)
    usable_cpus(1)
    serial = parse_run(capsys, tmp_path, *argv)

    def unlinked_once_open(file, *args, **kwargs):
        opened = open(file, *args, **kwargs)
        if file == long_log:
            os.unlink(file)
        return opened

    monkeypatch.setattr(cli, "open", unlinked_once_open, raising=False)
    usable_cpus(3)
    assert parse_run(capsys, tmp_path, *argv) == serial
    assert not os.path.exists(long_log)
    assert chunk_log.masked == CHUNKS_OF_LONG_LOG


def test_parse_reads_a_growing_file_to_its_end(
        tmp_path, capsys, usable_cpus, chunk_log, monkeypatch):
    # the file ends on a chunk boundary when `parse` counts its chunks, so
    # the lines appended before the workers start begin past its last one
    monkeypatch.setattr(cli, "CHUNK_BYTES", 6809)
    log = tmp_path / "growing.log"
    log.write_bytes(THOUSAND_LINES)
    argv = ("--input", str(log), "--masks", GOLDEN_MASKS)
    forked_map = cli.forked_map

    def appended_first(fn, items, workers):
        with open(log, "ab") as fh:
            fh.write(b"late 0x1: 1\n" * 1000)
        return forked_map(fn, items, workers)

    monkeypatch.setattr(cli, "forked_map", appended_first)
    usable_cpus(3)
    pipelined = parse_run(capsys, tmp_path, *argv)
    assert chunk_log.masked == [514, 486]
    assert log.stat().st_size == len(THOUSAND_LINES) + 12_000
    usable_cpus(1)
    serial = parse_run(capsys, tmp_path, *argv)
    assert pipelined == serial
    assert serial[0] == EXIT_OK
    assert serial[1].count(b"\n") == 2000


def appended(data):
    """A change to a file: `data` written at its end."""
    def append(path):
        with path.open("ab") as fh:
            fh.write(data)
    return append


@pytest.mark.parametrize("at_open, change, chunk_bytes, chunks, lines", [
    (b"a 1\nb 2", appended(b" more 5\nc 3\n"), 200, [1],
     ["a 1", "b 2 more 5", "c 3"]),
    (b"a 1\nb 2\r", appended(b"\nc 3\n"), 200, [1],
     ["a 1", "b 2", "c 3"]),
    (THOUSAND_LINES, lambda path: os.truncate(path, 4), 6809, [1, 0],
     ["at 0"])],
    ids=["no-final-newline", "lone-cr-last", "cut-short"])
def test_parse_workers_take_the_bytes_present_at_open_and_no_more(
        at_open, change, chunk_bytes, chunks, lines, tmp_path, capsys,
        usable_cpus, chunk_log, monkeypatch):
    """The file changes once `parse` has counted its chunks.  The workers
    mask the bytes it held at open up to its last b"\\n", and the caller
    reads on from there, so a line or a CRLF still being written at open
    reads as the serial path reads it, and no byte is lost or read
    twice."""
    monkeypatch.setattr(cli, "CHUNK_BYTES", chunk_bytes)
    log = tmp_path / "changing.log"
    log.write_bytes(at_open)
    forked_map = cli.forked_map

    def changed_first(fn, items, workers):
        change(log)
        return forked_map(fn, items, workers)

    monkeypatch.setattr(cli, "forked_map", changed_first)
    usable_cpus(3)
    code, out, _ = run_cli(capsys, "parse", "--input", str(log), "--masks",
                           GOLDEN_MASKS)
    assert code == EXIT_OK
    assert chunk_log.masked == chunks
    assert out == dumps_parse(lines, read_mask_rules(GOLDEN_MASKS))


def test_parse_reads_a_file_whose_size_reads_0_to_its_end(
        tmp_path, capsys, usable_cpus, chunk_log):
    if not os.path.exists(PROC_FILE):
        pytest.skip(f"no {PROC_FILE} on this platform")
    argv = ("--input", PROC_FILE, "--masks", GOLDEN_MASKS)
    usable_cpus(1)
    serial = parse_run(capsys, tmp_path, *argv)
    usable_cpus(2)
    assert parse_run(capsys, tmp_path, *argv) == serial
    assert chunk_log.masked == []
    assert serial[0] == EXIT_OK
    assert serial[1].count(b"\n") == \
        Path(PROC_FILE).read_bytes().count(b"\n") > 0


def test_parse_hands_out_at_most_two_chunks_per_worker_ahead(
        long_log, monkeypatch, usable_cpus, chunk_log):
    usable_cpus(4)                  # still two mask workers
    monkeypatch.setattr(cli, "CHUNK_BYTES", 2000)
    ahead = []

    class Stdout:
        """Notes, per line written, the chunks workers began on beyond
        the chunk the line is in.  Writing is slower than masking, so the
        workers soon begin on every chunk handed out."""

        def write(self, text):
            ahead.append(len(chunk_log.started()) - len(chunk_log.masked))

        def flush(self):
            pass

    monkeypatch.setattr(sys, "stdout", Stdout())
    assert main(["parse", "--input", long_log, "--masks",
                 GOLDEN_MASKS]) == EXIT_OK
    assert len(ahead) == 6381
    assert max(ahead) == 2 * 2


def test_parse_stdin_stays_serial(monkeypatch, capsys, dying_workers):
    # stdin is a regular file here, and still no mask worker may run
    with open(GOLDEN_LOG, "rb") as fh:
        monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(fh))
        code, out, _ = run_cli(capsys, "parse", "--masks", GOLDEN_MASKS)
    assert code == EXIT_OK
    assert out.encode("utf-8") == \
        (DATA / "parse_golden.masks.jsonl").read_bytes()


#: files `test_mask_workers` reads, by source: only the bytes up to the
#: last b"\n" go to the workers, and the third's is 10,000 bytes back
UNTERMINATED = {"no-final-newline": b"Send 500 bytes\nSend 512",
                "no-newline": b"Send 500 bytes",
                "long-last-line": b"Send 500 bytes\n" + b"x" * 10_000}


@pytest.mark.parametrize("source, rules, cpus, want", [
    ("file", True, 1, 0), ("file", True, 2, 30), ("file", True, 3, 30),
    ("file", True, 8, 30), ("file", False, 8, 0), ("stdin", True, 8, 0),
    ("fifo", True, 8, 0), ("empty", True, 8, 0), ("proc", True, 8, 0),
    ("no-final-newline", True, 8, 15), ("no-newline", True, 8, 0),
    ("long-last-line", True, 8, 15)],
    ids=["1-cpu", "2-cpus", "3-cpus", "8-cpus", "no-mask-rules", "stdin",
         "fifo", "empty-file", "proc-file", "no-final-newline",
         "no-newline", "long-last-line"])
def test_mask_workers(source, rules, cpus, want, raw_file, tmp_path,
                      monkeypatch):
    """The bytes `parse` hands its mask workers: all 30 of `raw_file`, the
    15 up to the last b"\\n" of an unterminated file, or none, so the
    input is read serially; either way every line comes masked, in
    order."""
    monkeypatch.setattr(cli, "usable_cpus", lambda: cpus)
    handed = []
    mask_chunk = cli._mask_chunk

    def noted(rules, fd, end, index):
        handed.append(end)
        return mask_chunk(rules, fd, end, index)

    # the chunks are masked in this process, where the notes can be read
    monkeypatch.setattr(cli, "_mask_chunk", noted)
    monkeypatch.setattr(cli, "forked_map",
                        lambda fn, items, workers: (fn(i) for i in items))
    rules = compile_rules([r"\d+"] if rules else [])
    path, writer = raw_file, None
    if source == "fifo":
        if not hasattr(os, "mkfifo"):
            pytest.skip("no FIFOs on this platform")
        path = str(tmp_path / "fifo")
        os.mkfifo(path)
        # a write end, so opening the read end does not wait for a writer
        writer = os.open(path, os.O_RDWR)
        os.write(writer, Path(raw_file).read_bytes())
    elif source == "empty":
        path = str(tmp_path / "empty.log")
        Path(path).touch()
    elif source == "proc":
        path = PROC_FILE
        if not os.path.exists(path):
            pytest.skip(f"no {path} on this platform")
    elif source in UNTERMINATED:
        path = str(tmp_path / "unterminated.log")
        Path(path).write_bytes(UNTERMINATED[source])
    data = Path(raw_file if source == "fifo" else path).read_bytes()
    with open(raw_file, "rb") as fh:
        # stdin is a regular file here, and still no mask worker may run
        monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(fh))
        given = "-" if source == "stdin" else path
        with closing(cli._masked_lines(given, rules)) as lines:
            got = list(islice(lines, 1))
            if writer is not None:
                os.close(writer)    # the reader sees the end of the FIFO
            got += lines
    assert handed == ([want] if want else [])
    decoded = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8",
                               errors="replace")
    assert got == [preprocess(line.rstrip("\r\n"), rules)
                   for line in decoded]


def test_parse_reports_a_dead_mask_worker(long_log, tmp_path, capfd,
                                          dying_workers, no_child_left):
    snap = tmp_path / "out.snap"
    code = main(["parse", "--input", long_log, "--masks", GOLDEN_MASKS,
                 "--snapshot-out", str(snap)])
    _, err = capfd.readouterr()
    assert code == EXIT_IO
    assert err.startswith("error: a parse worker process died")
    assert len(err.splitlines()) == 1
    assert not snap.exists()
    assert [p.name for p in tmp_path.iterdir()] == ["long.log"]
    no_child_left()


def test_parse_stops_its_mask_workers_when_stdout_closes(
        long_log, monkeypatch, capsys, usable_cpus, chunk_log, no_child_left):
    usable_cpus(3)
    monkeypatch.setattr(cli, "CHUNK_BYTES", 2000)

    class ClosedPipe:
        written = 0

        def write(self, text):
            self.written += 1
            if self.written > 250:
                raise BrokenPipeError(32, "Broken pipe")

        def flush(self):
            pass

    monkeypatch.setattr(sys, "stdout", ClosedPipe())
    code = main(["parse", "--input", long_log, "--masks", GOLDEN_MASKS])
    assert code == EXIT_IO
    assert capsys.readouterr().err == "error: [Errno 32] Broken pipe\n"
    assert len(chunk_log.started()) <= len(chunk_log.masked) + 2 * 2
    assert len(chunk_log.masked) < 64 - 2 * 2
    no_child_left()


#: a child `ustep` that reports 2 CPUs, so a masked `parse --input FILE`
#: masks in two workers, and `sweep` forks two, on any host
TWO_CPU_MAIN = ("import os, sys; os.sched_getaffinity = lambda pid: {0, 1}; "
                "from ustep.cli import main; sys.exit(main(sys.argv[1:]))")
needs_affinity = pytest.mark.skipif(
    not hasattr(os, "sched_getaffinity"),
    reason="parse forks a mask worker only where os.sched_getaffinity exists")


def parse_both_ways(data, rules, chunk_bytes, strict=False):
    """(stdout, --snapshot-out bytes) of `parse` on a file of the raw bytes
    `data` under the mask `rules`, with `--strict-sim` if `strict`: read
    serially, then, with `rules`, by two mask workers in chunks of
    `chunk_bytes`."""
    with tempfile.TemporaryDirectory() as tmp, \
            pytest.MonkeyPatch.context() as patch:
        raw = Path(tmp, "raw.log")
        raw.write_bytes(data)
        masks = Path(tmp, "masks.txt")
        masks.write_text("".join(rule + "\n" for rule in rules))
        patch.setattr(cli, "CHUNK_BYTES", chunk_bytes)
        runs = []
        for cpus in (1, 2):
            patch.setattr(os, "sched_getaffinity",
                          lambda pid, n=cpus: set(range(n)))
            snap = Path(tmp, f"{cpus}.snap")
            out = io.StringIO()
            with redirect_stdout(out):
                code = main(["parse", "--input", str(raw), "--masks",
                             str(masks), "--snapshot-out", str(snap)]
                            + ["--strict-sim"] * strict)
            assert code == EXIT_OK
            runs.append((out.getvalue(), snap.read_bytes()))
    return runs


def dumps_parse(lines, rules, strict=False):
    """What `parse` prints for the raw `lines`: each `process_message`
    result as `json.dumps(fields, separators=(",", ":"))` writes it."""
    miner = Miner(MinerConfig(mask_rules=rules, strict_wildcard_sim=strict))
    want = []
    for n, line in enumerate(lines, 1):
        result = miner.process_message(line)
        fields = {"line_no": n, "template_id": result.template_id,
                  "template": result.template_text,
                  "variables": result.variables,
                  "created_new": result.created_new}
        want.append(json.dumps(fields, separators=(",", ":")) + "\n")
    return "".join(want)


@needs_affinity
@settings(max_examples=50, deadline=None)
# U+2028 ends a line for str.splitlines but not for parse
@given(st.lists(st.sampled_from([b"a", b"1", b" ", b"\r", b"\n",
                                 "\u00e9".encode(), "\u2028".encode(),
                                 b"\xff"]),
                max_size=80).map(b"".join),
       st.integers(1, 64))
def test_parse_pipelined_output_is_the_serial_output_at_any_chunk_size(
        data, chunk_bytes):
    serial, pipelined = parse_both_ways(data, read_mask_rules(GOLDEN_MASKS),
                                        chunk_bytes)
    assert pipelined == serial


# lines whose tokens JSON must escape, and that merge into templates
hostile_token = st.one_of(
    st.sampled_from(['"q"', "a\\b", "<*>", "x<*>", "caf\u00e9", "\U0001f600",
                     "a\u2028b", "\x07", "\x00", "\x7f", "7", "42", "x"]),
    st.text(st.characters(exclude_categories=("Cs",),
                          exclude_characters="\r\n"),
            min_size=1, max_size=4))
hostile_line = st.lists(hostile_token, max_size=4).map(" ".join)


@needs_affinity
@settings(max_examples=60, deadline=None)
@given(st.lists(hostile_line, max_size=20), st.booleans(),
       st.integers(1, 64))
def test_parse_line_is_compact_json_dumps(lines, masked, chunk_bytes):
    rules = [r"\d+"] if masked else []
    data = "".join(line + "\n" for line in lines).encode()
    serial, pipelined = parse_both_ways(data, rules, chunk_bytes)
    assert serial[0] == dumps_parse(lines, rules)
    assert pipelined == serial


# a few lines of a few tokens, drawn over and over: so lines repeat
# exactly, and widen the templates of earlier repeats, in most streams
short_line = st.lists(st.sampled_from(["a", "b", "7"]), min_size=3,
                      max_size=3).map(" ".join)


@needs_affinity
@settings(max_examples=150, deadline=None)
@given(st.lists(short_line, min_size=2, max_size=5).flatmap(
           lambda pool: st.lists(st.sampled_from(pool), min_size=8,
                                 max_size=40)),
       st.integers(1, 64), st.booleans())
def test_parse_repeats_and_widenings_are_compact_json_dumps(lines,
                                                            chunk_bytes,
                                                            strict):
    # in strict mode a line that misses only at wildcards merges turning
    # no position, and the cached tails stay
    data = "".join(line + "\n" for line in lines).encode()
    serial, pipelined = parse_both_ways(data, [r"\d+"], chunk_bytes, strict)
    assert serial[0] == dumps_parse(lines, [r"\d+"], strict)
    assert pipelined == serial


@needs_affinity
def test_parse_builds_a_result_only_for_a_line_it_has_no_tail_for(
        monkeypatch):
    rng = random.Random(23)
    pool = ["open file 1 ok", "open file <*> ok", "open dir 2 ok",
            "open <*> <*> ok", "close 3", "close <*>", ""]
    lines = [rng.choice(pool) for _ in range(300)]
    rules = [r"\d+"]
    # a line gets a tail once the memo holds it, and loses it with the memo
    twin = Miner(MinerConfig(mask_rules=rules))
    untailed = 0
    for line in lines:
        untailed += preprocess(line, twin._rules) not in twin._exact
        twin.process_message(line)
    assert 0 < untailed < len(lines) // 2
    structured = []
    structure = Miner._structure
    monkeypatch.setattr(Miner, "_structure", lambda self, masked: (
        structured.append(self) or structure(self, masked)))
    data = "".join(line + "\n" for line in lines).encode()
    serial, pipelined = parse_both_ways(data, rules, 256)
    # one count per parse run: serial, then with two mask workers
    assert list(Counter(structured).values()) == [untailed, untailed]
    monkeypatch.undo()
    assert serial == (dumps_parse(lines, rules), twin.snapshot())
    assert pipelined == serial


@pytest.mark.parametrize("cpus", [1, 3], ids=["serial", "pipelined"])
def test_parse_writes_a_repeat_of_a_widened_template_anew(
        cpus, tmp_path, capsys, usable_cpus, chunk_log, monkeypatch):
    monkeypatch.setattr(cli, "CHUNK_BYTES", 16)
    log = tmp_path / "raw.log"
    log.write_text("open file 1 ok\n" * 3 + "open dir 2 ok\n"
                   "open file 1 ok\n" + "open 3 4 ok\n" * 2)
    masks = tmp_path / "masks.txt"
    masks.write_text("\\d+\n")
    usable_cpus(cpus)
    code, out, _ = run_cli(capsys, "parse", "--input", str(log), "--masks",
                           str(masks))
    assert code == EXIT_OK
    assert (chunk_log.masked != []) == (cpus > 1)
    rows = [json.loads(line) for line in out.splitlines()]
    fields = [(r["template"], r["variables"], r["created_new"])
              for r in rows]
    first = ("open file <*> ok", ["<*>"])
    widened = "open <*> <*> ok"
    assert fields == [
        (*first, True), (*first, False), (*first, False),
        (widened, ["dir", "<*>"], False),
        # the line of the first three, now under the widened template
        (widened, ["file", "<*>"], False),
        # lines that are the widened template's text
        (widened, ["<*>", "<*>"], False), (widened, ["<*>", "<*>"], False)]
    assert {r["template_id"] for r in rows} == {1}
    assert out == dumps_parse(log.read_text().splitlines(), [r"\d+"])


@needs_affinity
@pytest.mark.parametrize("mode, stdin", [
    ("default", True), ("masks", True), ("strict", True),
    ("masks", False), ("strict", False)],
    ids=["default-stdin", "masks-stdin", "strict-stdin", "masks-input",
         "strict-input"])
def test_parse_in_dev_mode_with_warnings_as_errors_prints_one_stderr_line(
        mode, stdin, tmp_path):
    # a warning raised where it cannot propagate, such as a ResourceWarning
    # for an unclosed file, exits 0 and shows only as more stderr
    snap = tmp_path / "out.snap"
    argv = [*GOLDEN_MODES[mode], "--snapshot-out", str(snap)]
    if not stdin:
        argv = ["--input", str(GOLDEN_LOG), *argv]
    proc = subprocess.run(
        [sys.executable, "-X", "dev", "-W", "error", "-c", TWO_CPU_MAIN,
         "parse", *argv],
        input=GOLDEN_LOG.read_bytes() if stdin else b"",
        env={**os.environ, "PYTHONPATH": str(SRC)}, capture_output=True,
        timeout=120)
    assert proc.returncode == EXIT_OK, proc.stderr
    assert (proc.stdout, snap.read_bytes()) == golden(mode)
    assert re.fullmatch(rb"parsed 320 messages \| \d+ templates \| \d+ nodes"
                        rb" \| \d+\.\d{3}s\n", proc.stderr), proc.stderr


@pytest.mark.skipif(os.name != "posix", reason="closes a descriptor in sh")
@pytest.mark.parametrize("argv, closed", [
    ([], "<&-"), (["--input", str(GOLDEN_LOG)], ">&-")],
    ids=["stdin", "stdout"])
def test_parse_with_stdin_or_stdout_closed_prints_one_error_line(
        argv, closed, tmp_path):
    # Python sets sys.stdin or sys.stdout to None for a descriptor closed
    # at start
    name = "stdin" if closed == "<&-" else "stdout"
    proc = subprocess.run(
        ["sh", "-c", f'exec "$@" {closed}', "sh", sys.executable, "-m",
         "ustep.cli", "parse", *argv, "--masks", GOLDEN_MASKS,
         "--snapshot-out", str(tmp_path / "out.snap")],
        env={**os.environ, "PYTHONPATH": str(SRC)}, capture_output=True,
        timeout=60)
    assert proc.returncode == EXIT_IO, proc.stderr
    assert proc.stderr == \
        f"error: [Errno {errno.EBADF}] {name} is closed\n".encode()
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv", [
    ["parse", "--input", "x"], ["bench", "--input", "x"],
    ["sweep", "--input", "x", "--grid", "y"], ["stats", "--snapshot-in", "z"]],
    ids=["parse", "bench", "sweep", "stats"])
def test_every_command_refuses_a_closed_stdout_before_it_reads(
        argv, monkeypatch, capsys):
    # none of the files named exists, so reading any of them fails
    monkeypatch.setattr(sys, "stdout", None)
    code = main(argv)
    assert code == EXIT_IO
    assert capsys.readouterr().err == \
        f"error: [Errno {errno.EBADF}] stdout is closed\n"


@needs_affinity
def test_ctrl_c_gives_one_traceback_from_a_pipelined_parse(long_log):
    # the handler a terminal's foreground job has: Python keeps a SIGINT
    # it starts with ignored (a runner started with `&` or under nohup),
    # and the child would then parse to the end and exit 0
    interruptible = ("import signal; signal.signal(signal.SIGINT, "
                     "signal.default_int_handler); " + TWO_CPU_MAIN)
    proc = subprocess.Popen(
        [sys.executable, "-c", interruptible, "parse", "--input", long_log,
         "--masks", GOLDEN_MASKS],
        env={**os.environ, "PYTHONPATH": str(SRC)}, stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, start_new_session=True)
    # a line out means a chunk came back from a worker; the child then
    # blocks on the full pipe, so it is still running when interrupted,
    # and its one worker (long_log is one chunk of the child's
    # CHUNK_BYTES) waits idle for more once it has masked it (a worker
    # stopped in the middle of a chunk would hand the interrupt back
    # quietly)
    assert proc.stdout.readline().startswith(b'{"line_no":1,')
    time.sleep(0.5)
    os.killpg(proc.pid, signal.SIGINT)      # as Ctrl-C signals a terminal
    _, err = proc.communicate(timeout=60)
    why = f"exit {proc.returncode}, stderr:\n{err.decode(errors='replace')}"
    assert proc.returncode == -signal.SIGINT, why
    assert err.count(b"Traceback") == 1, why
    assert err.rstrip().endswith(b"KeyboardInterrupt"), why


def test_ctrl_c_leaves_the_pool_modules_unloaded():
    # a fresh interpreter, so that no other test has loaded them
    program = (
        "import sys, ustep.cli\n"
        "def interrupted(args):\n"
        "    raise KeyboardInterrupt\n"
        "ustep.cli.cmd_parse = interrupted\n"
        "try:\n"
        "    ustep.cli.main(['parse'])\n"
        "except KeyboardInterrupt:\n"
        "    print(sorted({'concurrent.futures.process', 'multiprocessing'}\n"
        "                 & set(sys.modules)))\n")
    proc = subprocess.run([sys.executable, "-c", program],
                          env={**os.environ, "PYTHONPATH": str(SRC)},
                          capture_output=True, timeout=60)
    assert (proc.returncode, proc.stdout) == (0, b"[]\n"), proc.stderr


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


@pytest.mark.parametrize("flag, target", [
    ("--snapshot-out", "missing/out"), ("--timing-csv", "missing/out"),
    ("--snapshot-out", "."), ("--timing-csv", "."),
    ("--snapshot-out", ""), ("--timing-csv", "")],
    ids=["--snapshot-out", "--timing-csv", "--snapshot-out-directory",
         "--timing-csv-directory", "--snapshot-out-empty-path",
         "--timing-csv-empty-path"])
def test_bench_refuses_an_unwritable_output_before_the_run(
        flag, target, labeled_file, tmp_path, capsys, monkeypatch):
    def run_miner(*args, **kwargs):
        pytest.fail("bench ran the miner before checking its outputs")

    monkeypatch.setattr(evaluation, "run_miner", run_miner)
    files = in_a_directory_of_its_own(tmp_path, monkeypatch)
    path = str(tmp_path / target) if target else ""
    code, out, err = run_cli(capsys, "bench", "--input", labeled_file,
                             flag, path)
    assert code == EXIT_IO
    assert out == ""
    assert err.startswith("error: ") and str(path) in err
    assert len(err.splitlines()) == 1
    assert sorted(tmp_path.rglob("*")) == files


def test_bench_snapshot_out_holds_the_streamed_templates(labeled_file,
                                                         tmp_path, capsys):
    snap = tmp_path / "bench.snap"
    assert run_cli(capsys, "bench", "--input", labeled_file, "--phi", "2",
                   "--chunk-size", "3", "--snapshot-out", str(snap))[0] \
        == EXIT_OK
    streamed = Miner(MinerConfig(phi=2))
    for record in load_labeled_dataset(labeled_file):
        streamed.process_message(record.content)
    assert Miner.restore(snap.read_bytes()).templates() == \
        streamed.templates()
    code, out, _ = run_cli(capsys, "stats", "--snapshot-in", str(snap))
    assert code == EXIT_OK
    assert [(t["id"], t["template"], t["match_count"])
            for t in json.loads(out)["templates"]] == streamed.templates()


def test_bench_csv_format(labeled_file, capsys):
    code, out, err = run_cli(capsys, "bench", "--input", labeled_file,
                             "--chunk-size", "4", "--format", "csv")
    assert code == EXIT_OK
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["chunk_index", "messages", "seconds",
                       "cumulative_seconds"]
    assert [row[:2] for row in rows[1:]] == [["0", "4"], ["1", "4"],
                                              ["2", "2"]]
    assert err == "parsing_accuracy=1.000000\n"


def test_bench_single_message(tmp_path, capsys):
    path = tmp_path / "one.csv"
    path.write_text("LineId,Content,EventId\n1,hello world,E1\n")
    code, out, _ = run_cli(capsys, "bench", "--input", str(path))
    assert code == EXIT_OK
    assert json.loads(out)["grouping"]["parsing_accuracy"] == 1.0


def test_bench_and_sweep_read_a_csv_with_a_byte_order_mark(
        labeled_file, tmp_path, capsys):
    path = tmp_path / "bom.csv"
    path.write_bytes(b"\xef\xbb\xbf" + Path(labeled_file).read_bytes())
    grid = tmp_path / "grid.csv"
    grid.write_text("0.5,8\n")
    assert load_labeled_dataset(path) == load_labeled_dataset(labeled_file)
    code, out, _ = run_cli(capsys, "bench", "--input", str(path))
    assert code == EXIT_OK
    assert json.loads(out)["grouping"]["parsing_accuracy"] == 1.0
    want = run_cli(capsys, "sweep", "--input", labeled_file,
                   "--grid", str(grid))
    assert want[0] == EXIT_OK
    assert run_cli(capsys, "sweep", "--input", str(path),
                   "--grid", str(grid)) == want


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
    pytest.param("2,a 1,E1,extra", id="extra_field"),
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


@pytest.mark.parametrize("line", ["abc,3", "0.5,x", "0.5", "0.5,8,1",
                                  "2.0,3", "0.5,0", "nan,4"])
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


def test_sweep_skips_a_grid_header_line(labeled_file, tmp_path, capsys):
    grid = tmp_path / "grid.csv"
    grid.write_text("sigma,phi\n0.5,8\n")
    code, out, _ = run_cli(capsys, "sweep", "--input", labeled_file,
                           "--grid", str(grid))
    assert code == EXIT_OK
    assert [(r["sigma"], r["phi"]) for r in json.loads(out)["results"]] == \
        [(0.5, 8)]


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


@needs_affinity
def test_sweep_in_dev_mode_with_warnings_as_errors_prints_nothing_to_stderr(
        labeled_file, tmp_path, capsys, usable_cpus):
    grid = tmp_path / "grid.csv"
    grid.write_text("0.3,4\n0.5,4\n0.7,8\n0.9,2\n")
    argv = ["sweep", "--input", labeled_file, "--grid", str(grid)]
    usable_cpus(2)
    code, out, _ = run_cli(capsys, *argv)
    assert code == EXIT_OK
    # a leaked pipe shows as a ResourceWarning, and a fork in a process
    # that runs threads as a DeprecationWarning on Python 3.12 and later
    proc = subprocess.run(
        [sys.executable, "-X", "dev", "-W", "error", "-c", TWO_CPU_MAIN,
         *argv], env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True, timeout=120)
    assert (proc.returncode, proc.stderr) == (EXIT_OK, b""), proc.stderr
    assert proc.stdout.decode("utf-8") == out


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
    code, out, err = run_cli(capsys, "sweep", "--input", labeled_file,
                             "--grid", str(grid))
    assert code == EXIT_USAGE
    assert out == ""
    assert err == "error: empty hyperparameter grid\n"


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


@pytest.mark.parametrize("argv, want", [
    ([], EXIT_USAGE),
    (["frobnicate"], EXIT_USAGE),
    (["parse", "--phi", "x"], EXIT_USAGE),
    (["--help"], EXIT_OK),
], ids=["no-arguments", "unknown-command", "bad-phi", "help"])
def test_argument_errors_exit_1_and_help_exits_0(argv, want, capsys):
    code, out, err = run_cli(capsys, *argv)
    assert code == want
    if want == EXIT_OK:
        assert out.startswith("usage: ustep")
    else:
        assert "error:" in err
