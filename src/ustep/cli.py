"""Command-line front end: parse, bench, sweep, and stats workflows."""

import argparse
import csv
import io
import json
import os
import re
import stat
import sys
import tempfile
import time
from contextlib import closing, contextmanager
from dataclasses import asdict
from json.encoder import encode_basestring_ascii

from .evaluation import (
    grouping_accuracy,
    load_labeled_dataset,
    run_miner,
    sweep,
    write_timing_csv,
)
from .miner import Miner, MinerConfig, SnapshotError
from .tokens import preprocess, read_mask_rules
from .workers import broken_pool, forked_map, usable_cpus

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_IO = 2
EXIT_SNAPSHOT = 3

#: raw lines, each ended by b"\n", in a chunk that a `parse` mask worker
#: reads and masks at a time; 2,000 with two workers raised the calling
#: process's peak RSS, 1,000 lowers it
CHUNK_LINES = 1000


def _read_grid(path):
    """CSV-ish grid file of sigma,phi pairs; '#' comments allowed.  A line
    that is no valid miner config is an error naming the file and line."""
    grid = []
    with open(path, encoding="utf-8") as fh:
        for number, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = [p.strip() for p in line.replace(";", ",").split(",")]
            if parts == ["sigma", "phi"]:
                continue
            try:
                sigma, phi = parts
                point = float(sigma), int(phi)
                MinerConfig(*point)
                grid.append(point)
            except ValueError as exc:
                raise ValueError(f"{path}: line {number}: bad grid line "
                                 f"{line!r}: {exc}") from exc
    return grid


@contextmanager
def _open_input(path):
    """Raw lines from a file or stdin; undecodable bytes become U+FFFD.

    Stdin's buffer is detached from the reader on exit, not closed with it,
    so the process can still use its stdin."""
    stdin = path == "-"
    binary = sys.stdin.buffer if stdin else open(path, "rb")
    reader = io.TextIOWrapper(binary, encoding="utf-8", errors="replace")
    try:
        yield reader
    finally:
        if stdin:
            reader.detach()
        else:
            reader.close()


def _build_config(args):
    """The flags' config; MinerConfig's defaults fill the flags not given."""
    given = {name: value for name, value in (("sigma", args.sigma),
                                              ("phi", args.phi))
             if value is not None}
    rules = read_mask_rules(args.masks) if args.masks else []
    return MinerConfig(mask_rules=rules,
                       strict_wildcard_sim=bool(args.strict_sim), **given)


@contextmanager
def _replacing(path, mode="wb", **kwargs):
    """A new file, open in `mode`, that replaces `path` once the block ends
    normally; None if no path is given.

    The file is created at once, in `path`'s directory, so an output that
    cannot be written fails before any input is read.  On every other exit
    it is removed and `path` is left as it was: an error, Ctrl-C, a dead
    worker or a full disk never cut the old file short, so `parse
    --snapshot-in s --snapshot-out s` keeps its resume state."""
    if path is None:
        yield None
        return
    try:
        fd, temp = tempfile.mkstemp(prefix=f".{os.path.basename(path)}.",
                                    dir=os.path.dirname(path) or ".")
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, path) from None
    try:
        umask = os.umask(0)
        os.umask(umask)
        os.fchmod(fd, 0o666 & ~umask)   # the mode `open` creates a file with
        with open(fd, mode, **kwargs) as fh:
            yield fh
        os.replace(temp, path)
    except BaseException:
        os.unlink(temp)
        raise


def _mask_lines(rules, lines):
    """A chunk of input lines, each without its line end and masked."""
    return [preprocess(line.rstrip("\r\n"), rules) for line in lines]


def _mask_workers(miner, path, reader):
    """How many worker processes `parse` masks its input in: two when the
    miner has mask rules, the input is a regular file given by path, not
    stdin, and at least 2 CPUs are usable; otherwise none, so that each
    line of a pipe, FIFO or tty is written as soon as it is read.  The
    workers read chunks of lines from `reader`'s file and mask them ahead
    of the calling process, which tokenizes, matches and writes every
    line.  On 2 vCPUs masking costs a worker about twice the CPU time per
    line that the calling process spends, so one worker left a CPU partly
    idle and two keep both busy.  More CPUs than 2 were not measured, so
    they get two workers too.  Without mask rules a worker made `parse`
    slower."""
    if not miner.config.mask_rules or path == "-" \
            or not stat.S_ISREG(os.fstat(reader.fileno()).st_mode):
        return 0
    return 2 if usable_cpus() >= 2 else 0


class _ChunkMasker:
    """In a `parse` mask worker, the masked lines of chunk `index` of the
    file open at `fd`, and whether that chunk is full.

    A chunk is CHUNK_LINES raw lines, each ended by b"\\n", so a worker
    finds where a chunk ends without decoding it, and skips the chunks the
    other workers take.  It reads with `os.pread` from its own offset, not
    the descriptor's, so the workers share the one descriptor the caller
    opened.  Each chunk is decoded as `_open_input` decodes a whole file:
    a line end never falls inside a UTF-8 sequence, and a CR that ends a
    chunk's last line is part of its CRLF.  A worker's indices rise, as
    all workers take them in turn from one pipe."""

    def __init__(self, rules, fd):
        self.rules = rules
        self.fd = fd
        self.chunk = re.compile(rb"(?:[^\n]*\n){%d}" % CHUNK_LINES)
        self.index = 0              # the chunk that starts the buffer
        self.offset = 0             # the file offset where that chunk starts
        self.buffer = bytearray()

    def _end(self):
        """Where the chunk at the start of the buffer ends, reading more
        of the file as needed, and whether that chunk is full."""
        while not (full := self.chunk.match(self.buffer)):
            # read as much again as is held, so a chunk of long lines is
            # scanned a few times, not once per read
            more = os.pread(self.fd, max(1 << 20, len(self.buffer)),
                            self.offset + len(self.buffer))
            if not more:
                return len(self.buffer), False
            self.buffer += more
        return full.end(), True

    def _drop(self, end):
        del self.buffer[:end]
        self.offset += end
        self.index += 1

    def __call__(self, index):
        end, full = self._end()
        while self.index < index and full:
            self._drop(end)
            end, full = self._end()
        if self.index < index:      # the input ended before this chunk
            return [], False
        chunk = io.BytesIO(self.buffer[:end])
        self._drop(end)
        reader = io.TextIOWrapper(chunk, encoding="utf-8", errors="replace")
        return _mask_lines(self.rules, reader), full


def _parse_results(miner, reader, workers):
    """`miner`'s result for each line of `reader`, in input order.  With
    workers, forked processes read and mask chunks of lines ahead of the
    miner, which structures each masked line as `process_message` would.
    The first chunk that is not full ends the input, so a file that grows
    during the run still gives a whole prefix of it."""
    if not workers:
        for line in reader:
            yield miner.process_message(line.rstrip("\r\n"))
        return
    masker = _ChunkMasker(miner._rules, reader.fileno())
    with closing(forked_map(masker, range(sys.maxsize), workers)) as chunks:
        for masked, full in chunks:
            yield from map(miner._structure, masked)
            if not full:
                return


def cmd_parse(args):
    """One compact JSON object per input line, written as
    `json.dumps(fields, separators=(",", ":"))` would write it."""
    with _replacing(args.snapshot_out) as snapshot_out:
        if args.snapshot_in:
            given = [flag for flag, value in (
                ("--sigma", args.sigma), ("--phi", args.phi),
                ("--strict-sim", args.strict_sim), ("--masks", args.masks))
                if value is not None]
            if given:
                raise ValueError("--snapshot-in takes the whole config from "
                                 f"the snapshot; drop {', '.join(given)}")
            with open(args.snapshot_in, "rb") as fh:
                miner = Miner.restore(fh.read())
        else:
            miner = Miner(_build_config(args))
        quote = encode_basestring_ascii
        write = sys.stdout.write
        start = time.perf_counter()
        n = 0
        with _open_input(args.input) as fh, closing(_parse_results(
                miner, fh, _mask_workers(miner, args.input, fh))) as results:
            for n, result in enumerate(results, 1):
                write(f'{{"line_no":{n},"template_id":{result.template_id},'
                      f'"template":{quote(result.template_text)},"variables":'
                      f'[{",".join(map(quote, result.variables))}],'
                      '"created_new":'
                      f'{"true" if result.created_new else "false"}}}\n')
        if snapshot_out:
            snapshot_out.write(miner.snapshot())
    elapsed = time.perf_counter() - start
    print(f"parsed {n} messages | {miner.stats.template_count} templates | "
          f"{miner.stats.node_count} nodes | {elapsed:.3f}s", file=sys.stderr)
    return EXIT_OK


def cmd_bench(args):
    with _replacing(args.snapshot_out) as snapshot_out, \
            _replacing(args.timing_csv, "w", newline="",
                       encoding="utf-8") as timing_csv:
        records = load_labeled_dataset(args.input)
        cfg = _build_config(args)
        lines = [r.content for r in records]
        predicted, timing, miner = run_miner(cfg, lines, args.chunk_size,
                                             dataset_name=args.input)
        grouping = grouping_accuracy(records, predicted,
                                     dataset_name=args.input)
        if snapshot_out:
            snapshot_out.write(miner.snapshot())
        if timing_csv:
            write_timing_csv(timing, timing_csv)
    if args.format == "csv":
        write_timing_csv(timing, sys.stdout)
        print(f"parsing_accuracy={grouping.parsing_accuracy:.6f}",
              file=sys.stderr)
    else:
        print(json.dumps({
            "grouping": asdict(grouping),
            "throughput": asdict(timing),
        }, indent=2))
    return EXIT_OK


def cmd_sweep(args):
    records = load_labeled_dataset(args.input)
    grid = _read_grid(args.grid)
    rules = read_mask_rules(args.masks) if args.masks else []
    best, results = sweep(records, grid, mask_rules=rules,
                          strict=args.strict_sim)
    if args.format == "csv":
        writer = csv.writer(sys.stdout)
        writer.writerow(["sigma", "phi", "parsing_accuracy"])
        for res in results:
            writer.writerow([res["sigma"], res["phi"],
                             f"{res['parsing_accuracy']:.6f}"])
        print(f"best: sigma={best['sigma']} phi={best['phi']} "
              f"pa={best['parsing_accuracy']:.6f}", file=sys.stderr)
    else:
        print(json.dumps({"best": best, "results": results}, indent=2))
    return EXIT_OK


def cmd_stats(args):
    with open(args.snapshot_in, "rb") as fh:
        miner = Miner.restore(fh.read())
    print(json.dumps({
        "stats": asdict(miner.stats),
        "templates": [
            {"id": tid, "template": text, "match_count": count}
            for tid, text, count in miner.templates()
        ],
    }, indent=2))
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="ustep",
        description="Streaming log template miner and evaluation harness.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_miner_flags(p):
        p.add_argument("--sigma", type=float,
                       help="similarity threshold in [0,1] (default 0.5)")
        p.add_argument("--phi", type=int,
                       help="leaf capacity before splitting (default 8)")
        p.add_argument("--strict-sim", dest="strict_sim", action="store_true",
                       default=None,
                       help="template wildcards only match masked tokens")
        p.add_argument("--masks", help="mask-rules file, one regex per line")

    p = sub.add_parser("parse", help="structure raw lines to JSON results")
    add_miner_flags(p)
    p.add_argument("--input", default="-", help="raw line file or - for stdin")
    p.add_argument("--snapshot-in", help="resume from a snapshot file")
    p.add_argument("--snapshot-out", help="write miner state on exit")
    p.set_defaults(func=cmd_parse)

    p = sub.add_parser("bench", help="score a labeled CSV corpus")
    add_miner_flags(p)
    p.add_argument("--input", required=True, help="labeled structured CSV")
    p.add_argument("--chunk-size", type=int, default=1000)
    p.add_argument("--timing-csv", help="write per-chunk timings here")
    p.add_argument("--snapshot-out", help="write miner state on exit")
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("sweep", help="grid-search sigma/phi over a corpus")
    p.add_argument("--input", required=True, help="labeled structured CSV")
    p.add_argument("--grid", required=True,
                   help="grid file of sigma,phi pairs")
    p.add_argument("--masks", help="mask-rules file, one regex per line")
    p.add_argument("--strict-sim", dest="strict_sim", action="store_true")
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("stats", help="inspect a snapshot file")
    p.add_argument("--snapshot-in", required=True)
    p.set_defaults(func=cmd_stats)

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_OK
    try:
        return args.func(args)
    except SnapshotError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SNAPSHOT
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except broken_pool() as exc:
        print(f"error: a {args.command} worker process died: {exc}",
              file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
