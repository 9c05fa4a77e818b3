"""Command-line front end: parse, bench, sweep, and stats workflows."""

import argparse
import csv
import errno
import io
import json
import os
import stat
import sys
import tempfile
import time
from contextlib import closing, contextmanager
from dataclasses import asdict
from functools import partial
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

#: bytes of the input file whose lines a `parse` mask worker reads and
#: masks at a time: about 900 of parse-steady's lines.  A chunk bounded in
#: bytes, not lines, bounds a worker's memory whatever the line length
CHUNK_BYTES = 1 << 17


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
    so the process can still use its stdin.  A stdin closed when the
    process started, which Python leaves None, is an OSError."""
    stdin = path == "-"
    if stdin and sys.stdin is None:
        raise OSError(errno.EBADF, "stdin is closed")
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
    """A new file, open in `mode`, that replaces the file `path` names
    once the block ends normally; None if no path is given.

    The file is created at once beside the file `path` names, through any
    symlink, so an output that cannot be written, or a directory, fails
    before any input is read; its permission bits are those `open` would
    leave.  On every other exit it is removed and `path` is left as it
    was: an error, Ctrl-C, a dead worker or a full disk never cut the old
    file short, so `parse --snapshot-in s --snapshot-out s` keeps its
    resume state."""
    if path is None:
        yield None
        return
    if not path:
        raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), path)
    if os.path.isdir(path):
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
    target = os.path.realpath(path)
    try:
        fd, temp = tempfile.mkstemp(prefix=f".{os.path.basename(target)}.",
                                    dir=os.path.dirname(target))
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, path) from None
    try:
        with open(fd, mode, **kwargs) as fh:
            try:
                bits = stat.S_IMODE(os.stat(target).st_mode)
            except FileNotFoundError:
                umask = os.umask(0)
                os.umask(umask)
                bits = 0o666 & ~umask
            os.fchmod(fd, bits)
            yield fh
        os.replace(temp, target)
    except BaseException:
        os.unlink(temp)
        raise


def _mask_bytes(miner, path, reader):
    """How many bytes at the start of `reader`'s file `parse` masks in
    worker processes (`_mask_chunk`): those up to the last b"\\n" the file
    holds at open, so a last line still being written is left whole to
    the caller.  0, so each line of a pipe, FIFO or tty is written as soon
    as it is read, unless there are mask rules (without them a worker made
    `parse` slower), the input is a regular file given by path, not stdin,
    and at least 2 CPUs are usable; an empty file, one under /proc, or one
    with no b"\\n" gives 0 too."""
    if miner.config.mask_rules and path != "-" and usable_cpus() >= 2:
        fd = reader.fileno()
        info = os.fstat(fd)
        if stat.S_ISREG(info.st_mode):
            return _line_end(fd, info.st_size)
    return 0


def _line_end(fd, size):
    """Just past the last b"\\n" in the first `size` bytes of the file open
    at `fd`, or 0 if there is none, found by reading a few KiB at a time
    backwards with `os.pread`."""
    while size:
        start = max(size - 4096, 0)
        found = os.pread(fd, size - start, start).rfind(b"\n")
        if found >= 0:
            return start + found + 1
        size = start
    return 0


def _line_start(fd, offset):
    """Where the first line that starts at or after `offset` starts in the
    file open at `fd`: 0 for offset 0, else just after the first b"\\n" at
    or after `offset - 1`, found by reading a few KiB at a time with
    `os.pread`; past the end of the file if no line starts there."""
    if not offset:
        return 0
    while window := os.pread(fd, 4096, offset - 1):
        if (found := window.find(b"\n")) >= 0:
            return offset + found
        offset += len(window)
    return offset


def _mask_chunk(rules, fd, end, index):
    """A mask worker's masked lines of chunk `index` of the first `end`
    bytes of the file at `fd`.

    Chunk `index` holds the lines that start in bytes [index * CHUNK_BYTES,
    (index + 1) * CHUNK_BYTES) of the file, each up to its b"\\n", and
    `end` is just past one (`_mask_bytes`), so a worker finds both of its
    ends by reading a few KiB at each, and reads no other chunk.  It reads
    with `os.pread`, which leaves the descriptor's offset alone, so the
    workers share the one descriptor the caller opened.  A chunk is decoded
    as `_open_input` decodes a whole file: it ends just after a b"\\n"."""
    start, stop = (min(_line_start(fd, i * CHUNK_BYTES), end)
                   for i in (index, index + 1))
    # stop is below start only if the file is cut short between the searches
    chunk = io.BytesIO(os.pread(fd, max(stop - start, 0), start))
    lines = io.TextIOWrapper(chunk, encoding="utf-8", errors="replace")
    return [preprocess(line.rstrip("\r\n"), rules) for line in lines]


def _masked_lines(miner, reader, end):
    """Each line of `reader` as `miner`'s mask rules leave it, in input
    order, as `process_message` masks it.  Two forked processes mask the
    chunks of the first `end` bytes ahead of the caller (`_mask_chunk`),
    and the caller masks the lines from there on as it reads them, so a
    file that grows is read to its end.  On 2 vCPUs a worker spends about
    three and a half times as long masking a line as the caller spends on
    the rest, so two keep both CPUs busy where one left them partly idle;
    more CPUs, unmeasured, get two as well."""
    rules = miner._rules
    if end:
        masker = partial(_mask_chunk, rules, reader.fileno(), end)
        with closing(forked_map(masker, range(-(-end // CHUNK_BYTES)),
                                2)) as masked:
            for lines in masked:
                yield from lines
        reader.seek(end)
    for line in reader:
        yield preprocess(line.rstrip("\r\n"), rules)


def cmd_parse(args):
    """One compact JSON object per input line, written as
    `json.dumps(fields, separators=(",", ":"))` would write it.

    What follows `"line_no":N,` is kept in `tails` for a line the miner's
    exact-line memo holds: a line that is the text of the template it
    merged into, unchanged.  Its variables are that template's wildcards,
    so while the tree and templates stay as they are, the text depends on
    the masked line alone.  `tails` is replaced whenever the miner
    replaces its memo, which it does on every change to the tree or a
    template, creation included, and a line whose own call replaced the
    memo is not kept.  So `tails` holds no stale text, and no line the
    memo does not hold."""
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
        structure = miner._structure
        memo, tails = miner._exact, {}
        start = time.perf_counter()
        n = 0
        with _open_input(args.input) as fh, closing(_masked_lines(
                miner, fh, _mask_bytes(miner, args.input, fh))) as lines:
            for n, masked in enumerate(lines, 1):
                result = structure(masked)
                tail = tails.get(masked)
                if tail is None:
                    tail = (f'"template_id":{result.template_id},"template":'
                            f'{quote(result.template_text)},"variables":'
                            f'[{",".join(map(quote, result.variables))}],'
                            '"created_new":'
                            f'{"true" if result.created_new else "false"}}}\n')
                    if miner._exact is not memo:
                        memo, tails = miner._exact, {}
                    elif masked == result.template_text:
                        tails[masked] = tail
                write(f'{{"line_no":{n},{tail}')
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
        # every command writes its result to stdout, which Python leaves
        # None when the process starts with it closed
        if sys.stdout is None:
            raise OSError(errno.EBADF, "stdout is closed")
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
