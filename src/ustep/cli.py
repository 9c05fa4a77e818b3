"""Command-line front end: parse, bench, sweep, and stats workflows.

`parse` and `stats` load neither the evaluation harness nor `csv` and
`dataclasses`: `bench` and `sweep` import them when they run."""

import argparse
import errno
import io
import json
import os
import stat
import sys
import tempfile
import time
from contextlib import closing, contextmanager
from functools import partial
from json.encoder import encode_basestring_ascii

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


def _mask_rules(args):
    """The rules of the --masks file, or none without one."""
    return read_mask_rules(args.masks) if args.masks else []


def _build_config(args):
    """The flags' config; MinerConfig's defaults fill the flags not given."""
    given = {name: value for name, value in (("sigma", args.sigma),
                                              ("phi", args.phi))
             if value is not None}
    return MinerConfig(mask_rules=_mask_rules(args),
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
    `end` is just past one (`_masked_lines`), so a worker finds both of
    its ends by reading a few KiB at each, and reads no other chunk.  It
    reads with `os.pread`, which leaves the descriptor's offset alone, so
    the workers share the one descriptor the caller opened.  A chunk is
    decoded as the caller decodes a file: it ends just after a b"\\n"."""
    start, stop = (min(_line_start(fd, i * CHUNK_BYTES), end)
                   for i in (index, index + 1))
    # stop is below start only if the file is cut short between the searches
    chunk = io.BytesIO(os.pread(fd, max(stop - start, 0), start))
    lines = io.TextIOWrapper(chunk, encoding="utf-8", errors="replace")
    return [preprocess(line.rstrip("\r\n"), rules) for line in lines]


def _masked_lines(path, rules):
    """Each line of the file `path` names, or of stdin for "-", as the
    compiled mask `rules` leave it, in input order, as `process_message`
    masks it; undecodable bytes become U+FFFD.

    Two forked processes, or one for a single chunk, mask the chunks of the
    file's bytes up to the last b"\\n" it holds at open ahead of the caller
    (`_mask_chunk`), so a last line still being written is left whole to
    the caller.  The caller masks the lines from there on as it reads them,
    so a file that grows is read to its end.  On 2 vCPUs a worker spends
    about three and a half times as long masking a line as the caller
    spends on the rest, so two keep both CPUs busy where one left them
    partly idle; more CPUs, unmeasured, get two as well.  No worker runs,
    so each line of a pipe, FIFO or tty is yielded as soon as it is read,
    unless there are mask rules (without them a worker made `parse`
    slower), the input is a regular file named by path, not stdin, and at
    least 2 CPUs are usable; an empty file, one under /proc, or one with no
    b"\\n" is read serially too.

    A stdin closed when the process started, which Python leaves None, is
    an OSError.  Stdin's buffer is detached from the reader at the end, not
    closed with it, so the process can still use its stdin."""
    stdin = path == "-"
    if stdin and sys.stdin is None:
        raise OSError(errno.EBADF, "stdin is closed")
    binary = sys.stdin.buffer if stdin else open(path, "rb")
    reader = io.TextIOWrapper(binary, encoding="utf-8", errors="replace")
    try:
        end = 0
        if rules and not stdin and usable_cpus() >= 2:
            fd = reader.fileno()
            info = os.fstat(fd)
            if stat.S_ISREG(info.st_mode):
                end = _line_end(fd, info.st_size)
        if end:
            masker = partial(_mask_chunk, rules, fd, end)
            with closing(forked_map(masker, range(-(-end // CHUNK_BYTES)),
                                    2)) as masked:
                for lines in masked:
                    yield from lines
            reader.seek(end)
        for line in reader:
            yield preprocess(line.rstrip("\r\n"), rules)
    finally:
        if stdin:
            reader.detach()
        else:
            reader.close()


def _json_tail(result, quote=encode_basestring_ascii):
    """What follows `"line_no":N,` in `parse`'s JSON line for `result`."""
    return (f'"template_id":{result.template_id},"template":'
            f'{quote(result.template_text)},"variables":'
            f'[{",".join(map(quote, result.variables))}],"created_new":'
            f'{"true" if result.created_new else "false"}}}\n')


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
        write = sys.stdout.write
        start = time.perf_counter()
        n = 0
        with closing(_masked_lines(args.input, miner._rules)) as lines:
            for n, tail in enumerate(miner._stream(lines, _json_tail), 1):
                write(f'{{"line_no":{n},{tail}')
        if snapshot_out:
            snapshot_out.write(miner.snapshot())
    elapsed = time.perf_counter() - start
    print(f"parsed {n} messages | {miner.stats.template_count} templates | "
          f"{miner.stats.node_count} nodes | {elapsed:.3f}s", file=sys.stderr)
    return EXIT_OK


def cmd_bench(args):
    from dataclasses import asdict

    from .evaluation import (
        grouping_accuracy,
        load_labeled_dataset,
        run_miner,
        write_timing_csv,
    )
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
    import csv

    from .evaluation import load_labeled_dataset, sweep
    records = load_labeled_dataset(args.input)
    grid = _read_grid(args.grid)
    best, results = sweep(records, grid, mask_rules=_mask_rules(args),
                          strict=bool(args.strict_sim))
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
        "stats": miner.stats._asdict(),
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

    def add_rule_flags(p):
        # default None, so `parse --snapshot-in` can tell a flag given
        p.add_argument("--strict-sim", dest="strict_sim", action="store_true",
                       default=None,
                       help="template wildcards only match masked tokens")
        p.add_argument("--masks", help="mask-rules file, one regex per line")

    def add_miner_flags(p):
        p.add_argument("--sigma", type=float,
                       help="similarity threshold in [0,1] (default 0.5)")
        p.add_argument("--phi", type=int,
                       help="leaf capacity before splitting (default 8)")
        add_rule_flags(p)

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
    add_rule_flags(p)
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
    except Exception as exc:
        # Ctrl-C and SystemExit pass by: `broken_pool()` imports the pool
        if not isinstance(exc, broken_pool()):
            raise
        print(f"error: a {args.command} worker process died: {exc}",
              file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
