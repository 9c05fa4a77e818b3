"""Command-line front end: parse, bench, sweep, and stats workflows."""

import argparse
import csv
import io
import json
import sys
import time
from contextlib import contextmanager
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
from .tokens import read_mask_rules

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_IO = 2
EXIT_SNAPSHOT = 3


def _read_grid(path):
    """CSV-ish grid file of sigma,phi pairs; '#' comments allowed."""
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
                grid.append((float(sigma), int(phi)))
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
    rules = read_mask_rules(args.masks) if args.masks else []
    return MinerConfig(sigma=args.sigma, phi=args.phi, mask_rules=rules,
                       strict_wildcard_sim=args.strict_sim)


def _load_miner(args):
    if args.snapshot_in:
        with open(args.snapshot_in, "rb") as fh:
            return Miner.restore(fh.read())
    return Miner(_build_config(args))


def _maybe_write_snapshot(miner, args):
    if args.snapshot_out:
        with open(args.snapshot_out, "wb") as fh:
            fh.write(miner.snapshot())


def cmd_parse(args):
    """One compact JSON object per input line, written as
    `json.dumps(fields, separators=(",", ":"))` would write it."""
    miner = _load_miner(args)
    quote = encode_basestring_ascii
    write = sys.stdout.write
    start = time.perf_counter()
    n = 0
    with _open_input(args.input) as fh:
        for line in fh:
            result = miner.process_message(line.rstrip("\r\n"))
            n += 1
            write(f'{{"line_no":{n},"template_id":{result.template_id},'
                  f'"template":{quote(result.template_text)},'
                  f'"variables":[{",".join(map(quote, result.variables))}],'
                  f'"created_new":{"true" if result.created_new else "false"}'
                  '}\n')
    _maybe_write_snapshot(miner, args)
    elapsed = time.perf_counter() - start
    print(f"parsed {n} messages | {miner.stats.template_count} templates | "
          f"{miner.stats.node_count} nodes | {elapsed:.3f}s", file=sys.stderr)
    return EXIT_OK


def cmd_bench(args):
    records = load_labeled_dataset(args.input)
    cfg = _build_config(args)
    lines = [r.content for r in records]
    predicted, timing, miner = run_miner(cfg, lines, args.chunk_size,
                                         dataset_name=args.input)
    grouping = grouping_accuracy(records, predicted, dataset_name=args.input)
    _maybe_write_snapshot(miner, args)
    if args.timing_csv:
        with open(args.timing_csv, "w", newline="", encoding="utf-8") as fh:
            write_timing_csv(timing, fh)
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
    if not grid:
        print("error: empty hyperparameter grid", file=sys.stderr)
        return EXIT_USAGE
    rules = read_mask_rules(args.masks) if args.masks else []
    from concurrent.futures.process import BrokenProcessPool
    try:
        best, results = sweep(records, grid, mask_rules=rules,
                              strict=args.strict_sim, dataset_name=args.input)
    except BrokenProcessPool as exc:
        print(f"error: a sweep worker process died: {exc}", file=sys.stderr)
        return EXIT_IO
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
        p.add_argument("--sigma", type=float, default=0.5,
                       help="similarity threshold in [0,1] (default 0.5)")
        p.add_argument("--phi", type=int, default=8,
                       help="leaf capacity before splitting (default 8)")
        p.add_argument("--strict-sim", dest="strict_sim", action="store_true",
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
    p.set_defaults(func=cmd_bench, snapshot_in=None)

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


if __name__ == "__main__":
    sys.exit(main())
