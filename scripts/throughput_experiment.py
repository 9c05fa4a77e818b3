#!/usr/bin/env python3
"""Measure processing speed on a large synthetic stream.

Generates lines cyclically from a fixed population of templates and
records per-chunk wall time, writing a CSV with cumulative timings for
speed-curve plots.

Usage: python3 scripts/throughput_experiment.py [--lines N] [--templates K]
           [--chunk-size N] [--out timings.csv]
"""

import argparse
import sys

from ustep.evaluation import run_miner, synthetic_stream, write_timing_csv
from ustep.miner import MinerConfig
from ustep.tokens import ConfigError


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--lines", type=int, default=1_000_000)
    ap.add_argument("--templates", type=int, default=200)
    ap.add_argument("--chunk-size", type=int, default=10_000)
    ap.add_argument("--sigma", type=float, default=0.5)
    ap.add_argument("--phi", type=int, default=8)
    ap.add_argument("--out", default="timings.csv")
    args = ap.parse_args()
    for name in ("lines", "templates", "chunk_size"):
        if getattr(args, name) < 1:
            ap.error(f"--{name.replace('_', '-')} must be >= 1")

    try:
        cfg = MinerConfig(sigma=args.sigma, phi=args.phi)
    except ConfigError as exc:
        ap.error(str(exc))
    # opened before the run, so a path that cannot be written costs no run
    try:
        fh = open(args.out, "w", newline="")
    except OSError as exc:
        ap.error(f"--out: {exc}")
    with fh:
        report = run_miner(cfg, synthetic_stream(args.lines, args.templates),
                           args.chunk_size, dataset_name="synthetic")[1]
        write_timing_csv(report, fh)
    rate = report.total_messages / report.total_seconds
    print(f"{report.total_messages} messages in {report.total_seconds:.2f}s "
          f"({rate:,.0f} msg/s); timings written to {args.out}",
          file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
