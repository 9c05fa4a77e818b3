#!/usr/bin/env python3
"""Tune and score the miner on the public loghub 2k corpora.

Expects a data directory laid out as <Name>/<Name>_2k.log_structured.csv
(the loghub convention).  For each dataset this sweeps a sigma/phi grid
with the dataset's mask rules from scripts/masks/, then prints per-dataset
accuracy and the cross-dataset robustness summary as JSON.

Usage: python3 scripts/run_loghub.py --data-dir DATA [--out report.json]
"""

import argparse
import contextlib
import json
import sys
from dataclasses import asdict
from pathlib import Path

from ustep.cli import _replacing
from ustep.evaluation import (DatasetFormatError, load_labeled_dataset,
                              robustness_stats, sweep)
from ustep.tokens import read_mask_rules

DATASETS = ["Apache", "BGL", "Hadoop", "HDFS", "HPC", "Mac",
            "OpenSSH", "OpenStack", "Thunderbird", "Zookeeper"]
MASK_DIR = Path(__file__).resolve().parent / "masks"
GRID = [(s / 10, p) for s in range(3, 9) for p in (2, 4, 6, 8, 12, 16)]


def _report(found):
    """The best grid point of each dataset in `found`, and the summary."""
    per_dataset = {}
    for name, path in found.items():
        records = load_labeled_dataset(path)
        masks = MASK_DIR / f"{name}.txt"
        rules = read_mask_rules(masks) if masks.exists() else []
        best, _ = sweep(records, GRID, mask_rules=rules)
        per_dataset[name] = best
        print(f"{name:12s} PA={best['parsing_accuracy']:.3f} "
              f"(sigma={best['sigma']}, phi={best['phi']})", file=sys.stderr)
    values = [b["parsing_accuracy"] for b in per_dataset.values()]
    return {
        "per_dataset": per_dataset,
        "robustness": asdict(robustness_stats(values)),
        "mean_pa": sum(values) / len(values),
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--data-dir", required=True)
    ap.add_argument("--out", help="also write the JSON report here")
    args = ap.parse_args()

    data_dir = Path(args.data_dir)
    found = {}
    for name in DATASETS:
        path = data_dir / name / f"{name}_2k.log_structured.csv"
        if path.exists():
            found[name] = path
        else:
            print(f"skipping {name}: {path} not found", file=sys.stderr)
    if not found:
        print("no datasets found", file=sys.stderr)
        return 1
    # the report replaces --out only once it is whole; a path that cannot
    # be written is refused before the sweep
    try:
        with contextlib.ExitStack() as stack:
            try:
                out = stack.enter_context(
                    _replacing(args.out, "w", encoding="utf-8"))
            except OSError as exc:
                ap.error(f"--out: {exc}")
            text = json.dumps(_report(found), indent=2)
            if out:
                out.write(text + "\n")
    except DatasetFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
