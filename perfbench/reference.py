#!/usr/bin/env python3
"""Reference outputs for a workload, from a frozen copy of the algorithm.

`RefMiner` restates, without any optimisation, the behaviour of the
package's miner when this benchmark was written: length-keyed root,
pivot-keyed internal nodes with a wildcard fallback, strict `> sigma`
merging with ties to the lowest id, and a split on the most diverse
position once a leaf holds more than `phi` templates.  It never imports
the package, so the expected outputs stay fixed while the package changes.

Run as a script it writes the expected outputs of one workload and seed
as JSON; the benchmark runs it in a child process so that its memory does
not count towards the measured process's peak RSS.

Usage: python3 perfbench/reference.py --workload NAME --seed N --out FILE
           [--tiny]
"""

import argparse
import hashlib
import json
import re
from collections import defaultdict

import generate

WILDCARD_TEXT = "<*>"


class RefMiner:
    """Frozen reference miner; a wildcard token is `None`."""

    def __init__(self, sigma, phi, mask_rules=()):
        self.sigma = sigma
        self.phi = phi
        self.rules = [re.compile(r) for r in mask_rules]
        self.root = {}
        self.next_id = 1

    def tokens(self, raw):
        for rule in self.rules:
            raw = rule.sub(WILDCARD_TEXT, raw)
        return [None if t == WILDCARD_TEXT else t for t in raw.split()]

    def process(self, raw):
        """(template id, template tokens, message tokens) for one line."""
        msg = self.tokens(raw)
        leaf, pivots, kids, key = None, [], self.root, len(msg)
        while True:
            node = kids.get(key)
            if node is None and kids is not self.root:
                node = kids.get(None)
            if node is None:
                node = kids[key] = {"templates": []}
            if "templates" in node:
                leaf = node
                break
            pivots.append(node["pivot"])
            kids, key = node["kids"], msg[node["pivot"]]
        best, best_sim = None, -1.0
        for tpl in leaf["templates"]:
            if msg:
                agree = sum(1 for m, t in zip(msg, tpl[1])
                            if m == t or t is None)
                s = agree / len(msg)
            else:
                s = 1.0
            if s > best_sim:
                best, best_sim = tpl, s
            if not msg:
                break
        if best is not None and (not msg or best_sim > self.sigma):
            best[1] = [t if t == m else None for t, m in zip(best[1], msg)]
            return best[0], best[1], msg
        tpl = [self.next_id, list(msg)]
        self.next_id += 1
        leaf["templates"].append(tpl)
        if len(leaf["templates"]) > self.phi:
            self._split(leaf, pivots)
        return tpl[0], tpl[1], msg

    def _split(self, leaf, excluded):
        tpls = leaf["templates"]
        best_pos, best_div = None, 1
        for j in range(len(tpls[0][1])):
            if j not in excluded:
                div = len({t[1][j] for t in tpls})
                if div > best_div:
                    best_pos, best_div = j, div
        if best_pos is None:
            return
        kids = {}
        for t in tpls:
            kids.setdefault(t[1][best_pos], {"templates": []})[
                "templates"].append(t)
        leaf.clear()
        leaf.update(pivot=best_pos, kids=kids)


def render(tokens):
    return " ".join(WILDCARD_TEXT if t is None else t for t in tokens)


def line_digest(template_id, template, variables):
    """8-byte digest of one parse result, as the CLI reports it."""
    text = json.dumps([template_id, template, variables])
    return hashlib.blake2b(text.encode(), digest_size=8).digest()


def parsing_accuracy(labels, predicted):
    """Share of lines in truth groups predicted as exactly one group."""
    truth = defaultdict(set)
    sizes = defaultdict(int)
    counts = defaultdict(int)
    for label, tid in zip(labels, predicted):
        truth[label].add(tid)
        sizes[tid] += 1
        counts[label] += 1
    good = sum(counts[g] for g, tids in truth.items()
               if len(tids) == 1 and sizes[next(iter(tids))] == counts[g])
    return good / len(labels)


def expected(workload, seed, tiny=False):
    """Expected outputs of `workload` for `seed`, as a JSON-able dict.

    ids/tail_ids are the template ids of the stream probe's lines and of
    the held-out tail; parse-steady adds one `line_digest` per line and
    sweep-labeled the parsing accuracy of each grid point.
    """
    stream, labels, tail = generate.generate(workload, seed, tiny)
    sigma, phi, masks = generate.STREAM_CONFIG[workload]
    out = {}
    if workload == "sweep-labeled":
        out["grid_pa"] = []
        for grid_point in generate.SWEEP_GRID:
            grid_ref = RefMiner(*grid_point)
            predicted = [grid_ref.process(line)[0] for line in stream]
            out["grid_pa"].append(parsing_accuracy(labels, predicted))
    ref = RefMiner(sigma, phi, masks)
    ids, digests = [], []
    for line in stream:
        tid, tpl, msg = ref.process(line)
        ids.append(tid)
        if workload == "parse-steady":
            variables = [render([m]) for m, t in zip(msg, tpl) if t is None]
            digests.append(line_digest(tid, render(tpl), variables))
    if digests:
        out["line_digests"] = b"".join(digests).hex()
    out["ids"] = ids
    out["tail_ids"] = [ref.process(line)[0] for line in tail]
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(generate.SIZES))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--tiny", action="store_true")
    args = ap.parse_args()
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(expected(args.workload, args.seed, args.tiny), fh)


if __name__ == "__main__":
    main()
