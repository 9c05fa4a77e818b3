"""Seeded input generators for the three benchmark workloads.

Every generator is a pure function of its seed and sizes, and none imports
the package under test, so later changes to the package (or to its test
helpers) cannot change what the benchmark feeds it.  Each returns the
measured stream plus a held-out tail, which is used only to check that a
restored miner behaves like the original, and the true template label of
each stream line.
"""

import csv
import random

#: Mask rules the parse-steady log needs; they catch every variable span.
PARSE_MASKS = (r"blk_-?[0-9]+", r"(\d+\.){3}\d+(:\d+)?")

#: Generator sizes per workload: the measured size, and a tiny one for the
#: self-test.  Changing a size changes the workload.
SIZES = {
    "parse-steady": dict(n_lines=20000, n_tail=1000),
    "sweep-labeled": dict(n_lines=10000, n_tail=1000, n_templates=1000),
    "template-churn": dict(n_lines=40000, n_tail=2000),
}
TINY_SIZES = {
    "parse-steady": dict(n_lines=600, n_tail=100),
    "sweep-labeled": dict(n_lines=600, n_tail=100, n_templates=60),
    "template-churn": dict(n_lines=1500, n_tail=100),
}


#: (sigma, phi, mask rules) of the miner that replays each workload's stream
#: line by line; for sweep-labeled it is one point of `SWEEP_GRID`.
STREAM_CONFIG = {
    "parse-steady": (0.5, 8, PARSE_MASKS),
    "sweep-labeled": (0.5, 8, ()),
    "template-churn": (0.5, 4, ()),
}


def generate(workload, seed, tiny=False):
    """The workload's inputs for `seed`: (stream, true labels, tail)."""
    sizes = (TINY_SIZES if tiny else SIZES)[workload]
    make = {"parse-steady": parse_steady, "sweep-labeled": sweep_labeled,
            "template-churn": template_churn}[workload]
    return make(seed, **sizes)


# -- parse-steady --------------------------------------------------------

PARSE_TEMPLATES = 200

_WORDS = ("Receiving", "block", "src:", "dest:", "PacketResponder",
          "terminating", "Served", "to", "Deleting", "file", "Verification",
          "succeeded", "for", "NameSystem.addStoredBlock:", "blockMap",
          "updated:", "is", "added", "size", "Transmitted", "Starting",
          "thread", "transfer", "Exception", "while", "serving", "got",
          "length", "mismatch", "replicate", "ask", "delete", "from")


def _ip(rng):
    octets = ".".join(str(rng.randrange(256)) for _ in range(3))
    return f"10.{octets}:{rng.randrange(1024, 65536)}"


_SLOTS = {
    "blk": lambda rng: f"blk_{rng.choice(('', '-'))}{rng.randrange(10**18)}",
    "ip": _ip,
    "path": lambda rng: "/" + _ip(rng),
}


def parse_steady(seed, n_lines, n_tail):
    """HDFS-like log cycling over a fixed population of templates.

    Every template has its own constant words, and at most 30% of its
    positions hold a block id or an ip:port span that `PARSE_MASKS`
    catches.  Two templates therefore agree on at most 30% of positions,
    below the default sigma, so after masking each template maps to
    exactly one miner template and the tree stops growing after warm-up.
    """
    rng = random.Random(seed)
    templates = []
    for k in range(PARSE_TEMPLATES):
        length = rng.randrange(6, 15)
        slots = set(rng.sample(range(length), length * 3 // 10))
        templates.append([rng.choice(tuple(_SLOTS)) if j in slots
                          else f"{rng.choice(_WORDS)}_{k}"
                          for j in range(length)])
    order = list(range(PARSE_TEMPLATES))
    rng.shuffle(order)
    lines = []
    for i in range(n_lines + n_tail):
        tpl = templates[order[i % PARSE_TEMPLATES]]
        lines.append(" ".join(_SLOTS[t](rng) if t in _SLOTS else t
                              for t in tpl))
    labels = [order[i % PARSE_TEMPLATES] for i in range(n_lines)]
    return lines[:n_lines], labels, lines[n_lines:]


def write_parse_inputs(lines, log_path, mask_path):
    """The log file, one line each, and the mask file `ustep parse` reads."""
    with open(log_path, "w", encoding="utf-8") as fh:
        fh.writelines(line + "\n" for line in lines)
    with open(mask_path, "w", encoding="utf-8") as fh:
        fh.write("# block ids and network endpoints\n")
        fh.writelines(rule + "\n" for rule in PARSE_MASKS)


# -- sweep-labeled -------------------------------------------------------

#: (sigma, phi) grid; parsing accuracy falls from about 0.75 to 0 along it.
SWEEP_GRID = ((0.3, 2), (0.5, 8), (0.6, 4), (0.7, 8), (0.8, 4), (0.9, 16))
SWEEP_LENGTH = 10


def sweep_labeled(seed, n_lines, n_tail, n_templates):
    """Labeled corpus of equal-length templates with 1-4 variable slots.

    The varying number of slots spreads the templates' self-similarity over
    0.6-0.9, so raising sigma loses whole groups and accuracy differs
    across `SWEEP_GRID`.  Every template occurs at least once.
    """
    rng = random.Random(seed)
    templates = []
    for k in range(n_templates):
        slots = set(rng.sample(range(SWEEP_LENGTH), rng.randrange(1, 5)))
        templates.append([None if j in slots else f"c{k}x{j}"
                          for j in range(SWEEP_LENGTH)])
    labels = list(range(n_templates))
    labels += [rng.randrange(n_templates)
               for _ in range(n_lines + n_tail - n_templates)]
    rng.shuffle(labels)
    lines = [" ".join(f"v{rng.randrange(50)}" if t is None else t
                      for t in templates[k])
             for k in labels]
    return lines[:n_lines], labels[:n_lines], lines[n_lines:]


def write_sweep_csv(lines, labels, path):
    """Loghub-style structured CSV: LineId, Content and EventId columns."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["LineId", "Content", "EventId"])
        for i, (content, label) in enumerate(zip(lines, labels), 1):
            writer.writerow([i, content, f"E{label}"])


# -- template-churn ------------------------------------------------------

CHURN_LENGTHS = (10, 14, 18, 22)


def template_churn(seed, n_lines, n_tail):
    """Stream in which unseen templates keep arriving until the end.

    Three lines in ten introduce a new template; the rest repeat a random
    earlier one.  Constants come from sixteen values per position, so
    templates share tokens, leaves keep filling past phi = 4 and split
    at growing depth.  Variable slots take one of three values, too few
    to be chosen as pivots ahead of the constants.
    """
    rng = random.Random(seed)
    templates = []
    lines, labels = [], []
    for _ in range(n_lines + n_tail):
        if not templates or rng.random() < 0.3:
            length = rng.choice(CHURN_LENGTHS)
            templates.append([None if rng.random() < 0.2
                              else f"t{j}.{rng.randrange(16)}"
                              for j in range(length)])
            k = len(templates) - 1
        else:
            k = rng.randrange(len(templates))
        lines.append(" ".join(f"x{rng.randrange(3)}" if t is None else t
                              for t in templates[k]))
        labels.append(k)
    return lines[:n_lines], labels[:n_lines], lines[n_lines:]
