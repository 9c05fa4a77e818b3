"""Synthetic corpus generators, crafted-input helpers and brute-force
scoring oracles for tests."""

import random


def make_template_corpus(rng, n_templates, length, n_lines, n_var_positions=None):
    """Lines drawn from known equal-length templates with unique constants.

    Each template gets its own constant vocabulary, so cross-template
    similarity stays at the variable fraction.  Variable positions hold a
    single random token per line.  Returns (lines, truth_labels).
    """
    if n_var_positions is None:
        n_var_positions = max(1, length // 4)
    assert n_var_positions <= length // 2, "constants must dominate"
    templates = []
    for k in range(n_templates):
        var_positions = set(rng.sample(range(length), n_var_positions))
        tokens = [None if j in var_positions else f"c{k}x{j}"
                  for j in range(length)]
        templates.append(tokens)
    lines = []
    labels = []
    for i in range(n_lines):
        k = rng.randrange(n_templates)
        words = [f"v{rng.randrange(50)}" if tok is None else tok
                 for tok in templates[k]]
        lines.append(" ".join(words))
        labels.append(k)
    # every template must appear at least once for a meaningful grouping
    for k in range(n_templates):
        if k not in labels:
            words = [f"v{rng.randrange(50)}" if tok is None else tok
                     for tok in templates[k]]
            lines.append(" ".join(words))
            labels.append(k)
    return lines, labels


def make_mixed_corpus(rng, n_lines, max_length=30):
    """Messy stream: template-generated lines mixed with pure noise."""
    pool = []
    for k in range(rng.randrange(5, 40)):
        length = rng.randrange(1, max_length + 1)
        pool.append([
            f"w{rng.randrange(200)}" if rng.random() < 0.7 else None
            for _ in range(length)
        ])
    lines = []
    for _ in range(n_lines):
        if rng.random() < 0.1:
            length = rng.randrange(0, max_length + 1)
            lines.append(" ".join(f"n{rng.randrange(1000)}"
                                  for _ in range(length)))
        else:
            tokens = pool[rng.randrange(len(pool))]
            lines.append(" ".join(
                f"x{rng.randrange(30)}" if t is None else t for t in tokens))
    return lines


def pa_oracle(truth_labels, pred_labels):
    """Brute-force grouping accuracy straight from its definition.

    A truth group is correct when its members share one predicted label
    and no non-member carries that label.  O(n^2) by design; only for
    cross-checking the streaming scorer.
    """
    n = len(truth_labels)
    correct = 0
    for g in set(truth_labels):
        members = [i for i in range(n) if truth_labels[i] == g]
        preds = {pred_labels[i] for i in members}
        if len(preds) != 1:
            continue
        tid = preds.pop()
        leaked = [i for i in range(n)
                  if pred_labels[i] == tid and truth_labels[i] != g]
        if not leaked:
            correct += len(members)
    return correct / n if n else 0.0


def set_partitions(items):
    """All partitions of a sequence (for small exhaustive PA checks)."""
    items = list(items)
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in set_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [[first] + part[i]] + part[i + 1:]
        yield [[first]] + part


def partition_to_labels(partition, n):
    labels = [None] * n
    for gid, block in enumerate(partition):
        for i in block:
            labels[i] = gid
    return labels


def replace_at(document, path, value):
    """`document` (nested lists and dicts) with the item at `path` set to
    `value`, in place; the empty path replaces the whole document."""
    if not path:
        return value
    target = document
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return document


def labels_and_tokens(miner):
    """The labels of the children of `miner`'s internal nodes, and the
    tokens of its templates, each string once per place it is held."""
    labels, stack = [], list(miner.root.children.values())
    while stack:
        node = stack.pop()
        if node.templates is None:
            labels += node.children
            stack += node.children.values()
    tokens = [t for leaf in miner.iter_leaves() for tpl in leaf.templates
              for t in tpl.tokens]
    return labels, tokens
