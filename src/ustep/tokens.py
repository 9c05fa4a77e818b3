"""Tokenization and regex-mask preprocessing for raw log lines."""

import re

#: A variable slot: the plain token "<*>", compared with `==`.  A message
#: token "<*>" (masked, or literal in the raw line) is a wildcard too.
WILDCARD = "<*>"


class ConfigError(ValueError):
    """Bad miner configuration (invalid sigma/phi or mask rule)."""


def compile_rules(patterns):
    """Compile mask-rule patterns into a tuple; ConfigError on a bad regex."""
    compiled = []
    for pat in patterns:
        try:
            compiled.append(re.compile(pat))
        except (re.error, OverflowError, RecursionError) as exc:
            raise ConfigError(f"invalid mask rule {pat!r}: {exc}") from exc
    return tuple(compiled)


def read_mask_rules(path):
    """Mask rules from a file: one regex per line, in file order.

    Each line is stripped first; blank lines and lines starting with '#'
    are skipped.
    """
    with open(path, encoding="utf-8") as fh:
        return [line for line in map(str.strip, fh)
                if line and not line.startswith("#")]


def preprocess(raw, rules):
    """Replace every span matched by a rule with the wildcard marker.

    Rules are applied in list order, each over the output of the previous
    one.  A match inside a larger token only replaces the matched span.
    """
    for rule in rules:
        raw = rule.sub(WILDCARD, raw)
    return raw


def tokenize(masked):
    """Split a (possibly masked) line into its tokens: `str.split`.

    Maximal whitespace-free runs become tokens, so a masked span that is a
    whole token is the wildcard `"<*>"`.  Empty or whitespace-only input
    yields an empty list.
    """
    return masked.split()


def render(tokens):
    """Join tokens with single spaces; a wildcard is already its text."""
    return " ".join(tokens)
