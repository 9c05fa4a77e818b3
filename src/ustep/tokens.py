"""Tokenization and regex-mask preprocessing for raw log lines."""

import re
from typing import Union

#: External rendering of a variable slot.
WILDCARD_TEXT = "<*>"


class _Wildcard:
    """Sentinel for a variable position; never equal to any literal token."""

    __slots__ = ()

    def __repr__(self):
        return WILDCARD_TEXT


WILDCARD = _Wildcard()

Token = Union[str, _Wildcard]


class ConfigError(ValueError):
    """Bad miner configuration (invalid sigma/phi or mask rule)."""


def compile_rules(patterns):
    """Compile mask-rule patterns, raising ConfigError on any bad regex."""
    compiled = []
    for pat in patterns:
        try:
            compiled.append(re.compile(pat))
        except (re.error, OverflowError, RecursionError) as exc:
            raise ConfigError(f"invalid mask rule {pat!r}: {exc}") from exc
    return compiled


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
        raw = rule.sub(WILDCARD_TEXT, raw)
    return raw


def tokenize(masked):
    """Split a (possibly masked) line into its list of tokens.

    Maximal whitespace-free runs become tokens; a token exactly equal to
    the wildcard marker becomes the wildcard sentinel.  Empty or
    whitespace-only input yields an empty list.
    """
    if WILDCARD_TEXT not in masked:
        return masked.split()
    return [WILDCARD if p == WILDCARD_TEXT else p for p in masked.split()]


def render(tokens):
    """Join tokens with single spaces, wildcards as the external marker."""
    return " ".join(WILDCARD_TEXT if t is WILDCARD else t for t in tokens)
