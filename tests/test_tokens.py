import re
from pathlib import Path

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from ustep.tokens import (
    WILDCARD,
    ConfigError,
    compile_rules,
    preprocess,
    read_mask_rules,
    render,
    tokenize,
)


def test_mask_replaces_matched_span():
    rules = compile_rules([r"blk_[0-9]+"])
    assert preprocess("blk_38865049064139660 received", rules) == "<*> received"


def test_mask_no_match_is_identity():
    rules = compile_rules([r"[0-9]+"])
    assert preprocess("no digits here", rules) == "no digits here"


def test_mask_each_match_independently():
    rules = compile_rules([r"[0-9]+"])
    assert preprocess("a 1 b 2", rules) == "a <*> b <*>"


def test_mask_rules_applied_in_order():
    rules = compile_rules([r"blk_[0-9]+", r"[0-9]+"])
    assert preprocess("blk_123 sent 45", rules) == "<*> sent <*>"


def test_mid_token_mask_keeps_surrounding_characters():
    rules = compile_rules([r"[0-9]+"])
    masked = preprocess("id=77;", rules)
    assert masked == "id=<*>;"
    tokens = tokenize(masked)
    # not a standalone marker, so it stays a literal token
    assert tokens == ["id=<*>;"]


def test_bad_rule_fails_at_compile_time():
    with pytest.raises(ConfigError):
        compile_rules([r"[unclosed"])


@pytest.mark.parametrize("rule", [r"a{4294967296}", "(" * 5000 + ")" * 5000],
                         ids=["repeat_overflow", "nested_5000_deep"])
def test_rule_too_large_to_compile_is_a_config_error(rule):
    with pytest.raises(ConfigError):
        compile_rules([rule])


def test_read_mask_rules_skips_blanks_and_comments(tmp_path):
    path = tmp_path / "masks.txt"
    path.write_text("# header\n"
                    "blk_-?[0-9]+\n"
                    "\n"
                    "   \n"
                    "    # indented comment\n"
                    "  (\\d+\\.){3}\\d+  \n"
                    "a#b\n"
                    "[0-9]+\n")
    assert read_mask_rules(path) == [r"blk_-?[0-9]+", r"(\d+\.){3}\d+",
                                     "a#b", "[0-9]+"]


MASK_DIR = Path(__file__).resolve().parent.parent / "scripts" / "masks"

#: each rule of scripts/masks/ written in its unrolled form, beside the
#: grouped form it replaced; the unrolled form masks a line in less time
UNROLLED_RULES = {
    "Apache": (r"(\d+\.){3}\d+", r"\d+\.\d+\.\d+\.\d+"),
    "Hadoop": (r"(\d+\.){3}\d+", r"\d+\.\d+\.\d+\.\d+"),
    "OpenSSH": (r"(\d+\.){3}\d+", r"\d+\.\d+\.\d+\.\d+"),
    "HDFS": (r"(\d+\.){3}\d+(:\d+)?", r"\d+\.\d+\.\d+\.\d+(:\d+)?"),
    "OpenStack": (r"((\d+\.){3}\d+,?)+", r"(\d+\.\d+\.\d+\.\d+,?)+"),
    "Zookeeper": (r"(/|)(\d+\.){3}\d+(:\d+)?",
                  r"/?\d+\.\d+\.\d+\.\d+(:\d+)?"),
}


@pytest.mark.parametrize("name", UNROLLED_RULES)
def test_shipped_mask_rules_are_the_unrolled_forms(name):
    old, new = UNROLLED_RULES[name]
    rules = read_mask_rules(MASK_DIR / f"{name}.txt")
    assert new in rules and old not in rules


# strings over "0-9 . : , / a" and space, built from dotted digit runs so
# that dotted quads, ports and comma lists are common
dotted_digits = st.lists(st.text("0123456789", min_size=1, max_size=3),
                         min_size=1, max_size=5).map(".".join)
ip_like_line = st.lists(st.one_of(dotted_digits, st.sampled_from(".:,/ a")),
                        max_size=12).map("".join)


@settings(max_examples=500, deadline=None)
@given(ip_like_line)
def test_unrolled_mask_rules_mask_as_the_grouped_forms(line):
    for old, new in set(UNROLLED_RULES.values()):
        assert re.sub(new, WILDCARD, line) == re.sub(old, WILDCARD, line)


def test_tokenize_whitespace_split():
    tokens = tokenize("Send 500 bytes")
    assert tokens == ["Send", "500", "bytes"]
    assert len(tokens) == 3


def test_tokenize_empty_line():
    tokens = tokenize("")
    assert tokens == []
    assert len(tokens) == 0
    assert len(tokenize("   \t ")) == 0


def test_tokenize_collapses_runs():
    # oracle: character scan collecting maximal non-space runs
    line = "a  b"
    expected = []
    cur = ""
    for ch in line:
        if ch.isspace():
            if cur:
                expected.append(cur)
            cur = ""
        else:
            cur += ch
    if cur:
        expected.append(cur)
    assert expected == ["a", "b"]
    assert tokenize(line) == expected


def test_marker_token_becomes_sentinel():
    # the marker token is the wildcard: the plain string "<*>"
    tokens = tokenize("<*> received")
    assert tokens[0] == WILDCARD
    assert tokens[1] == "received"


def test_sentinel_distinct_from_literal_star():
    tokens = tokenize("* and <*>")
    assert tokens[0] == "*"
    assert tokens[0] != WILDCARD
    assert tokens[2] == WILDCARD


def test_render_round_trip():
    assert render(["Send", WILDCARD, "bytes"]) == "Send <*> bytes"
    assert render([]) == ""
    assert WILDCARD == "<*>"
