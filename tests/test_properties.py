import json
import random

import hypothesis.strategies as st
from hypothesis import example, given, settings

from synth import make_mixed_corpus, replace_at
from ustep.miner import (Miner, MinerConfig, ParseResult, SnapshotError,
                         Template, select_pivot, sim_f, update_template)
from ustep.tokens import WILDCARD, compile_rules, preprocess, render, tokenize

token = st.one_of(st.just(WILDCARD),
                  st.text(alphabet="abcxyz0189_.", min_size=1, max_size=6))
token_list = st.lists(token, min_size=1, max_size=12)
literal_token = st.text(alphabet="abcxyz0189_.", min_size=1, max_size=6)


@given(token_list, st.booleans())
def test_sim_in_unit_interval(tokens, strict):
    other = [t for t in tokens]
    random.Random(0).shuffle(other)
    assert 0.0 <= sim_f(tokens, other, strict) <= 1.0


def loop_sim(msg_tokens, tpl_tokens, strict):
    """`sim_f` scored position by position, with no shortcut."""
    return sum(mt == tt or (not strict and tt == WILDCARD)
               for mt, tt in zip(msg_tokens, tpl_tokens)) / len(msg_tokens)


@given(token_list, st.booleans())
def test_sim_identical_is_one(tokens, strict):
    assert sim_f(tokens, list(tokens), strict) == 1.0
    assert sim_f(tokens, tokens, strict) == 1.0


@given(st.lists(st.tuples(token, token), min_size=1, max_size=12),
       st.booleans())
def test_sim_matches_loop_reference(pairs, strict):
    msg, tpl = map(list, zip(*pairs))
    assert sim_f(msg, tpl, strict) == loop_sim(msg, tpl, strict)


@given(token_list)
def test_strict_never_exceeds_lenient(tokens):
    tpl = list(reversed(tokens))
    assert sim_f(tokens, tpl, True) <= sim_f(tokens, tpl, False)


def pivot_oracle(rows, excluded):
    """The lowest position of the largest count of distinct values among
    `rows` outside `excluded`, or None if that count is below 2."""
    diversity = {j: len({row[j] for row in rows})
                 for j in range(len(rows[0]) if rows else 0)
                 if j not in excluded}
    most = max(diversity.values(), default=0)
    return min(j for j, d in diversity.items() if d == most) \
        if most >= 2 else None


# a leaf's token matrix: 0-6 templates of one length, with few values, so
# columns repeat values and some have a different value in every row
pivot_case = st.integers(0, 6).flatmap(lambda length: st.tuples(
    st.lists(st.lists(st.sampled_from(["a", "b", "c", "d", "e", WILDCARD]),
                      min_size=length, max_size=length), max_size=6),
    st.sets(st.integers(0, length))))


@settings(max_examples=300)
@given(pivot_case)
def test_select_pivot_is_the_first_most_diverse_position(case):
    rows, excluded = case
    tpls = [Template(i, list(row)) for i, row in enumerate(rows, 1)]
    assert select_pivot(tpls, excluded) == pivot_oracle(rows, excluded)


@given(st.lists(literal_token, min_size=1, max_size=12), st.data())
def test_update_monotone(msg_tokens, data):
    tpl_tokens = [
        data.draw(st.one_of(st.just(t), st.just(WILDCARD), literal_token))
        for t in msg_tokens
    ]
    tpl = Template(1, list(tpl_tokens))
    update_template(tpl, msg_tokens)
    for before, after, mt in zip(tpl_tokens, tpl.tokens, msg_tokens):
        if before == WILDCARD:
            assert after == WILDCARD
        elif before == mt:
            assert after == before
        else:
            assert after == WILDCARD


@given(st.lists(literal_token, min_size=0, max_size=10))
def test_tokenize_render_round_trip(tokens):
    line = " ".join(tokens)
    assert tokenize(line) == tokens
    assert render(tokens) == line


@given(st.text(alphabet=" \tab<*>12", max_size=40))
def test_tokenize_matches_split(text):
    got = tokenize(text)
    parts = text.split()
    assert len(got) == len(parts)
    assert [render([t]) for t in got] == parts


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000), st.sampled_from([2, 4, 8]),
       st.sampled_from([0.3, 0.5, 0.7]))
def test_determinism(seed, phi, sigma):
    lines = make_mixed_corpus(random.Random(seed), 120)
    runs = []
    for _ in range(2):
        m = Miner(MinerConfig(sigma=sigma, phi=phi))
        runs.append([m.process_message(line) for line in lines])
        runs[-1].append(m.stats)
    assert runs[0] == runs[1]


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000), st.sampled_from([1, 2, 4]), st.booleans())
def test_cached_template_text_stays_coherent(seed, phi, strict):
    lines = make_mixed_corpus(random.Random(seed), 120, max_length=8)
    miner = Miner(MinerConfig(sigma=0.4, phi=phi, strict_wildcard_sim=strict))
    held = []
    for line in lines:
        result = miner.process_message(line)
        by_id = {t.id: t for leaf in miner.iter_leaves()
                 for t in leaf.templates}
        assert all(t.render() == render(t.tokens) for t in by_id.values())
        text = render(by_id[result.template_id].tokens)
        assert result.template_text == text
        held.append((result, text))
    # a result keeps the text of its call, however the template widens
    assert all(result.template_text == text for result, text in held)


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 10_000))
def test_snapshot_replay_equivalence(seed):
    lines = make_mixed_corpus(random.Random(seed), 160)
    a = Miner(MinerConfig(sigma=0.5, phi=4))
    for line in lines[:80]:
        a.process_message(line)
    b = Miner.restore(a.snapshot())
    for line in lines[80:]:
        assert a.process_message(line) == b.process_message(line)
        assert b.last_cost.simf_evals <= b.config.phi + 1
    # the restored counters, template_count the source of new ids among
    # them, continue exactly like the streamed miner's
    assert vars(a.stats) == vars(b.stats)


def _snapshot_under_test():
    """A snapshot with split nodes, a wildcard label and an empty-line
    template, every path to a JSON value in it, and its lines."""
    lines = make_mixed_corpus(random.Random(7), 10, max_length=6) + [
        "1 q p a a a a", "2 q p a a a a", "3 s r b b b b", "4 u t c c c c",
        "", "x"]
    miner = Miner(MinerConfig(sigma=0.5, phi=1))
    for line in lines:
        miner.process_message(line)
    blob = miner.snapshot()
    paths = []
    stack = [((), json.loads(blob))]
    while stack:
        path, value = stack.pop()
        paths.append(path)
        if isinstance(value, (list, dict)):
            keys = value if isinstance(value, dict) else range(len(value))
            stack.extend((path + (k,), value[k]) for k in keys)
    return blob, paths, lines


SNAPSHOT, SNAPSHOT_PATHS, SNAPSHOT_LINES = _snapshot_under_test()
json_scalar = (st.none() | st.booleans() | st.integers(-2, 8) | st.integers()
               | st.floats() | st.text(alphabet="ab <*>", max_size=6))
# scalars first: hypothesis draws the containers of st.recursive far more
# often, and most rules are about scalar slots
json_value = json_scalar | st.recursive(
    json_scalar,
    lambda inner: (st.lists(inner, max_size=4)
                   | st.dictionaries(st.text(max_size=3), inner, max_size=3)),
    max_leaves=6)


def _restores_or_raises_snapshot_error(blob):
    """Restore either refuses `blob` or gives a miner that works and keeps
    the descent bound of length + 1 steps and the scoring bound of
    phi + 1 templates."""
    try:
        miner = Miner.restore(blob)
    except SnapshotError:
        return
    miner.templates()
    for line in SNAPSHOT_LINES:
        length = len(miner.process_message(line).template_text.split())
        assert miner.last_cost.descent_steps <= length + 1
        assert miner.last_cost.simf_evals <= miner.config.phi + 1


@settings(max_examples=500, deadline=None)
@given(st.sampled_from(SNAPSHOT_PATHS), json_value)
def test_snapshot_with_a_value_replaced_restores_or_is_refused(path, value):
    payload = replace_at(json.loads(SNAPSHOT), path, value)
    _restores_or_raises_snapshot_error(json.dumps(payload).encode())


@settings(max_examples=300, deadline=None)
@given(st.integers(0, len(SNAPSHOT) - 1), st.integers(1, 255))
def test_snapshot_with_a_byte_flipped_restores_or_is_refused(at, mask):
    flipped = bytearray(SNAPSHOT)
    flipped[at] ^= mask
    _restores_or_raises_snapshot_error(bytes(flipped))


# lines of a few short lengths whose digits the mask rule turns into <*>;
# a literal <*> in a line is a masked token too
masked_line = st.lists(st.sampled_from(["a", "b", "c", "7", "42", "<*>"]),
                       max_size=5).map(" ".join)
MASKS = [r"\d+"]


def _leaf_of(miner, tokens):
    """The leaf `tokens` descends to, or None if descent would create it."""
    node = miner.root.children.get(len(tokens))
    while node is not None and node.templates is None:
        child = node.children.get(tokens[node.pivot])
        node = node.children.get(WILDCARD) if child is None else child
    return node


@settings(max_examples=100, deadline=None)
@given(st.lists(masked_line, max_size=60), st.floats(0, 1),
       st.integers(1, 4), st.booleans(), st.booleans())
def test_scoring_picks_the_first_maximum_of_a_full_scan(
        lines, sigma, phi, strict, masked):
    rules = MASKS if masked else []
    if not masked:
        lines = [line.replace("<*>", "d") for line in lines]
    miner = Miner(MinerConfig(sigma=sigma, phi=phi, mask_rules=rules,
                              strict_wildcard_sim=strict))
    compiled = compile_rules(rules)
    for line in lines:
        tokens = tokenize(preprocess(line, compiled))
        leaf = _leaf_of(miner, tokens)
        before = [(t, list(t.tokens)) for t in (leaf.templates if leaf else [])]
        scores = [loop_sim(tokens, copy, strict) if tokens else 1.0
                  for _, copy in before]
        result = miner.process_message(line)
        top = max(scores, default=None)
        # a leaf past phi has failed to split and merges whatever the score
        if top is not None and (top > sigma or top == 1.0
                                or len(before) > phi):
            tpl, copy = before[scores.index(top)]
            assert (result.template_id, result.created_new) == (tpl.id, False)
            if top == 1.0:
                assert tpl.tokens == copy
        else:
            assert result.created_new
        for held in miner.iter_leaves():
            ids = [t.id for t in held.templates]
            assert ids == sorted(ids)


@settings(max_examples=100, deadline=None)
@given(st.lists(masked_line, max_size=80),
       st.one_of(st.just(1.0), st.floats(0, 1)), st.integers(1, 4),
       st.booleans())
# a full leaf behind two <*> labels, which no pivot can split
@example(["c a", "7 c", "b 7", "a b", "a 7", "7 7"], 0.95, 1, False)
def test_work_per_message_is_bounded_for_any_config(lines, sigma, phi,
                                                     strict):
    miner = Miner(MinerConfig(sigma=sigma, phi=phi, mask_rules=MASKS,
                              strict_wildcard_sim=strict))
    compiled = compile_rules(MASKS)
    for line in lines:
        length = len(tokenize(preprocess(line, compiled)))
        miner.process_message(line)
        cost = miner.last_cost
        assert cost.descent_steps <= length + 1
        assert cost.simf_evals <= phi + 1


def _matched(miner, masked):
    """`Miner._structure` without its exact-line memo: tokenize, `_match`
    and build the result."""
    tokens = tokenize(masked)
    tpl, created = miner._match(tokens)
    return ParseResult(tpl.id, tpl.render(),
                       [mt for mt, tt in zip(tokens, tpl.tokens)
                        if tt == WILDCARD], created)


# a stream that repeats a few short lines
repeating_stream = st.lists(
    st.lists(st.sampled_from(["a", "b", "7", "42", "<*>"]),
             min_size=1, max_size=3).map(" ".join),
    min_size=1, max_size=6).flatmap(
        lambda pool: st.lists(st.sampled_from(pool), min_size=20,
                              max_size=80))


@settings(max_examples=200, deadline=None)
@given(repeating_stream, st.floats(0, 1),
       st.integers(1, 3), st.booleans(), st.booleans())
def test_exact_line_memo_replays_match(lines, sigma, phi, strict, masked):
    config = dict(sigma=sigma, phi=phi, mask_rules=MASKS if masked else [],
                  strict_wildcard_sim=strict)
    miner, twin = Miner(MinerConfig(**config)), Miner(MinerConfig(**config))
    for line in lines:
        got = miner.process_message(line)
        assert got == _matched(twin, preprocess(line, twin._rules))
        assert vars(miner.last_cost) == vars(twin.last_cost)
        assert vars(miner.stats) == vars(twin.stats)
        assert len(miner._exact) <= miner.stats.template_count
    assert miner.snapshot() == twin.snapshot()


@settings(max_examples=150, deadline=None)
@given(repeating_stream, st.floats(0, 1), st.integers(1, 3), st.booleans(),
       st.booleans(), st.data())
def test_cached_wildcard_positions_give_the_zip_variables(
        lines, sigma, phi, strict, masked, data):
    config = dict(sigma=sigma, phi=phi, mask_rules=MASKS if masked else [],
                  strict_wildcard_sim=strict)
    miner, twin = Miner(MinerConfig(**config)), Miner(MinerConfig(**config))
    restore_at = data.draw(st.integers(0, len(lines)), label="restore at")
    widen_at = data.draw(st.sets(st.integers(0, len(lines) - 1)),
                         label="widen at")
    for i, line in enumerate(lines):
        if i == restore_at:
            miner = Miner.restore(miner.snapshot())
        if i in widen_at:
            # widen a held template at one position, in both miners, as a
            # merge of a line that differs there: count it as a message
            held = [(t, u) for a, b in zip(miner.iter_leaves(),
                                           twin.iter_leaves())
                    for t, u in zip(a.templates, b.templates) if t.tokens]
            if held:
                tpl, other = data.draw(st.sampled_from(held))
                assert tpl.id == other.id
                tokens = list(tpl.tokens)
                tokens[data.draw(st.integers(0, len(tokens) - 1))] = "z"
                for m, t in ((miner, tpl), (twin, other)):
                    update_template(t, tokens)
                    m.stats.messages_processed += 1
                # the memo is keyed on the template's old text, and a
                # change made outside the miner does not drop it
                miner._exact = {}
        got = miner.process_message(line)
        assert got == _matched(twin, preprocess(line, twin._rules))
        assert vars(miner.last_cost) == vars(twin.last_cost)
    assert miner.snapshot() == twin.snapshot()
    for leaf in miner.iter_leaves():
        for tpl in leaf.templates:
            fresh = Template(tpl.id, list(tpl.tokens), tpl.match_count)
            assert tpl == fresh and repr(tpl) == repr(fresh)
