import gc
import json
import random
from pathlib import Path

import pytest

from synth import labels_and_tokens, make_mixed_corpus
from ustep import miner as miner_module
from ustep.miner import (
    Miner,
    MinerConfig,
    SnapshotError,
    Template,
    select_pivot,
    sim_f,
    update_template,
)
from ustep.tokens import WILDCARD, ConfigError

DATA = Path(__file__).resolve().parent / "data"


# -- configuration ---------------------------------------------------------

def test_config_validation():
    with pytest.raises(ConfigError):
        MinerConfig(sigma=1.5)
    with pytest.raises(ConfigError):
        MinerConfig(sigma=-0.1)
    with pytest.raises(ConfigError):
        MinerConfig(phi=0)
    with pytest.raises(ConfigError):
        MinerConfig(mask_rules=["[bad"])
    MinerConfig(sigma=0.0, phi=1)
    MinerConfig(sigma=1.0, phi=1)


@pytest.mark.parametrize("field, value", [
    ("sigma", True), ("sigma", "0.5"), ("sigma", None),
    ("phi", True), ("phi", 2.5), ("phi", "8"),
    ("mask_rules", "ab"), ("mask_rules", {"": None}), ("mask_rules", [1]),
    ("mask_rules", None),
    ("strict_wildcard_sim", "no"), ("strict_wildcard_sim", 1),
])
def test_config_rejects_wrong_types(field, value):
    with pytest.raises(ConfigError):
        MinerConfig(**{field: value})


def test_a_built_config_refuses_assignment():
    # a miner compiles its rules and caches its thresholds once, so a
    # field set later would leave the live miner and its snapshot apart
    m = Miner()
    with pytest.raises(AttributeError, match="'mask_rules'"):
        m.config.mask_rules = [r"\d+"]
    with pytest.raises(AttributeError, match="'append'"):
        m.config.mask_rules.append(r"\d+")
    for field, value in [("sigma", 0.9), ("phi", 2),
                         ("strict_wildcard_sim", True), ("other", 1)]:
        with pytest.raises(AttributeError, match=f"'{field}'"):
            setattr(m.config, field, value)
    with pytest.raises(AttributeError, match="'phi'"):
        del m.config.phi
    assert m.config == MinerConfig()
    restored = Miner.restore(m.snapshot())
    assert restored.process_message("x 4") == m.process_message("x 4")
    assert m.templates() == [(1, "x 4", 1)]


def test_a_tuple_built_config_round_trips_equal():
    config = MinerConfig(mask_rules=(r"\d+",))
    assert config.mask_rules == (r"\d+",)
    assert Miner.restore(Miner(config).snapshot()).config == config


# -- similarity ------------------------------------------------------------

def test_sim_identity():
    assert sim_f(["Send", "500", "bytes"], ["Send", "500", "bytes"],
                 strict=True) == 1.0


def test_sim_disjoint():
    assert sim_f(["a", "b", "c"], ["x", "y", "z"], strict=True) == 0.0


def test_sim_wildcard_semantics():
    msg = ["Send", "500", "bytes"]
    tpl = ["Send", WILDCARD, "bytes"]
    assert sim_f(msg, tpl, strict=True) == pytest.approx(2 / 3)
    assert sim_f(msg, tpl, strict=False) == 1.0


def test_sim_wildcard_matches_wildcard_even_strict():
    assert sim_f([WILDCARD, "b"], [WILDCARD, "b"], strict=True) == 1.0


@pytest.mark.parametrize("strict", [True, False])
def test_sim_of_a_list_with_itself_is_one(strict):
    tokens = ["a", WILDCARD, "b"]
    assert sim_f(tokens, tokens, strict) == 1.0


def test_sim_length_mismatch_is_caller_bug():
    with pytest.raises(ValueError):
        sim_f(["a"], ["a", "b"], strict=True)


# -- template update -------------------------------------------------------

def test_update_wildcards_disagreements():
    tpl = Template(1, ["Send", "500", "bytes"])
    assert update_template(tpl, ["Send", "512", "bytes"]) is True
    assert tpl.tokens == ["Send", WILDCARD, "bytes"]
    assert tpl.match_count == 2


def test_update_wildcard_absorbs():
    tpl = Template(1, ["Send", WILDCARD, "bytes"])
    assert update_template(tpl, ["Send", "7", "bytes"]) is False
    assert tpl.tokens == ["Send", WILDCARD, "bytes"]


def test_update_identity_is_noop_on_tokens():
    tpl = Template(1, ["a", "b"])
    assert update_template(tpl, ["a", "b"]) is False
    assert tpl.tokens == ["a", "b"]
    assert tpl.match_count == 2


def test_render_is_cached_until_a_position_turns_wildcard():
    tpl = Template(1, ["Send", "500", "bytes"])
    text = tpl.render()
    update_template(tpl, ["Send", "500", "bytes"])
    assert tpl.render() is text
    update_template(tpl, ["Send", "512", "bytes"])
    widened = tpl.render()
    assert widened == "Send <*> bytes"
    update_template(tpl, ["Send", "9", "bytes"])
    assert tpl.render() is widened


def test_wildcard_positions_are_cached_until_a_position_turns_wildcard():
    m = Miner()
    assert m.process_message("Send 500 bytes to a").variables == []
    tpl = next(m.iter_leaves()).templates[0]
    assert tpl._slots == ()
    assert m.process_message("Send 512 bytes to a").variables == ["512"]
    assert tpl._slots == (1,)
    # render() leaves the positions to the next result
    update_template(tpl, ["Send", "9", "bytes", "to", "b"])
    assert tpl._slots is None and tpl._text is None
    assert tpl.render() == "Send <*> bytes to <*>"
    assert tpl._slots is None
    assert m.process_message("Send 7 bytes to c").variables == ["7", "c"]
    assert tpl._slots == (1, 4)
    fresh = Template(tpl.id, list(tpl.tokens), tpl.match_count)
    assert tpl == fresh and repr(tpl) == repr(fresh)
    slots = tpl._slots
    update_template(tpl, ["Send", "8", "bytes", "to", "d"])
    assert tpl._slots is slots


# -- pivot selection -------------------------------------------------------

def test_pivot_picks_most_diverse_position():
    tpls = [Template(1, ["Send", WILDCARD, "bytes"]),
            Template(2, ["Receive", WILDCARD, "bytes"]),
            Template(3, ["Send", WILDCARD, "packages"]),
            Template(4, ["Send", WILDCARD, "packets"])]
    assert select_pivot(tpls) == 2


def test_pivot_none_when_uniform():
    tpls = [Template(1, ["a", WILDCARD]), Template(2, ["a", WILDCARD])]
    assert select_pivot(tpls) is None


def test_pivot_tie_breaks_low_position():
    tpls = [Template(1, ["a", "x"]), Template(2, ["a", "y"]),
            Template(3, ["b", "z"])]
    # diversities (2, 3)
    assert select_pivot(tpls) == 1
    tpls = [Template(1, ["p", "q"]), Template(2, ["r", "s"])]
    assert select_pivot(tpls) == 0


def test_pivot_wildcard_counts_as_one_value():
    tpls = [Template(1, [WILDCARD, "a"]), Template(2, [WILDCARD, "b"]),
            Template(3, ["k", "b"])]
    # position 0: {<*>, k} = 2; position 1: {a, b} = 2 -> tie, lowest wins
    assert select_pivot(tpls) == 0


def test_pivot_respects_exclusions():
    tpls = [Template(1, ["a", "x"]), Template(2, ["b", "x"])]
    assert select_pivot(tpls) == 0
    assert select_pivot(tpls, excluded={0}) is None


class ReadTokens(list):
    """A token list that notes in `reads` each position iterated over."""

    def __init__(self, tokens, reads):
        super().__init__(tokens)
        self.reads = reads

    def __iter__(self):
        for j, token in enumerate(list.__iter__(self)):
            self.reads.append(j)
            yield token


def test_pivot_scan_stops_at_the_first_column_where_every_template_differs(
        monkeypatch):
    reads = []
    tpls = [Template(i, ReadTokens(row, reads)) for i, row in enumerate(
        [["a", "x", "1", "q"], ["a", "y", "2", "q"], ["b", "z", "3", "r"]])]
    # diversities (2, 3, 3, 2): position 1 wins, and 2 cannot beat it
    assert select_pivot(tpls) == 1
    assert sorted(reads) == [0, 0, 0, 1, 1, 1]
    reads.clear()
    assert select_pivot(tpls, excluded={1}) == 2
    assert max(reads) == 2

    # the same leaf split by a miner: the pivot and pivot_scans are those
    # of the full scan, and the scan reads no column past the pivot
    m = Miner(MinerConfig(sigma=0.9, phi=2))
    for line in ["a x 1 q", "a y 2 q"]:
        m.process_message(line)
    leaf = m.root.children[4]
    for tpl in leaf.templates:
        tpl.tokens = ReadTokens(tpl.tokens, reads)
    scanned = []

    def spy(templates, excluded=()):
        reads.clear()
        pivot = select_pivot(templates, excluded)
        scanned.extend(reads)
        return pivot

    monkeypatch.setattr(miner_module, "select_pivot", spy)
    m.process_message("b z 3 r")
    assert leaf.pivot == 1
    assert m.last_cost.pivot_scans == 3 * 4
    assert sorted(scanned) == [0, 0, 1, 1]


# -- descent ---------------------------------------------------------------

def test_descend_creates_length_leaf():
    m = Miner()
    res = m.process_message("one two three")
    assert res.created_new
    leaf = m.root.children[3]
    assert leaf.templates is not None
    assert m.stats.node_count == 2


def test_descend_routes_by_length():
    m = Miner()
    m.process_message("a b")
    m.process_message("a b c")
    assert set(m.root.children) == {2, 3}


def test_new_leaf_under_internal_node_for_unknown_pivot_token():
    m = _fig_miner()
    node = m.root.children[3]
    assert node.pivot is not None
    before = set(node.children)
    m.process_message("Send 9 frames")
    assert set(node.children) == before | {"frames"}


# -- assignment ------------------------------------------------------------

def test_first_message_defines_template():
    m = Miner()
    res = m.process_message("Send 500 bytes")
    assert (res.template_id, res.template_text, res.variables,
            res.created_new) == (1, "Send 500 bytes", [], True)


def test_match_above_threshold_reuses_and_updates():
    m = Miner(MinerConfig(sigma=0.5))
    m.process_message("Send 500 bytes")
    res = m.process_message("Send 512 bytes")
    assert not res.created_new
    assert res.template_id == 1
    assert res.template_text == "Send <*> bytes"
    assert res.variables == ["512"]


def test_low_similarity_spawns_new_template():
    m = Miner(MinerConfig(sigma=0.6))
    m.process_message("open file x")
    res = m.process_message("close conn y")
    assert res.created_new
    assert res.template_id == 2


def test_threshold_is_strict_inequality():
    # best similarity exactly sigma must not match
    m = Miner(MinerConfig(sigma=0.5))
    m.process_message("a b")
    res = m.process_message("a z")
    assert res.created_new


@pytest.mark.parametrize("sigma, merges", [(0.8999999999999999, True),
                                           (0.9, False)])
def test_threshold_holds_at_the_float_edge(sigma, merges):
    # 9 of 10 positions agree, and 9 / 10 is 0.9 in floats: above the
    # largest float under 0.9, not above 0.9
    m = Miner(MinerConfig(sigma=sigma))
    m.process_message("a b c d e f g h i j")
    res = m.process_message("a b c d e f g h i z")
    assert res.created_new is not merges
    assert m.templates()[0][1] == ("a b c d e f g h i <*>" if merges
                                   else "a b c d e f g h i j")


def test_tie_breaks_to_lowest_template_id():
    m = Miner(MinerConfig(sigma=0.4, phi=10))
    m.process_message("a b p")   # template 1
    m.process_message("a q r")   # sim 1/3 < 0.4 -> template 2
    res = m.process_message("a b r")  # sim 2/3 with both -> tie
    assert not res.created_new
    assert res.template_id == 1


def test_empty_lines_share_one_empty_template():
    m = Miner()
    r1 = m.process_message("")
    r2 = m.process_message("   ")
    assert r1.created_new and not r2.created_new
    assert r1.template_id == r2.template_id
    assert r1.template_text == ""
    leaf = m.root.children[0]
    assert len(leaf.templates) == 1
    assert leaf.templates[0].match_count == 2


def test_masked_positions_surface_as_marker_in_variables():
    m = Miner(MinerConfig(sigma=0.4, mask_rules=[r"blk_[0-9]+"]))
    m.process_message("got blk_111 ok")
    res = m.process_message("got blk_222 ok")
    assert res.template_text == "got <*> ok"
    assert res.variables == ["<*>"]


# -- token table -----------------------------------------------------------

def test_streamed_state_holds_one_string_per_distinct_token():
    m = Miner(MinerConfig(sigma=0.5, phi=2))
    for line in make_mixed_corpus(random.Random(3), 3000):
        m.process_message(line)
    held = sum(labels_and_tokens(m), [])
    distinct = set(held)
    assert WILDCARD in distinct and len(held) > 2 * len(distinct)
    assert len({id(t) for t in held}) == len(distinct)
    assert all(t is WILDCARD for t in held if t == WILDCARD)


def test_token_table_does_not_grow_with_merged_lines():
    m = Miner()
    m.process_message("user u0 logged in")
    size = len(m._tokens)
    for i in range(1, 1000):
        res = m.process_message(f"user u{i} logged in")
        assert (res.template_id, res.created_new) == (1, False)
    assert len(m._tokens) == size
    assert m.templates() == [(1, "user <*> logged in", 1000)]


# -- splitting -------------------------------------------------------------

def _fig_miner():
    """Grow four wildcarded length-3 templates then overflow the leaf."""
    m = Miner(MinerConfig(sigma=0.5, phi=3, strict_wildcard_sim=True))
    m.process_message("Send 5 bytes")
    m.process_message("Send 6 bytes")
    m.process_message("Receive 5 bytes")
    m.process_message("Receive 8 bytes")
    m.process_message("Send 5 packages")
    m.process_message("Send 6 packages")
    m.process_message("Send 5 packets")
    return m


def test_saturated_leaf_splits_on_diverse_position():
    m = _fig_miner()
    node = m.root.children[3]
    assert node.templates is None
    assert node.pivot == 2
    assert set(node.children) == {"bytes", "packages", "packets"}
    bytes_leaf = node.children["bytes"]
    assert sorted(t.id for t in bytes_leaf.templates) == [1, 2]
    assert m.stats.splits_performed == 1


def test_split_partitions_preserve_templates():
    m = _fig_miner()
    node = m.root.children[3]
    moved = [t.id for leaf in node.children.values()
             for t in leaf.templates]
    assert sorted(moved) == [1, 2, 3, 4]


def test_singleton_children_when_all_distinct():
    m = Miner(MinerConfig(sigma=0.9, phi=2))
    m.process_message("aa zz")
    m.process_message("bb zz")
    m.process_message("cc zz")
    node = m.root.children[2]
    assert node.templates is None
    assert node.pivot == 0
    assert len(node.children) == 3
    assert all(len(l.templates) == 1 for l in node.children.values())


def test_unsplittable_leaf_may_exceed_phi():
    # "b <*> b" and "b b b" differ only at position 1, which a pivot above
    # their leaf already keys on: no position is left to split them
    m = Miner(MinerConfig(sigma=0.9, phi=1, strict_wildcard_sim=True))
    for line in ["a <*> b", "b a a", "b <*> b", "a a <*>", "a <*> a",
                 "a b a", "b a a", "a b <*>", "a <*> b", "<*> a <*>",
                 "b b b"]:
        m.process_message(line)
    leaf = next(leaf for leaf in m.iter_leaves()
                if any(t.render() == "b b b" for t in leaf.templates))
    assert len(leaf.templates) == m.config.phi + 1
    assert [t.render() for t in leaf.templates] == ["b <*> b", "b b b"]
    assert len(leaf.templates) > m.config.phi


def _wildcard_stream(n):
    """Strict, phi = 1 input whose first split keys position 0 and sends
    every fresh `v<i>` to the `<*>` child, which no pivot can split."""
    return ["<*> c0 c1", "x c0 c1"] + [f"v{i} c0 c1" for i in range(n)]


def test_full_leaf_merges_instead_of_growing():
    m = Miner(MinerConfig(sigma=0.9, phi=1, strict_wildcard_sim=True))
    lines = _wildcard_stream(2000)
    for i, line in enumerate(lines):
        result = m.process_message(line)
        assert m.last_cost.simf_evals <= 2
        if i >= 3:   # from v1 on: the leaf is full and never re-scanned
            assert m.last_cost.pivot_scans == 0
            assert (result.template_id, result.created_new) == (1, False)
    assert m.templates() == [(1, "<*> c0 c1", 2000), (2, "x c0 c1", 1),
                             (3, "v0 c0 c1", 1)]


def test_nonstrict_leaf_stops_at_phi_plus_one():
    # the last line reaches the full leaf behind two <*> labels
    m = Miner(MinerConfig(sigma=0.95, phi=1, mask_rules=[r"\d+"]))
    for line in ["c a", "7 c", "b 7", "a b", "a 7"]:
        m.process_message(line)
        assert m.last_cost.simf_evals <= 2
    assert max(len(leaf.templates) for leaf in m.iter_leaves()) == 2


def test_split_of_a_full_leaf_never_happens():
    # "7 a" fills the <*> leaf under pivot 1; "a 7" reaches it and merges,
    # where re-splitting it would leave a child with 2 templates
    m = Miner(MinerConfig(sigma=0.8, phi=1, mask_rules=[r"\d+"],
                          strict_wildcard_sim=True))
    results = [m.process_message(line)
               for line in ["<*> b", "7 7", "7 a", "a 7"]]
    assert [(r.template_id, r.created_new) for r in results] == [
        (1, True), (2, True), (3, True), (2, False)]
    assert m.stats.splits_performed == 1
    assert sorted(len(leaf.templates) for leaf in m.iter_leaves()) == [1, 2]


def test_sigma_one_merges_perfect_matches():
    m = Miner(MinerConfig(sigma=1.0, phi=1))
    results = [m.process_message("a b") for _ in range(3000)]
    assert [r.created_new for r in results[:2]] == [True, False]
    assert m.templates() == [(1, "a b", 3000)]
    # anything short of a perfect match still spawns a template
    assert m.process_message("a c").created_new


def test_routed_message_after_split():
    m = _fig_miner()
    res = m.process_message("Send 7 bytes")
    assert not res.created_new
    assert res.template_text == "Send <*> bytes"
    assert res.variables == ["7"]


# -- snapshot / restore ----------------------------------------------------

def test_fresh_snapshot_round_trip():
    m = Miner()
    m2 = Miner.restore(m.snapshot())
    assert m2.process_message("a b") == m.process_message("a b")


def test_snapshot_preserves_behavior_mid_stream():
    cfg = MinerConfig(sigma=0.5, phi=3)
    a = Miner(cfg)
    lines = [f"job {i % 7} state {i % 3} done" for i in range(200)]
    for line in lines[:100]:
        a.process_message(line)
    b = Miner.restore(a.snapshot())
    for line in lines[100:]:
        assert a.process_message(line) == b.process_message(line)
    assert a.stats == b.stats
    assert a.templates() == b.templates()


def test_dropped_miner_leaves_no_cyclic_garbage():
    # nodes keep no parent link, so dropping a miner frees its tree at
    # once instead of leaving it to a later, unrelated collection
    gc.collect()
    a = Miner(MinerConfig(sigma=0.5, phi=2))
    for i in range(200):
        a.process_message(f"a{i % 4} b{i % 3} c{i % 5} d")
    b = Miner.restore(a.snapshot())
    assert a.stats.max_depth == 3
    del a, b
    assert gc.collect() == 0


def test_snapshot_of_a_full_leaf_round_trips():
    m = Miner(MinerConfig(sigma=0.9, phi=1, strict_wildcard_sim=True))
    lines = _wildcard_stream(40)
    for line in lines[:20]:
        m.process_message(line)
    blob = m.snapshot()
    restored = Miner.restore(blob)
    assert restored.snapshot() == blob
    for line in lines[20:] + ["y c0 c1", "v0 c0 c2"]:
        assert restored.process_message(line) == m.process_message(line)
        assert restored.last_cost == m.last_cost


def test_truncated_snapshot_rejected():
    m = Miner()
    data = m.snapshot()
    with pytest.raises(SnapshotError):
        Miner.restore(data[:len(data) // 2])


def test_wrong_magic_and_version_rejected():
    with pytest.raises(SnapshotError):
        Miner.restore(b'{"magic":"something-else","version":1}')
    good = Miner().snapshot().decode()
    bad = good.replace('"version":3', '"version":99')
    assert bad != good
    with pytest.raises(SnapshotError):
        Miner.restore(bad.encode())


def _compact(blob):
    """The compact encoding of a snapshot's decoded payload."""
    return json.dumps(json.loads(blob), separators=(",", ":")).encode()


@pytest.mark.parametrize("path", sorted(DATA.glob("*.snap")),
                         ids=lambda path: path.name)
def test_a_golden_snapshot_is_its_compact_encoding(path):
    blob = path.read_bytes()
    assert _compact(blob) == blob


@pytest.mark.parametrize("strict", [False, True], ids=["loose", "strict"])
@pytest.mark.parametrize("phi", [1, 2, 3, 4])
def test_a_snapshot_is_its_compact_encoding(phi, strict):
    # snapshot() encodes without the encoder's cycle check; the bytes must
    # still be those of the plain compact encoding, escapes included
    rng = random.Random(2900 + phi)
    odd = ['"q"', "back\\slash", "\xe9", "\x01", "\U0001f600",
           "\x7f", "<*>", "n7"]
    lines = make_mixed_corpus(rng, 300) + [
        " ".join(rng.choices(odd, k=rng.randrange(1, 4))) for _ in range(60)]
    rng.shuffle(lines)
    m = Miner(MinerConfig(phi=phi, mask_rules=[r"\bn\d+\b"],
                          strict_wildcard_sim=strict))
    for start in range(0, len(lines), 90):
        for line in lines[start:start + 90]:
            m.process_message(line)
        blob = m.snapshot()
        assert _compact(blob) == blob


def _crafted_pivot_out_of_range():
    m = Miner(MinerConfig(phi=1))
    m.process_message("a b x")
    m.process_message("c d y")
    good = m.snapshot()
    bad = good.replace(b'[0,3,0]', b'[0,3,7]')
    assert bad != good
    return bad


@pytest.fixture(params=[True, False], ids=["collector_on", "collector_off"])
def collector(request):
    """The cyclic collector switched on or off for the test, then put back
    as it was."""
    was = gc.isenabled()
    (gc.enable if request.param else gc.disable)()
    yield request.param
    (gc.enable if was else gc.disable)()


def test_snapshot_and_restore_leave_the_collector_as_found(collector):
    m = Miner(MinerConfig(phi=2))
    for i in range(50):
        m.process_message(f"job {i % 7} state {i % 3} done")
    blob = m.snapshot()
    assert gc.isenabled() is collector
    assert Miner.restore(blob).snapshot() == blob
    assert gc.isenabled() is collector


@pytest.mark.parametrize("data", [
    pytest.param(b"\xff{", id="corrupt_bytes"),
    pytest.param(_crafted_pivot_out_of_range(), id="crafted_tree"),
])
def test_failed_restore_leaves_the_collector_as_found(collector, data):
    with pytest.raises(SnapshotError):
        Miner.restore(data)
    assert gc.isenabled() is collector


def test_snapshot_and_restore_run_with_the_collector_paused(monkeypatch):
    seen = []

    def spy(real):
        def call(*args, **kwargs):
            seen.append(gc.isenabled())
            return real(*args, **kwargs)
        return call

    m = Miner()
    m.process_message("a b c")
    monkeypatch.setattr(json, "dumps", spy(json.dumps))
    monkeypatch.setattr(miner_module, "tokenize", spy(miner_module.tokenize))
    assert gc.isenabled()
    Miner.restore(m.snapshot())
    assert seen == [False, False]
    assert gc.isenabled()


def test_template_id_is_process_message_without_the_result():
    lines = [f"job {i % 7} state {i % 3} done" for i in range(60)] + [""]
    a, b = Miner(MinerConfig(phi=2)), Miner(MinerConfig(phi=2))
    for line in lines:
        assert a.template_id(line) == b.process_message(line).template_id
        assert a.last_cost == b.last_cost
    assert a.snapshot() == b.snapshot()


def test_last_cost_is_overwritten_by_each_message():
    m = Miner(MinerConfig(phi=1))
    cost = m.last_cost
    # (steps, sim_f calls, pivot scans) of each message
    for line, want in [("a b x", (1, 0, 0)),   # new leaf, first template
                       ("c d y", (1, 1, 6)),   # second template splits it
                       ("a b x", (2, 1, 0)),   # one level deeper now
                       ("", (1, 0, 0))]:
        m.process_message(line)
        assert m.last_cost is cost
        assert (cost.descent_steps, cost.simf_evals,
                cost.pivot_scans) == want


def replay_table(monkeypatch, m, table):
    """Feed `m` each (line, whether `_match` runs) of `table`, checking the
    second against a spy on `_match`; returns the last result."""
    calls = []
    match = m._match
    monkeypatch.setattr(m, "_match",
                        lambda tokens: calls.append(tokens) or match(tokens))
    for line, matched in table:
        before = len(calls)
        res = m.process_message(line)
        assert (len(calls) > before) == matched, line
    return res


def test_an_exact_repeat_skips_match(monkeypatch):
    m = Miner()
    # a line is remembered once it merges into a template whose text it
    # is, and forgotten when any template is created or widened
    res = replay_table(monkeypatch, m, [
        ("user 1 logged in", True),    # created
        ("user 1 logged in", True),    # remembered
        ("user 1 logged in", False),
        ("user 2 logged in", True),    # widened
        ("user 1 logged in", True),    # not its text
        ("user 1 logged in", True),
        ("user <*> logged in", True),  # remembered
        ("user <*> logged in", False),
        ("disk full", True),           # created
        ("user <*> logged in", True),
        ("user <*> logged in", False)])
    assert (res.template_id, res.template_text, res.variables,
            res.created_new) == (1, "user <*> logged in", ["<*>"], False)
    assert m.templates() == [(1, "user <*> logged in", 10),
                             (2, "disk full", 1)]
    assert m.stats.messages_processed == 11
    # in strict mode a line that misses only at the template's wildcards
    # merges without turning a position, so the memo keeps its entries
    m = Miner(MinerConfig(strict_wildcard_sim=True))
    res = replay_table(monkeypatch, m, [
        ("a b c", True),     # created
        ("a x c", True),     # widened
        ("a <*> c", True),   # remembered
        ("a <*> c", False),
        ("a y c", True),     # merged, turning no position
        ("a <*> c", False)])
    assert (res.template_id, res.template_text, res.variables,
            res.created_new) == (1, "a <*> c", ["<*>"], False)
    assert m.templates() == [(1, "a <*> c", 6)]


def test_another_miners_widening_keeps_the_memo(monkeypatch):
    a, b = Miner(), Miner()
    repeat = [("user 1 logged in", False)]
    replay_table(monkeypatch, a, [("user 1 logged in", True)] * 2 + repeat)
    b.process_message("user 1 logged in")
    b.process_message("user 2 logged in")   # b widens its template
    assert b.templates() == [(1, "user <*> logged in", 2)]
    replay_table(monkeypatch, a, repeat)
    assert a.templates() == [(1, "user 1 logged in", 4)]


def test_repeat_counts_a_memo_held_line_as_structure_does():
    a, b = Miner(MinerConfig(phi=1)), Miner(MinerConfig(phi=1))
    # creations, a split and a widening first, then one line per template
    # that is its text, so the memo holds lines at depths 1 and 2
    for line in ["a b x", "c d y", "user 1 logged in", "user 2 logged in",
                 "", "a b x", "c d y", "user <*> logged in", ""]:
        a.process_message(line)
        b.process_message(line)
    memo = a._exact
    assert sorted(memo) == ["", "a b x", "c d y", "user <*> logged in"]
    for line in sorted(memo) * 2 + ["a b x", "", "", "c d y"]:
        tpl = a._repeat(a._exact[line])
        res = b._structure(line)
        assert (tpl.id, tpl.render()) == (res.template_id, line)
        assert vars(a.last_cost) == vars(b.last_cost)
        assert vars(a.stats) == vars(b.stats)
        assert a.templates() == b.templates()
        assert a._exact is memo
    assert a.snapshot() == b.snapshot()


# -- stats -----------------------------------------------------------------

def test_stats_counters():
    m = _fig_miner()
    s = m.stats
    assert s.messages_processed == 7
    assert s.template_count == 4
    assert s.splits_performed == 1
    # root + length leaf (now internal) + 3 children
    assert s.node_count == 5
    assert s.max_depth == 2
