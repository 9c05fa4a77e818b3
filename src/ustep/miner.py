"""Streaming template miner backed by an evolving search tree.

Messages are routed from the root (keyed on token count) through internal
nodes (keyed on a pivot token position) to a leaf holding candidate
templates.  A message either refines the most similar template above the
similarity threshold or spawns a new one; leaves holding more than `phi`
templates are split into internal nodes on their most diverse token
position.
"""

import json
from dataclasses import asdict, dataclass, field

from .tokens import (
    WILDCARD,
    ConfigError,
    compile_rules,
    preprocess,
    render,
    tokenize,
)

ROOT = "root"
INTERNAL = "internal"
LEAF = "leaf"

SNAPSHOT_MAGIC = "ustep-snapshot"
SNAPSHOT_VERSION = 1


class SnapshotError(ValueError):
    """Snapshot bytes are corrupt or from an incompatible version."""


@dataclass
class MinerConfig:
    """Tunable parameters of a miner instance.

    sigma: similarity a best-matching template must strictly exceed.
    phi: max templates per leaf before a split is attempted.
    mask_rules: regex patterns masking known variable spans before parsing.
    strict_wildcard_sim: if True, a template wildcard only matches a
        masked message token; if False (default) it matches any token.
    """

    sigma: float = 0.5
    phi: int = 8
    mask_rules: list = field(default_factory=list)
    strict_wildcard_sim: bool = False

    def __post_init__(self):
        if not 0.0 <= self.sigma <= 1.0:
            raise ConfigError(f"sigma must be in [0, 1], got {self.sigma}")
        if self.phi < 1:
            raise ConfigError(f"phi must be >= 1, got {self.phi}")
        # fail configuration-time, never parse-time
        compile_rules(self.mask_rules)


@dataclass
class Template:
    """A token skeleton with wildcard slots; ids are stable and unique."""

    id: int
    tokens: list
    match_count: int = 1

    def render(self):
        return render(self.tokens)


class TreeNode:
    __slots__ = ("kind", "parent", "depth", "pivot", "children", "templates",
                 "splittable")

    def __init__(self, kind, parent=None):
        self.kind = kind
        self.parent = parent
        self.depth = 0 if parent is None else parent.depth + 1
        self.pivot = None        # internal nodes only, 0-based position
        self.children = {} if kind in (ROOT, INTERNAL) else None
        self.templates = [] if kind == LEAF else None
        self.splittable = True


@dataclass
class MinerStats:
    node_count: int = 1
    template_count: int = 0
    messages_processed: int = 0
    splits_performed: int = 0
    max_depth: int = 0


@dataclass
class ParseResult:
    """Outcome of structuring one line: template identity plus variables."""

    template_id: int
    template_text: str
    variables: list
    created_new: bool


@dataclass
class MessageCost:
    """Instrumented per-message work, for complexity-bound checks."""

    descent_steps: int = 0
    simf_evals: int = 0
    pivot_scans: int = 0


def sim_f(msg_tokens, tpl_tokens, strict):
    """Fraction of positions where message and template tokens agree.

    With strict=False a template wildcard also counts as agreeing with
    any message token.  Lengths must match and be >= 1.
    """
    n = len(msg_tokens)
    if n != len(tpl_tokens):
        raise ValueError("sim_f requires equal token lengths")
    matches = 0
    for mt, tt in zip(msg_tokens, tpl_tokens):
        if mt is tt or mt == tt or (not strict and tt is WILDCARD):
            matches += 1
    return matches / n


def update_template(tpl, msg_tokens):
    """Wildcard every position where the message disagrees with the template."""
    tokens = tpl.tokens
    for j, mt in enumerate(msg_tokens):
        if tokens[j] is not mt and tokens[j] != mt:
            tokens[j] = WILDCARD
    tpl.match_count += 1
    return tpl


def select_pivot(templates, excluded=()):
    """Token position of maximal diversity among templates, or None.

    Diversity of a position is the number of distinct token values there
    (the wildcard counts as one value).  Positions in `excluded` are
    never chosen; if no position has diversity >= 2 the leaf cannot be
    split and None is returned.  Ties break toward the lowest position.
    """
    length = len(templates[0].tokens)
    best_pos = None
    best_div = 1
    for j in range(length):
        if j in excluded:
            continue
        div = len({id(t.tokens[j]) if t.tokens[j] is WILDCARD else t.tokens[j]
                   for t in templates})
        if div > best_div:
            best_div = div
            best_pos = j
    return best_pos


class Miner:
    """Single-writer streaming miner; one instance per log source."""

    def __init__(self, config=None):
        self.config = config or MinerConfig()
        self._rules = compile_rules(self.config.mask_rules)
        self.root = TreeNode(ROOT)
        self.stats = MinerStats()
        self.last_cost = MessageCost()
        self._next_template_id = 1

    # -- descent ---------------------------------------------------------

    def _descend(self, msg):
        """Route a message to its leaf, creating one when no label matches."""
        steps = 0
        node = self.root
        key = msg.length
        while True:
            child = node.children.get(key)
            if child is None and node.kind == INTERNAL:
                child = node.children.get(WILDCARD)
            if child is None:
                child = TreeNode(LEAF, parent=node)
                node.children[key] = child
                self.stats.node_count += 1
                if child.depth > self.stats.max_depth:
                    self.stats.max_depth = child.depth
            steps += 1
            if child.kind == LEAF:
                return child, steps
            node = child
            key = msg.tokens[node.pivot]

    # -- template assignment --------------------------------------------

    def _assign(self, leaf, msg):
        """Pick or create the template for a message already at its leaf."""
        strict = self.config.strict_wildcard_sim
        sigma = self.config.sigma
        best = None
        best_sim = -1.0
        evals = 0
        if msg.length == 0:
            # single empty template per degenerate leaf
            if leaf.templates:
                best, best_sim = leaf.templates[0], 1.0
        else:
            for tpl in leaf.templates:
                evals += 1
                s = sim_f(msg.tokens, tpl.tokens, strict)
                if s > best_sim or (s == best_sim and best is not None
                                    and tpl.id < best.id):
                    best, best_sim = tpl, s
        if best is not None and (msg.length == 0 or best_sim > sigma):
            update_template(best, msg.tokens)
            return best, False, evals
        tpl = Template(self._next_template_id, list(msg.tokens))
        self._next_template_id += 1
        leaf.templates.append(tpl)
        self.stats.template_count += 1
        return tpl, True, evals

    # -- leaf splitting --------------------------------------------------

    def _split(self, leaf):
        """Turn a saturated leaf into an internal node keyed on a pivot.

        Returns the token comparisons spent scanning for the pivot.  If
        every usable position is uniform the leaf is marked
        non-splittable and left intact.
        """
        excluded = set()
        node = leaf.parent
        while node is not None and node.kind == INTERNAL:
            excluded.add(node.pivot)
            node = node.parent
        scans = len(leaf.templates) * len(leaf.templates[0].tokens)
        pivot = select_pivot(leaf.templates, excluded)
        if pivot is None:
            leaf.splittable = False
            return scans
        groups = {}
        for tpl in leaf.templates:
            groups.setdefault(tpl.tokens[pivot], []).append(tpl)
        leaf.kind = INTERNAL
        leaf.pivot = pivot
        leaf.children = {}
        leaf.templates = None
        leaf.splittable = True
        for label, tpls in groups.items():
            child = TreeNode(LEAF, parent=leaf)
            child.templates = tpls
            leaf.children[label] = child
        self.stats.node_count += len(groups)
        self.stats.splits_performed += 1
        depth = leaf.depth + 1
        if depth > self.stats.max_depth:
            self.stats.max_depth = depth
        return scans

    # -- public API ------------------------------------------------------

    def process_message(self, raw):
        """Structure one raw line; any line is parseable."""
        masked = preprocess(raw, self._rules)
        msg = tokenize(masked)
        leaf, steps = self._descend(msg)
        tpl, created, evals = self._assign(leaf, msg)
        scans = 0
        if created and len(leaf.templates) > self.config.phi:
            scans = self._split(leaf)
        self.last_cost = MessageCost(steps, evals, scans)
        self.stats.messages_processed += 1
        variables = [WILDCARD if mt is WILDCARD else mt
                     for mt, tt in zip(msg.tokens, tpl.tokens)
                     if tt is WILDCARD]
        return ParseResult(
            template_id=tpl.id,
            template_text=tpl.render(),
            variables=[render([v]) for v in variables],
            created_new=created,
        )

    def templates(self):
        """All discovered templates as (id, rendered text, match_count)."""
        return sorted((t.id, t.render(), t.match_count)
                      for leaf in self.iter_leaves() for t in leaf.templates)

    def iter_leaves(self):
        """Every leaf of the tree, depth first."""
        stack = [self.root]
        while stack:
            node = stack.pop()
            if node.kind == LEAF:
                yield node
            else:
                stack.extend(node.children.values())

    # -- snapshot / restore ----------------------------------------------

    def snapshot(self):
        """Serialize the full miner state to bytes (versioned JSON)."""
        payload = {
            "magic": SNAPSHOT_MAGIC,
            "version": SNAPSHOT_VERSION,
            "config": {
                "sigma": self.config.sigma,
                "phi": self.config.phi,
                "mask_rules": list(self.config.mask_rules),
                "strict_wildcard_sim": self.config.strict_wildcard_sim,
            },
            "next_template_id": self._next_template_id,
            "stats": asdict(self.stats),
            "tree": _encode_node(self.root),
        }
        return json.dumps(payload, separators=(",", ":")).encode("utf-8")

    @classmethod
    def restore(cls, data):
        """Rebuild a miner from snapshot bytes; replay-equivalent to the
        original.  Raises SnapshotError on corrupt or mismatched input."""
        try:
            payload = json.loads(data.decode("utf-8"))
        except (UnicodeDecodeError, ValueError, RecursionError) as exc:
            raise SnapshotError(f"unreadable snapshot: {exc}") from exc
        if not isinstance(payload, dict) or payload.get("magic") != SNAPSHOT_MAGIC:
            raise SnapshotError("not a miner snapshot (bad magic)")
        if payload.get("version") != SNAPSHOT_VERSION:
            raise SnapshotError(
                f"unsupported snapshot version {payload.get('version')!r}")
        try:
            cfg = MinerConfig(**payload["config"])
            miner = cls(cfg)
            miner._next_template_id = payload["next_template_id"]
            miner.stats = MinerStats(**payload["stats"])
            miner.root = _decode_node(payload["tree"], None)
        except (KeyError, TypeError, IndexError, RecursionError) as exc:
            raise SnapshotError(f"malformed snapshot: {exc}") from exc
        return miner


def _encode_token(tok):
    return None if tok is WILDCARD else tok


def _decode_token(tok):
    return WILDCARD if tok is None else tok


def _encode_node(node):
    enc = {"kind": node.kind, "splittable": node.splittable}
    if node.kind == LEAF:
        enc["templates"] = [
            {"id": t.id, "tokens": [_encode_token(x) for x in t.tokens],
             "match_count": t.match_count}
            for t in node.templates
        ]
    else:
        if node.kind == INTERNAL:
            enc["pivot"] = node.pivot
        enc["children"] = [
            [_encode_token(label) if not isinstance(label, int) else label,
             _encode_node(child)]
            for label, child in node.children.items()
        ]
    return enc


def _decode_node(enc, parent, length=None):
    """Rebuild a subtree, rejecting any node that descent could trip on.

    `length` is the root label above the node: every template below it
    has that many tokens and every pivot indexes into them.
    """
    kind = enc["kind"]
    if kind not in ((ROOT,) if parent is None else (INTERNAL, LEAF)):
        raise SnapshotError(f"malformed snapshot: bad node kind {kind!r}")
    node = TreeNode(kind, parent=parent)
    node.splittable = enc["splittable"]
    if kind == LEAF:
        node.templates = [
            Template(t["id"], [_decode_token(x) for x in t["tokens"]],
                     t["match_count"])
            for t in enc["templates"]
        ]
        for t in node.templates:
            if len(t.tokens) != length:
                raise SnapshotError(
                    f"malformed snapshot: template length is not {length!r}")
    else:
        if kind == INTERNAL:
            node.pivot = enc["pivot"]
            if not (isinstance(node.pivot, int) and 0 <= node.pivot < length):
                raise SnapshotError(f"malformed snapshot: pivot "
                                    f"{node.pivot!r} outside length {length!r}")
        for raw_label, child_enc in enc["children"]:
            child_label = raw_label if isinstance(raw_label, int) \
                else _decode_token(raw_label)
            node.children[child_label] = _decode_node(
                child_enc, node, child_label if kind == ROOT else length)
    return node
