"""Streaming template miner backed by an evolving search tree.

Messages are routed from the root (keyed on token count) through internal
nodes (keyed on a pivot token position) to a leaf holding candidate
templates.  A message either refines the most similar template above the
similarity threshold or spawns a new one; leaves holding more than `phi`
templates are split into internal nodes on their most diverse token
position.  A leaf whose split fails keeps its `phi + 1` templates and
merges every later line into its best template, so no message scores more
than `phi + 1` templates.  Scoring a template stops at the first miss that
puts it out of reach: it would agree at too few positions to beat the best
so far, or to score above the threshold.
"""

import gc
from functools import wraps

from .tokens import (
    WILDCARD,
    ConfigError,
    compile_rules,
    preprocess,
    render,
    tokenize,
)

SNAPSHOT_MAGIC = "ustep-snapshot"
SNAPSHOT_VERSION = 3


class SnapshotError(ValueError):
    """Snapshot bytes are corrupt or from an incompatible version."""


def _collector_paused(method):
    """Run `method` with the cyclic collector off, then put back the
    caller's setting, also when it raises; a collector the caller turned
    off stays off.

    Snapshot and restore allocate objects per node, template and token.
    Neither the tree nor the decoded payload holds a reference cycle, so
    the collections those allocations would trigger free nothing and only
    rescan the whole heap."""
    @wraps(method)
    def paused(*args, **kwargs):
        enabled = gc.isenabled()
        gc.disable()
        try:
            return method(*args, **kwargs)
        finally:
            if enabled:
                gc.enable()
    return paused


class _Record:
    """What `@dataclass` gave the records below, read from `__match_args__`:
    equality as field tuples with a record of the same class, the same repr
    and, as `__eq__` comes without `__hash__`, no hash."""

    __slots__ = ()

    def _asdict(self):
        return {name: getattr(self, name) for name in self.__match_args__}

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (tuple(self._asdict().values())
                    == tuple(other._asdict().values()))
        return NotImplemented

    def __repr__(self):
        fields = ", ".join(f"{k}={v!r}" for k, v in self._asdict().items())
        return f"{self.__class__.__qualname__}({fields})"


class MinerConfig(_Record):
    """Tunable parameters of a miner instance, validated on construction
    and read-only after it; its miners share the rules it compiles,
    `_rules` (no field), and cache its thresholds once.

    sigma: similarity a best-matching template must strictly exceed; a
        perfect match (similarity 1.0) always merges, so sigma = 1.0 merges
        exactly the lines that match a template at every position.
    phi: max templates per leaf before a split is attempted.  A leaf whose
        split fails keeps phi + 1 templates and merges every later line
        into its best template, whatever the similarity.
    mask_rules: regex patterns masking known variable spans before parsing,
        a list or tuple of strings; stored as a tuple.
    strict_wildcard_sim: if True, a template wildcard only matches a
        masked message token; if False (default) it matches any token.
    """

    __match_args__ = ("sigma", "phi", "mask_rules", "strict_wildcard_sim")

    def __init__(self, sigma=0.5, phi=8, mask_rules=(),
                 strict_wildcard_sim=False):
        if isinstance(sigma, bool) or not isinstance(sigma, (int, float)):
            raise ConfigError(f"sigma must be a number, got {sigma!r}")
        if isinstance(phi, bool) or not isinstance(phi, int):
            raise ConfigError(f"phi must be an int, got {phi!r}")
        if not isinstance(mask_rules, (list, tuple)) \
                or not all(isinstance(r, str) for r in mask_rules):
            raise ConfigError("mask_rules must be a list of regex strings, "
                              f"got {mask_rules!r}")
        if type(strict_wildcard_sim) is not bool:
            raise ConfigError("strict_wildcard_sim must be a bool, got "
                              f"{strict_wildcard_sim!r}")
        if not 0.0 <= sigma <= 1.0:
            raise ConfigError(f"sigma must be in [0, 1], got {sigma}")
        if phi < 1:
            raise ConfigError(f"phi must be >= 1, got {phi}")
        # not through `__dict__`: that would make the interpreter give up
        # the inline attribute values `_match` reads on every message.
        # A bad rule fails here, configuration-time, never parse-time
        for name, value in zip(self.__match_args__ + ("_rules",), (
                sigma, phi, tuple(mask_rules), strict_wildcard_sim,
                compile_rules(mask_rules))):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class Template(_Record):
    """A token skeleton with wildcard slots; ids are stable and unique.

    Two cache slots ride along, both filled by `render()` and both
    cleared when the miner widens the template, turning a position into a
    wildcard: `_text`, the rendered text, and `_slots`, the wildcard
    positions in ascending order, from which `Miner._structure` picks a
    line's variables.  Neither is in `__match_args__`, so neither is part
    of equality, repr or a snapshot."""

    __slots__ = ("id", "tokens", "match_count", "_text", "_slots")
    __match_args__ = ("id", "tokens", "match_count")

    def __init__(self, id, tokens, match_count=1):
        self.id = id
        self.tokens = tokens
        self.match_count = match_count
        self._text = self._slots = None

    def render(self):
        """The template's text; it and the wildcard positions are made
        together and cached until the template widens."""
        if self._text is None:
            tokens = self.tokens
            self._slots = tuple(
                [j for j, tt in enumerate(tokens) if tt == WILDCARD]
            ) if WILDCARD in tokens else ()
            self._text = render(tokens)
        return self._text


class TreeNode:
    """A leaf holds `templates`; any other node routes through `children`,
    which the root keys on token count and an internal node on the token
    at its 0-based `pivot`."""

    __slots__ = ("pivot", "children", "templates")

    def __init__(self, templates=None):
        self.pivot = None
        self.children = {} if templates is None else None
        self.templates = templates


class MinerStats(_Record):
    __match_args__ = ("node_count", "template_count", "messages_processed",
                      "splits_performed", "max_depth")

    def __init__(self, node_count=1, template_count=0, messages_processed=0,
                 splits_performed=0, max_depth=0):
        self.node_count = node_count
        self.template_count = template_count
        self.messages_processed = messages_processed
        self.splits_performed = splits_performed
        self.max_depth = max_depth


class ParseResult(_Record):
    """Outcome of structuring one line: template identity plus variables."""

    __slots__ = __match_args__ = ("template_id", "template_text", "variables",
                                  "created_new")

    def __init__(self, template_id, template_text, variables, created_new):
        self.template_id = template_id
        self.template_text = template_text
        self.variables = variables
        self.created_new = created_new


class MessageCost(_Record):
    """Work done for the latest message, for complexity-bound checks.

    A miner keeps one instance as `last_cost` and overwrites its fields on
    every message; copy them to keep them past the next call.  `simf_evals`
    counts the templates visited; scoring one stops at the first miss that
    puts it out of reach, and the visits stop at the first perfect score.
    No leaf holds more than phi + 1 templates, so `simf_evals <= phi + 1`.
    `pivot_scans` is the size of the token matrix of the leaf the message
    split (templates x length, 0 if none), which bounds the token
    comparisons of its pivot scan.
    """

    __match_args__ = ("descent_steps", "simf_evals", "pivot_scans")

    def __init__(self, descent_steps=0, simf_evals=0, pivot_scans=0):
        self.descent_steps = descent_steps
        self.simf_evals = simf_evals
        self.pivot_scans = pivot_scans


def sim_f(msg_tokens, tpl_tokens, strict):
    """Fraction of positions where message and template tokens agree.

    With strict=False a template wildcard also counts as agreeing with
    any message token.  Equal lists score 1.0 at once, in either mode: they
    agree at every position, wildcards included.  Lengths must match; two
    empty lists are equal.  `Miner._match` applies this rule inline, with
    an early stop, and no package code calls `sim_f`; it stays for the
    `ustep` export until ROADMAP item 3 removes it.
    """
    if msg_tokens == tpl_tokens:
        return 1.0
    n = len(msg_tokens)
    if n != len(tpl_tokens):
        raise ValueError("sim_f requires equal token lengths")
    matches = 0
    for mt, tt in zip(msg_tokens, tpl_tokens):
        if mt == tt or (not strict and tt == WILDCARD):
            matches += 1
    return matches / n


def update_template(tpl, msg_tokens):
    """Wildcard every position where the message disagrees with the
    template, clearing its cached text and wildcard positions if any
    position turns, and say whether one did.  This is the miner's own
    widening step: only the miner that holds a template widens it, since
    its exact-line memo is correct only while it sees every change."""
    turned = False
    tokens = tpl.tokens
    for j, mt in enumerate(msg_tokens):
        tt = tokens[j]
        if tt != mt and tt != WILDCARD:
            tokens[j] = WILDCARD
            tpl._text = tpl._slots = None
            turned = True
    tpl.match_count += 1
    return turned


def select_pivot(templates, excluded=()):
    """Token position of maximal diversity among templates, or None.

    Diversity of a position is the number of distinct token values there
    (the wildcard counts as one value).  Positions in `excluded` are
    never chosen; if no position has diversity >= 2 the leaf cannot be
    split and None is returned.  Ties break toward the lowest position,
    so the scan stops at the first position where every template holds a
    different value: no later one can beat it.
    """
    best_pos = None
    best_div = 1
    most = len(templates)
    for j, column in enumerate(zip(*[t.tokens for t in templates])):
        if j in excluded:
            continue
        div = len(set(column))
        if div > best_div:
            best_div = div
            best_pos = j
            if div == most:
                break
    return best_pos


class Miner:
    """Single-writer streaming miner; one instance per log source."""

    def __init__(self, config=None):
        self.config = config or MinerConfig()
        self._rules = self.config._rules
        self.root = TreeNode()
        self.stats = MinerStats()
        self.last_cost = MessageCost()
        # the one string of each distinct token in the templates `_match`
        # creates and in the labels it keys their leaves by; it keeps a
        # token a template later widened to the wildcard, so it grows with
        # the templates created, never with the lines merged
        self._tokens = {WILDCARD: WILDCARD}
        # masked line -> [template, descent steps, templates scored, tail]
        # for a line `_match` merged, changing nothing, into the template
        # whose text it is; `_match` replaces the dict whenever it changes
        # the tree or a template, and a key is its template's text, so
        # there is at most one entry per template.  The tail is what
        # `_stream`'s encode made of the line's result, or None until
        # `_stream` meets the line; it goes with the entry
        self._exact = {}
        # line length -> the fewest agreeing positions k with k / n > sigma,
        # or n if there are none, which a template in a leaf of at most phi
        # templates needs to take a line
        self._need = {}

    # -- descent and assignment ----------------------------------------

    def _match(self, tokens):
        """Route a message to its leaf, then pick or create its template.

        This is the whole of one message's work except building its
        result: descent (creating a leaf when no label matches), scoring
        the leaf's templates, the split of a leaf grown past phi, and the
        cost and stats accounting.  A leaf holding more than phi templates
        has failed to split and takes no new one: the line merges into its
        best template.  Returns (template, created).
        """
        stats = self.stats
        steps = 0
        node = self.root
        key = len(tokens)
        while True:
            # the root's labels are ints, so it never has a wildcard child
            child = node.children.get(key)
            if child is None:
                child = node.children.get(WILDCARD)
            steps += 1
            if child is None:
                if node is not self.root:
                    key = self._tokens.setdefault(key, key)
                child = TreeNode([])
                node.children[key] = child
                stats.node_count += 1
                if steps > stats.max_depth:
                    stats.max_depth = steps
            if child.templates is not None:
                break
            node = child
            key = tokens[node.pivot]
        leaf = child
        templates = leaf.templates
        n = len(tokens)
        # A template can win only by agreeing at `need` positions or more:
        # one more than the best so far, since a leaf's ids ascend and the
        # first maximum wins, the lowest id among ties; before a best,
        # enough to score above sigma, or all n, as a perfect score merges
        # whatever sigma is.  In a leaf past phi the line merges into its
        # best template whatever it scores, so there any template does.
        # Scoring a template stops at the miss that puts `need` out of
        # reach, and nothing after a perfect score can beat it.
        if len(templates) > self.config.phi:
            need = 0
        else:
            need = self._need.get(n)
            if need is None:
                # k / n is sim_f's score for k agreeing positions
                sigma = self.config.sigma
                need = self._need[n] = next(
                    (k for k in range(n) if k / n > sigma), n)
        strict = self.config.strict_wildcard_sim
        best = None
        evals = 0
        for tpl in templates:
            evals += 1
            tt = tpl.tokens
            if tt == tokens:
                best, need = tpl, n + 1
                break
            slack = n - need   # misses this template can still afford
            for mt, t in zip(tokens, tt):
                if mt != t and (strict or t != WILDCARD):
                    if not slack:
                        break
                    slack -= 1
            else:
                # it agrees at need + slack positions; at n it scores 1.0
                best = tpl
                need += slack + 1
                if need > n:
                    break
        scans = 0
        if best is None:
            # no template scored above sigma, and the leaf has room
            self._exact = {}
            stats.template_count += 1
            best = Template(stats.template_count, list(
                map(self._tokens.setdefault, tokens, tokens)))
            templates.append(best)
            created = True
            if len(templates) > self.config.phi:
                scans = self._split(leaf, tokens, steps)
        elif need > n:
            # a perfect score: updating would change no token
            best.match_count += 1
            created = False
        else:
            if update_template(best, tokens):
                self._exact = {}
            created = False
        cost = self.last_cost
        cost.descent_steps = steps
        cost.simf_evals = evals
        cost.pivot_scans = scans
        stats.messages_processed += 1
        return best, created

    # -- leaf splitting --------------------------------------------------

    def _split(self, leaf, tokens, depth):
        """Turn a saturated leaf, `depth` steps below the root, into an
        internal node keyed on a pivot.

        The pivots above it come from walking `tokens` again: nodes keep no
        parent link, so no tree holds a reference cycle.  Returns the size
        of the leaf's token matrix, templates x length, which bounds the
        token comparisons of the pivot scan (`select_pivot` may stop
        sooner); a leaf with no usable pivot is kept with its phi + 1
        templates.
        """
        excluded = set()
        node = self.root.children[len(tokens)]
        while node is not leaf:
            excluded.add(node.pivot)
            child = node.children.get(tokens[node.pivot])
            node = node.children[WILDCARD] if child is None else child
        scans = len(leaf.templates) * len(leaf.templates[0].tokens)
        pivot = select_pivot(leaf.templates, excluded)
        if pivot is None:
            return scans
        groups = {}
        for tpl in leaf.templates:
            groups.setdefault(tpl.tokens[pivot], []).append(tpl)
        leaf.pivot = pivot
        leaf.children = {label: TreeNode(tpls)
                         for label, tpls in groups.items()}
        leaf.templates = None
        self.stats.node_count += len(groups)
        self.stats.splits_performed += 1
        if depth + 1 > self.stats.max_depth:
            self.stats.max_depth = depth + 1
        return scans

    # -- public API ------------------------------------------------------

    def process_message(self, raw):
        """Structure one raw line; any line is parseable."""
        return self._structure(preprocess(raw, self._rules))

    def _structure(self, masked):
        """`process_message` of the raw line that the mask rules turned
        into `masked`.  Never pass a line through the rules twice: a rule
        that matches the empty string inserts another wildcard.

        A line that is the text of a template it last merged into, with
        the tree and templates unchanged since, replays that merge from
        its `_exact` entry (`_repeat`) without tokenizing, descending or
        scoring.  Any other line's variables are its tokens at the
        template's wildcard positions, which `render()` caches until it
        widens; an entry is made only once they are cached, with a tail
        of None for `_stream` to fill, and a widening empties the memo."""
        exact = self._exact
        hit = exact.get(masked)
        if hit is not None:
            tpl = self._repeat(hit)
            return ParseResult(tpl.id, tpl._text,
                               [WILDCARD] * len(tpl._slots), False)
        tokens = tokenize(masked)
        tpl, created = self._match(tokens)
        text = tpl.render()
        if exact is self._exact and masked == text:
            cost = self.last_cost
            exact[text] = [tpl, cost.descent_steps, cost.simf_evals, None]
        return ParseResult(tpl.id, text, [tokens[j] for j in tpl._slots],
                           created)

    def _repeat(self, hit):
        """Count the memo entry `hit`'s line once more: the counts, costs
        and stats of the merge it replays, the one place a memo hit does
        them.  Returns the entry's template, for `_structure` to build the
        result from; `_stream` yields the entry's tail instead.

        `_structure`'s hit branch calls it as `_stream` does; on a 2-vCPU
        host that call moved parse-steady's stream p50 from 0.935 to 0.947
        reference messages (median of 10 pairs), inside the spread of the
        runs."""
        tpl, steps, evals, _ = hit
        tpl.match_count += 1
        cost = self.last_cost
        cost.descent_steps = steps
        cost.simf_evals = evals
        cost.pivot_scans = 0
        self.stats.messages_processed += 1
        return tpl

    def _stream(self, lines, encode):
        """`encode(self._structure(masked))` for each of the masked `lines`
        in turn.  The output for a line the memo holds is kept in the tail
        of its entry (`_exact`): while the entry lasts, the result depends
        on the masked line alone, so a later hit is only counted
        (`_repeat`) and yields the tail again, and no `ParseResult` is
        built for it.  So `encode` must depend on the result alone, and a
        miner takes one `encode`.  A tail of None, as `process_message`
        leaves it, is a miss; `_match` may replace `_exact` at any line."""
        structure, repeat = self._structure, self._repeat
        for masked in lines:
            hit = self._exact.get(masked)
            tail = hit and hit[3]
            if tail is None:
                tail = encode(structure(masked))
                hit = self._exact.get(masked)
                if hit is not None:
                    hit[3] = tail
            else:
                repeat(hit)
            yield tail

    def template_id(self, raw):
        """Template id of one raw line: `process_message(raw).template_id`
        with the same effect on the miner, minus building the result."""
        return self._match(tokenize(preprocess(raw, self._rules)))[0].id

    def templates(self):
        """All discovered templates as (id, rendered text, match_count)."""
        return sorted((t.id, t.render(), t.match_count)
                      for leaf in self.iter_leaves() for t in leaf.templates)

    def iter_leaves(self):
        """Every leaf of the tree, depth first."""
        stack = [self.root]
        while stack:
            node = stack.pop()
            if node.templates is not None:
                yield node
            else:
                stack.extend(node.children.values())

    # -- snapshot / restore ----------------------------------------------

    @_collector_paused
    def snapshot(self):
        """Serialize the full miner state to bytes (versioned JSON).

        `nodes` lists the tree depth first as [parent index, label, pivot],
        and `templates` holds [leaf index, id, rendered text, match_count].
        Of the counters, only messages_processed is stored; the others
        follow from the tree.  The cyclic collector is paused meanwhile.

        The encoder's circular-reference check is off: each call builds
        the payload anew from tuples, ints, strings and the config's dict
        and list, so no container in it appears twice or holds itself."""
        nodes, templates = [], []
        add_node, add_template = nodes.append, templates.append
        stack = [(self.root, -1, None)]
        pop, push = stack.pop, stack.append
        while stack:
            node, up, label = pop()
            index = len(nodes)
            add_node((up, label, node.pivot))
            if node.templates is not None:
                for t in node.templates:
                    add_template((index, t.id, t.render(), t.match_count))
            else:
                for key, child in reversed(node.children.items()):
                    push((child, index, key))
        import json
        payload = {
            "magic": SNAPSHOT_MAGIC,
            "version": SNAPSHOT_VERSION,
            "config": self.config._asdict(),
            "messages_processed": self.stats.messages_processed,
            "nodes": nodes,
            "templates": templates,
        }
        return json.dumps(payload, separators=(",", ":"),
                          check_circular=False).encode("utf-8")

    @classmethod
    @_collector_paused
    def restore(cls, data):
        """Rebuild a miner from snapshot bytes; replay-equivalent to the
        original.  Raises SnapshotError on corrupt or mismatched input.
        The cyclic collector is paused meanwhile."""
        import json
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
            miner = cls(MinerConfig(**payload["config"]))
            miner._load(payload["nodes"], payload["templates"],
                        payload["messages_processed"])
        except (KeyError, TypeError, ValueError, IndexError) as exc:
            raise SnapshotError(f"malformed snapshot: {exc}") from exc
        return miner

    def _load(self, nodes, templates, messages):
        """Fill a fresh miner from snapshot lists, raising ValueError at the
        first rule they break: every rule descent, assignment and splitting
        rely on.  Pivots lie inside the length and differ along each path,
        which bounds descent by length + 1 steps; a leaf's template ids
        ascend, which the scoring in `_match` relies on, and a leaf holds at
        most phi + 1 templates, which bounds its scoring."""
        if nodes[0] != [-1, None, None]:
            raise ValueError("first node is not the root")
        built, lengths = [self.root], [None]
        path, pivots = [0], set()   # the latest node's ancestry
        splits = depth = 0
        for i in range(1, len(nodes)):
            up, label, pivot = nodes[i]
            while path and path[-1] != up:
                pivots.discard(built[path.pop()].pivot)
            if type(up) is not int or not path \
                    or built[up].templates is not None:
                raise ValueError(f"node {i}: bad parent {up!r}")
            parent = built[up]
            if parent is self.root:
                length = label
                if type(label) is not int or label < 0:
                    raise ValueError(f"node {i}: bad length {label!r}")
            else:
                length = lengths[up]
                if type(label) is not str:
                    raise ValueError(f"node {i}: bad label {label!r}")
                if label == WILDCARD:
                    label = WILDCARD   # the shared object, not a copy
            if label in parent.children:
                raise ValueError(f"node {i}: duplicate label {label!r}")
            node = TreeNode([] if pivot is None else None)
            if pivot is not None:
                if type(pivot) is not int or not 0 <= pivot < length \
                        or pivot in pivots:
                    raise ValueError(f"node {i}: bad pivot {pivot!r}")
                node.pivot = pivot
                pivots.add(pivot)
                splits += 1
            parent.children[label] = node
            built.append(node)
            lengths.append(length)
            if len(path) > depth:
                depth = len(path)
            path.append(i)
        phi, n_nodes, n_templates = self.config.phi, len(built), len(templates)
        seen = set()
        total = 0
        for at, tid, text, count in templates:
            if type(at) is not int or not 0 <= at < n_nodes \
                    or built[at].templates is None:
                raise ValueError(f"template {tid!r}: node {at!r} is no leaf")
            if type(tid) is not int or not 0 < tid <= n_templates \
                    or tid in seen:
                raise ValueError(f"template id {tid!r} is not new in 1..N")
            if type(count) is not int or count < 1:
                raise ValueError(f"template {tid}: bad match_count {count!r}")
            tokens = tokenize(text) if type(text) is str else None
            if tokens is None or len(tokens) != lengths[at]:
                raise ValueError(f"template {tid}: text is not "
                                 f"{lengths[at]} tokens")
            held = built[at].templates
            if held and held[-1].id > tid:
                raise ValueError(f"template {tid}: ids of node {at} "
                                 "do not ascend")
            if len(held) > phi:
                raise ValueError(f"node {at}: more than phi + 1 templates")
            seen.add(tid)
            total += count
            if WILDCARD in text:
                # one shared wildcard object, not a string per slot
                tokens = [WILDCARD if t == WILDCARD else t for t in tokens]
            held.append(Template(tid, tokens, count))
        if type(messages) is not int or messages != total:
            raise ValueError("messages_processed is not the match total")
        stats = self.stats
        stats.node_count = n_nodes
        stats.template_count = len(seen)
        stats.messages_processed = total
        stats.splits_performed = splits
        stats.max_depth = depth
