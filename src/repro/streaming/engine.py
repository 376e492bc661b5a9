"""Multi-subscription streaming engine (selective dissemination of information).

The paper's headline use case is SDI: match streaming XML documents against
standing user subscriptions, rewriting reverse axes away so that each
document needs only a single pass.  Running one
:class:`~repro.streaming.matcher.StreamingMatcher` per subscription costs N
full passes of per-event work for N subscribers.  This module shares that
work in the tradition of shared-index filtering engines (XFilter/YFilter):

* :class:`SubscriptionIndex` compiles every subscription once — parsing and
  reverse-axis removal are memoized through
  :mod:`repro.xpath.cache` — into one shared lazy automaton
  (:mod:`repro.streaming.automaton`) over the subscriptions' structural
  spines.  The few union members the automaton cannot serve are merged
  into a prefix *trie* instead: two members whose paths start with the
  same steps (same axis, node test and qualifiers) share trie nodes.
* :class:`MultiMatcher` runs the automaton and the fallback trie over one
  event stream in a single pass.  Past a qualifier gate, and along the
  trie, one expectation per (trie node, anchor) replaces one expectation
  per (subscription, step, anchor); qualifier conditions of a shared step
  are built once per matched node and reused by every subscription
  downstream.  Absolute sub-paths mentioned in qualifiers and joins are
  matched once, shared across *all* subscriptions.  Live expectations sit
  in the core's tag-indexed dispatch structure, so a node event touches
  only the trie branches whose next step could match it; in verdict-only
  mode a branch is retired — its expectations unlinked, its spawning
  stopped — the moment the last subscription below it is satisfied.

The per-subscription semantics are exactly those of
:func:`repro.streaming.stream_evaluate` — the property tests assert result
equality query by query.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Dict, Hashable, Iterable, List, Mapping, Optional, Sequence, Tuple, Union as TypingUnion

from repro.errors import StreamingError
from repro.streaming.automaton import (
    DEFAULT_TRANSITION_CAP,
    SubscriptionAutomaton,
    compile_subscription_automaton,
)
from repro.streaming.delivery import (
    Delivery,
    SubtreeTee,
    resolve_delivery,
)
from repro.streaming.matcher import (
    Continuation,
    MatcherCore,
    _DROPPED_SINK,
    _Sink,
)
from repro.streaming.stats import ChurnStats, StreamStats
from repro.xmlmodel.events import Event
from repro.xpath import analysis
from repro.xpath.ast import (
    Bottom,
    LocationPath,
    PathExpr,
    Step,
    iter_union_members,
)
from repro.xpath.cache import QueryCache, default_cache
from repro.xpath.serializer import to_string


# ---------------------------------------------------------------------------
# The subscription trie
# ---------------------------------------------------------------------------

class _TrieNode:
    """One shared step of the subscription trie.

    ``children`` is keyed on the full :class:`~repro.xpath.ast.Step` — axis,
    node test *and* qualifiers must agree for two subscriptions to share
    matching state (steps are frozen dataclasses, so structural equality is
    exactly the sharing criterion).  ``terminals`` lists the ordinals of the
    subscriptions whose path ends at this node; ``sub_ids`` the ordinals of
    every subscription reachable at or below it, used to prune expectations
    once all of them are already satisfied.
    """

    __slots__ = ("step", "children", "terminals", "sub_ids", "cont",
                 "nodes_by_ordinal")

    def __init__(self, step: Optional[Step] = None):
        self.step = step
        self.children: Dict[Step, "_TrieNode"] = {}
        self.terminals: List[int] = []
        self.sub_ids: frozenset = frozenset()
        self.cont = _TrieContinuation(self)
        #: Only populated on the root by :meth:`seal`: ordinal -> every trie
        #: node whose subtree serves that subscription.  This is the reverse
        #: index the matcher walks when a subscription settles, to retire
        #: exactly the branches that no longer serve anyone.
        self.nodes_by_ordinal: Dict[int, List["_TrieNode"]] = {}

    def child(self, step: Step) -> "_TrieNode":
        node = self.children.get(step)
        if node is None:
            node = _TrieNode(step)
            self.children[step] = node
        return node

    def seal(self) -> frozenset:
        """Compute ``sub_ids`` bottom-up once the trie is fully built, plus
        the reverse ``nodes_by_ordinal`` index of the sealed (sub-)trie."""
        self._seal_ids()
        reverse: Dict[int, List["_TrieNode"]] = {}
        stack = list(self.children.values())
        while stack:
            node = stack.pop()
            for ordinal in node.sub_ids:
                reverse.setdefault(ordinal, []).append(node)
            stack.extend(node.children.values())
        self.nodes_by_ordinal = reverse
        return self.sub_ids

    def _seal_ids(self) -> frozenset:
        ids = set(self.terminals)
        for node in self.children.values():
            ids.update(node._seal_ids())
        self.sub_ids = frozenset(ids)
        return self.sub_ids

    def node_count(self) -> int:
        """Number of step nodes in the (sub-)trie, excluding the root."""
        return sum(1 + node.node_count() for node in self.children.values())


def _build_trie(members_by_ordinal) -> _TrieNode:
    """Build and seal a subscription trie from ``(ordinal, member)`` pairs.

    Builds the fallback trie (the members the automaton cannot serve) and
    the whole-index report trie of :meth:`SubscriptionIndex.sharing_summary`.
    """
    root = _TrieNode()
    for ordinal, member in members_by_ordinal:
        node = root
        for step in member.steps:
            node = node.child(step)
        node.terminals.append(ordinal)
    root.seal()
    return root


def _trie_insert(root: _TrieNode, ordinal: int, member: LocationPath) -> None:
    """Thread one union member into a live (already sealed) trie.

    The incremental mirror of :func:`_build_trie` + :meth:`_TrieNode.seal`:
    the ``sub_ids`` sets along the branch and the root's reverse
    ``nodes_by_ordinal`` index are updated in place, each node listed once
    per ordinal exactly as ``seal`` would have it — the matcher's
    branch-retirement countdowns depend on that invariant.
    """
    nodes = root.nodes_by_ordinal.setdefault(ordinal, [])
    root.sub_ids = root.sub_ids | {ordinal}
    node = root
    for step in member.steps:
        node = node.child(step)
        if ordinal not in node.sub_ids:
            node.sub_ids = node.sub_ids | {ordinal}
            nodes.append(node)
    node.terminals.append(ordinal)


def _trie_remove(root: _TrieNode, ordinal: int,
                 members: Sequence[LocationPath]) -> None:
    """Unlink one subscription from a live trie, pruning emptied branches.

    ``members`` are the union members the subscription may have threaded in
    (members never inserted — e.g. automaton-served ones, for a fallback
    trie — walk to a missing child and are skipped).  Pruning walks each
    member's branch bottom-up and drops nodes that serve nobody, so a
    churning index does not accrete dead steps between vacuums.
    """
    for node in root.nodes_by_ordinal.pop(ordinal, ()):
        node.sub_ids = node.sub_ids - {ordinal}
        while ordinal in node.terminals:
            node.terminals.remove(ordinal)
    root.sub_ids = root.sub_ids - {ordinal}
    while ordinal in root.terminals:
        # The path "/" terminates on the root itself (outside the reverse
        # index, which only covers step nodes).
        root.terminals.remove(ordinal)
    for member in members:
        chain = [root]
        node = root
        for step in member.steps:
            node = node.children.get(step)
            if node is None:
                break
            chain.append(node)
        else:
            for child, parent in zip(reversed(chain[1:]),
                                     reversed(chain[:-1])):
                if child.sub_ids or child.children:
                    break
                parent.children.pop(child.step, None)


class _TrieContinuation(Continuation):
    """Advance every subscription hanging off a trie node at once."""

    __slots__ = ("node",)

    def __init__(self, node: _TrieNode):
        self.node = node

    def dead(self, core: "MultiMatcher") -> bool:
        return core.trie_node_dead(self.node)

    def register(self, core: "MultiMatcher", expectation) -> None:
        core.watch_trie_node(self.node, expectation)

    def proceed(self, core: "MultiMatcher", node_id: int, depth: int,
                is_element: bool, tag, value,
                conditions, is_attribute: bool = False) -> None:
        node = self.node
        for ordinal in node.terminals:
            core._deliver(ordinal, node_id, depth, is_element, value,
                          conditions)
        for child in node.children.values():
            # spawn_step itself skips children whose branch is already
            # retired (their continuation reports dead).
            core.spawn_step(child.step, child.cont, anchor_id=node_id,
                            anchor_depth=depth, anchor_is_element=is_element,
                            anchor_tag=tag, anchor_value=value,
                            conditions=conditions,
                            anchor_is_attribute=is_attribute)


# ---------------------------------------------------------------------------
# Subscriptions and results
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Subscription:
    """One compiled subscription of the index."""

    key: Hashable
    #: The subscription as given (query text, or serialized AST).
    source: str
    #: The compiled, reverse-axis-free path the engine matches.
    path: PathExpr
    #: Position in the index (the engine's internal identifier).
    ordinal: int


@dataclass
class SubscriptionResult:
    """Per-subscription verdict of one document pass."""

    key: Hashable
    query: str
    matched: bool
    node_ids: List[int] = field(default_factory=list)
    #: Substream delivery, buffered routing: the serialized XML of every
    #: matched subtree, concatenated in document order.  ``None`` outside
    #: substream mode and when payloads streamed out through an
    #: ``on_payload`` callback instead.
    payload: Optional[bytes] = None


@dataclass
class MultiMatchResult:
    """Outcome of matching one document against a whole subscription index."""

    results: List[SubscriptionResult]
    stats: StreamStats

    def __iter__(self):
        return iter(self.results)

    def __len__(self) -> int:
        return len(self.results)

    def __getitem__(self, key: Hashable) -> SubscriptionResult:
        try:
            return self.by_key[key]
        except KeyError:
            raise KeyError(f"no subscription with key {key!r}") from None

    @cached_property
    def by_key(self) -> Dict[Hashable, SubscriptionResult]:
        return {result.key: result for result in self.results}

    @property
    def matching_keys(self) -> List[Hashable]:
        """Keys of the subscriptions the document matched (routing table row)."""
        return [result.key for result in self.results if result.matched]


# ---------------------------------------------------------------------------
# The engine
# ---------------------------------------------------------------------------

class MultiMatcher(MatcherCore):
    """Single-pass matcher for a whole subscription index.

    Built by :meth:`SubscriptionIndex.matcher`; one instance matches one
    document (the expectations are stream state).  With ``matches_only`` the
    per-subscription result sinks resolve eagerly: as soon as a subscription
    is known to match, its verdict is fixed, its buffered entries are
    dropped, and trie branches that only serve already-satisfied
    subscriptions stop spawning expectations — the SDI fast path.
    """

    def __init__(self, subscriptions: Sequence[Subscription], trie: _TrieNode,
                 automaton: SubscriptionAutomaton,
                 matches_only: bool = False,
                 delivery: Optional[Delivery] = None,
                 index: Optional["SubscriptionIndex"] = None):
        super().__init__(automaton)
        #: Live churn (see :meth:`sync`): the index this session serves, the
        #: retired-ordinal set shared with it *by reference* (removals take
        #: effect immediately, mid-document included), and the version /
        #: generation snapshot the session was last synced to.
        self._index = index
        self._retired: set = index._retired if index is not None else set()
        self._synced_version = index.version if index is not None else 0
        self._generation = index.generation if index is not None else 0
        # The emission layer (see repro.streaming.delivery): what a decided
        # match delivers.  ``matches_only`` is the legacy spelling of the
        # verdict mode; ``resolve_delivery`` reconciles the two.
        delivery = resolve_delivery(delivery, matches_only)
        matches_only = delivery.matches_only
        self._delivery = delivery
        self._subscriptions = tuple(subscriptions)
        self._trie = trie
        self._matches_only = matches_only
        self._automaton = automaton
        if delivery.captures:
            # Substream mode: engage the shared single-pass tee.  The core's
            # add_candidate records a capture claim for every final match
            # (DFA-accepted structural members included — they too converge
            # on add_candidate), and _emit_capture below routes the bytes.
            self._tee = SubtreeTee()
        #: Buffered payload chunks: ordinal -> {node_id: bytes}.
        self._payloads: Dict[int, Dict[int, bytes]] = {}
        #: Emission dedup — several retained entries may claim the same
        #: (subscription, node); the payload is emitted once.
        self._emitted_captures: set = set()
        self._sinks = [_Sink(exists_only=matches_only)
                       for _ in self._subscriptions]
        #: Reverse map for verdict bookkeeping: a result sink can satisfy
        #: outside :meth:`_deliver` too (the end-of-event settlement pass
        #: that decides ``[@a]``-style qualifiers at StartElement), so the
        #: subscription lookup happens in :meth:`_sink_satisfied`.
        self._ordinal_by_sink: Dict[int, int] = {
            id(sink): ordinal for ordinal, sink in enumerate(self._sinks)}
        self._satisfied: set = set()
        #: Trie branches that no longer serve any unsatisfied subscription.
        self._dead_trie_nodes: set = set()
        if matches_only:
            # Per-node countdown of unsatisfied subscriptions; a branch is
            # retired (and its live expectations unlinked) the moment its
            # count reaches zero.  Only the verdict-only mode ever satisfies
            # a result sink mid-stream, so the full-result mode skips the
            # bookkeeping entirely.
            self._trie_watchers: Dict[_TrieNode, Dict[int, object]] = {}
            self._seed_trie_counts()
            self._seed_retired_verdicts()
        for subscription in self._subscriptions:
            self._register_absolute_subpaths(subscription.path)

    def _structural_sink(self, ordinal: int) -> _Sink:
        # Live churn: the shared automaton may fire for ordinals this
        # session retired (removals take effect immediately) or does not
        # carry yet (adds take effect at the next document, after sync).
        if ordinal in self._retired or ordinal >= len(self._sinks):
            return _DROPPED_SINK
        return self._sinks[ordinal]

    def _seed_trie_counts(self) -> None:
        """(Re)build the verdict-mode branch countdowns from the live trie.

        Runs at construction, on :meth:`reset` and on :meth:`sync` — the
        trie is mutated in place by live churn, so the node set and each
        node's ``sub_ids`` may have changed since the last seeding."""
        counts: Dict[_TrieNode, int] = {}
        stack = list(self._trie.children.values())
        while stack:
            node = stack.pop()
            counts[node] = len(node.sub_ids)
            stack.extend(node.children.values())
        self._trie_unsatisfied = counts

    def _seed_retired_verdicts(self) -> None:
        """Count retired ordinals as settled so early termination still
        fires: their sinks can never satisfy (every delivery is dropped),
        and their trie branches are already unlinked, so no
        :meth:`_retire_subscription` bookkeeping applies."""
        self._satisfied.update(
            ordinal for ordinal in self._retired
            if ordinal < len(self._subscriptions))

    def dfa_state_count(self) -> int:
        """DFA states materialized in the shared automaton.  Stable across
        :meth:`reset` — the warmed transition table is the point of session
        reuse."""
        return self._automaton.state_count()

    # -- session reuse -----------------------------------------------------
    def reset(self) -> None:
        """Make the matcher ready for the next document of a session.

        Construction is the expensive part at scale — it walks every
        subscription's AST to register absolute sub-paths and (in
        verdict-only mode) the whole trie to seed the per-branch countdowns.
        ``reset`` keeps all of that and only clears the per-document state:
        sinks, satisfied verdicts, retired branches and the core's
        expectation registries.  This is what lets one
        :class:`~repro.streaming.broker.DocumentBroker` session amortize the
        compiled index over a continuous feed of documents.
        """
        if (self._index is not None
                and self._index.generation != self._generation):
            raise StreamingError(
                "the subscription index was vacuumed (ordinals remapped); "
                "build a fresh matcher")
        super().reset()
        for sink in self._sinks:
            sink.entries.clear()
            sink.satisfied = False
        self._satisfied.clear()
        self._dead_trie_nodes.clear()
        self._payloads = {}
        self._emitted_captures = set()
        if self._matches_only:
            self._seed_trie_counts()
            self._trie_watchers.clear()
            self._seed_retired_verdicts()

    def sync(self) -> None:
        """Bring a live session up to its index's current subscription set.

        The churn counterpart of :meth:`reset`, called *between* documents
        (the broker's checkout does it whenever the index version moved):
        appends sinks and per-subscription registries for every ordinal
        added since the last sync and reseeds the verdict-mode branch
        countdowns from the mutated trie.  Removals need no per-matcher
        work — the retired set is shared by reference and consulted at
        delivery time.  A vacuumed index (generation bump) cannot be synced
        to: ordinals were remapped, build a fresh matcher.
        """
        index = self._index
        if index is None:
            raise StreamingError(
                "this matcher was built without a SubscriptionIndex; "
                "nothing to sync from")
        if index.generation != self._generation:
            raise StreamingError(
                "the subscription index was vacuumed (ordinals remapped); "
                "build a fresh matcher")
        if index.version == self._synced_version:
            return
        subscriptions = index._subscriptions
        sinks = self._sinks
        for ordinal in range(len(sinks), len(subscriptions)):
            sink = _Sink(exists_only=self._matches_only)
            sinks.append(sink)
            self._ordinal_by_sink[id(sink)] = ordinal
            self._register_absolute_subpaths(subscriptions[ordinal].path)
        self._subscriptions = tuple(subscriptions)
        if self._matches_only:
            self._seed_trie_counts()
            self._seed_retired_verdicts()
        self._synced_version = index.version

    def _should_halt(self) -> bool:
        """Early termination: in verdict-only mode, once every subscription
        is satisfied no later event can change a verdict."""
        return (self._matches_only
                and len(self._satisfied) == len(self._subscriptions))

    # -- spawning ----------------------------------------------------------
    def _spawn_roots(self, root_id: int) -> None:
        root = self._trie
        for ordinal in root.terminals:
            # The path "/" selects the document root itself.
            self._deliver(ordinal, root_id, 0, False, None, ())
        for child in root.children.values():
            self.spawn_step(child.step, child.cont, anchor_id=root_id,
                            anchor_depth=0, anchor_is_element=False,
                            anchor_tag=None, anchor_value=None,
                            conditions=())

    def _deliver(self, ordinal: int, node_id: int, depth: int,
                 is_element: bool, value, conditions) -> None:
        """A subscription's final step matched ``node_id``.

        Verdict bookkeeping happens in :meth:`_sink_satisfied`, which fires
        on *every* satisfaction path — immediate (unconditioned match) or
        deferred to the end-of-event settlement pass (attribute-qualified
        match decided by the same StartElement).
        """
        if ordinal in self._retired or ordinal >= len(self._sinks):
            # Live churn: unsubscribed mid-feed (drop immediately), or a
            # trie branch added mid-document for a subscription this
            # session will only carry after its next sync.
            return
        self.add_candidate(self._sinks[ordinal], node_id, depth, is_element,
                           value, conditions, collect_values=False)

    # -- substream capture -------------------------------------------------
    def _capture_ordinal(self, sink: _Sink) -> Optional[int]:
        """Result sinks capture; engine-internal sinks (qualifier sub-paths,
        absolute operands) do not."""
        return self._ordinal_by_sink.get(id(sink))

    def _emit_capture(self, capture) -> None:
        """Route one decided capture's payload bytes to its subscriber."""
        if capture.ordinal in self._retired:
            # Unsubscribed while the capture window was open (or before the
            # deferred-capture drain): the payload is no longer owed.
            return
        dedup = (capture.ordinal, capture.node_id)
        if dedup in self._emitted_captures:
            return
        self._emitted_captures.add(dedup)
        data = capture.render()
        self.stats.subtrees_emitted += 1
        self.stats.bytes_emitted += len(data)
        on_payload = self._delivery.on_payload
        if on_payload is not None:
            on_payload(self._subscriptions[capture.ordinal].key,
                       capture.node_id, data)
        else:
            self._payloads.setdefault(capture.ordinal, {})[
                capture.node_id] = data

    def _sink_satisfied(self, sink) -> None:
        super()._sink_satisfied(sink)
        ordinal = self._ordinal_by_sink.get(id(sink))
        if (ordinal is not None and self._matches_only
                and ordinal not in self._satisfied
                and ordinal not in self._retired):
            self._satisfied.add(ordinal)
            self._retire_subscription(ordinal)

    # -- incremental trie pruning ------------------------------------------
    def trie_node_dead(self, node: _TrieNode) -> bool:
        """O(1): does ``node``'s subtree still serve anyone unsatisfied?"""
        return node in self._dead_trie_nodes

    def watch_trie_node(self, node: _TrieNode, expectation) -> None:
        """Track a live expectation of ``node`` for unlink-on-satisfaction."""
        if not self._matches_only:
            # Result sinks never satisfy mid-stream in full-result mode, so
            # the branch can never die: nothing to watch.
            return
        table = self._trie_watchers.setdefault(node, {})
        table[expectation.serial] = expectation
        expectation.watch = table

    def _retire_subscription(self, ordinal: int) -> None:
        """``ordinal`` just settled: retire branches it was the last user of."""
        for node in self._trie.nodes_by_ordinal.get(ordinal, ()):
            count = self._trie_unsatisfied.get(node)
            if count is None:
                # Branch threaded in by live churn after the last seeding:
                # it only serves next-document subscriptions, and retiring
                # it on a stale countdown could silence survivors.
                continue
            remaining = count - 1
            self._trie_unsatisfied[node] = remaining
            if remaining == 0:
                self._dead_trie_nodes.add(node)
                watchers = self._trie_watchers.pop(node, None)
                if watchers:
                    for expectation in list(watchers.values()):
                        self._expire(expectation)

    # -- results -----------------------------------------------------------
    def results(self) -> MultiMatchResult:
        """Per-subscription verdicts (requires the stream to be finished)."""
        if not self._finished:
            raise StreamingError("results() called before the end of the stream")
        captures = self._delivery.captures
        if captures:
            # Captures whose conditions were undecided at window close are
            # settled now, with the same entry.holds() the id readout uses.
            self._drain_deferred_captures()
        buffered_payloads = captures and self._delivery.on_payload is None
        results: List[SubscriptionResult] = []
        total = 0
        for subscription, sink in zip(self._subscriptions, self._sinks):
            if subscription.ordinal in self._retired:
                # Unsubscribed (possibly mid-document): no longer reported.
                continue
            if self._matches_only:
                # Verdict-only mode: ids of candidates that happened to be
                # buffered before the verdict settled are not a full answer,
                # so none are reported.
                node_ids: List[int] = []
                matched = sink.nonempty()
            else:
                node_ids = sorted({entry.node_id for entry in sink.entries
                                   if entry.holds()})
                matched = bool(node_ids)
            payload: Optional[bytes] = None
            if buffered_payloads:
                chunks = self._payloads.get(subscription.ordinal)
                payload = (b"".join(chunks[node_id]
                                    for node_id in sorted(chunks))
                           if chunks else b"")
            results.append(SubscriptionResult(key=subscription.key,
                                              query=subscription.source,
                                              matched=matched,
                                              node_ids=node_ids,
                                              payload=payload))
            total += len(node_ids)
        self.stats.results = total
        return MultiMatchResult(results=results, stats=self.stats)


class SubscriptionIndex:
    """Compiles subscriptions and shares their leading steps in a trie.

    Subscriptions are added with :meth:`add` (or in bulk through the
    constructor / :meth:`add_many`) as xPath text or ASTs; reverse axes are
    rewritten away automatically (RuleSet2 by default) through the
    compiled-query cache, so a subscription text that thousands of users
    share is parsed and rewritten exactly once.

    One index serves any number of documents: :meth:`matcher` hands out a
    fresh single-pass :class:`MultiMatcher` over the shared automaton and
    fallback trie.

    **Live churn.**  A production router cannot recompile the world when
    one user subscribes or unsubscribes, so the shared structures are
    mutated *incrementally* on a running index:

    * :meth:`add_subscription` threads the new branches into the built
      fallback trie in place and inserts the new NFA fragments into
      the shared automaton with a *targeted* DFA invalidation (epoch bump
      plus patching only the materialized states the fragments touch — see
      :meth:`~repro.streaming.automaton.SubscriptionAutomaton.add_member`);
    * :meth:`remove_subscription` is ordinal retirement: trie branches are
      unlinked and pruned immediately, deliveries for the ordinal are
      dropped at the sink boundary (live sessions included — the retired
      set is shared by reference), and the automaton keeps the dead
      fragments until :meth:`vacuum` compacts them away — automatically
      once retired ordinals exceed ``vacuum_ratio`` of the index;
    * running :class:`MultiMatcher` sessions resync between documents
      (:meth:`MultiMatcher.sync`, driven by the :attr:`version` counter):
      adds take effect at the session's next document, removals at once.

    ``index.churn`` (:class:`~repro.streaming.stats.ChurnStats`) accounts
    for all of it.
    """

    def __init__(self,
                 subscriptions: TypingUnion[None, Mapping[Hashable, TypingUnion[str, PathExpr]],
                                            Iterable[TypingUnion[str, PathExpr]]] = None,
                 ruleset: str = "ruleset2",
                 cache: Optional[QueryCache] = None,
                 dfa_transition_cap: int = DEFAULT_TRANSITION_CAP,
                 vacuum_ratio: float = 0.25):
        self._ruleset = ruleset
        self._cache = cache if cache is not None else default_cache()
        self._subscriptions: List[Subscription] = []
        self._by_key: Dict[Hashable, Subscription] = {}
        self._dfa_transition_cap = dfa_transition_cap
        #: Lazily compiled matching structures: the shared automaton plus the
        #: trie over the members it cannot serve (see :meth:`matcher`).
        self._automaton_parts: Optional[
            Tuple[SubscriptionAutomaton, _TrieNode]] = None
        #: Retired ordinals (removed subscriptions awaiting compaction).
        #: Shared by reference with every matcher this index hands out, so
        #: removal takes effect on live sessions immediately.
        self._retired: set = set()
        #: Retired fraction beyond which :meth:`remove_subscription` runs
        #: the deferred compaction automatically.
        self._vacuum_ratio = float(vacuum_ratio)
        #: Bumped on every add/remove; sessions sync on mismatch.
        self._version = 0
        #: Bumped on every vacuum (ordinals remapped; sessions rebuild).
        self._generation = 0
        #: Lifetime churn accounting (see :class:`ChurnStats`).
        self.churn = ChurnStats()
        if subscriptions is not None:
            self.add_many(subscriptions)

    # -- building ----------------------------------------------------------
    def add(self, query: TypingUnion[str, PathExpr],
            key: Optional[Hashable] = None) -> Subscription:
        """Compile and register one subscription; returns its record.

        ``key`` identifies the subscription in results (a subscriber name,
        for instance); it defaults to the first unused integer ordinal.
        Duplicate keys are rejected; duplicate *queries* are fine and share
        all matching state.
        """
        path = self._cache.compile(query, ruleset=self._ruleset)
        for member in iter_union_members(path):
            if isinstance(member, Bottom):
                continue
            if not isinstance(member, LocationPath) or not member.absolute:
                raise StreamingError(
                    "subscriptions must be absolute paths "
                    f"(got {to_string(member)})")
        ordinal = len(self._subscriptions)
        if key is None:
            # Default to the ordinal, skipping over any integers the caller
            # already used as explicit keys.
            key = ordinal
            while key in self._by_key:
                key += 1
        elif key in self._by_key:
            raise ValueError(f"duplicate subscription key {key!r}")
        source = query if isinstance(query, str) else to_string(query)
        subscription = Subscription(key=key, source=source, path=path,
                                    ordinal=ordinal)
        self._subscriptions.append(subscription)
        self._by_key[key] = subscription
        self._version += 1
        # Structures not built yet stay lazy; built ones are updated
        # *incrementally* — live churn never recompiles the world.
        if self._automaton_parts is not None:
            automaton, fallback_trie = self._automaton_parts
            for member in automaton.add_member(ordinal, path,
                                               churn=self.churn):
                _trie_insert(fallback_trie, ordinal, member)
        return subscription

    def add_many(self, subscriptions) -> List[Subscription]:
        """Register a mapping ``{key: query}`` or an iterable of queries."""
        added = []
        if isinstance(subscriptions, Mapping):
            for key, query in subscriptions.items():
                added.append(self.add(query, key=key))
        else:
            for query in subscriptions:
                added.append(self.add(query))
        return added

    # -- live churn --------------------------------------------------------
    def add_subscription(self, key: Hashable,
                         query: TypingUnion[str, PathExpr]) -> Subscription:
        """Live churn: register one subscription on a *running* index.

        Exactly :meth:`add` with the key required up front (a pub/sub
        server always has a subscriber identity), counted in :attr:`churn`.
        Built structures are updated incrementally — fallback trie
        branches threaded in place, NFA fragments inserted with a targeted
        DFA invalidation — and live sessions pick the addition up at their
        next document (:meth:`MultiMatcher.sync`, which the broker's
        checkout drives off the :attr:`version` counter).
        """
        subscription = self.add(query, key=key)
        self.churn.subscriptions_added += 1
        return subscription

    def remove_subscription(self, key: Hashable) -> Subscription:
        """Live churn: drop one subscription from a running index.

        Removal is *ordinal retirement*: the slot stays (ordinals of the
        survivors are untouched, so no session rebuild), its trie branches
        are unlinked and pruned in place, and every delivery for the
        ordinal is dropped at the sink boundary — including by live
        sessions mid-document, which share the retired set by reference.
        The shared automaton keeps the now-dead NFA fragments; once retired
        ordinals exceed ``vacuum_ratio`` of the index, :meth:`vacuum`
        compacts them away automatically.  The key is freed for
        re-registration immediately (the re-add gets a fresh ordinal).
        Raises :class:`KeyError` for an unknown key.
        """
        try:
            subscription = self._by_key.pop(key)
        except KeyError:
            raise KeyError(f"no subscription with key {key!r}") from None
        ordinal = subscription.ordinal
        self._retired.add(ordinal)
        self._version += 1
        members = [member
                   for member in iter_union_members(subscription.path)
                   if not isinstance(member, Bottom)]
        if self._automaton_parts is not None:
            # Only the fallback members ever reached this trie; the others
            # walk to a missing child and are skipped.
            _trie_remove(self._automaton_parts[1], ordinal, members)
        self.churn.subscriptions_removed += 1
        if len(self._retired) > self._vacuum_ratio * len(self._subscriptions):
            self.vacuum()
        return subscription

    def vacuum(self) -> int:
        """Deferred compaction: rebuild without the retired ordinals.

        Survivor ordinals are remapped to close the gaps and the automaton /
        fallback trie are dropped for lazy recompilation, so the shared NFA
        sheds the dead fragments removal left behind.  Runs automatically
        from :meth:`remove_subscription` past ``vacuum_ratio``; callable
        explicitly (e.g. in a maintenance window).  Existing sessions are
        invalidated by the generation bump — the broker builds a fresh one
        at its next checkout — but keep their own pre-vacuum view (retired
        set included: it is re-bound here, never cleared in place) for any
        document in flight.  Returns the number of ordinals reclaimed.
        """
        if not self._retired:
            return 0
        retired = self._retired
        reclaimed = len(retired)
        self._subscriptions = [
            replace(subscription, ordinal=position)
            for position, subscription in enumerate(
                subscription for subscription in self._subscriptions
                if subscription.ordinal not in retired)]
        self._by_key = {subscription.key: subscription
                        for subscription in self._subscriptions}
        self._retired = set()
        self._automaton_parts = None
        self._generation += 1
        self._version += 1
        self.churn.vacuum_runs += 1
        return reclaimed

    @property
    def version(self) -> int:
        """Bumped on every add/remove; sessions sync on mismatch."""
        return self._version

    @property
    def generation(self) -> int:
        """Bumped on every vacuum; stale sessions must be rebuilt."""
        return self._generation

    @property
    def retired_count(self) -> int:
        """Removed subscriptions awaiting compaction (see :meth:`vacuum`)."""
        return len(self._retired)

    @property
    def subscriptions(self) -> Tuple[Subscription, ...]:
        """The live subscriptions (retired ordinals are not listed)."""
        if not self._retired:
            return tuple(self._subscriptions)
        return tuple(subscription for subscription in self._subscriptions
                     if subscription.ordinal not in self._retired)

    def __len__(self) -> int:
        return len(self._subscriptions) - len(self._retired)

    def _built_automaton(self) -> Tuple[SubscriptionAutomaton, _TrieNode]:
        """The shared lazy automaton plus the fallback trie.

        Compiled once per subscription set: the automaton covers every
        union member whose spine it can serve, the trie the rest.  The
        automaton instance — and with it the warmed DFA transition table —
        is shared by every matcher this index hands out.
        """
        if self._automaton_parts is None:
            retired = self._retired
            automaton, fallback = compile_subscription_automaton(
                [(subscription.ordinal, subscription.path)
                 for subscription in self._subscriptions
                 if subscription.ordinal not in retired],
                transition_cap=self._dfa_transition_cap)
            fallback_trie = _build_trie(
                (ordinal, member)
                for ordinal, members in fallback.items()
                for member in members)
            self._automaton_parts = (automaton, fallback_trie)
        return self._automaton_parts

    # -- sharing report ----------------------------------------------------
    def sharing_summary(self) -> dict:
        """Trie compression figures (see ``analysis.prefix_sharing_summary``).

        ``trie_nodes`` is the number of shared step expectations the engine
        walks instead of ``spine_steps`` independent ones;
        ``trie_nodes_built`` counts the nodes of a whole-index prefix trie
        built for this report.
        """
        subscriptions = self.subscriptions
        summary = analysis.prefix_sharing_summary(
            subscription.path for subscription in subscriptions)
        summary["trie_nodes_built"] = _build_trie(
            (subscription.ordinal, member)
            for subscription in subscriptions
            for member in iter_union_members(subscription.path)
            if not isinstance(member, Bottom)).node_count()
        return summary

    # -- matching ----------------------------------------------------------
    def matcher(self, matches_only: bool = False,
                delivery: Optional[Delivery] = None) -> MultiMatcher:
        """A fresh single-pass matcher over the shared automaton.

        Structural spines dispatch through the lazy DFA, qualifiers run on
        the expectation engine past its gates, and the few members the
        automaton cannot serve run on the expectation engine from the root
        through the fallback trie (see :mod:`repro.streaming.automaton`).

        ``delivery`` picks the emission layer (verdict / node ids /
        substream — see :mod:`repro.streaming.delivery`); ``None`` keeps the
        legacy behaviour of ``matches_only``.
        """
        automaton, fallback_trie = self._built_automaton()
        return MultiMatcher(self._subscriptions, fallback_trie, automaton,
                            matches_only=matches_only, delivery=delivery,
                            index=self)

    def evaluate(self, events: Iterable[Event],
                 matches_only: bool = False,
                 delivery: Optional[Delivery] = None) -> MultiMatchResult:
        """Match one document stream against every subscription at once."""
        return self.matcher(matches_only=matches_only,
                            delivery=delivery).process(events)

    def matching(self, events: Iterable[Event]) -> List[Hashable]:
        """Keys of the subscriptions the document matches (SDI routing)."""
        return self.evaluate(events, matches_only=True).matching_keys
