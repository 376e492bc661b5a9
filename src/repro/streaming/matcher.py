"""Single-pass streaming matcher for reverse-axis-free location paths.

The engine consumes a stream of SAX-like events exactly once and reports the
document-order ids of the nodes selected by a forward-only location path.
It is the kind of progressive processor the paper's conclusion announces
("we are designing and implementing a progressive XPath processor" [12]) —
a compact cousin of the authors' later SPEX system.

How it works
------------

* The engine keeps the stack of currently open elements (the only structural
  state a SAX consumer has for free).
* For every location step that still has to be matched, an *expectation*
  describes which future nodes can match it: nodes related to an *anchor*
  node (the match of the previous step) by the step's forward axis.  Because
  all axes are forward, an expectation only ever has to look at nodes whose
  start event has not arrived yet:

  ========================  =====================================================
  axis                      nodes that can still match once the anchor is known
  ========================  =====================================================
  ``self``                  the anchor itself (resolved immediately)
  ``child``                 nodes starting while the anchor is open, one level deeper
  ``descendant``            nodes starting while the anchor is open
  ``descendant-or-self``    the anchor itself plus descendants
  ``following-sibling``     nodes at the anchor's depth after the anchor closes,
                            while the anchor's parent is open
  ``following``             any node starting after the anchor closes
  ========================  =====================================================

* Live expectations are not kept in one flat list.  They are held in a
  YFilter-style *dispatch index* (:class:`_DispatchIndex`) bucketed by what
  their node test can match: an exact-tag table for named tests, plus
  wildcard, any-node and text-node buckets.  A ``StartElement(tag)`` event
  consults only the ``tag`` bucket and the two element-compatible catch-all
  buckets; a ``Text`` event only the text and any-node buckets.  Each
  consulted expectation then passes a constant-time admissibility check
  (active state plus the depth constraint of ``child``/``following-sibling``)
  before it matches — the node test itself is implied by the bucket.
  Per-event work therefore scales with the expectations that *could* match
  the event, not with all live expectations
  (``StreamStats.expectations_checked``).
* Lifecycle transitions are indexed by node id instead of scanned:
  expectations waiting for their anchor to close (``following`` /
  ``following-sibling``) sit in a map keyed by anchor id and enter the
  dispatch index when that exact element closes; ``child``/``descendant``
  expectations register for expiry under their anchor id; a
  ``following-sibling`` window registers under its anchor's *parent* id and
  is closed when that parent closes.  An :class:`EndElement` therefore pops
  just the affected entries.  Expectations whose continuation can no longer
  deliver anything useful (an existence sink already satisfied, a trie
  branch whose subscriptions are all settled) are unlinked *at the moment of
  satisfaction* through watcher registries rather than re-checked on every
  event.
* Qualifiers and joins become *conditions* attached to candidate matches.
  Existence qualifiers spawn sub-expectations anchored at the candidate;
  ``==`` joins collect node ids on both sides; ``=`` joins additionally
  buffer string values.  Absolute sub-paths (introduced by RuleSet1's
  rewriting) are matched once from the document root into sinks shared by
  all conditions that mention them.
* At the end of the stream every condition can be decided and the candidates
  whose conditions hold are reported.  Memory therefore scales with the
  number of *pending candidates and conditions* — not with the document —
  which is the property the benchmarks of experiment E9 measure.

Reverse axes are rejected: remove them first with
:func:`repro.rewrite.remove_reverse_axes`.

The machinery is split in two layers so that it can serve both one query and
thousands of subscriptions at once (:mod:`repro.streaming.engine`):

* :class:`MatcherCore` owns the event loop, the element stack, the
  expectation lifecycle, conditions, value collection and the shared
  absolute-sub-path sinks.  What happens when a step matches is delegated to
  a *continuation* object attached to each expectation.
* :class:`PathContinuation` is the single-query continuation: continue with
  the remaining steps of one path into one sink.  The multi-subscription
  engine plugs in a trie-based continuation instead, advancing a whole
  bundle of subscriptions that share the matched step.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.errors import ReverseAxisStreamingError, StreamingError
from repro.streaming.automaton import (
    AutomatonRun,
    SubscriptionAutomaton,
    compile_subscription_automaton,
)
from repro.streaming.delivery import SubtreeTee, _LeafCapture
from repro.streaming.stats import StreamStats
from repro.xmlmodel.stream_serialize import serialize_events
from repro.xmlmodel.events import (
    EndDocument,
    EndElement,
    Event,
    StartDocument,
    StartElement,
    Text,
)
from repro.xpath import analysis
from repro.xpath.ast import (
    AndExpr,
    Bottom,
    Comparison,
    Literal,
    LocationPath,
    NodeTestKind,
    OrExpr,
    PathExpr,
    PathQualifier,
    Qualifier,
    Step,
    iter_union_members,
    union_of,
)
from repro.xpath.axes import Axis
from repro.xpath.serializer import to_string


# ---------------------------------------------------------------------------
# Conditions: booleans decided by the end of the stream
# ---------------------------------------------------------------------------

@dataclass
class _Entry:
    """One buffered candidate produced by a sink: node id, optional value,
    and the conditions that must hold for it to count."""

    node_id: int
    conditions: Tuple["_Condition", ...]
    value: Optional[str] = None

    def holds(self) -> bool:
        return all(condition.result() for condition in self.conditions)


class _Sink:
    """Collects the final-step matches of one (sub-)path.

    Sinks that only feed an existence condition (``exists_only``) resolve
    eagerly: as soon as one match with no pending conditions arrives, the
    sink is *satisfied*, later matches are not buffered, and the engine stops
    feeding the expectations that point at it.  This keeps the memory of
    streaming evaluation proportional to the number of genuinely undecided
    candidates rather than to the number of witnesses in the document.
    """

    __slots__ = ("entries", "collect_values", "exists_only", "satisfied")

    def __init__(self, collect_values: bool = False, exists_only: bool = False):
        self.entries: List[_Entry] = []
        self.collect_values = collect_values
        self.exists_only = exists_only
        self.satisfied = False

    def add(self, entry: _Entry) -> bool:
        """Record a match; returns whether the entry had to be buffered."""
        if self.satisfied:
            return False
        if self.exists_only and not entry.conditions:
            self.satisfied = True
            self.entries.clear()
            return False
        self.entries.append(entry)
        return True

    def surviving(self) -> List[_Entry]:
        return [entry for entry in self.entries if entry.holds()]

    def nonempty(self) -> bool:
        return self.satisfied or bool(self.surviving())


#: Shared terminal sink for deliveries that must be dropped on the floor:
#: retired (unsubscribed) ordinals, and ordinals a live session does not
#: carry yet because the subscription was added mid-document (live churn —
#: see :meth:`repro.streaming.engine.MultiMatcher.sync`).  Permanently
#: satisfied and exists-only, so :meth:`_Sink.add` rejects every entry in
#: O(1), qualifier gates skip it, and no capture claim can attach (it is
#: registered in no ordinal map).
_DROPPED_SINK = _Sink(exists_only=True)
_DROPPED_SINK.satisfied = True


class _Condition:
    """Base class of deferred boolean conditions."""

    __slots__ = ()

    def result(self) -> bool:  # pragma: no cover - abstract
        raise NotImplementedError

    def known_true(self) -> bool:
        """Whether the condition is already *irrevocably* true mid-stream.

        Conservative: ``False`` just means "not decided yet".  This is what
        lets ``[@a]`` / ``[@a = "v"]`` qualifiers settle verdicts at the
        StartElement that carries the attributes — their sub-sinks are final
        the moment the per-element attribute sweep ends — instead of
        waiting for the end of the stream.
        """
        return False


class _ExistsCondition(_Condition):
    """True iff the attached sink ends up with at least one surviving entry."""

    __slots__ = ("sink",)

    def __init__(self, sink: _Sink):
        self.sink = sink

    def result(self) -> bool:
        return self.sink.nonempty()

    def known_true(self) -> bool:
        # A satisfied existence sink can never become unsatisfied.
        return self.sink.satisfied


class _FalseCondition(_Condition):
    """Constant false (e.g. a ``⊥`` qualifier)."""

    __slots__ = ()

    def result(self) -> bool:
        return False


class _TrueCondition(_Condition):
    """Constant true (e.g. a literal-to-literal comparison that holds)."""

    __slots__ = ()

    def result(self) -> bool:
        return True

    def known_true(self) -> bool:
        return True


class _ValueMatchCondition(_Condition):
    """A ``path = "literal"`` join: some surviving entry has that value.

    For attribute operands (``[@id = "42"]``) the value arrives complete on
    the StartElement event, so the sink entry's value is already final the
    moment the qualifier is built.
    """

    __slots__ = ("sink", "value")

    def __init__(self, sink: _Sink, value: str):
        self.sink = sink
        self.value = value

    def result(self) -> bool:
        return any((entry.value or "") == self.value
                   for entry in self.sink.surviving())

    def known_true(self) -> bool:
        # Entry values are final once set (attributes and text at creation,
        # elements when they close) and entries are never removed from a
        # collecting sink, so a matching entry whose own conditions are
        # irrevocable decides the comparison for good.
        return any(
            entry.value is not None and entry.value == self.value
            and all(condition.known_true()
                    for condition in entry.conditions)
            for entry in self.sink.entries)


class _AndCondition(_Condition):
    __slots__ = ("parts",)

    def __init__(self, parts: Iterable[_Condition]):
        self.parts = tuple(parts)

    def result(self) -> bool:
        return all(part.result() for part in self.parts)

    def known_true(self) -> bool:
        return all(part.known_true() for part in self.parts)


class _OrCondition(_Condition):
    __slots__ = ("parts",)

    def __init__(self, parts: Iterable[_Condition]):
        self.parts = tuple(parts)

    def result(self) -> bool:
        return any(part.result() for part in self.parts)

    def known_true(self) -> bool:
        return any(part.known_true() for part in self.parts)


class _JoinCondition(_Condition):
    """A join ``left θ right``: node identity (``==``) or value equality (``=``)."""

    __slots__ = ("left", "right", "op")

    def __init__(self, left: _Sink, right: _Sink, op: str):
        self.left = left
        self.right = right
        self.op = op

    def result(self) -> bool:
        left_entries = self.left.surviving()
        right_entries = self.right.surviving()
        if not left_entries or not right_entries:
            return False
        if self.op == "==":
            left_ids = {entry.node_id for entry in left_entries}
            right_ids = {entry.node_id for entry in right_entries}
            return bool(left_ids & right_ids)
        left_values = {entry.value or "" for entry in left_entries}
        right_values = {entry.value or "" for entry in right_entries}
        return bool(left_values & right_values)


# ---------------------------------------------------------------------------
# Expectations: pending step matches
# ---------------------------------------------------------------------------

#: Expectation lifecycle: waiting for the anchor to close (sibling/following
#: axes), actively matching, or expired.
_WAITING, _ACTIVE, _EXPIRED = "waiting", "active", "expired"


class _Expectation:
    """Waiting for future nodes related to ``anchor`` by ``step.axis``.

    What to do with a matching node is delegated to ``cont``, a continuation
    object (:class:`PathContinuation` or the trie continuation of
    :mod:`repro.streaming.engine`).

    ``serial`` is the engine-wide spawn ordinal, used as the key under which
    the expectation is linked into the dispatch index (``bucket``) and at
    most one watcher registry (``watch``); both links are severed in O(1)
    when the expectation expires.
    """

    __slots__ = ("step", "cont", "anchor_id", "anchor_depth",
                 "conditions", "state", "serial", "bucket", "watch")

    def __init__(self, step: Step, cont: "Continuation", anchor_id: int,
                 anchor_depth: int, conditions: Tuple[_Condition, ...],
                 state: str, serial: int = 0):
        self.step = step
        self.cont = cont
        self.anchor_id = anchor_id
        self.anchor_depth = anchor_depth
        self.conditions = conditions
        self.state = state
        self.serial = serial
        self.bucket: Optional[Dict[int, "_Expectation"]] = None
        self.watch: Optional[Dict[int, "_Expectation"]] = None

    def admissible(self, depth: int) -> bool:
        """State/depth check for a node whose test the bucket already implies."""
        if self.state is not _ACTIVE:
            return False
        axis = self.step.axis
        if axis is Axis.CHILD:
            return depth == self.anchor_depth + 1
        if axis is Axis.FOLLOWING_SIBLING:
            return depth == self.anchor_depth
        # DESCENDANT / DESCENDANT_OR_SELF / FOLLOWING match any depth in the
        # active window.
        return True


class _DispatchIndex:
    """Active expectations bucketed by what their node test can match.

    Buckets are insertion-ordered dicts keyed by expectation serial, so
    removal (expiry) is O(1) and iteration preserves spawn order.

    Attribute-test expectations get buckets of their own (exact-name table
    plus an ``@*`` bucket), consulted only by the per-element attribute sweep
    — never by element or text dispatch — so attribute-heavy subscription
    sets keep constant-time dispatch.
    """

    __slots__ = ("by_tag", "wildcard", "any_node", "text", "by_attr",
                 "attr_wildcard")

    def __init__(self):
        #: tag -> {serial: expectation} for named node tests.
        self.by_tag: Dict[str, Dict[int, _Expectation]] = {}
        #: ``*`` tests: any element.
        self.wildcard: Dict[int, _Expectation] = {}
        #: ``node()`` tests: any node (elements and text).
        self.any_node: Dict[int, _Expectation] = {}
        #: ``text()`` tests: text nodes only.
        self.text: Dict[int, _Expectation] = {}
        #: attribute name -> {serial: expectation} for ``@name`` tests.
        self.by_attr: Dict[str, Dict[int, _Expectation]] = {}
        #: ``@*`` tests: any attribute.
        self.attr_wildcard: Dict[int, _Expectation] = {}

    def insert(self, expectation: _Expectation) -> None:
        kind = expectation.step.node_test.kind
        if kind is NodeTestKind.ATTRIBUTE:
            name = expectation.step.node_test.name
            if name is None:
                bucket = self.attr_wildcard
            else:
                bucket = self.by_attr.get(name)
                if bucket is None:
                    bucket = self.by_attr[name] = {}
        elif kind is NodeTestKind.NODE:
            bucket = self.any_node
        elif kind is NodeTestKind.TEXT:
            bucket = self.text
        elif kind is NodeTestKind.WILDCARD:
            bucket = self.wildcard
        else:
            name = expectation.step.node_test.name
            bucket = self.by_tag.get(name)
            if bucket is None:
                bucket = self.by_tag[name] = {}
        bucket[expectation.serial] = expectation
        expectation.bucket = bucket

    def element_candidates(self, tag: Optional[str]) -> List[_Expectation]:
        """Snapshot of the expectations a ``StartElement(tag)`` can match."""
        exact = self.by_tag.get(tag)
        candidates: List[_Expectation] = list(exact.values()) if exact else []
        if self.wildcard:
            candidates.extend(self.wildcard.values())
        if self.any_node:
            candidates.extend(self.any_node.values())
        return candidates

    def text_candidates(self) -> List[_Expectation]:
        """Snapshot of the expectations a ``Text`` event can match."""
        candidates: List[_Expectation] = list(self.text.values())
        if self.any_node:
            candidates.extend(self.any_node.values())
        return candidates

    def attribute_candidates(self, name: str) -> List[_Expectation]:
        """Snapshot of the expectations an attribute ``name`` can match."""
        exact = self.by_attr.get(name)
        candidates: List[_Expectation] = list(exact.values()) if exact else []
        if self.attr_wildcard:
            candidates.extend(self.attr_wildcard.values())
        return candidates

    @property
    def has_attribute_expectations(self) -> bool:
        return bool(self.by_attr or self.attr_wildcard)

    def attribute_expectations(self) -> List[_Expectation]:
        """Snapshot of every live attribute expectation (for expiry)."""
        out: List[_Expectation] = []
        for bucket in self.by_attr.values():
            out.extend(bucket.values())
        out.extend(self.attr_wildcard.values())
        return out

    def iter_all(self):
        for bucket in self.by_tag.values():
            yield from bucket.values()
        yield from self.wildcard.values()
        yield from self.any_node.values()
        yield from self.text.values()
        for bucket in self.by_attr.values():
            yield from bucket.values()
        yield from self.attr_wildcard.values()

    def clear(self) -> None:
        self.by_tag = {}
        self.wildcard = {}
        self.any_node = {}
        self.text = {}
        self.by_attr = {}
        self.attr_wildcard = {}


class _ValueCollector:
    """Accumulates the string value of a matched element for ``=`` joins."""

    __slots__ = ("entry", "anchor_depth", "parts")

    def __init__(self, entry: _Entry, anchor_depth: int):
        self.entry = entry
        self.anchor_depth = anchor_depth
        self.parts: List[str] = []


# ---------------------------------------------------------------------------
# Continuations: what happens after a step matches
# ---------------------------------------------------------------------------

class Continuation:
    """Protocol for expectation continuations.

    ``dead(core)`` reports whether the expectation can be dropped because no
    downstream consumer is still interested (e.g. an existence sink already
    satisfied); it is consulted once at spawn time.  ``register(core,
    expectation)`` links a freshly spawned expectation into whatever watcher
    registry can later kill it, so that satisfaction unlinks it immediately
    instead of the engine re-checking ``dead`` on every event.
    ``proceed(core, ...)`` consumes a matched node *after* the step's
    qualifiers have been turned into conditions.
    """

    __slots__ = ()

    def dead(self, core: "MatcherCore") -> bool:  # pragma: no cover - abstract
        raise NotImplementedError

    def register(self, core: "MatcherCore",
                 expectation: _Expectation) -> None:
        """Default: liveness never changes, nothing to watch."""

    def proceed(self, core: "MatcherCore", node_id: int, depth: int,
                is_element: bool, tag: Optional[str], value: Optional[str],
                conditions: Tuple[_Condition, ...],
                is_attribute: bool = False) -> None:  # pragma: no cover
        raise NotImplementedError


class PathContinuation(Continuation):
    """Continue one path: match the remaining steps, then feed one sink."""

    __slots__ = ("remaining", "sink", "collect_values")

    def __init__(self, remaining: Tuple[Step, ...], sink: _Sink,
                 collect_values: bool):
        self.remaining = remaining
        self.sink = sink
        self.collect_values = collect_values

    def dead(self, core: "MatcherCore") -> bool:
        return self.sink.satisfied

    def register(self, core: "MatcherCore",
                 expectation: _Expectation) -> None:
        # Only an existence sink can ever flip to satisfied mid-stream; a
        # collecting sink keeps accepting entries until the end.
        if self.sink.exists_only:
            core.watch_sink(self.sink, expectation)

    def proceed(self, core: "MatcherCore", node_id: int, depth: int,
                is_element: bool, tag: Optional[str], value: Optional[str],
                conditions: Tuple[_Condition, ...],
                is_attribute: bool = False) -> None:
        if self.remaining:
            core.spawn_steps(self.remaining, anchor_id=node_id,
                             anchor_depth=depth, anchor_is_element=is_element,
                             anchor_tag=tag, anchor_value=value,
                             conditions=conditions, sink=self.sink,
                             collect_values=self.collect_values,
                             anchor_is_attribute=is_attribute)
            return
        core.add_candidate(self.sink, node_id, depth, is_element, value,
                           conditions, self.collect_values)


# ---------------------------------------------------------------------------
# The engine
# ---------------------------------------------------------------------------

@dataclass
class _OpenElement:
    node_id: int
    tag: Optional[str]
    depth: int


class MatcherCore:
    """Shared single-pass matching machinery.

    Owns the element stack, the expectation lifecycle, condition building,
    value collection and the shared absolute-sub-path sinks.  Subclasses
    decide what is spawned at the document root (the fallback members of one
    path for :class:`StreamingMatcher`, a fallback subscription trie for
    :class:`repro.streaming.engine.MultiMatcher`), which sink an automaton
    delivery lands in (:meth:`_structural_sink`) and how results are read
    out.
    """

    def __init__(self, automaton: SubscriptionAutomaton) -> None:
        self.stats = StreamStats()
        #: Lazy-DFA structural dispatch over the shared automaton: accepts
        #: deliver straight into result sinks, gates hand qualifiers and the
        #: remaining steps to the expectation machinery below.
        self._automaton_run = AutomatonRun(automaton, self._structural_sink)
        self._stack: List[_OpenElement] = []
        #: Active expectations, bucketed by node test.
        self._dispatch = _DispatchIndex()
        #: ``following``/``following-sibling`` expectations waiting for their
        #: anchor element to close, keyed by anchor node id.
        self._waiting_by_anchor: Dict[int, List[_Expectation]] = {}
        #: ``child``/``descendant``/``descendant-or-self`` expectations keyed
        #: by the anchor whose close event expires them.
        self._expiry_by_anchor: Dict[int, List[_Expectation]] = {}
        #: ``following-sibling`` expectations keyed by the anchor's *parent*,
        #: whose close event shuts the sibling window.
        self._sibling_expiry_by_parent: Dict[int, List[_Expectation]] = {}
        #: Expectations to unlink the moment an existence sink satisfies.
        self._sink_watchers: Dict[_Sink, Dict[int, _Expectation]] = {}
        #: Conditioned existence-sink entries delivered during the current
        #: event; re-examined once the event (and its attribute sweep) is
        #: complete, so qualifiers decidable *at* StartElement — ``[@a]``,
        #: ``[@a = "v"]`` — settle verdicts without waiting for the stream.
        self._event_entries: List[Tuple[_Sink, _Entry]] = []
        #: Waiting + active expectations (expired ones are unlinked eagerly).
        self._live = 0
        self._serial = 0
        #: Pending element string-value collectors, keyed by the element
        #: whose close event finalizes them.
        self._collectors_by_node: Dict[int, List[_ValueCollector]] = {}
        self._absolute_sinks: Dict[PathExpr, _Sink] = {}
        self._absolute_value_sinks: Dict[PathExpr, _Sink] = {}
        #: Substream delivery (see :mod:`repro.streaming.delivery`): the
        #: shared single-pass tee, or ``None`` outside substream mode — the
        #: feed loop's only added cost in verdict/ids modes is this check.
        #: Set by subclasses that support capture (MultiMatcher).
        self._tee: Optional[SubtreeTee] = None
        #: Element matches recorded during the current StartElement's
        #: processing; handed to the tee as that element's capture claims.
        self._pending_claims: List[Tuple[int, _Entry]] = []
        #: Root ("/") matches recorded while spawning at StartDocument.
        self._document_claims: List[Tuple[int, _Entry]] = []
        #: Closed captures whose conditions were still undecided at window
        #: close; settled (``entry.holds()``) when results are read.
        self._deferred_captures: List[object] = []
        self._finished = False
        self._halted = False

    # -- setup -----------------------------------------------------------
    def _register_absolute_subpaths(self, expr: PathExpr) -> None:
        """Find absolute sub-paths used inside qualifiers and joins.

        They must be matched from the document root over the *whole* stream
        (a candidate discovered mid-stream could not see earlier matches), so
        they are registered once and shared by every condition that mentions
        them.
        """
        for member in iter_union_members(expr):
            if isinstance(member, Bottom):
                continue
            if not isinstance(member, LocationPath):
                continue
            for step in member.steps:
                for qual in step.qualifiers:
                    self._register_absolute_in_qualifier(qual)

    def _register_absolute_in_qualifier(self, qual: Qualifier) -> None:
        if isinstance(qual, PathQualifier):
            self._register_absolute_operand(qual.path, collect_values=False)
        elif isinstance(qual, (AndExpr, OrExpr)):
            self._register_absolute_in_qualifier(qual.left)
            self._register_absolute_in_qualifier(qual.right)
        elif isinstance(qual, Comparison):
            collect = qual.op == "="
            self._register_absolute_operand(qual.left, collect_values=collect)
            self._register_absolute_operand(qual.right, collect_values=collect)

    def _register_absolute_operand(self, operand: PathExpr,
                                   collect_values: bool) -> None:
        if isinstance(operand, Literal):
            # Literals are constants, not matched sub-paths.
            return
        if not analysis.is_absolute(operand):
            # A relative operand is matched from its carrier when the carrier
            # is discovered; but it may itself mention absolute sub-paths in
            # its own qualifiers.
            for member in iter_union_members(operand):
                if isinstance(member, LocationPath):
                    for step in member.steps:
                        for qual in step.qualifiers:
                            self._register_absolute_in_qualifier(qual)
            return
        registry = (self._absolute_value_sinks if collect_values
                    else self._absolute_sinks)
        if operand in registry:
            return
        registry[operand] = _Sink(collect_values=collect_values)
        # Absolute sub-paths can themselves mention further absolute paths.
        self._register_absolute_subpaths(operand)

    def _absolute_sink(self, operand: PathExpr, collect_values: bool) -> _Sink:
        registry = (self._absolute_value_sinks if collect_values
                    else self._absolute_sinks)
        return registry[operand]

    # -- event loop --------------------------------------------------------
    def process(self, events: Iterable[Event]):
        """Consume the event stream and return :meth:`results`.

        Stops pulling from the stream as soon as the matcher :meth:`halt`\\ s
        (a verdict-only session whose subscriptions are all decided).  When
        the source has a known length the events left unread are recorded in
        ``stats.events_skipped``.
        """
        consumed = 0
        for event in events:
            consumed += 1
            self.feed(event)
            if self._halted:
                break
        if self._halted and hasattr(events, "__len__"):
            self.stats.events_skipped += len(events) - consumed
        return self.results()

    def feed(self, event: Event) -> None:
        """Consume one event (a no-op counted as skipped once halted)."""
        if self._halted:
            self.stats.events_skipped += 1
            return
        self.stats.events += 1
        if isinstance(event, StartDocument):
            self._start_document(event)
        elif isinstance(event, StartElement):
            self._start_node(event.node_id, True, event.tag, None,
                             event.attributes)
            if self._tee is not None:
                # Every element match fires during its own StartElement
                # processing (trie terminal, DFA accept, gate remainder,
                # self axis), so the claims recorded just now belong to
                # exactly this element: open their capture windows before
                # the event enters the shared buffer.
                claims = self._pending_claims
                if claims:
                    self._pending_claims = []
                self._tee.element_start(event, claims)
            self._stack.append(_OpenElement(event.node_id, event.tag,
                                            len(self._stack)))
            # Element nesting depth, not counting the document root entry.
            self.stats.max_depth = max(self.stats.max_depth, len(self._stack) - 1)
        elif isinstance(event, Text):
            self._start_node(event.node_id, False, None, event.value)
            if self._tee is not None:
                self._tee.text(event)
            if self._collectors_by_node:
                for collectors in self._collectors_by_node.values():
                    for collector in collectors:
                        collector.parts.append(event.value)
                        self.stats.buffered_value_chars += len(event.value)
        elif isinstance(event, EndElement):
            self._end_node()
            if self._tee is not None:
                # Close after _end_node so value collectors anchored at this
                # element are finalized before emission decisions are made.
                for capture in self._tee.element_end(event):
                    self._capture_closed(capture)
        elif isinstance(event, EndDocument):
            self._finish()
        else:  # pragma: no cover - defensive
            raise StreamingError(f"unknown event {event!r}")
        if not self._finished and self._should_halt():
            self.halt()

    # -- internals ---------------------------------------------------------
    def _spawn_roots(self, root_id: int) -> None:  # pragma: no cover - abstract
        """Spawn whatever this matcher evaluates, anchored at the root."""
        raise NotImplementedError

    def _structural_sink(self, ordinal: int) -> _Sink:  # pragma: no cover
        """The result sink an automaton delivery for ``ordinal`` lands in."""
        raise NotImplementedError

    def _start_document(self, event: StartDocument) -> None:
        self._stack = [_OpenElement(event.node_id, None, 0)]
        self.stats.nodes_seen += 1
        self._spawn_roots(event.node_id)
        self._automaton_run.on_document_start(self, event.node_id)
        # Spawn the shared absolute sub-paths.
        for registry in (self._absolute_sinks, self._absolute_value_sinks):
            for operand, sink in registry.items():
                self.spawn_root_expr(operand, sink, sink.collect_values,
                                     event.node_id)
        if self._tee is not None and self._document_claims:
            # Root ("/") matches span the whole document: their windows open
            # now and close at EndDocument (_finish).
            claims = self._document_claims
            self._document_claims = []
            self._tee.open_document(event.node_id, claims)

    def spawn_root_expr(self, expr: PathExpr, sink: _Sink,
                        collect_values: bool, root_id: int) -> None:
        """Spawn every union member of an absolute expression from the root."""
        for member in iter_union_members(expr):
            if isinstance(member, Bottom):
                continue
            if not isinstance(member, LocationPath) or not member.absolute:
                raise StreamingError(
                    "the streaming evaluator expects absolute paths "
                    f"(got {to_string(member)})")
            if not member.steps:
                # The path "/" selects the root itself.
                was_satisfied = sink.satisfied
                entry = _Entry(node_id=root_id, conditions=())
                if sink.add(entry) and sink.collect_values:
                    # As a value-join operand the root contributes the whole
                    # document's text (finalized at end of stream).
                    self._collectors_by_node.setdefault(root_id, []).append(
                        _ValueCollector(entry, 0))
                if sink.satisfied and not was_satisfied:
                    self._sink_satisfied(sink)
                continue
            self.spawn_steps(member.steps, anchor_id=root_id,
                             anchor_depth=0, anchor_is_element=False,
                             anchor_tag=None, anchor_value=None,
                             conditions=(), sink=sink,
                             collect_values=collect_values)

    def _start_node(self, node_id: int, is_element: bool, tag: Optional[str],
                    value: Optional[str],
                    attributes: Tuple[Tuple[str, str], ...] = ()) -> None:
        stats = self.stats
        stats.nodes_seen += 1
        depth = len(self._stack)
        # Snapshot the reachable buckets *before* matching: matching may spawn
        # new expectations, which must not be matched against the node that
        # created them.
        if is_element:
            candidates = self._dispatch.element_candidates(tag)
        else:
            candidates = self._dispatch.text_candidates()
        if candidates:
            stats.expectations_checked += len(candidates)
            for expectation in candidates:
                # The bucket implies the node test; check state and depth.
                if not expectation.admissible(depth):
                    continue
                self._node_matched(expectation.step, expectation.cont,
                                   node_id, depth, is_element, tag, value,
                                   expectation.conditions)
        # Structural dispatch: decided deliveries plus qualifier gates, which
        # may spawn expectations anchored at this very node — including
        # attribute expectations, resolved by the sweep below.
        self._automaton_run.on_node(self, node_id, depth, is_element, tag,
                                    value, attributes)
        if is_element and (attributes
                           or self._dispatch.has_attribute_expectations):
            self._attribute_sweep(node_id, depth, attributes)
        if self._event_entries:
            self._settle_event_conditions()

    def _settle_event_conditions(self) -> None:
        """Satisfy existence sinks whose entry conditions are already final.

        Runs at the end of every node event, after the attribute sweep:
        attribute sub-sinks cannot change after it, so a candidate guarded
        only by attribute qualifiers (or other already-irrevocable
        conditions) decides its sink — and, in verdict-only sessions, its
        subscription — right here.
        """
        entries = self._event_entries
        self._event_entries = []
        for sink, entry in entries:
            if sink.satisfied:
                continue
            if all(condition.known_true() for condition in entry.conditions):
                sink.satisfied = True
                sink.entries.clear()
                self._sink_satisfied(sink)

    def _attribute_sweep(self, node_id: int, depth: int,
                         attributes: Tuple[Tuple[str, str], ...]) -> None:
        """Visit the element's attribute nodes, then close the window.

        Attribute expectations are spawned while their anchor element is
        being processed (step matching above) and can only ever match that
        element's own attributes, which are all present on its start event —
        so they are resolved here, eagerly, and whatever is left expires
        before the event ends.  ``[@a]`` existence qualifiers and
        ``[@a = "v"]`` value joins are therefore decided *at* StartElement;
        nothing attribute-related survives into later events.
        """
        dispatch = self._dispatch
        stats = self.stats
        for index, (name, value) in enumerate(attributes):
            stats.nodes_seen += 1
            stats.attributes_seen += 1
            if not dispatch.has_attribute_expectations:
                continue
            candidates = dispatch.attribute_candidates(name)
            if not candidates:
                continue
            stats.expectations_checked += len(candidates)
            # Attribute nodes claim the ids right after their element.
            attribute_id = node_id + 1 + index
            for expectation in candidates:
                if (expectation.state is not _ACTIVE
                        or expectation.anchor_id != node_id):
                    continue
                self._node_matched(expectation.step, expectation.cont,
                                   attribute_id, depth + 1, False, name,
                                   value, expectation.conditions,
                                   is_attribute=True)
        if dispatch.has_attribute_expectations:
            for expectation in dispatch.attribute_expectations():
                self._expire(expectation)

    def _end_node(self) -> None:
        closed = self._stack.pop()
        node_id = closed.node_id
        self._automaton_run.on_close(self)
        # Open the window of following/following-sibling expectations that
        # were waiting for exactly this element to close.
        waiting = self._waiting_by_anchor.pop(node_id, None)
        if waiting is not None:
            for expectation in waiting:
                if expectation.state is _WAITING:
                    expectation.state = _ACTIVE
                    self._dispatch.insert(expectation)
        # Expire child/descendant expectations anchored at the closed element.
        expiring = self._expiry_by_anchor.pop(node_id, None)
        if expiring is not None:
            for expectation in expiring:
                self._expire(expectation)
        # A following-sibling window closes when the siblings' parent closes;
        # the entries are keyed by that parent's id, so this pops exactly the
        # affected expectations (the key implies the depth comparison).
        siblings = self._sibling_expiry_by_parent.pop(node_id, None)
        if siblings is not None:
            for expectation in siblings:
                self._expire(expectation)
        # Finalize value collectors anchored at the closed element.
        collectors = self._collectors_by_node.pop(node_id, None)
        if collectors is not None:
            for collector in collectors:
                collector.entry.value = "".join(collector.parts)

    def _expire(self, expectation: _Expectation) -> None:
        """Retire an expectation, unlinking it from index and watchers."""
        if expectation.state is _EXPIRED:
            return
        expectation.state = _EXPIRED
        self._live -= 1
        bucket = expectation.bucket
        if bucket is not None:
            bucket.pop(expectation.serial, None)
            expectation.bucket = None
        watch = expectation.watch
        if watch is not None:
            watch.pop(expectation.serial, None)
            expectation.watch = None

    def watch_sink(self, sink: _Sink, expectation: _Expectation) -> None:
        """Expire ``expectation`` the moment ``sink`` becomes satisfied."""
        table = self._sink_watchers.setdefault(sink, {})
        table[expectation.serial] = expectation
        expectation.watch = table

    def _sink_satisfied(self, sink: _Sink) -> None:
        """``sink`` just flipped to satisfied: unlink everything feeding it."""
        table = self._sink_watchers.pop(sink, None)
        if table:
            for expectation in list(table.values()):
                self._expire(expectation)

    def live_expectations(self) -> List[_Expectation]:
        """Snapshot of all waiting + active expectations (diagnostics)."""
        live = [expectation
                for waiting in self._waiting_by_anchor.values()
                for expectation in waiting
                if expectation.state is _WAITING]
        live.extend(self._dispatch.iter_all())
        return live

    def _clear_stream_state(self) -> None:
        """Tear down every per-document expectation registry.

        Shared by :meth:`_finish` and :meth:`reset` so the two can never
        drift apart — a registry cleared at end of stream is also cleared
        between documents of a reused session.
        """
        self._stack = []
        self._dispatch.clear()
        self._waiting_by_anchor = {}
        self._expiry_by_anchor = {}
        self._sibling_expiry_by_parent = {}
        self._sink_watchers = {}
        self._event_entries = []
        self._live = 0
        self._automaton_run.rewind()
        if self._tee is not None:
            self._tee.rewind()
        self._pending_claims = []
        self._document_claims = []

    def _finish(self) -> None:
        self._finished = True
        for collectors in self._collectors_by_node.values():
            for collector in collectors:
                collector.entry.value = "".join(collector.parts)
        self._collectors_by_node = {}
        if self._tee is not None:
            # Close whole-document windows before the tee is rewound — after
            # the collector pass above, so root string values are final.
            for capture in self._tee.finish():
                self._capture_closed(capture)
        self._clear_stream_state()

    # -- session control ---------------------------------------------------
    def _should_halt(self) -> bool:
        """Whether the rest of the stream can no longer change any result.

        Consulted after every event; the default matcher never halts (a
        collecting sink accepts matches to the very end).  Verdict-only
        subclasses override this.
        """
        return False

    def halt(self) -> None:
        """Stop consuming the stream early: results are already decided.

        The expectation registries are torn down exactly as at end of
        stream, :meth:`results` becomes readable, and any further
        :meth:`feed` is a no-op counted in ``stats.events_skipped``.
        """
        if not self._finished:
            self._finish()
        self._halted = True

    @property
    def halted(self) -> bool:
        """Whether the matcher stopped consuming events before end of stream."""
        return self._halted

    def reset(self) -> None:
        """Clear all per-document stream state so the matcher can be reused.

        This is the resumable-session path: one matcher instance serves a
        whole feed of documents (see
        :class:`repro.streaming.broker.DocumentBroker`) without re-running
        the per-subscription setup its constructor performs — absolute
        sub-path registration keeps its compiled registry keys and merely
        gets fresh sinks.  Subclasses extend this with their own result
        state.
        """
        self.stats = StreamStats()
        self._clear_stream_state()
        self._serial = 0
        self._collectors_by_node = {}
        self._deferred_captures = []
        for registry in (self._absolute_sinks, self._absolute_value_sinks):
            for operand in list(registry):
                registry[operand] = _Sink(
                    collect_values=registry[operand].collect_values)
        self._finished = False
        self._halted = False

    def registry_sizes(self) -> Dict[str, int]:
        """Sizes of every engine-internal registry (diagnostics).

        All entries are zero between documents of a reused session; the
        broker's leak tests assert exactly that.
        """
        return {
            "dispatch": sum(1 for _ in self._dispatch.iter_all()),
            "waiting_by_anchor": len(self._waiting_by_anchor),
            "expiry_by_anchor": len(self._expiry_by_anchor),
            "sibling_expiry_by_parent": len(self._sibling_expiry_by_parent),
            "sink_watchers": len(self._sink_watchers),
            "collectors_by_node": len(self._collectors_by_node),
            "live_expectations": self._live,
            "open_elements": len(self._stack),
            "automaton_stack": len(self._automaton_run.stack),
            "open_capture_windows": (self._tee.open_windows
                                     if self._tee is not None else 0),
        }

    # -- spawning ----------------------------------------------------------
    def spawn_steps(self, steps: Tuple[Step, ...], anchor_id: int,
                    anchor_depth: int, anchor_is_element: bool,
                    anchor_tag: Optional[str], anchor_value: Optional[str],
                    conditions: Tuple[_Condition, ...], sink: _Sink,
                    collect_values: bool,
                    anchor_is_attribute: bool = False) -> None:
        """Start matching a step sequence from the given anchor node."""
        self.spawn_step(steps[0],
                        PathContinuation(steps[1:], sink, collect_values),
                        anchor_id=anchor_id, anchor_depth=anchor_depth,
                        anchor_is_element=anchor_is_element,
                        anchor_tag=anchor_tag, anchor_value=anchor_value,
                        conditions=conditions,
                        anchor_is_attribute=anchor_is_attribute)

    def spawn_step(self, step: Step, cont: Continuation, anchor_id: int,
                   anchor_depth: int, anchor_is_element: bool,
                   anchor_tag: Optional[str], anchor_value: Optional[str],
                   conditions: Tuple[_Condition, ...],
                   anchor_is_attribute: bool = False) -> None:
        """Expect one step from the given anchor, continuing with ``cont``.

        This is the per-step spawning primitive shared by the single-query
        matcher and the multi-subscription engine.

        Invariant relied on for expiry registration: spawning only ever
        happens while the anchor is the node currently being processed (or
        the document root), so ``self._stack`` holds exactly the anchor's
        proper ancestors.
        """
        if cont.dead(self):
            # Nothing downstream is still interested (e.g. the existence sink
            # this would feed is already satisfied): don't spawn at all.
            return
        axis = step.axis
        # The anchor is a text leaf when it is not an element but carries a
        # value and is not an attribute; the document root is "not an
        # element, no value".
        anchor_is_text = ((not anchor_is_element) and (not anchor_is_attribute)
                          and anchor_value is not None)

        if axis is Axis.ATTRIBUTE:
            # Attribute steps can only match the anchor's own attributes,
            # which are all delivered on the anchor's start event.  The
            # expectation goes into the dispatch index's attribute buckets
            # and is resolved (then expired) by the attribute sweep of the
            # very event being processed; non-element anchors — the document
            # root, text leaves, attribute nodes — carry no attributes.
            if not anchor_is_element:
                return
        elif axis in (Axis.SELF, Axis.DESCENDANT_OR_SELF):
            # The anchor itself may match the first step.
            if self._anchor_matches_test(step, anchor_is_element, anchor_tag,
                                         anchor_is_text, anchor_is_attribute):
                self._node_matched(step, cont, anchor_id, anchor_depth,
                                   anchor_is_element, anchor_tag, anchor_value,
                                   conditions,
                                   is_attribute=anchor_is_attribute)
            if axis is Axis.SELF:
                return

        if axis in (Axis.CHILD, Axis.DESCENDANT, Axis.DESCENDANT_OR_SELF):
            if anchor_is_text or anchor_is_attribute:
                # Text and attribute leaves have no descendants; nothing can
                # ever match.
                return

        state = _ACTIVE
        if axis in (Axis.FOLLOWING, Axis.FOLLOWING_SIBLING):
            if anchor_is_attribute:
                # Attribute nodes have no siblings and take part in neither
                # following nor preceding: the window is empty.
                return
            # Wait for the anchor to close before the window opens.  Text
            # anchors are already closed when spawned; the document root
            # never closes before the end of the stream, so nothing follows it.
            state = _ACTIVE if anchor_is_text else _WAITING
        self._serial += 1
        expectation = _Expectation(step=step, cont=cont,
                                   anchor_id=anchor_id, anchor_depth=anchor_depth,
                                   conditions=conditions, state=state,
                                   serial=self._serial)
        if state is _ACTIVE:
            self._dispatch.insert(expectation)
        else:
            self._waiting_by_anchor.setdefault(anchor_id, []).append(expectation)
        if axis in (Axis.CHILD, Axis.DESCENDANT, Axis.DESCENDANT_OR_SELF):
            self._expiry_by_anchor.setdefault(anchor_id, []).append(expectation)
        elif axis is Axis.FOLLOWING_SIBLING and anchor_depth >= 1:
            # The sibling window shuts when the anchor's parent closes; that
            # parent is on the open-element stack right below the anchor.
            parent_id = self._stack[anchor_depth - 1].node_id
            self._sibling_expiry_by_parent.setdefault(
                parent_id, []).append(expectation)
        cont.register(self, expectation)
        self._live += 1
        self.stats.expectations_created += 1
        if self._live > self.stats.max_live_expectations:
            self.stats.max_live_expectations = self._live

    @staticmethod
    def _anchor_matches_test(step: Step, anchor_is_element: bool,
                             anchor_tag: Optional[str],
                             anchor_is_text: bool,
                             anchor_is_attribute: bool = False) -> bool:
        """Node-test check for the anchor itself (``self``/``-or-self`` axes).

        The document root only matches ``node()``; text anchors match
        ``text()`` and ``node()``; attribute anchors match ``node()`` and
        attribute tests (by name); elements match by tag.
        """
        kind = step.node_test.kind
        if kind is NodeTestKind.NODE:
            return True
        if kind is NodeTestKind.ATTRIBUTE:
            return anchor_is_attribute and (step.node_test.name is None
                                            or anchor_tag == step.node_test.name)
        if anchor_is_attribute:
            return False
        if kind is NodeTestKind.TEXT:
            return anchor_is_text
        if kind is NodeTestKind.WILDCARD:
            return anchor_is_element
        return anchor_is_element and anchor_tag == step.node_test.name

    def _node_matched(self, step: Step, cont: Continuation, node_id: int,
                      depth: int, is_element: bool, tag: Optional[str],
                      value: Optional[str],
                      inherited: Tuple[_Condition, ...],
                      is_attribute: bool = False) -> None:
        """A node matched ``step``; evaluate its qualifiers and continue.

        The qualifier conditions are built exactly once per matched node —
        when the step is shared by many subscriptions (trie continuation),
        every one of them reuses the same condition objects.
        """
        if step.qualifiers:
            conditions = list(inherited)
            for qual in step.qualifiers:
                conditions.append(self._build_condition(
                    qual, node_id, depth, is_element, tag, value,
                    is_attribute))
            inherited = tuple(conditions)
        cont.proceed(self, node_id, depth, is_element, tag, value, inherited,
                     is_attribute)

    def add_candidate(self, sink: _Sink, node_id: int, depth: int,
                      is_element: bool, value: Optional[str],
                      conditions: Tuple[_Condition, ...],
                      collect_values: bool) -> None:
        """Deliver a final-step match into a sink, buffering values if needed."""
        entry = _Entry(node_id=node_id, conditions=conditions)
        was_satisfied = sink.satisfied
        retained = sink.add(entry)
        if retained:
            self.stats.candidates_buffered += 1
            if collect_values or sink.collect_values:
                if is_element or value is None:
                    # Elements — and the document root, the only non-element
                    # candidate without an own value — take the
                    # concatenation of their descendant text as string
                    # value; the root's collector is finalized at end of
                    # stream (it has no close event).
                    self._collectors_by_node.setdefault(node_id, []).append(
                        _ValueCollector(entry, depth))
                else:
                    entry.value = value or ""
            if sink.exists_only and conditions:
                # Conditioned entries get one more look once the current
                # event's attribute sweep has run (_settle_event_conditions).
                self._event_entries.append((sink, entry))
            if self._tee is not None:
                self._capture_candidate(sink, entry, node_id, is_element,
                                        value)
        if sink.satisfied and not was_satisfied:
            self._sink_satisfied(sink)

    # -- substream capture (see repro.streaming.delivery) -------------------
    def _capture_ordinal(self, sink: _Sink) -> Optional[int]:
        """Map a sink to the subscription ordinal it delivers for, or
        ``None`` for engine-internal sinks (qualifier sub-paths, absolute
        operands) whose matches are never payload.  Overridden by
        :class:`repro.streaming.engine.MultiMatcher`."""
        return None

    def _capture_candidate(self, sink: _Sink, entry: _Entry, node_id: int,
                           is_element: bool, value: Optional[str]) -> None:
        """Record the capture a just-delivered final match is entitled to.

        Every delivery path converges on :meth:`add_candidate` — trie
        terminals, DFA accepts (structural members included), gate
        remainders and the attribute sweep — so this one hook sees them
        all.  Elements become pending claims (their window opens when the
        current StartElement reaches the tee); text and attribute matches
        are leaves spanning no events, rendered immediately; the document
        root opens a whole-document window.
        """
        ordinal = self._capture_ordinal(sink)
        if ordinal is None:
            return
        if is_element:
            self._pending_claims.append((ordinal, entry))
        elif value is not None:
            data = serialize_events((Text(value=value, node_id=node_id),))
            self._capture_closed(
                _LeafCapture(ordinal=ordinal, node_id=node_id, entry=entry,
                             data=data))
        else:
            self._document_claims.append((ordinal, entry))

    def _capture_closed(self, capture) -> None:
        """A capture window just closed: emit now or defer to results().

        Emission is immediate when every condition on the match is already
        irrevocably true (``known_true``) — the streaming case, where an
        ``on_payload`` callback sees bytes as windows close.  Undecided
        conditions (joins, not-yet-satisfied existence sub-paths) defer the
        capture; :meth:`_drain_deferred_captures` settles it with
        ``entry.holds()`` once the stream is finished.
        """
        conditions = capture.entry.conditions
        if not conditions or all(condition.known_true()
                                 for condition in conditions):
            self._emit_capture(capture)
        else:
            self._deferred_captures.append(capture)

    def _drain_deferred_captures(self) -> None:
        deferred = self._deferred_captures
        self._deferred_captures = []
        for capture in deferred:
            if capture.entry.holds():
                self._emit_capture(capture)

    def _emit_capture(self, capture) -> None:  # pragma: no cover - abstract
        raise NotImplementedError

    # -- conditions ---------------------------------------------------------
    def _build_condition(self, qual: Qualifier, node_id: int, depth: int,
                         is_element: bool, tag: Optional[str],
                         value: Optional[str],
                         is_attribute: bool = False) -> _Condition:
        self.stats.conditions_created += 1
        if isinstance(qual, PathQualifier):
            return self._existence_condition(qual.path, node_id, depth,
                                             is_element, tag, value,
                                             collect_values=False,
                                             is_attribute=is_attribute)
        if isinstance(qual, AndExpr):
            return _AndCondition([
                self._build_condition(qual.left, node_id, depth, is_element,
                                      tag, value, is_attribute),
                self._build_condition(qual.right, node_id, depth, is_element,
                                      tag, value, is_attribute),
            ])
        if isinstance(qual, OrExpr):
            return _OrCondition([
                self._build_condition(qual.left, node_id, depth, is_element,
                                      tag, value, is_attribute),
                self._build_condition(qual.right, node_id, depth, is_element,
                                      tag, value, is_attribute),
            ])
        if isinstance(qual, Comparison):
            left_literal = isinstance(qual.left, Literal)
            right_literal = isinstance(qual.right, Literal)
            if left_literal or right_literal:
                if qual.op != "=":  # pragma: no cover - parser rejects
                    raise StreamingError(
                        "'==' joins need node operands on both sides")
                if left_literal and right_literal:
                    return (_TrueCondition()
                            if qual.left.value == qual.right.value
                            else _FalseCondition())
                literal = qual.left if left_literal else qual.right
                operand = qual.right if left_literal else qual.left
                sink = self._operand_sink(operand, node_id, depth, is_element,
                                          tag, value, collect_values=True,
                                          is_attribute=is_attribute)
                return _ValueMatchCondition(sink, literal.value)
            collect = qual.op == "="
            left = self._operand_sink(qual.left, node_id, depth, is_element,
                                      tag, value, collect, is_attribute)
            right = self._operand_sink(qual.right, node_id, depth, is_element,
                                       tag, value, collect, is_attribute)
            return _JoinCondition(left, right, qual.op)
        raise StreamingError(f"not a qualifier: {qual!r}")

    def _existence_condition(self, path: PathExpr, node_id: int, depth: int,
                             is_element: bool, tag: Optional[str],
                             value: Optional[str], collect_values: bool,
                             is_attribute: bool = False) -> _Condition:
        if isinstance(path, Bottom):
            return _FalseCondition()
        if analysis.is_absolute(path):
            return _ExistsCondition(self._absolute_sink(path, collect_values))
        sink = _Sink(collect_values=collect_values, exists_only=True)
        for member in iter_union_members(path):
            if isinstance(member, Bottom):
                continue
            assert isinstance(member, LocationPath)
            self.spawn_steps(member.steps, anchor_id=node_id, anchor_depth=depth,
                             anchor_is_element=is_element, anchor_tag=tag,
                             anchor_value=value, conditions=(), sink=sink,
                             collect_values=collect_values,
                             anchor_is_attribute=is_attribute)
        return _ExistsCondition(sink)

    def _operand_sink(self, operand: PathExpr, node_id: int, depth: int,
                      is_element: bool, tag: Optional[str],
                      value: Optional[str], collect_values: bool,
                      is_attribute: bool = False) -> _Sink:
        if analysis.is_absolute(operand):
            return self._absolute_sink(operand, collect_values)
        sink = _Sink(collect_values=collect_values)
        for member in iter_union_members(operand):
            if isinstance(member, Bottom):
                continue
            assert isinstance(member, LocationPath)
            self.spawn_steps(member.steps, anchor_id=node_id, anchor_depth=depth,
                             anchor_is_element=is_element, anchor_tag=tag,
                             anchor_value=value, conditions=(), sink=sink,
                             collect_values=collect_values,
                             anchor_is_attribute=is_attribute)
        return sink


# ---------------------------------------------------------------------------
# The single-query matcher
# ---------------------------------------------------------------------------

class StreamingMatcher(MatcherCore):
    """Single-pass matcher for one reverse-axis-free path expression.

    The path's structural spine is compiled into a lazy automaton and
    expectations run only past qualifier gates (see
    :mod:`repro.streaming.automaton`); union members the automaton cannot
    serve are matched step by step through the expectation machinery.
    """

    def __init__(self, path: PathExpr):
        if analysis.has_reverse_steps(path):
            raise ReverseAxisStreamingError(
                f"path {to_string(path)} contains reverse axes; rewrite it with "
                f"repro.rewrite.remove_reverse_axes first")
        automaton, fallback = compile_subscription_automaton([(0, path)])
        super().__init__(automaton)
        self.path = path
        self._result_sink = _Sink()
        self._register_absolute_subpaths(self.path)
        members = fallback.get(0, ())
        self._fallback_expr: Optional[PathExpr] = (
            union_of(*members) if members else None)

    def _structural_sink(self, ordinal: int) -> _Sink:
        return self._result_sink

    def _spawn_roots(self, root_id: int) -> None:
        if self._fallback_expr is not None:
            self.spawn_root_expr(self._fallback_expr, self._result_sink,
                                 collect_values=False, root_id=root_id)

    def reset(self) -> None:
        super().reset()
        self._result_sink = _Sink()

    def results(self) -> List[int]:
        """Node ids selected by the path (requires the stream to be finished)."""
        if not self._finished:
            raise StreamingError("results() called before the end of the stream")
        selected: Set[int] = set()
        for entry in self._result_sink.entries:
            if entry.node_id in selected:
                continue
            if entry.holds():
                selected.add(entry.node_id)
        self.stats.results = len(selected)
        return sorted(selected)
