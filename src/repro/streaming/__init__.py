"""Streaming (progressive) evaluation of reverse-axis-free paths (S11/S12).

The point of the paper's rewriting is that a location path without reverse
axes can be answered in a *single pass* over a SAX event stream, buffering
only pending candidate matches instead of the whole document.  This package
provides:

* :mod:`repro.streaming.matcher` — the single-pass matching engine,
* :mod:`repro.streaming.engine` — the multi-subscription engine: a
  :class:`SubscriptionIndex` compiling thousands of subscriptions into one
  shared automaton, and the :class:`MultiMatcher` advancing all of them in
  one document pass (the paper's SDI use case at scale),
* :mod:`repro.streaming.automaton` — lazy-DFA structural dispatch:
  subscription spines compiled into one shared automaton, DFA states
  materialized lazily at match time,
* :mod:`repro.streaming.broker` — the push-mode serving layer: a
  :class:`DocumentBroker` matching a continuous feed of chunked documents
  against one compiled index through a reusable matcher session,
* :mod:`repro.streaming.evaluator` — the public ``stream_evaluate`` /
  ``stream_matches`` API and the :class:`StreamResult` record,
* :mod:`repro.streaming.dom_baseline` — the in-memory (DOM) baseline the
  paper's introduction argues against for large documents,
* :mod:`repro.streaming.buffered` — the "buffer enough of the document to
  answer reverse axes" baseline (first of the three options in Section 1),
* :mod:`repro.streaming.stats` — memory/latency accounting shared by all of
  them, used by the benchmarks of experiment E9.

Attribute extension
-------------------

Beyond the paper's fragment, the engine evaluates the attribute axis
(``//item[@id="42"]/price``, ``//item/@id``, value comparisons against
string literals) — the shapes that dominate real SDI subscription sets.
Attributes are the cheapest possible match for a streaming engine: they
arrive *complete* on the StartElement event, so attribute steps and
``[@a]`` / ``[@a = "v"]`` qualifiers are decided during that very event
(dedicated attribute buckets in the dispatch index; a per-element sweep
resolves and then expires them), need no buffering, and in verdict-only
sessions can settle a subscription — and halt the stream — at the element
that carries the attribute.  Attribute *nodes* are numbered right after
their owner element in document order, so streamed ids agree 1:1 with the
DOM evaluator's positions.

Architecture: pull vs push
--------------------------

There are two ways to get a document through the engine.

**Pull mode** — the caller owns the loop and hands the engine a finished
iterable of events: :func:`stream_evaluate` for one query,
:meth:`SubscriptionIndex.evaluate` for a whole index.  Events typically come
from :func:`repro.xmlmodel.builder.document_events` (an in-memory document)
or :func:`repro.xmlmodel.parser.iter_events` (XML text).  This is the right
entry point for one-shot evaluation and for benchmarks, where the document
is already at hand.

**Push mode** — the *data source* owns the loop and the engine is fed as
input arrives.  The pieces compose bottom-up:

* :class:`repro.xmlmodel.parser.PushTokenizer` turns arbitrarily chunked
  ``str``/``bytes`` input into events (``feed(chunk) -> [events]``,
  ``close() -> [events]``), with chunk boundaries allowed anywhere — inside
  tags, entities, comments, CDATA, even mid-UTF-8-sequence;
* every matcher is itself push-driven (``feed(event)``), so tokenizer output
  can be forwarded directly;
* :class:`DocumentBroker` packages the loop: ``submit(document_id, chunks)``
  tokenizes, matches, and returns the per-document
  :class:`MultiMatchResult`, plus aggregate stats over the feed.

Session lifecycle
-----------------

A :class:`MultiMatcher` is one *session*.  Freshly constructed it carries
compiled per-subscription state (absolute sub-path registries, the
verdict-mode branch countdowns) and no stream state.  ``feed`` accumulates
stream state; ``EndDocument`` (or an early :meth:`~matcher.MatcherCore.halt`
in verdict-only mode, once every subscription's verdict is decided —
``stats.events_skipped`` counts what was never consumed) finishes the
session: results become readable and every expectation registry is torn
down.  :meth:`~matcher.MatcherCore.reset` then rewinds the session to serve
the next document *without* re-running the constructor's per-subscription
setup — between documents all engine-internal registries are empty
(:meth:`~matcher.MatcherCore.registry_sizes`), so nothing leaks from one
document into the next.

Delivery modes: verdict, node ids, substream
--------------------------------------------

*What* a decided match delivers is the emission layer
(:mod:`repro.streaming.delivery`), pluggable everywhere a matcher is made
(:meth:`SubscriptionIndex.matcher`/``evaluate``, :class:`DocumentBroker`)
via ``delivery=``:

* **verdict** (:class:`~repro.streaming.delivery.VerdictDelivery`, or the
  legacy ``matches_only=True``) — per-subscription booleans.  Cheapest;
  admits early termination: the session halts once every verdict is fixed.
* **ids** (:class:`~repro.streaming.delivery.NodeIdDelivery`, the default)
  — sorted matched node ids per subscription, agreeing 1:1 with the DOM
  evaluator's document-order positions.
* **substream** (:class:`~repro.streaming.delivery.SubstreamDelivery`) —
  the matched *content*: each match re-emits its subtree's events,
  re-serialized to XML bytes by :mod:`repro.xmlmodel.stream_serialize`.
  This is what turns the engine into a content-based router (Genshi's
  ``Path.select()`` shape).  Capture runs as a shared single-pass tee:
  overlapping and nested matches — across *all* subscriptions — share one
  capture buffer by reference, rendering of a shared subtree happens once,
  and while no capture window is open the tee costs nothing, so verdict
  and id modes are completely unaffected.  Payload routing is per
  subscription: a streaming ``on_payload(key, node_id, data)`` callback
  (fires as each window closes), or buffered bytes on
  ``SubscriptionResult.payload``.  ``StreamStats.subtrees_emitted`` /
  ``bytes_emitted`` count what crossed the boundary.

One route: automaton, gates, fallback trie
------------------------------------------

Every matching entry point — :class:`StreamingMatcher`,
:meth:`SubscriptionIndex.matcher`/``evaluate``, :class:`DocumentBroker`,
:func:`stream_evaluate` — runs the same engine configuration, in three
layers:

* **the lazy automaton** — each subscription's structural spine
  (``self``/``child``/``descendant``/``descendant-or-self``/``attribute``
  steps, plus ``following-sibling``/``following`` steps as
  close-event-armed *sibling windows*) is compiled into NFA fragments
  merged trie-style into one shared automaton, and DFA states are
  materialized lazily: once the transition table is warm a StartElement
  costs one dictionary lookup plus a stack push, *independent of the
  number of subscriptions*.  Structurally decided subscriptions (no
  qualifiers) are answered by DFA accept sets alone;
* **qualifier gates** — qualifier-carrying subscriptions run the
  expectation engine only past a DFA *gate*, i.e. only on
  structurally-viable elements;
* **the fallback trie** — the rare union members whose first step the
  automaton cannot serve run on the expectation engine from the root,
  merged into a prefix trie.

Memory is bounded on both axes of the automaton: the transition table
holds at most ``SubscriptionIndex(dfa_transition_cap=...)`` entries
(default 65536, FIFO eviction with on-the-fly subset construction past
it — ``StreamStats.transition_cache_evictions``), and the materialized
state set itself is flushed and lazily rebuilt when it outgrows the same
bound (``StreamStats.transition_cache_flushed``) — so even a feed of
documents with ever-new tag combinations cannot grow the automaton
without limit.  A broker session keeps the warmed table across
documents, which is where the throughput of
``benchmarks/bench_automaton_sdi.py`` comes from.

The expectation engine advances one live expectation per (trie node,
anchor); per-event cost scales with the expectations the event could
match.  It handles every forward axis uniformly and is the *semantics
reference*: the test and benchmark suites force every member of an index
onto the fallback trie — a ``forced_fallback`` seam in the repository's
root ``conftest.py`` that stubs out the automaton's spine split — so the
whole index runs on the expectation engine, and the differential suites
pin that route and the default one against the DOM evaluator.

Live churn
----------

A production router cannot recompile the world every time one user
subscribes or unsubscribes, so a built :class:`SubscriptionIndex` is
*churnable* in place:

* :meth:`SubscriptionIndex.add_subscription(key, query)
  <SubscriptionIndex.add_subscription>` threads the new query into the
  existing structures incrementally — fallback-trie branches are inserted
  in place, and the new NFA fragments merge into the shared automaton followed
  by a **targeted invalidation**: the epoch bumps, but only cached
  transitions whose NFA-state sets intersect the touched fragments are
  dropped (every materialized DFA state, and the state ids live runs hold,
  stay valid).  Only when the touched fragments reach more than
  ``TARGETED_FLUSH_RATIO`` of the materialized states does it fall back to
  the wholesale flush (``ChurnStats.full_flushes``).
* :meth:`SubscriptionIndex.remove_subscription(key)
  <SubscriptionIndex.remove_subscription>` is **ordinal retirement**: the
  slot stays (no ordinal shifts, so no session rebuild), its trie branches
  are unlinked, and deliveries for the ordinal are dropped at the sink
  boundary — by live sessions too, immediately, mid-document.  The dead NFA
  fragments linger until :meth:`SubscriptionIndex.vacuum` compacts them:
  automatically once retired ordinals exceed ``vacuum_ratio`` (default
  0.25) of the index, or explicitly in a maintenance window.  A vacuum
  remaps ordinals and bumps the index *generation*; existing sessions must
  then be rebuilt (the broker does this at its next checkout).
* Live sessions follow adds exactly as they follow a cache flush: the index
  *version* counter bumps on every churn operation, and
  :meth:`MultiMatcher.sync` extends a session in place — so a mid-document
  add takes effect at the next document, while removals take effect
  immediately.  :meth:`DocumentBroker.subscribe` / ``unsubscribe`` wire
  this into the serving layer between submits, for all three delivery
  modes, and are safe on a shared index (each broker syncs at its own next
  submit).  ``index.churn`` (:class:`~repro.streaming.stats.ChurnStats`)
  counts adds, removes, targeted/full flushes, and vacuums;
  ``benchmarks/bench_subscription_churn.py`` measures churn-rate vs warm
  throughput.

When to use what
----------------

Use :meth:`SubscriptionIndex.evaluate` for a handful of documents you
already hold in memory; every call builds a fresh matcher, which is simple
and stateless but pays the per-subscription setup each time.  Use a
:class:`DocumentBroker` for a *feed* — many (especially small) documents
against the same standing subscriptions, arriving as text chunks — where
session reuse amortizes that setup and verdict-only mode stops tokenizing a
document the moment its routing is decided
(``benchmarks/bench_document_broker.py`` quantifies both effects).
"""

from repro.streaming.stats import StreamStats
from repro.streaming.automaton import SubscriptionAutomaton
from repro.streaming.delivery import (
    DELIVERY_MODES,
    Delivery,
    NodeIdDelivery,
    SubstreamDelivery,
    VerdictDelivery,
    resolve_delivery,
)
from repro.streaming.evaluator import StreamResult, stream_evaluate, stream_matches
from repro.streaming.engine import (
    MultiMatcher,
    MultiMatchResult,
    Subscription,
    SubscriptionIndex,
    SubscriptionResult,
)
from repro.streaming.broker import BrokerStats, DocumentBroker, DocumentRecord
from repro.streaming.dom_baseline import dom_evaluate
from repro.streaming.buffered import buffered_evaluate

__all__ = [
    "SubscriptionAutomaton",
    "DELIVERY_MODES",
    "Delivery",
    "NodeIdDelivery",
    "SubstreamDelivery",
    "VerdictDelivery",
    "resolve_delivery",
    "StreamStats",
    "StreamResult",
    "stream_evaluate",
    "stream_matches",
    "Subscription",
    "SubscriptionIndex",
    "SubscriptionResult",
    "MultiMatcher",
    "MultiMatchResult",
    "BrokerStats",
    "DocumentBroker",
    "DocumentRecord",
    "dom_evaluate",
    "buffered_evaluate",
]
