"""Per-layer metrics of the traced run, computed from its spans.

Inside a traced ``submit`` the time splits without remainder into: the
layers' exclusive times (their spans minus the collections that ran inside
them), the collector (``runtime.gc_ms_per_doc``) and the broker's own code
(``broker.self_ms_per_doc``, which also carries the wrappers' overhead).

Only the documents the traced run served with tracing on count as traced;
its other documents are the untraced half of the slowdown comparison
(``trace.slowdown_ratio``).  Counts read off the program's own per-document
``StreamStats`` cover every document of the loop.
"""

from __future__ import annotations

import statistics
from collections import defaultdict

from spans import BUSY, CALLS, DOC, FEED, GC, NAME, PARENT, SIZE, SUBMIT

TOKENIZER = ("PushTokenizer.feed", "PushTokenizer.close")
CHURN = ("SubscriptionIndex.add_subscription",
         "SubscriptionIndex.remove_subscription")


def _under_root(spans, index):
    """The root of the span's tree, and the span just below the root on the
    path to it (the span itself when it is the root or the root's child)."""
    path = [index]
    while spans[path[-1]][PARENT] != -1:
        path.append(spans[path[-1]][PARENT])
    return path[-1], (path[-2] if len(path) > 1 else index)


def _setup_figures(spans):
    """compile ms per subscription and first ``matcher()`` seconds, per
    set-up repeat."""
    compile_ns = defaultdict(int)
    compiles = defaultdict(int)
    seal = {}
    for span in spans:
        doc = span[DOC]
        if not (isinstance(doc, str) and doc.startswith("setup")):
            continue
        if span[NAME] == "QueryCache.compile":
            compile_ns[doc] += span[BUSY]
            compiles[doc] += 1
        elif span[NAME] == "SubscriptionIndex.matcher" and doc not in seal:
            seal[doc] = span[BUSY] / 1e9
    per_sub = [compile_ns[doc] / compiles[doc] / 1e6 for doc in compiles]
    return per_sub, list(seal.values())


def _slowdown(steps):
    """Mean time of a traced step (churn + submit) over that of an untraced
    one.  The loop alternates the two document by document, so both sides
    serve the same kind of fresh documents and share the machine's slow and
    fast seconds."""
    sides = ([], [])
    for traced, seconds in steps:
        sides[traced].append(seconds)
    plain, with_trace = sides
    if not (plain and with_trace):
        return 0.0
    return statistics.fmean(with_trace) / statistics.fmean(plain)


def per_layer(spans, loop, capture_ms):
    traced_docs = {span[DOC] for span in spans if span[NAME] == SUBMIT
                   and isinstance(span[DOC], int)}
    docs = len(traced_docs) or 1
    # Layer time of the traced submits, exclusive of the collections that
    # ran inside it: the collector is a layer of its own.
    exclusive = defaultdict(int)
    calls = defaultdict(int)
    tokenized_bytes = 0
    submit_ns = accounted_ns = gc_ns = gc_full = 0
    churn_ns = churn_calls = 0
    for index, span in enumerate(spans):
        if span[DOC] not in traced_docs:
            continue
        name, parent = span[NAME], span[PARENT]
        if name == SUBMIT:
            submit_ns += span[BUSY]
            continue
        if name in CHURN and parent == -1:
            churn_ns += span[BUSY]
            churn_calls += 1
            continue
        root, layer = _under_root(spans, index)
        if spans[root][NAME] != SUBMIT:
            continue
        if name == GC:
            gc_ns += span[BUSY]
            gc_full += span[SIZE] == 2
            if layer == index:
                accounted_ns += span[BUSY]
            else:
                exclusive[spans[layer][NAME]] -= span[BUSY]
            continue
        if layer != index:
            continue        # nested inside another layer's span
        accounted_ns += span[BUSY]
        exclusive[name] += span[BUSY]
        calls[name] += span[CALLS]
        if name == "PushTokenizer.feed":
            tokenized_bytes += span[SIZE]

    per_sub, seal = _setup_figures(spans)
    totals = loop["totals"]
    served = loop["served"]
    tokenize_ns = sum(exclusive[name] for name in TOKENIZER)
    match_ns = exclusive[FEED]

    def per_doc_ms(ns):
        return ns / docs / 1e6

    return {
        "xmlmodel.tokenize_ms_per_doc": (per_doc_ms(tokenize_ns), "ms"),
        "xmlmodel.tokenize_mb_per_s": (
            tokenized_bytes / tokenize_ns * 1e3 if tokenize_ns else 0.0,
            "MB/s"),
        "compile.ms_per_sub": (statistics.median(per_sub), "ms"),
        "index.seal_s": (statistics.median(seal), "s"),
        "match.ms_per_doc": (per_doc_ms(match_ns), "ms"),
        "match.events_per_s": (
            calls[FEED] / match_ns * 1e9 if match_ns else 0.0, "events/s"),
        "match.expectations_checked_per_event": (
            totals["checked"] / totals["events"], "count"),
        "automaton.cache_hit_ratio": (
            totals["hits"] / totals["lookups"] if totals["lookups"] else 0.0,
            "ratio"),
        "automaton.states_materialized_per_doc": (
            totals["states"] / served, "count"),
        "automaton.flushes_per_100docs": (
            totals["flushes"] * 100 / served, "1/100docs"),
        "match.reset_ms_per_doc": (
            per_doc_ms(exclusive["MultiMatcher.reset"]), "ms"),
        "match.results_ms_per_doc": (
            per_doc_ms(exclusive["MultiMatcher.results"]), "ms"),
        "runtime.gc_ms_per_doc": (per_doc_ms(gc_ns), "ms"),
        "runtime.gc_full_per_doc": (gc_full / docs, "count"),
        "delivery.capture_ms_per_doc": (capture_ms, "ms"),
        "churn.op_ms": (churn_ns / churn_calls / 1e6 if churn_calls else 0.0,
                        "ms"),
        "churn.sync_ms_per_doc": (
            per_doc_ms(exclusive["MultiMatcher.sync"]), "ms"),
        "churn.rebuild_ms_per_doc": (
            per_doc_ms(exclusive["SubscriptionIndex.matcher"]), "ms"),
        "churn.vacuum_runs": (loop["vacuum_runs"] * 100 / served,
                              "1/100docs"),
        "broker.self_ms_per_doc": (per_doc_ms(submit_ns - accounted_ns),
                                   "ms"),
        "trace.submit_accounted_ratio": (
            accounted_ns / submit_ns if submit_ns else 0.0, "ratio"),
        "trace.slowdown_ratio": (_slowdown(loop["steps"]), "ratio"),
    }
