"""E11 — multi-subscription SDI: shared index vs. independent matchers.

The paper's Section 1 motivates reverse-axis removal with selective
dissemination of information: every incoming document is matched against
many standing subscriptions.  This benchmark compiles N overlapping
subscriptions (N ∈ {10, 100, 1000}) into one shared
:class:`repro.streaming.engine.SubscriptionIndex` and matches a journal
catalogue in a single pass, against the baseline of N independent
:class:`StreamingMatcher` passes over the same stream.

Both sides run on the expectation engine: the ``forced_fallback`` seam of
the repository's root ``conftest.py`` routes every union member through the
fallback trie (the lazy automaton, which would otherwise serve these
spines, is measured by ``bench_automaton_sdi.py``).  Reported per
configuration: the shared trie engine vs. N independent matchers — total
expectation activations, ``expectations_checked`` per event of the
tag-indexed dispatch, and wall time.

The smoke test additionally writes ``BENCH_multi_query_sdi.json`` at the
repository root (events/sec, expectations checked per event, activation
counts at every scale) so the performance trajectory is tracked across
revisions.
"""

import time

import pytest

from repro.bench.reporting import (
    MULTI_QUERY_SDI_ARTIFACT,
    Table,
    artifact_path,
    update_bench_artifact,
)
from repro.streaming import SubscriptionIndex
from repro.streaming.matcher import StreamingMatcher
from repro.workloads.queries import subscription_workload
from repro.xmlmodel.builder import document_events
from repro.xmlmodel.generator import journal_document

#: Deliberately small: the independent baseline costs N full passes, and at
#: N = 1000 the document size multiplies directly into the baseline's cost.
DOCUMENT = journal_document(journals=3, articles_per_journal=2,
                            authors_per_article=2, seed=5)
EVENTS = list(document_events(DOCUMENT))

SCALES = (10, 100, 1000)

ARTIFACT_PATH = artifact_path(MULTI_QUERY_SDI_ARTIFACT)


def _build_index(count):
    queries = subscription_workload(count, seed=11)
    index = SubscriptionIndex()
    for position, query in enumerate(queries):
        index.add(query, key=position)
    return index


def _shared_run(index, matches_only):
    start = time.perf_counter()
    matcher = index.matcher(matches_only=matches_only)
    result = matcher.process(EVENTS)
    elapsed = time.perf_counter() - start
    return result, matcher.stats, elapsed


def _independent_run(index):
    start = time.perf_counter()
    node_ids = {}
    expectations = 0
    peak_live = 0
    for subscription in index.subscriptions:
        matcher = StreamingMatcher(subscription.path)
        node_ids[subscription.key] = matcher.process(EVENTS)
        expectations += matcher.stats.expectations_created
        peak_live += matcher.stats.max_live_expectations
    elapsed = time.perf_counter() - start
    return node_ids, expectations, peak_live, elapsed


def _bench_scale(count, report, forced_fallback):
    # This section gates the expectation engine (events_per_sec_indexed):
    # index, matchers and independent baseline are all compiled with every
    # member forced onto the fallback trie.
    with forced_fallback():
        index = _build_index(count)
        # One-time compilation (automaton, fallback trie) stays outside the
        # timed region.
        index.matcher()
        shared_result, shared_stats, shared_time = \
            _shared_run(index, matches_only=False)
        sdi_result, sdi_stats, sdi_time = _shared_run(index,
                                                      matches_only=True)
        node_ids, indep_expectations, indep_peak, indep_time = \
            _independent_run(index)
    summary = index.sharing_summary()

    # Same answer for every subscriber, whichever engine produced it.
    for subscription_result in shared_result:
        assert subscription_result.node_ids == node_ids[subscription_result.key]
    for subscription_result in sdi_result:
        assert subscription_result.matched == \
            bool(node_ids[subscription_result.key])

    events = len(EVENTS)
    table = Table(
        f"Shared SubscriptionIndex vs {count} independent matchers "
        f"({events} events/document, trie {summary['trie_nodes']} nodes "
        f"for {summary['spine_steps']} subscription steps)",
        ["engine", "passes", "expectations", "checked/event", "peak live",
         "wall ms", "us/event"],
    )
    table.add_row("shared index", 1, shared_stats.expectations_created,
                  f"{shared_stats.expectations_checked / events:.2f}",
                  shared_stats.max_live_expectations,
                  f"{shared_time * 1e3:.2f}",
                  f"{shared_time / events * 1e6:.2f}")
    table.add_row("shared, verdicts only", 1, sdi_stats.expectations_created,
                  f"{sdi_stats.expectations_checked / events:.2f}",
                  sdi_stats.max_live_expectations,
                  f"{sdi_time * 1e3:.2f}",
                  f"{sdi_time / events * 1e6:.2f}")
    table.add_row("independent", count, indep_expectations, "-", indep_peak,
                  f"{indep_time * 1e3:.2f}",
                  f"{indep_time / (events * count) * 1e6:.2f} (x{count})")
    report(table.render())

    return {
        "subscriptions": count,
        "trie_nodes": summary["trie_nodes"],
        "events": events,
        "events_per_sec_indexed": round(events / shared_time),
        "wall_ms_indexed": round(shared_time * 1e3, 3),
        "wall_ms_verdicts_only": round(sdi_time * 1e3, 3),
        "wall_ms_independent": round(indep_time * 1e3, 3),
        "expectations_created": shared_stats.expectations_created,
        "expectations_created_independent": indep_expectations,
        "expectations_checked": shared_stats.expectations_checked,
        "expectations_checked_per_event":
            round(shared_stats.expectations_checked / events, 3),
        "max_live_expectations": shared_stats.max_live_expectations,
    }


@pytest.mark.parametrize("count", SCALES, ids=[f"subs{n}" for n in SCALES])
def test_multi_query_sdi(report, forced_fallback, count):
    row = _bench_scale(count, report, forced_fallback)
    # Both sides collect full results here, so the activation gap is the
    # trie's prefix sharing alone: measurably fewer expectation activations
    # than N independent matchers over the same stream...
    assert row["expectations_created"] < row["expectations_created_independent"]
    # ...and at SDI scale the single pass must also win wall-clock, by a
    # margin wide enough to be robust against timer noise.
    if count >= 1000:
        assert row["wall_ms_indexed"] < row["wall_ms_independent"] / 2


def test_multi_query_sdi_smoke(report, forced_fallback):
    """Fast CI smoke: correctness and sharing assertions at every scale,
    plus the ``BENCH_multi_query_sdi.json`` trajectory artifact."""
    rows = [_bench_scale(count, report, forced_fallback) for count in SCALES]
    for row in rows:
        assert row["expectations_created"] < \
            row["expectations_created_independent"]
    assert rows[-1]["subscriptions"] == 1000
    update_bench_artifact(ARTIFACT_PATH, "multi_query_sdi", {
        "document_events": len(EVENTS),
        "scales": rows,
    })
