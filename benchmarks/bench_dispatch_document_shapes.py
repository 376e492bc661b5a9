"""E12 — tag-indexed dispatch across document shapes and overlap regimes.

The dispatch index of :class:`repro.streaming.matcher.MatcherCore` buckets
live expectations by node-test tag so that a node event only touches the
expectations that could match it.  How much that saves depends on the
workload: with the *low-overlap* subscription population (every subscription
rooted at a different tag of a wide vocabulary — the anti-trie workload) a
start-element is relevant to only a handful of subscriptions.  Deep chains
and wide flat documents probe anchor-keyed expiry: an ``EndElement`` pops
only the affected expectations instead of filtering the whole live set.

Every configuration is timed on the expectation engine — the
``forced_fallback`` seam of the repository's root ``conftest.py`` routes
every union member through the fallback trie — and checked against the
default route (lazy automaton, gates, fallback trie) for identical
per-subscription results; the rows land in the ``document_shapes`` section
of ``BENCH_multi_query_sdi.json``.
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
from repro.workloads.queries import (
    low_overlap_tags,
    low_overlap_workload,
    subscription_workload,
)
from repro.xmlmodel.builder import document_events
from repro.xmlmodel.generator import (
    deep_chain_document,
    tagged_sections_document,
    wide_document,
)

ARTIFACT_PATH = artifact_path(MULTI_QUERY_SDI_ARTIFACT)

#: (configuration id, document factory, subscription factory)
CONFIGURATIONS = (
    (
        # The document generator and the workload are handed the same tag
        # vocabulary explicitly: the subscriptions must name tags that occur
        # in the document for the configuration to mean anything.
        "low-overlap-1000",
        lambda: tagged_sections_document(sections=120, seed=3,
                                         tags=low_overlap_tags()),
        lambda: low_overlap_workload(1000, seed=11, tags=low_overlap_tags()),
    ),
    (
        "deep-chain-300",
        lambda: deep_chain_document(depth=60,
                                    tag_cycle=low_overlap_tags(12)),
        lambda: low_overlap_workload(300, seed=5,
                                     tags=low_overlap_tags(12)),
    ),
    (
        # Kept deliberately modest: sibling-axis tails over a flat fan-out
        # are quadratic in width x subscriptions for *any* engine; this
        # configuration measures dispatch overhead under heavy overlap, not
        # raw scale.
        "wide-flat-80",
        lambda: wide_document(width=150),
        lambda: subscription_workload(
            80, seed=9,
            prefixes=("/descendant::item", "/child::collection/child::item",
                      "/descendant::value"),
            tags=("item", "value", "collection")),
    ),
)


def _build_index(workload_factory):
    index = SubscriptionIndex()
    for position, query in enumerate(workload_factory()):
        index.add(query, key=position)
    return index


def _run(index, events, repeats=3):
    best = None
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        matcher = index.matcher()
        result = matcher.process(events)
        elapsed = time.perf_counter() - start
        best = elapsed if best is None else min(best, elapsed)
    return result, result.stats, best


def _bench_configuration(config_id, document_factory, workload_factory,
                         report, forced_fallback, repeats=3):
    events = list(document_events(document_factory()))
    with forced_fallback():
        index = _build_index(workload_factory)
        indexed_result, indexed_stats, indexed_time = \
            _run(index, events, repeats=repeats)
    default_result = _build_index(workload_factory).evaluate(events)

    # Both routes give identical answers.
    for indexed_row, default_row in zip(indexed_result, default_result):
        assert indexed_row.node_ids == default_row.node_ids
        assert indexed_row.matched == default_row.matched

    count = len(events)
    table = Table(
        f"{config_id}: indexed expectation dispatch "
        f"({count} events, {len(index)} subscriptions)",
        ["engine", "checked/event", "peak live", "wall ms", "us/event"],
    )
    table.add_row("indexed dispatch",
                  f"{indexed_stats.expectations_checked / count:.2f}",
                  indexed_stats.max_live_expectations,
                  f"{indexed_time * 1e3:.2f}",
                  f"{indexed_time / count * 1e6:.2f}")
    report(table.render())

    return {
        "configuration": config_id,
        "events": count,
        "subscriptions": len(index),
        "matched_subscriptions":
            sum(1 for row in indexed_result if row.matched),
        "events_per_sec_indexed": round(count / indexed_time),
        "wall_ms_indexed": round(indexed_time * 1e3, 3),
        "expectations_checked_per_event":
            round(indexed_stats.expectations_checked / count, 3),
    }


@pytest.mark.parametrize(
    "config_id,document_factory,workload_factory", CONFIGURATIONS,
    ids=[config[0] for config in CONFIGURATIONS])
def test_dispatch_document_shapes(report, forced_fallback, config_id,
                                  document_factory, workload_factory):
    row = _bench_configuration(config_id, document_factory, workload_factory,
                               report, forced_fallback)
    assert row["matched_subscriptions"] > 0


def test_dispatch_shapes_smoke(report, forced_fallback):
    """Fast CI smoke: every shape once, trajectory rows into the artifact."""
    rows = [
        _bench_configuration(config_id, document_factory, workload_factory,
                             report, forced_fallback, repeats=1)
        for config_id, document_factory, workload_factory in CONFIGURATIONS
    ]
    update_bench_artifact(ARTIFACT_PATH, "document_shapes", rows)
