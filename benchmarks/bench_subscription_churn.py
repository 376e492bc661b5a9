"""E14 — live subscription churn vs warm throughput.

A production SDI router gains and loses subscribers *while the feed is
flowing*.  This benchmark measures what that churn costs on a standing
index served by the lazy DFA: ``add_subscription`` merges new NFA
fragments into the shared automaton and drops only the cached transitions
whose NFA-state sets intersect the touched fragments (a *targeted*
invalidation), ``remove_subscription`` retires the subscription's ordinal
in place — so the alternative, recompiling the world per churn event, is
measured alongside as the counterfactual.

The workload reuses the anti-trie SDI regime of the automaton benchmark
(``low_overlap_workload`` over a wide tag vocabulary, verdict-only matching
of a ``tagged_sections_document``).  Per scale (N ∈ {1000, 10000} standing
subscriptions) the feed is replayed at increasing churn rates — R
add/remove pairs between consecutive documents, drawn from the same
workload family — and the steady-state matching throughput is recorded
against the churn-free warm baseline, together with the per-operation
churn latency and the fresh-recompile counterfactual.

The smoke test records a ``subscription_churn`` section into
``BENCH_multi_query_sdi.json`` (``events_per_sec_churned`` at the
canonical rate of 10 ops/document is the advisory-gated metric, at
N=1000); correctness is pinned per rate by comparing the final routing
against a fresh-compiled index over the surviving subscription set.
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
from repro.workloads.queries import low_overlap_workload
from repro.xmlmodel.builder import document_events
from repro.xmlmodel.generator import tagged_sections_document

SCALES = (1000, 10000)
#: Add/remove pairs performed between consecutive documents.
CHURN_RATES = (1, 10, 100)
#: The advisory-gated rate: one order of magnitude above trickle churn,
#: still far below the vacuum threshold over a whole sweep.
CANONICAL_RATE = 10
#: Documents matched per churn rate (few but warm: rate 0 is the baseline).
DOCUMENTS_PER_RATE = 2

DOCUMENT = tagged_sections_document(sections=160, children_per_section=3,
                                    depth=2, seed=3)
EVENTS = list(document_events(DOCUMENT))

ARTIFACT_PATH = artifact_path(MULTI_QUERY_SDI_ARTIFACT)


def _pool(count):
    """The standing workload plus enough spare queries to churn from."""
    spare = max(CHURN_RATES) * DOCUMENTS_PER_RATE
    return low_overlap_workload(count + spare, seed=11)


def _build_index(count, pool):
    index = SubscriptionIndex({position: pool[position]
                               for position in range(count)})
    # Compile and warm outside any timed region: churn is measured against
    # the *steady state* of a long-lived index, not against cold start.
    index.matcher(matches_only=True).process(EVENTS)
    return index


def _warm_pass_time(index):
    best = float("inf")
    for _ in range(DOCUMENTS_PER_RATE + 1):
        matcher = index.matcher(matches_only=True)
        start = time.perf_counter()
        matcher.process(EVENTS)
        best = min(best, time.perf_counter() - start)
    return best


def _churned_feed(count, pool, rate):
    """Replay the feed with ``rate`` add/remove pairs between documents.

    Returns (matching seconds total, churn seconds total, ops, index).
    The same index churns on across documents — removals retire ordinals,
    additions reuse the shared automaton — exactly like a long-lived
    router.
    """
    index = _build_index(count, pool)
    next_spare = count      # next pool query to register
    next_victim = 0         # oldest standing subscription to drop
    matching = churning = 0.0
    ops = 0
    for _ in range(DOCUMENTS_PER_RATE):
        start = time.perf_counter()
        for _ in range(rate):
            index.add_subscription(f"sub-{next_spare}", pool[next_spare])
            index.remove_subscription(next_victim
                                      if next_victim < count
                                      else f"sub-{next_victim}")
            next_spare += 1
            next_victim += 1
            ops += 2
        churning += time.perf_counter() - start
        matcher = index.matcher(matches_only=True)
        start = time.perf_counter()
        matcher.process(EVENTS)
        matching += time.perf_counter() - start
    return matching, churning, ops, index


def _verify_against_fresh(index):
    """The churned index answers exactly like a fresh compile of its
    surviving subscription set — churn must be invisible to routing."""
    survivors = {subscription.key: subscription.source
                 for subscription in index.subscriptions}
    fresh = SubscriptionIndex(survivors)
    churned = index.evaluate(EVENTS, matches_only=True)
    reference = fresh.evaluate(EVENTS, matches_only=True)
    assert sorted(churned.matching_keys, key=str) \
        == sorted(reference.matching_keys, key=str)


def _bench(count, report):
    pool = _pool(count)
    events = len(EVENTS)

    baseline = _build_index(count, pool)
    warm_time = _warm_pass_time(baseline)

    # The counterfactual: what one churn event costs when it recompiles
    # the world (fresh trie + NFA + first-document DFA materialization).
    start = time.perf_counter()
    recompiled = SubscriptionIndex({position: pool[position]
                                    for position in range(count)})
    recompiled.matcher(matches_only=True).process(EVENTS)
    recompile_seconds = time.perf_counter() - start

    table = Table(
        f"Live churn vs warm throughput (N={count} standing subscriptions, "
        f"{events} events/document, {DOCUMENTS_PER_RATE} documents/rate)",
        ["churn ops/doc", "events/sec", "vs warm", "churn us/op",
         "targeted", "full", "vacuums"],
    )
    warm_eps = events / warm_time
    table.add_row("0 (warm)", f"{warm_eps:,.0f}", "100%", "-", "-", "-", "-")

    sweep = []
    gated_eps = None
    for rate in CHURN_RATES:
        matching, churning, ops, index = _churned_feed(count, pool, rate)
        _verify_against_fresh(index)
        churn = index.churn
        eps = events * DOCUMENTS_PER_RATE / matching
        per_op_us = churning / ops * 1e6
        sweep.append({
            "ops_per_document": rate,
            "events_per_sec": round(eps),
            "relative_to_warm": round(eps / warm_eps, 3),
            "churn_op_us": round(per_op_us, 1),
            "targeted_flushes": churn.targeted_flushes,
            "full_flushes": churn.full_flushes,
            "vacuum_runs": churn.vacuum_runs,
        })
        if rate == CANONICAL_RATE:
            gated_eps = eps
            canonical = churn
            canonical_op_us = per_op_us
        table.add_row(str(rate), f"{eps:,.0f}", f"{eps / warm_eps:.0%}",
                      f"{per_op_us:.0f}", churn.targeted_flushes,
                      churn.full_flushes, churn.vacuum_runs)
    report(table.render())

    return {
        "subscriptions": count,
        "events": events,
        "events_per_sec_warm": round(warm_eps),
        "events_per_sec_churned": round(gated_eps),
        "churn_ops_per_document": CANONICAL_RATE,
        "churn_op_us": round(canonical_op_us, 1),
        "full_recompile_ms": round(recompile_seconds * 1e3, 1),
        "targeted_flushes": canonical.targeted_flushes,
        "full_flushes": canonical.full_flushes,
        "vacuum_runs": canonical.vacuum_runs,
        "churn_rates": sweep,
    }


@pytest.mark.parametrize("count", SCALES, ids=[f"subs{n}" for n in SCALES])
def test_subscription_churn(report, count):
    row = _bench(count, report)
    # The acceptance contract: below the documented thresholds, churn never
    # recompiles the world — adds cost targeted invalidations and removals
    # cost no vacuum at all.
    assert row["targeted_flushes"] > 0
    assert row["vacuum_runs"] == 0
    # One incremental churn operation is orders of magnitude cheaper than
    # the recompile-the-world counterfactual (assert a loose 20x so runner
    # noise cannot flake; locally it is ~1000x).
    assert row["churn_op_us"] * 20 < row["full_recompile_ms"] * 1e3
    # Churned throughput stays in the warm regime, not the cold one.
    assert row["events_per_sec_churned"] > 0.2 * row["events_per_sec_warm"]


def test_subscription_churn_smoke(report):
    """CI smoke: correctness at every scale plus the ``subscription_churn``
    trajectory section of ``BENCH_multi_query_sdi.json``.  No wall-clock
    ratio assertions here — shared runners are too noisy; the structural
    counters are asserted either way."""
    rows = [_bench(count, report) for count in SCALES]
    for row in rows:
        assert row["targeted_flushes"] > 0
        assert row["vacuum_runs"] == 0
    assert rows[0]["subscriptions"] == 1000   # the advisory-gated row
    assert rows[-1]["subscriptions"] == 10000  # the headline scale
    update_bench_artifact(ARTIFACT_PATH, "subscription_churn", {
        "document_events": len(EVENTS),
        "documents_per_rate": DOCUMENTS_PER_RATE,
        "scales": rows,
    })
