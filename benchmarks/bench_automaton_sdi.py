"""E13 — lazy-DFA structural dispatch vs the expectation engine.

The expectation engine's tag-indexed dispatch makes per-event cost
proportional to the expectations an event *could* match; this benchmark
measures the next rung: the lazy DFA (:mod:`repro.streaming.automaton`)
compiles every subscription's structural spine into one shared automaton, so a warm
StartElement costs one transition-table lookup plus a stack push no matter
how many subscriptions stand.  The workload is the anti-trie regime where
per-event dispatch dominates: ``low_overlap_workload`` subscriptions rooted
across a wide tag vocabulary (~75% structurally decided, ~25% qualifier
gated), matched verdict-only against a large ``tagged_sections_document`` —
the SDI shape where a standing index serves a heavy document feed.

Three engines are timed per scale (N ∈ {100, 1000} subscriptions):

* the expectation engine (every member forced onto the fallback trie by
  the ``forced_fallback`` seam of the repository's root ``conftest.py``,
  on an index of its own),
* the default route *cold* (first document ever: subset construction on
  every miss), and
* the default route *warm* (transition table already materialized — the
  steady state of a broker session serving a feed).

The acceptance bar is warm DFA ≥ 3x expectation-engine events/sec at
N=1000; the smoke test records an ``automaton_sdi`` section into
``BENCH_multi_query_sdi.json`` (locally measured ~10-16x warm, ~2-2.5x
cold).
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

SCALES = (100, 1000)
REPEATS = 3

DOCUMENT = tagged_sections_document(sections=160, children_per_section=3,
                                    depth=2, seed=3)
EVENTS = list(document_events(DOCUMENT))

ARTIFACT_PATH = artifact_path(MULTI_QUERY_SDI_ARTIFACT)


def _build_index(count):
    index = SubscriptionIndex()
    for position, query in enumerate(low_overlap_workload(count, seed=11)):
        index.add(query, key=position)
    # One-time compilation (automaton NFA, fallback trie) out of the timed
    # region; the DFA transition table deliberately starts cold.
    index.matcher()
    return index


def _timed_run(index):
    """Best-of-REPEATS verdict-only pass; returns (result, matcher, secs)."""
    best = float("inf")
    result = matcher = None
    for _ in range(REPEATS):
        candidate = index.matcher(matches_only=True)
        start = time.perf_counter()
        outcome = candidate.process(EVENTS)
        elapsed = time.perf_counter() - start
        if elapsed < best:
            best, result, matcher = elapsed, outcome, candidate
    return result, matcher, best


def _bench(count, report, forced_fallback):
    index = _build_index(count)
    events = len(EVENTS)

    # Cold: the very first document through a fresh automaton.
    cold_matcher = index.matcher(matches_only=True)
    start = time.perf_counter()
    cold_result = cold_matcher.process(EVENTS)
    cold_time = time.perf_counter() - start

    dfa_result, dfa_matcher, dfa_time = _timed_run(index)
    with forced_fallback():
        exp_result, exp_matcher, exp_time = _timed_run(_build_index(count))

    # Identical routing from every engine.
    assert (cold_result.matching_keys == dfa_result.matching_keys
            == exp_result.matching_keys)

    dfa_stats = dfa_matcher.stats
    table = Table(
        f"Lazy-DFA structural dispatch vs expectation engine "
        f"(N={count} low-overlap subscriptions, {events} events, "
        f"{dfa_matcher.dfa_state_count()} DFA states)",
        ["engine", "wall ms", "events/sec", "lookups/event",
         "checked/event", "states materialized"],
    )
    table.add_row("expectations", f"{exp_time * 1e3:.1f}",
                  f"{events / exp_time:,.0f}", "-",
                  f"{exp_matcher.stats.expectations_checked / events:.2f}",
                  "-")
    table.add_row("dfa, cold", f"{cold_time * 1e3:.1f}",
                  f"{events / cold_time:,.0f}",
                  f"{cold_matcher.stats.transition_cache_lookups / events:.2f}",
                  f"{cold_matcher.stats.expectations_checked / events:.2f}",
                  cold_matcher.stats.dfa_states_materialized)
    table.add_row("dfa, warm", f"{dfa_time * 1e3:.1f}",
                  f"{events / dfa_time:,.0f}",
                  f"{dfa_stats.transition_cache_lookups / events:.2f}",
                  f"{dfa_stats.expectations_checked / events:.2f}",
                  dfa_stats.dfa_states_materialized)
    report(table.render())

    return {
        "subscriptions": count,
        "events": events,
        "events_per_sec_expectations": round(events / exp_time),
        "events_per_sec_dfa_cold": round(events / cold_time),
        "events_per_sec_dfa": round(events / dfa_time),
        "speedup_warm": round(exp_time / dfa_time, 2),
        "speedup_cold": round(exp_time / cold_time, 2),
        "wall_ms_expectations": round(exp_time * 1e3, 3),
        "wall_ms_dfa_cold": round(cold_time * 1e3, 3),
        "wall_ms_dfa": round(dfa_time * 1e3, 3),
        "dfa_states": dfa_matcher.dfa_state_count(),
        "dfa_states_materialized_warm": dfa_stats.dfa_states_materialized,
        "transition_cache_lookups": dfa_stats.transition_cache_lookups,
        "transition_cache_hits": dfa_stats.transition_cache_hits,
        "transition_cache_evictions": dfa_stats.transition_cache_evictions,
        "expectations_checked_per_event_expectations":
            round(exp_matcher.stats.expectations_checked / events, 3),
        "expectations_checked_per_event_dfa":
            round(dfa_stats.expectations_checked / events, 3),
        "expectations_created_expectations":
            exp_matcher.stats.expectations_created,
        "expectations_created_dfa": dfa_stats.expectations_created,
    }


@pytest.mark.parametrize("count", SCALES, ids=[f"subs{n}" for n in SCALES])
def test_automaton_sdi(report, forced_fallback, count):
    row = _bench(count, report, forced_fallback)
    # Qualifier gating: the automaton spawns expectations only at
    # structurally viable elements.
    assert (row["expectations_created_dfa"]
            < row["expectations_created_expectations"])
    if count >= 1000:
        # The acceptance bar: warm lazy-DFA dispatch beats the expectation
        # engine by >= 3x events/sec at N=1000 (locally ~10-16x, so the
        # margin absorbs heavy runner noise).
        assert row["speedup_warm"] >= 3.0
        # A warm table means no subset construction at all.
        assert row["dfa_states_materialized_warm"] == 0


def test_automaton_sdi_smoke(report, forced_fallback):
    """CI smoke: correctness at every scale plus the ``automaton_sdi``
    trajectory section of ``BENCH_multi_query_sdi.json``.  No wall-clock
    ratio assertion here — shared runners are too noisy; the >= 3x bar is
    asserted by the full parametrized benchmark above."""
    rows = [_bench(count, report, forced_fallback) for count in SCALES]
    at_1000 = rows[-1]
    assert at_1000["subscriptions"] == 1000
    assert at_1000["dfa_states_materialized_warm"] == 0
    assert (at_1000["expectations_created_dfa"]
            < at_1000["expectations_created_expectations"])
    update_bench_artifact(ARTIFACT_PATH, "automaton_sdi", {
        "document_events": len(EVENTS),
        "scales": rows,
    })
