"""Deterministic tests of live subscription churn (the acceptance contract).

The churn API's performance promise is structural, so these tests assert it
structurally: below the documented thresholds an ``add_subscription`` costs
one *targeted* DFA invalidation (the automaton object, its materialized
states, and the warmed transitions of untouched states all survive), a
``remove_subscription`` costs no recompilation at all, and only crossing
``vacuum_ratio`` triggers the deferred rebuild.  The new
:class:`~repro.streaming.stats.ChurnStats` counters are the witness.
"""

import pytest

from repro.errors import StreamingError
from repro.streaming import DocumentBroker, SubscriptionIndex
from repro.xmlmodel.parser import iter_events

N = 80  # large enough that one add touches well under TARGETED_FLUSH_RATIO


def _index(**kwargs):
    return SubscriptionIndex({f"s{i}": f"//t{i}" for i in range(N)}, **kwargs)


def _document():
    xml = ("<root>" + "".join(f"<t{i}>x</t{i}>" for i in range(N)) + "</root>")
    return list(iter_events(xml))


class TestIncrementalAdd:
    def test_add_triggers_targeted_not_full_invalidation(self):
        index = _index()
        events = _document()
        index.evaluate(events)  # warm the automaton
        automaton = index._automaton_parts[0]
        for i in range(5):
            index.add_subscription(f"extra{i}", f"//t{i}/inner")
        churn = index.churn
        assert churn.subscriptions_added == 5
        assert churn.targeted_flushes == 5
        assert churn.full_flushes == 0
        assert churn.vacuum_runs == 0
        # The world was not recompiled: same automaton object, no parts drop.
        assert index._automaton_parts[0] is automaton

    def test_warm_transitions_of_untouched_states_survive(self):
        index = _index()
        events = _document()
        index.evaluate(events)
        warm = index.evaluate(events)
        assert warm.stats.transition_cache_hits == \
            warm.stats.transition_cache_lookups
        index.add_subscription("extra", "//t0/inner")
        after = index.evaluate(events)
        # Only the touched fragment's states recompute; the bulk of the
        # table stays warm (strictly more hits than cold, near-warm total).
        assert after.stats.transition_cache_hits \
            > after.stats.transition_cache_lookups // 2

    def test_add_before_first_build_is_not_an_invalidation(self):
        index = _index()
        index.add_subscription("extra", "//late")
        assert index.churn.subscriptions_added == 1
        assert index.churn.targeted_flushes == 0
        assert index.churn.full_flushes == 0

    def test_duplicate_key_rejected_and_uncounted(self):
        index = _index()
        with pytest.raises(ValueError):
            index.add_subscription("s0", "//dup")
        assert index.churn.subscriptions_added == 0

    def test_results_after_add_include_the_new_subscription(self):
        index = _index()
        events = _document()
        index.evaluate(events)
        index.add_subscription("t5again", "//t5")
        result = index.evaluate(events)
        assert result["t5again"].matched
        assert result["t5again"].node_ids == result["s5"].node_ids


class TestRetirementAndVacuum:
    def test_remove_below_ratio_does_not_recompile(self):
        index = _index()
        events = _document()
        index.evaluate(events)
        automaton = index._automaton_parts[0]
        removed = int(N * index._vacuum_ratio) - 1
        for i in range(removed):
            index.remove_subscription(f"s{i}")
        assert index.churn.vacuum_runs == 0
        assert index._automaton_parts[0] is automaton
        assert len(index) == N - removed
        assert index.retired_count == removed
        result = index.evaluate(events)
        assert "s0" not in result.by_key
        assert result[f"s{removed}"].matched

    def test_crossing_the_ratio_vacuums(self):
        index = _index()
        index.evaluate(_document())
        goal = int(N * index._vacuum_ratio) + 1
        for i in range(goal):
            index.remove_subscription(f"s{i}")
        assert index.churn.vacuum_runs == 1
        assert index.retired_count == 0  # reclaimed
        assert len(index) == N - goal
        # Ordinals were remapped densely.
        assert [s.ordinal for s in index.subscriptions] \
            == list(range(N - goal))

    def test_explicit_vacuum_reports_reclaimed(self):
        index = _index(vacuum_ratio=1.0)  # never automatic
        index.remove_subscription("s0")
        index.remove_subscription("s1")
        assert index.churn.vacuum_runs == 0
        assert index.vacuum() == 2
        assert index.churn.vacuum_runs == 1
        assert index.vacuum() == 0  # idempotent on a clean index

    def test_unknown_key_raises_keyerror(self):
        index = _index()
        with pytest.raises(KeyError):
            index.remove_subscription("nope")

    def test_vacuumed_matcher_must_be_rebuilt(self):
        index = _index(vacuum_ratio=0.0)  # vacuum on every remove
        events = _document()
        matcher = index.matcher()
        matcher.process(events)
        index.remove_subscription("s0")
        assert index.churn.vacuum_runs == 1
        with pytest.raises(StreamingError, match="vacuumed"):
            matcher.reset()
        with pytest.raises(StreamingError, match="vacuumed"):
            matcher.sync()
        # A fresh matcher serves the compacted index.
        result = index.matcher().process(events)
        assert len(result) == N - 1


class TestLiveSessions:
    def test_removal_takes_effect_mid_document(self):
        index = _index()
        events = _document()
        matcher = index.matcher()
        half = len(events) // 2
        for event in events[:half]:
            matcher.feed(event)
        index.remove_subscription(f"s{N - 1}")  # matches late in the doc
        for event in events[half:]:
            matcher.feed(event)
        result = matcher.results()
        assert not any(sub.key == f"s{N - 1}" for sub in result)

    def test_mid_document_add_takes_effect_next_document(self):
        index = _index()
        events = _document()
        matcher = index.matcher()
        half = len(events) // 2
        for event in events[:half]:
            matcher.feed(event)
        index.add_subscription("late", "//t1")
        for event in events[half:]:
            matcher.feed(event)
        result = matcher.results()
        # This document: the session predates the add and does not carry it.
        assert not any(sub.key == "late" for sub in result)
        # Next document, after a sync: delivered.
        matcher.sync()
        matcher.reset()
        follow_up = matcher.process(events)
        assert follow_up["late"].matched

    def test_matches_only_sessions_follow_churn(self, route):
        index = _index()
        events = _document()
        matcher = index.matcher(matches_only=True)
        matcher.process(events)
        index.add_subscription("late", "//t2")
        index.remove_subscription("s3")
        matcher.sync()
        matcher.reset()
        result = matcher.process(events)
        assert result["late"].matched
        assert "s3" not in result.by_key
        assert result["s4"].matched


class TestChurnStatsPlumbing:
    def test_as_row_round_trips(self):
        index = _index()
        index.evaluate(_document())
        index.add_subscription("extra", "//t0/inner")
        index.remove_subscription("s1")
        row = index.churn.as_row()
        assert row["subscriptions_added"] == 1
        assert row["subscriptions_removed"] == 1
        assert row["targeted_flushes"] == index.churn.targeted_flushes
        assert set(row) == {"subscriptions_added", "subscriptions_removed",
                            "targeted_flushes", "full_flushes",
                            "vacuum_runs"}

    def test_describe_reports_invalidations(self):
        index = _index()
        index.evaluate(_document())
        index.add_subscription("extra", "//t0/inner")
        description = index._automaton_parts[0].describe()
        assert description["targeted_invalidations"] == 1
        assert description["full_invalidations"] == 0


class TestBrokerSessionAmortization:
    def test_session_survives_a_whole_churn_storm(self):
        broker = DocumentBroker({f"s{i}": f"//t{i}" for i in range(N)})
        xml = "<root>" + "".join(f"<t{i}/>" for i in range(N)) + "</root>"
        broker.submit("warmup", xml)
        session = broker.session
        for i in range(5):
            broker.subscribe(f"extra{i}", f"//t{i}/inner")
        broker.submit("mid", xml)
        assert broker.session is session  # synced, not rebuilt
        broker.unsubscribe("s0")
        result = broker.submit("final", xml)
        assert broker.session is session  # retirement needs no rebuild
        assert "s0" not in result.by_key
        assert result["s1"].matched
