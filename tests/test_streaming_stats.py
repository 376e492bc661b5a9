"""Unit tests of the resource accounting record (repro.streaming.stats)."""

from repro.streaming import stream_evaluate
from repro.streaming.engine import SubscriptionIndex
from repro.streaming.matcher import StreamingMatcher
from repro.streaming.stats import StreamStats
from repro.xmlmodel.builder import document_events
from repro.xmlmodel.document import Document, element, text
from repro.xmlmodel.events import EndDocument, StartDocument
from repro.xmlmodel.generator import journal_document
from repro.xpath.parser import parse_xpath


class TestStreamStats:
    def test_fresh_stats_are_zero(self):
        stats = StreamStats()
        assert stats.memory_units == 0
        assert all(value == 0 for value in stats.as_row().values())

    def test_memory_units_formula(self):
        stats = StreamStats(nodes_stored=5, candidates_buffered=3,
                            max_live_expectations=2)
        assert stats.memory_units == 10

    def test_as_row_reports_every_memory_quantity(self):
        row = StreamStats(events=7, nodes_seen=4, nodes_stored=1,
                          candidates_buffered=2, max_live_expectations=3,
                          buffered_value_chars=8, results=1).as_row()
        assert row["events"] == 7
        assert row["nodes_seen"] == 4
        assert row["memory_units"] == 1 + 2 + 3
        assert row["results"] == 1

    def test_as_row_reports_substream_emission_counters(self):
        row = StreamStats(subtrees_emitted=4, bytes_emitted=120).as_row()
        assert row["subtrees_emitted"] == 4
        assert row["bytes_emitted"] == 120


MONOTONIC_COUNTERS = ("events", "nodes_seen", "max_depth",
                      "expectations_created", "max_live_expectations",
                      "conditions_created", "candidates_buffered",
                      "buffered_value_chars")


class TestCountersDuringARun:
    def test_counters_grow_monotonically_event_by_event(self):
        document = Document.from_tree(
            element("a",
                    element("b", text("x"), element("c")),
                    element("b", element("c", text("y")))))
        matcher = StreamingMatcher(
            parse_xpath("/descendant::b[child::c]/descendant::node()"))
        previous = {name: 0 for name in MONOTONIC_COUNTERS}
        for event in document_events(document):
            matcher.feed(event)
            for name in MONOTONIC_COUNTERS:
                current = getattr(matcher.stats, name)
                assert current >= previous[name], name
                previous[name] = current
        assert matcher.stats.events == len(list(document_events(document)))

    def test_max_depth_is_a_high_water_mark(self):
        document = Document.from_tree(
            element("a", element("b", element("c")), element("b")))
        matcher = StreamingMatcher(parse_xpath("/descendant::c"))
        matcher.process(document_events(document))
        assert matcher.stats.max_depth == 3

    def test_max_live_expectations_is_a_high_water_mark(self,
                                                        forced_fallback):
        document = Document.from_tree(
            element("a", element("b"), element("b"), element("b")))
        with forced_fallback():
            matcher = StreamingMatcher(
                parse_xpath("/descendant::b/child::c"))
        matcher.process(document_events(document))
        # After the stream all expectations are discarded, but the high-water
        # mark keeps the peak.
        assert matcher.live_expectations() == []
        assert matcher.stats.max_live_expectations >= 2

    def test_empty_stream(self):
        matcher = StreamingMatcher(parse_xpath("/"))
        result = matcher.process([StartDocument(), EndDocument()])
        assert result == [0]
        stats = matcher.stats
        assert stats.events == 2
        assert stats.nodes_seen == 1        # only the root
        assert stats.max_depth == 0
        assert stats.expectations_created == 0
        assert stats.results == 1

    def test_single_element_document(self):
        document = Document.from_tree(element("a"))
        matcher = StreamingMatcher(parse_xpath("/child::a"))
        result = matcher.process(document_events(document))
        assert result == [1]
        assert matcher.stats.nodes_seen == 2    # root + element
        assert matcher.stats.max_depth == 1
        assert matcher.stats.results == 1

    def test_buffered_value_chars_counts_join_text(self):
        document = Document.from_tree(
            element("a", element("b", text("xyz")), element("c", text("xyz"))))
        matcher = StreamingMatcher(
            parse_xpath("/descendant::b[self::node() = /descendant::c]"))
        matcher.process(document_events(document))
        assert matcher.stats.buffered_value_chars >= len("xyz")


def assert_internally_consistent(stats, total_events=None):
    """Invariants every finished run must satisfy, on either route."""
    row = stats.as_row()
    for name, value in row.items():
        assert value >= 0, (name, row)
    assert stats.attributes_seen <= stats.nodes_seen
    assert stats.transition_cache_hits <= stats.transition_cache_lookups
    assert stats.dfa_states_materialized <= max(
        1, stats.transition_cache_lookups)
    assert stats.max_live_expectations <= stats.expectations_created
    if total_events is not None:
        assert stats.events_skipped <= total_events
        assert stats.events + stats.events_skipped == total_events


class TestStatsInvariants:
    """Counter consistency on hand-built streams, on both routes (the
    ``route`` fixture: default, and every member forced onto the fallback
    trie)."""

    def _document(self):
        return Document.from_tree(
            element("a",
                    element("b", text("x"),
                            element("c", attributes={"id": "1"})),
                    element("b", attributes={"id": "2", "kind": "x"}),
                    element("c", text("y"))))

    QUERIES = {
        "decided": "/descendant::b",
        "gated": "/descendant::b[child::c]",
        "attr": '//b[@id="2"]',
        "attr-select": "//c/@id",
        "sibling": "/child::a/child::b/following-sibling::c",
        "join": '/descendant::c[self::node() = "y"]',
        "missing": "/descendant::nosuchtag",
    }

    def test_full_run_counters_are_consistent(self, route):
        events = list(document_events(self._document()))
        index = SubscriptionIndex(self.QUERIES)
        result = index.evaluate(events)
        assert_internally_consistent(result.stats, total_events=len(events))
        assert result.stats.events == len(events)

    def test_verdict_run_counters_are_consistent(self, route):
        events = list(document_events(self._document()))
        index = SubscriptionIndex(self.QUERIES)
        result = index.evaluate(events, matches_only=True)
        assert_internally_consistent(result.stats, total_events=len(events))

    def test_single_query_counters_are_consistent(self, route):
        events = list(document_events(self._document()))
        for query in self.QUERIES.values():
            matcher = StreamingMatcher(parse_xpath(query))
            matcher.process(events)
            assert_internally_consistent(matcher.stats,
                                         total_events=len(events))

    def test_attribute_ids_never_collide_with_element_ids(self, route):
        # Attribute nodes claim the positions right after their owner; the
        # id spaces reported for element, text and attribute selections must
        # be pairwise disjoint and dense.
        document = self._document()
        events = list(document_events(document))
        elements = stream_evaluate("//*", events).node_ids
        attributes = stream_evaluate("//@*", events).node_ids
        texts = stream_evaluate("//text()", events).node_ids
        assert not set(elements) & set(attributes)
        assert not set(elements) & set(texts)
        assert not set(attributes) & set(texts)
        assert sorted([0] + elements + attributes + texts) == \
            list(range(len(document)))


class TestEventsSkipped:
    """Early termination of verdict-only sessions (``events_skipped``)."""

    QUERIES = {
        "journals": "/descendant::journal",
        "titles": "/descendant::journal/descendant::title",
    }

    def _events(self):
        document = journal_document(journals=40, articles_per_journal=3,
                                    authors_per_article=2, seed=13)
        return list(document_events(document))

    def test_verdict_only_session_stops_early(self):
        events = self._events()
        index = SubscriptionIndex(self.QUERIES)
        result = index.evaluate(events, matches_only=True)
        stats = result.stats
        # Both subscriptions are satisfied within the first journal, so the
        # rest of the large document is never consumed.
        assert all(row.matched for row in result)
        assert stats.events < len(events)
        assert stats.events_skipped > 0
        assert stats.events + stats.events_skipped == len(events)
        assert stats.as_row()["events_skipped"] == stats.events_skipped

    def test_full_result_session_never_skips(self):
        events = self._events()
        stats = SubscriptionIndex(self.QUERIES).evaluate(events).stats
        assert stats.events == len(events)
        assert stats.events_skipped == 0

    def test_undecided_verdict_prevents_early_termination(self):
        events = self._events()
        queries = dict(self.QUERIES, missing="/descendant::nosuchtag")
        stats = SubscriptionIndex(queries).evaluate(
            events, matches_only=True).stats
        # One subscription stays undecided until end of stream: no skipping.
        assert stats.events == len(events)
        assert stats.events_skipped == 0

    def test_feeding_a_halted_matcher_counts_skips(self):
        events = self._events()
        matcher = SubscriptionIndex(self.QUERIES).matcher(matches_only=True)
        for event in events:
            matcher.feed(event)
        assert matcher.halted
        assert matcher.stats.events + matcher.stats.events_skipped == len(events)
        before = matcher.stats.events_skipped
        matcher.feed(events[-1])
        assert matcher.stats.events_skipped == before + 1
