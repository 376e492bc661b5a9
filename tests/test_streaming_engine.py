"""Unit tests of the multi-subscription engine (SubscriptionIndex/MultiMatcher)."""

import pytest

from repro.datasets import figure1_document
from repro.errors import StreamingError
from repro.streaming import (
    SubscriptionIndex,
    dom_evaluate,
    stream_evaluate,
    stream_matches,
)
from repro.streaming.matcher import StreamingMatcher
from repro.xmlmodel.builder import document_events
from repro.xpath import analysis
from repro.xpath.cache import QueryCache, compile_query
from repro.xpath.parser import parse_xpath

OVERLAPPING = {
    "names": "/descendant::journal/descendant::name",
    "titles": "/descendant::journal/descendant::title",
    "editors": "/descendant::journal/child::editor",
    "qualified": "/descendant::journal/descendant::name[child::text()]",
}


@pytest.fixture
def events(catalogue):
    return list(document_events(catalogue))


class TestSubscriptionIndex:
    def test_per_subscription_results_match_independent_runs(self, events,
                                                             route):
        index = SubscriptionIndex(OVERLAPPING)
        result = index.evaluate(events)
        for key, query in OVERLAPPING.items():
            independent = stream_evaluate(compile_query(query), events)
            assert result[key].node_ids == independent.node_ids
            assert result[key].matched == independent.matched
        assert result.stats.results == sum(len(r.node_ids) for r in result)

    def test_reverse_axes_are_rewritten_on_add(self, events, route):
        index = SubscriptionIndex()
        subscription = index.add("/descendant::price/preceding::name",
                                 key="pricing")
        assert not analysis.has_reverse_steps(subscription.path)
        result = index.evaluate(events)
        independent = stream_evaluate(subscription.path, events)
        assert result["pricing"].node_ids == independent.node_ids

    def test_shared_prefixes_create_fewer_expectations(self, events,
                                                       forced_fallback):
        # Fallback-trie specific: the automaton spawns (almost) no
        # expectations at all for these spines.
        with forced_fallback():
            index = SubscriptionIndex(OVERLAPPING)
            shared = index.evaluate(events).stats.expectations_created
            independent = 0
            for subscription in index.subscriptions:
                matcher = StreamingMatcher(subscription.path)
                matcher.process(events)
                independent += matcher.stats.expectations_created
        assert shared < independent

    def test_duplicate_queries_share_all_state(self, events, route):
        index = SubscriptionIndex()
        for subscriber in ("alice", "bob", "carol"):
            index.add("/descendant::journal/descendant::name", key=subscriber)
        result = index.evaluate(events)
        assert (result["alice"].node_ids == result["bob"].node_ids
                == result["carol"].node_ids != [])
        # Three identical subscriptions walk one trie chain (or one shared
        # automaton spine), so the engine spawns no more expectations than a
        # single matcher would.
        single = StreamingMatcher(index.subscriptions[0].path)
        single.process(events)
        assert (result.stats.expectations_created
                == single.stats.expectations_created)

    def test_matches_only_verdicts(self, events, route):
        queries = dict(OVERLAPPING, missing="/descendant::nosuchtag")
        index = SubscriptionIndex(queries)
        verdicts = index.evaluate(events, matches_only=True)
        for key, query in queries.items():
            assert verdicts[key].matched == stream_matches(
                compile_query(query), events)
            assert verdicts[key].node_ids == []
        assert "missing" not in verdicts.matching_keys

    def test_matching_routes_by_key(self, events, route):
        index = SubscriptionIndex({"hit": "/descendant::name",
                                   "miss": "/descendant::nosuchtag"})
        assert index.matching(events) == ["hit"]

    def test_root_subscription_selects_the_root(self, events, route):
        index = SubscriptionIndex({"root": "/"})
        result = index.evaluate(events)
        assert result["root"].node_ids == [0]
        assert result["root"].matched

    def test_one_index_serves_many_documents(self, events, route):
        index = SubscriptionIndex(OVERLAPPING)
        first = index.evaluate(events)
        second = index.evaluate(events)
        for key in OVERLAPPING:
            assert first[key].node_ids == second[key].node_ids

    def test_empty_index(self, events, route):
        index = SubscriptionIndex()
        result = index.evaluate(events)
        assert len(result) == 0
        assert result.matching_keys == []

    def test_add_accepts_parsed_asts(self, events, route):
        index = SubscriptionIndex()
        index.add(parse_xpath("/descendant::name"), key="ast")
        assert index.evaluate(events)["ast"].matched

    def test_duplicate_key_rejected(self):
        index = SubscriptionIndex()
        index.add("/descendant::name", key="k")
        with pytest.raises(ValueError, match="duplicate"):
            index.add("/descendant::title", key="k")

    def test_relative_subscription_rejected(self):
        index = SubscriptionIndex()
        with pytest.raises(Exception):
            index.add("child::name")

    def test_results_before_end_of_stream(self, events, route):
        matcher = SubscriptionIndex(OVERLAPPING).matcher()
        matcher.feed(events[0])
        with pytest.raises(StreamingError):
            matcher.results()

    def test_unknown_result_key(self, events):
        result = SubscriptionIndex({"a": "/descendant::name"}).evaluate(events)
        with pytest.raises(KeyError):
            result["nope"]

    def test_sharing_summary(self):
        index = SubscriptionIndex(OVERLAPPING)
        summary = index.sharing_summary()
        assert summary["paths"] == len(OVERLAPPING)
        assert summary["trie_nodes"] == summary["trie_nodes_built"]
        assert summary["trie_nodes"] < summary["spine_steps"]
        assert summary["shared_steps"] > 0

    def test_absolute_subpaths_shared_across_subscriptions(self, route):
        # Both subscriptions mention the same absolute sub-path in a join;
        # the engine matches it once from the root.
        doc = figure1_document()
        events = list(document_events(doc))
        queries = {
            "a": "//title[self::node() = /descendant::title]",
            "b": "//name[self::node() = /descendant::title]",
        }
        index = SubscriptionIndex(queries)
        result = index.evaluate(events)
        for key, query in queries.items():
            independent = stream_evaluate(compile_query(query), events)
            assert result[key].node_ids == independent.node_ids

    def test_events_counted_once(self, events, route):
        index = SubscriptionIndex(OVERLAPPING)
        stats = index.evaluate(events).stats
        assert stats.events == len(events)


class TestIndexedDispatch:
    def test_node_ids_agree_with_dom(self, events, route):
        index = SubscriptionIndex(OVERLAPPING)
        result = index.evaluate(events)
        for key, query in OVERLAPPING.items():
            dom = dom_evaluate(compile_query(query), events)
            assert result[key].node_ids == dom.node_ids
            assert result[key].matched == dom.matched

    def test_satisfied_subscriptions_stop_spawning(self, events,
                                                   forced_fallback):
        # Verdict-only mode retires a trie branch the moment the last
        # subscription below it is satisfied: later journals must not spawn
        # new expectations for it.
        with forced_fallback():
            index = SubscriptionIndex(
                {"arts": "/descendant::journal/child::article"})
            full = index.matcher()
            full.process(events)
            verdicts = index.matcher(matches_only=True)
            result = verdicts.process(events)
        assert result["arts"].matched
        assert (verdicts.stats.expectations_created
                < full.stats.expectations_created)

    def test_matches_only_agrees_with_dom(self, events, route):
        queries = dict(OVERLAPPING, missing="/descendant::nosuchtag")
        index = SubscriptionIndex(queries)
        verdicts = index.evaluate(events, matches_only=True)
        for key, query in queries.items():
            assert (verdicts[key].matched
                    == dom_evaluate(compile_query(query), events).matched)


class TestQueryCacheIntegration:
    def test_repeated_texts_compile_once(self):
        cache = QueryCache()
        index = SubscriptionIndex(cache=cache)
        for subscriber in range(5):
            index.add("/descendant::price/preceding::name", key=subscriber)
        info = cache.info()
        assert info.misses == 1
        assert info.hits == 4
