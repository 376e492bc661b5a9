"""Three-way differential property: default route == expectations == DOM.

The lazy DFA (:mod:`repro.streaming.automaton`) must be a pure optimization:
for *every* document and *every* subscription pool, the default route's
match sets and per-subscription verdicts have to coincide with the
expectation engine's — reached by forcing every union member onto the
fallback trie (the ``forced_fallback`` seam of the root ``conftest.py``) —
and both with the DOM baseline, which evaluates the same compiled path on
the materialized tree.  This suite drives all three over

* hypothesis-generated documents and query batches (attribute-free and
  attribute-bearing),
* the deterministic :func:`repro.workloads.queries.differential_query_pool`
  (structurally decided spines, qualifier gates, ``following`` fallbacks,
  attribute tests and value comparisons, absolute-path joins, unions) over
  ``random_document``/``item_feed_document`` pools — 300+ query cases
  independent of the hypothesis profile,

and additionally pins the seam itself (with it active, nothing runs on the
automaton) and the session-reuse contract of the automaton: a broker session leaves every engine registry empty between documents and the
shared automaton's DFA state count stays stable across ``reset()`` once the
transition table is warm.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.streaming import DocumentBroker, SubscriptionIndex
from repro.streaming.dom_baseline import dom_evaluate
from repro.workloads.queries import (
    attribute_subscription_workload,
    differential_query_pool,
)
from repro.xmlmodel.builder import document_events
from repro.xmlmodel.generator import item_feed_document, random_document
from repro.xmlmodel.parser import iter_events
from repro.xmlmodel.serialize import to_xml
from repro.xpath.ast import Bottom, iter_union_members
from repro.xpath.cache import QueryCache

from tests.property.strategies import documents, forward_absolute_paths

SETTINGS = dict(deadline=None,
                suppress_health_check=[HealthCheck.too_slow,
                                       HealthCheck.filter_too_much,
                                       # ``forced_fallback`` is a stateless
                                       # context-manager factory.
                                       HealthCheck.function_scoped_fixture])

#: One compile cache for the whole suite: the pools repeat queries, and
#: compilation (parse + rewrite) is not what this suite tests.
COMPILE_CACHE = QueryCache(maxsize=4096)

#: Deterministic pools covering every dispatch regime (see module docstring).
MIXED_POOL = differential_query_pool(120, seed=3)
ATTRIBUTE_POOL = attribute_subscription_workload(60, seed=5, item_ids=12)

query_batches = st.lists(
    st.one_of(forward_absolute_paths(),
              st.sampled_from(MIXED_POOL),
              st.sampled_from(ATTRIBUTE_POOL)),
    min_size=1, max_size=4)

attribute_documents = st.builds(
    lambda seed, probability: random_document(
        attribute_probability=probability, text_probability=0.3, seed=seed),
    st.integers(min_value=0, max_value=200),
    st.sampled_from([0.0, 0.4, 0.8]))

feed_documents = st.builds(
    lambda items, seed: item_feed_document(items=items, seed=seed),
    st.integers(min_value=1, max_value=8),
    st.integers(min_value=0, max_value=50))


def _index(queries) -> SubscriptionIndex:
    index = SubscriptionIndex(cache=COMPILE_CACHE)
    for position, query in enumerate(queries):
        index.add(query, key=position)
    return index


def assert_three_way(document, queries, forced_fallback):
    """Default route == expectations == DOM, match sets and verdicts alike.

    The two routes get separate indexes: an index caches its compiled
    automaton."""
    events = list(document_events(document))
    index = _index(queries)
    dfa = index.evaluate(events)
    dfa_verdicts = index.evaluate(events, matches_only=True)
    with forced_fallback():
        reference = _index(queries)
        expectations = reference.evaluate(events)
        exp_verdicts = reference.evaluate(events, matches_only=True)
    for position, query in enumerate(queries):
        dom = dom_evaluate(index.subscriptions[position].path, events)
        assert dfa[position].node_ids == expectations[position].node_ids \
            == dom.node_ids, query
        assert dfa[position].matched == expectations[position].matched \
            == dom.matched, query
    for position, query in enumerate(queries):
        assert dfa_verdicts[position].matched \
            == exp_verdicts[position].matched \
            == dfa[position].matched, query


@given(document=documents(), queries=query_batches)
@settings(max_examples=100, **SETTINGS)
def test_three_way_equivalence_on_random_documents(forced_fallback, document,
                                                   queries):
    assert_three_way(document, queries, forced_fallback)


@given(document=attribute_documents, queries=query_batches)
@settings(max_examples=100, **SETTINGS)
def test_three_way_equivalence_on_attribute_documents(forced_fallback,
                                                      document, queries):
    assert_three_way(document, queries, forced_fallback)


@given(document=feed_documents,
       queries=st.lists(st.sampled_from(ATTRIBUTE_POOL + MIXED_POOL),
                        min_size=1, max_size=4))
@settings(max_examples=60, **SETTINGS)
def test_three_way_equivalence_on_item_feeds(forced_fallback, document,
                                             queries):
    assert_three_way(document, queries, forced_fallback)


def test_three_way_equivalence_deterministic_pool(forced_fallback):
    """300+ generated query cases, independent of the hypothesis profile.

    Every query of the mixed pool (plus a slice of the attribute workload)
    is checked on two document shapes — query by query, so a failure names
    the exact case.
    """
    pool = differential_query_pool(120, seed=9) + ATTRIBUTE_POOL[:30]
    docs = [random_document(attribute_probability=0.5, text_probability=0.3,
                            max_depth=4, seed=17),
            item_feed_document(items=10, seed=23)]
    cases = 0
    for document in docs:
        events = list(document_events(document))
        index = _index(pool)
        dfa = index.evaluate(events)
        with forced_fallback():
            expectations = _index(pool).evaluate(events)
        for position, query in enumerate(pool):
            dom = dom_evaluate(index.subscriptions[position].path, events)
            assert dfa[position].node_ids == expectations[position].node_ids \
                == dom.node_ids, (query, document is docs[0])
            cases += 1
    assert cases == 2 * len(pool) >= 300


def test_forced_fallback_serves_every_member_on_the_expectation_engine(
        forced_fallback):
    """The seam the differential suites rely on really bypasses the
    automaton: were its target renamed, the suites above would silently
    compare the automaton with itself."""
    pool = differential_query_pool(120, seed=3)
    events = list(document_events(random_document(
        attribute_probability=0.5, text_probability=0.3, seed=17)))
    with forced_fallback():
        index = _index(pool)
        result = index.evaluate(events)
        automaton, fallback_trie = index._built_automaton()
    members = 0
    for subscription in index.subscriptions:
        for member in iter_union_members(subscription.path):
            if isinstance(member, Bottom):
                continue
            node = fallback_trie
            for step in member.steps:
                node = node.children[step]
            assert subscription.ordinal in node.terminals, subscription.source
            members += 1
    assert members >= len(pool)
    # No materialized DFA state delivers or gates anything.
    assert automaton.state_count() > 0
    assert all(automaton.accepts(state) == ((), ())
               for state in range(automaton.state_count()))
    assert result.stats.expectations_created > 0
    assert result.matching_keys


class TestBrokerSessionReuse:
    """Registry emptiness and DFA state stability across reset()."""

    QUERIES = differential_query_pool(40, seed=11)

    def _documents(self):
        return [random_document(attribute_probability=0.5,
                                text_probability=0.3, seed=seed)
                for seed in range(4)]

    def test_registries_empty_and_state_count_stable(self):
        index = SubscriptionIndex(dict(enumerate(self.QUERIES)),
                                  cache=COMPILE_CACHE)
        broker = DocumentBroker(index)
        docs = self._documents()
        counts = []
        for round_index, document in enumerate(docs + docs):
            text = to_xml(document, indent=0)
            result = broker.submit(f"doc-{round_index}", text)
            fresh = index.evaluate(list(iter_events(text)))
            for position in range(len(self.QUERIES)):
                assert result[position].node_ids == fresh[position].node_ids
            sizes = broker.session.registry_sizes()
            assert all(size == 0 for size in sizes.values()), sizes
            counts.append(broker.session.dfa_state_count())
        # The first pass may materialize states; the second pass re-serves
        # the same documents through the reused session and must not — the
        # automaton is warm, reset() keeps it.
        warm = counts[len(docs) - 1]
        assert counts[len(docs):] == [warm] * len(docs)

    def test_warm_session_runs_entirely_from_the_transition_cache(self):
        index = SubscriptionIndex(dict(enumerate(self.QUERIES)),
                                  cache=COMPILE_CACHE)
        broker = DocumentBroker(index)
        text = to_xml(self._documents()[0], indent=0)
        broker.submit("cold", text)
        warm = broker.submit("warm", text)
        stats = warm.stats
        assert stats.dfa_states_materialized == 0
        assert stats.transition_cache_hits == stats.transition_cache_lookups
        assert stats.transition_cache_lookups > 0
