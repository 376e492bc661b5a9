"""Property: live subscription churn is invisible to the results.

For random documents, random query pools, and a random interleaving of
``add_subscription`` / ``remove_subscription`` / ``evaluate`` operations on
one long-lived :class:`SubscriptionIndex`, the final evaluation must equal
a *fresh-compiled* index over the surviving subscription set — on both
engine routes (the ``route`` fixture: default, and every member forced onto
the fallback trie) and against the DOM reference.  Churn (shared
automaton mutation, targeted DFA invalidation, ordinal retirement, deferred
vacuum) is a pure optimization: it may never change an answer.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.semantics.evaluator import select_positions
from repro.streaming import DocumentBroker, SubscriptionIndex
from repro.xmlmodel.builder import document_events
from repro.xmlmodel.serialize import to_xml

from tests.property.strategies import documents, forward_absolute_paths

SETTINGS = dict(deadline=None,
                suppress_health_check=[HealthCheck.too_slow,
                                       HealthCheck.filter_too_much,
                                       # ``route`` holds for the whole test,
                                       # every example included.
                                       HealthCheck.function_scoped_fixture])

#: One churn script: which pool queries start registered, then a sequence
#: of (op, pool position) steps over a pool of candidate queries.
churn_scripts = st.lists(
    st.tuples(st.sampled_from(["add", "remove", "evaluate"]),
              st.integers(min_value=0, max_value=7)),
    min_size=1, max_size=12)


def _apply_script(index, script, pool, events):
    """Drive one churn script; keys are the pool positions."""
    for op, position in script:
        key = position % len(pool)
        if op == "add":
            if key not in {s.key for s in index.subscriptions}:
                index.add_subscription(key, pool[key])
        elif op == "remove":
            try:
                index.remove_subscription(key)
            except KeyError:
                pass
        else:
            # Evaluations between churn steps are what ties the live
            # structures to real matcher state (warm automaton, sessions).
            index.evaluate(events)


@given(document=documents(),
       pool=st.lists(forward_absolute_paths(), min_size=1, max_size=8),
       initial=st.integers(min_value=0, max_value=7),
       script=churn_scripts)
@settings(max_examples=60, **SETTINGS)
def test_churned_index_equals_fresh_index_over_survivors(
        route, document, pool, initial, script):
    events = list(document_events(document))
    index = SubscriptionIndex(
        {key: pool[key] for key in range(initial % (len(pool) + 1))})
    _apply_script(index, script, pool, events)

    survivors = {s.key: pool[s.key] for s in index.subscriptions}
    fresh = SubscriptionIndex(survivors)
    churned_result = index.evaluate(events)
    fresh_result = fresh.evaluate(events)
    assert sorted(churned_result.matching_keys) \
        == sorted(fresh_result.matching_keys)
    for key in survivors:
        assert churned_result[key].node_ids \
            == fresh_result[key].node_ids, key
        # The DOM reference closes the three-way loop.
        compiled = next(s.path for s in index.subscriptions
                        if s.key == key)
        assert churned_result[key].node_ids == select_positions(
            compiled, document), key


@given(document=documents(),
       pool=st.lists(forward_absolute_paths(), min_size=2, max_size=6),
       script=churn_scripts)
@settings(max_examples=30, **SETTINGS)
def test_broker_churn_equals_fresh_broker(document, pool, script):
    """The same invariant one layer up: a churned broker session (sync /
    retirement / rebuild-on-vacuum) answers like a fresh broker."""
    xml = to_xml(document, indent=0)
    broker = DocumentBroker({0: pool[0]})
    broker.submit("warmup", xml)
    for op, position in script:
        key = position % len(pool)
        if op == "add":
            if key not in {s.key for s in broker.subscriptions}:
                broker.subscribe(key, pool[key])
        elif op == "remove":
            try:
                broker.unsubscribe(key)
            except KeyError:
                pass
        else:
            broker.submit("interleaved", xml)

    survivors = {s.key: pool[s.key] for s in broker.subscriptions}
    churned = broker.submit("final", xml)
    fresh = DocumentBroker(survivors).submit("final", xml)
    assert sorted(churned.matching_keys) == sorted(fresh.matching_keys)
    for key in survivors:
        assert churned[key].node_ids == fresh[key].node_ids, key


@given(document=documents(), query=forward_absolute_paths(),
       replacement=forward_absolute_paths())
@settings(max_examples=40, **SETTINGS)
def test_remove_then_readd_same_key(document, query, replacement):
    """Deterministic churn corner: a key freed by removal is immediately
    reusable, and the re-registration answers for its *new* query with a
    fresh ordinal (no delivery leakage from the retired one)."""
    events = list(document_events(document))
    index = SubscriptionIndex({"k": query, "other": query})
    index.evaluate(events)
    index.remove_subscription("k")
    index.add_subscription("k", replacement)
    result = index.evaluate(events)
    reference = SubscriptionIndex({"k": replacement}).evaluate(events)
    assert result["k"].node_ids == reference["k"].node_ids
    assert result["k"].matched == reference["k"].matched
    assert result["k"].node_ids == select_positions(
        next(s.path for s in index.subscriptions if s.key == "k"), document)
