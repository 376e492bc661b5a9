#!/usr/bin/env python3
"""Selective dissemination of information (SDI) with rewritten subscriptions.

Section 1 of the paper motivates reverse-axis removal with publish/subscribe
systems: incoming documents must be matched against many XPath subscriptions
*while they stream in*, before being routed to subscribers.  Subscriptions
written naturally often use reverse axes; this example

1. declares a handful of subscriptions over journal catalogues (several with
   reverse axes),
2. compiles them into a shared :class:`repro.SubscriptionIndex` — reverse
   axes are removed once per distinct subscription text (memoized by the
   compiled-query cache) and the structural spines are merged into one
   shared lazy automaton,
3. serves a feed of documents through a :class:`repro.DocumentBroker`: each
   document arrives as raw XML text in small *chunks* (as it would from a
   network socket), is tokenized incrementally, and is matched in a single
   streaming pass for *all* subscribers at once over one reused engine
   session, and
4. prints the routing table and the broker's aggregate accounting, then
   the shared automaton's per-document work and how much of it a warm
   transition table answers.

Run with::

    python examples/sdi_filtering.py
"""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro import (  # noqa: E402
    DocumentBroker,
    SubscriptionIndex,
    compile_cache_info,
    document_events,
    journal_document,
    to_string,
    to_xml,
)

SUBSCRIPTIONS = {
    "pricing-team": "/descendant::price/preceding::name",
    "editors-desk": "/descendant::editor[parent::journal]",
    "title-watch": "/descendant::name/preceding::title[ancestor::journal]",
    "database-fans": "//title[self::node() = /descendant::title]",
    "article-digest": "//article/authors/name",
    # Same query text as the pricing team: compiled once, matched once.
    "pricing-mirror": "/descendant::price/preceding::name",
    # Attribute-qualified subscriptions (the attribute extension, beyond the
    # paper's fragment): attributes arrive complete on the StartElement
    # event, so [@name="..."] verdicts are decided the moment the element
    # opens — no buffering, and early termination in verdict-only mode.
    "vip-watch": '//journal[@tier="gold"]',
    "audit-log": "//journal/@tier",
}

DOCUMENTS = {
    "catalogue-with-prices": journal_document(journals=3, articles_per_journal=2,
                                              authors_per_article=2, seed=1,
                                              with_attributes=True),
    "catalogue-no-prices": journal_document(journals=3, articles_per_journal=2,
                                            authors_per_article=2, with_price=False,
                                            seed=2, with_attributes=True),
    "single-journal": journal_document(journals=1, articles_per_journal=1,
                                       authors_per_article=1, seed=3),
}

#: Documents reach the broker in pieces this small, as from a socket.
CHUNK_SIZE = 64


def main() -> None:
    print("Compiling subscriptions (reverse axes removed once, up front):")
    index = SubscriptionIndex()
    for subscriber, query in SUBSCRIPTIONS.items():
        subscription = index.add(query, key=subscriber)
        print(f"  {subscriber:15s} {query}")
        print(f"  {'':15s} -> {to_string(subscription.path)}")
    sharing = index.sharing_summary()
    cache = compile_cache_info()
    print()
    print(f"Shared prefix trie: {sharing['trie_nodes']} step nodes for "
          f"{sharing['spine_steps']} subscription steps "
          f"({sharing['sharing_ratio']:.0%} shared); "
          f"query cache: {cache.hits} hits / {cache.misses} misses")
    print()

    print("Routing the incoming feed (documents arrive as raw XML text in")
    print(f"{CHUNK_SIZE}-byte chunks; ONE reused engine session, ONE streaming")
    print("pass per document, all subscriptions advanced together):")
    broker = DocumentBroker(index, matches_only=True)
    for name, document in DOCUMENTS.items():
        xml_text = to_xml(document, indent=0)
        chunks = [xml_text[start:start + CHUNK_SIZE]
                  for start in range(0, len(xml_text), CHUNK_SIZE)]
        result = broker.submit(name, chunks)
        print(f"  {name:22s} ({len(chunks):3d} chunks) -> "
              f"{', '.join(result.matching_keys) or '(no subscriber)'}")
    totals = broker.stats
    print()
    print(f"Broker accounting: {totals.documents} documents, "
          f"{totals.deliveries} deliveries, {totals.chunks} chunks tokenized "
          f"(+{totals.chunks_skipped} skipped after early verdicts), "
          f"{totals.events} events processed "
          f"(+{totals.events_skipped} skipped).")
    print()

    # One engine configuration serves every subscription: the structural
    # spines — including following/following-sibling steps, compiled as
    # sibling windows armed by close events — are merged trie-style into one
    # shared lazy automaton, so a warm StartElement costs one
    # transition-table lookup regardless of subscription count;
    # qualifier-carrying subscriptions ([@tier="gold"], [child::price]...)
    # run the expectation machinery only at elements the DFA proved
    # structurally viable.  The transition table is bounded
    # (SubscriptionIndex(dfa_transition_cap=...), default 65536 entries;
    # overflow falls back to on-the-fly subset construction) and stays warm
    # across a broker session's documents — reuse the broker, not fresh
    # matchers, to amortize it.  benchmarks/bench_automaton_sdi.py measures
    # it against the expectation engine at N=1000 low-overlap subscriptions
    # ('automaton_sdi' in BENCH_multi_query_sdi.json).
    events = list(document_events(DOCUMENTS["catalogue-with-prices"]))
    dfa_matcher = index.matcher(matches_only=True)
    dfa_matcher.process(events)
    dfa_again = index.matcher(matches_only=True)
    dfa_again.process(events)
    print(f"Lazy DFA on 'catalogue-with-prices': "
          f"{dfa_matcher.dfa_state_count()} DFA states materialized, "
          f"{dfa_matcher.stats.expectations_created} expectations spawned "
          f"past qualifier gates; second pass answered "
          f"{dfa_again.stats.transition_cache_hits}/"
          f"{dfa_again.stats.transition_cache_lookups} transitions from "
          f"the warm table.")
    print()

    # Substream delivery: route the matched *content*, not just the verdict.
    # The broker's on_payload callback fires per match as the matched
    # subtree closes, with that subtree re-serialized to XML bytes — here
    # each subscriber's mailbox collects its payload fragments.  Overlapping
    # matches (a journal and the titles inside it) share one capture buffer
    # in the engine; only the final per-subscriber bytes differ.
    print("Substream delivery (same feed, payload bytes routed per")
    print("subscription as matched subtrees close):")
    mailboxes = {subscriber: [] for subscriber in SUBSCRIPTIONS}
    router = DocumentBroker(
        index,
        on_payload=lambda key, node_id, data: mailboxes[key].append(data))
    for name, document in DOCUMENTS.items():
        xml_text = to_xml(document, indent=0)
        chunks = [xml_text[start:start + CHUNK_SIZE]
                  for start in range(0, len(xml_text), CHUNK_SIZE)]
        router.submit(name, chunks)
    for subscriber, fragments in mailboxes.items():
        preview = b"".join(fragments)[:48]
        print(f"  {subscriber:15s} {len(fragments):3d} subtrees, "
              f"{sum(len(f) for f in fragments):5d} bytes  "
              f"{preview!r}{'...' if fragments else ''}")
    print(f"Served {router.stats.subtrees_emitted} subtrees / "
          f"{router.stats.bytes_emitted} payload bytes across "
          f"{router.stats.documents} documents.")
    print()

    # Live subscription churn: a real router gains and loses subscribers
    # while the feed is flowing.  subscribe()/unsubscribe() change the
    # running broker between submits without recompiling the index: an add
    # merges new NFA fragments into the shared automaton and invalidates
    # only the touched transitions (a *targeted* flush), a remove retires
    # the subscription's slot in place — the session is synced, never
    # rebuilt, and the warm DFA table survives.  index.churn counts what
    # each operation actually cost.
    print("Live churn on the running broker (no recompilation, session")
    print("synced in place, warm DFA transitions kept):")
    feed = DocumentBroker(index, matches_only=True)
    xml_text = to_xml(DOCUMENTS["catalogue-with-prices"], indent=0)
    before = feed.submit("before-churn", xml_text)
    session = feed.session
    feed.subscribe("gold-digest", '//journal[@tier="gold"]/title')
    feed.unsubscribe("pricing-mirror")
    after = feed.submit("after-churn", xml_text)
    churn = index.churn
    print(f"  before: {', '.join(before.matching_keys)}")
    print(f"  after:  {', '.join(after.matching_keys)}")
    print(f"  churn cost: {churn.subscriptions_added} added / "
          f"{churn.subscriptions_removed} removed with "
          f"{churn.targeted_flushes} targeted flushes, "
          f"{churn.full_flushes} full flushes, "
          f"{churn.vacuum_runs} vacuums; session reused: "
          f"{feed.session is session}.")


if __name__ == "__main__":
    main()
