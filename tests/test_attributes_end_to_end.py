"""End-to-end tests of the attribute extension.

The attribute axis is an extension beyond the paper's fragment (Section 2
leaves attributes out), added because real SDI subscription workloads are
dominated by attribute-qualified queries.  This suite pins the extension at
every layer and, crucially, *differentially*: the streaming engine, the DOM
evaluator, the rewrite rule sets and both XML front ends must agree on every
attribute-bearing document and query.
"""

import pytest

from repro.errors import XPathSyntaxError
from repro.rewrite import remove_reverse_axes
from repro.semantics import paths_equivalent_on
from repro.semantics.evaluator import select_positions
from repro.streaming import DocumentBroker, SubscriptionIndex, stream_evaluate
from repro.workloads.queries import attribute_subscription_workload
from repro.xmlmodel.builder import build_document, document_events
from repro.xmlmodel.document import Document, element, text
from repro.xmlmodel.generator import (
    RandomDocumentPool,
    item_feed_document,
    random_document,
)
from repro.xmlmodel.parser import iter_events, parse_xml
from repro.xmlmodel.serialize import to_xml
from repro.xpath import analysis, parse_xpath, to_string
from repro.xpath.cache import QueryCache


@pytest.fixture(scope="module")
def feed():
    return item_feed_document(items=12, seed=4)


@pytest.fixture(scope="module")
def feed_events(feed):
    return list(document_events(feed))


# ---------------------------------------------------------------------------
# Data model: attribute nodes and document order
# ---------------------------------------------------------------------------

class TestAttributeNodes:
    def test_positions_follow_the_owner(self):
        doc = Document.from_tree(
            element("a", element("b"), attributes={"p": "1", "q": "2"}))
        kinds = [(node.position, node.kind.value, node.tag)
                 for node in doc.nodes]
        assert kinds == [(0, "root", None), (1, "element", "a"),
                         (2, "attribute", "p"), (3, "attribute", "q"),
                         (4, "element", "b")]

    def test_attribute_parent_and_string_value(self):
        doc = parse_xml('<a id="42"/>')
        attribute = doc.node_at(2)
        assert attribute.is_attribute
        assert attribute.parent is doc.document_element
        assert attribute.text_content() == "42"
        # Attribute values do not leak into the element's string value.
        assert doc.document_element.text_content() == ""

    def test_subtree_interval_covers_attributes(self):
        doc = parse_xml('<a id="1"><b/></a>')
        owner = doc.document_element
        attribute = doc.node_at(2)
        assert owner.is_ancestor_of(attribute)
        assert not attribute.is_ancestor_of(owner)

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError):
            element("a", attributes=[("x", "1"), ("x", "2")])

    def test_serializer_round_trip(self):
        doc = Document.from_tree(
            element("a",
                    element("b", text("t"), attributes={"q": 'say "hi"'}),
                    attributes={"id": "1", "exp": "2>3 & <4"}))
        reparsed = parse_xml(to_xml(doc, indent=0))
        assert [(n.kind, n.tag, n.value) for n in reparsed] == \
            [(n.kind, n.tag, n.value) for n in doc]

    def test_serializer_preserves_whitespace_in_values(self):
        # Literal tab/newline in a value must come back intact across one
        # serialize/parse cycle (emitted as character references, which
        # attribute-value normalization leaves alone).
        doc = Document.from_tree(element("a", attributes={"x": "p\tq\nr"}))
        reparsed = parse_xml(to_xml(doc, indent=0))
        assert reparsed.document_element.get_attribute("x") == "p\tq\nr"

    def test_document_events_round_trip(self, feed, feed_events):
        rebuilt = build_document(feed_events)
        assert [(n.kind, n.tag, n.value) for n in rebuilt] == \
            [(n.kind, n.tag, n.value) for n in feed]
        # Positions agree 1:1, so streamed node ids mean the same thing in
        # both numberings.
        assert [n.position for n in rebuilt] == [n.position for n in feed]

    def test_generator_emits_attributes(self, feed):
        stats = feed.stats()
        assert stats["attributes"] > 2 * 12  # id + category (+ featured)
        assert feed.stats()["elements"] == 1 + 3 * 12

    def test_random_document_attribute_probability(self):
        with_attrs = random_document(attribute_probability=0.8, seed=3)
        without = random_document(attribute_probability=0.0, seed=3)
        assert with_attrs.stats()["attributes"] > 0
        assert without.stats()["attributes"] == 0


# ---------------------------------------------------------------------------
# Language front end
# ---------------------------------------------------------------------------

class TestAttributeSyntax:
    @pytest.mark.parametrize("abbreviated, explicit", [
        ("//item/@id", "/descendant-or-self::node()/child::item/attribute::id"),
        ("/a/@*", "/child::a/attribute::*"),
        ("/a[@id]", "/child::a[attribute::id]"),
        ('/a[@id="42"]', '/child::a[attribute::id = "42"]'),
    ])
    def test_abbreviations(self, abbreviated, explicit):
        assert to_string(parse_xpath(abbreviated)) == explicit
        assert parse_xpath(abbreviated) == parse_xpath(explicit)

    def test_serializer_round_trip(self):
        for query in ("/descendant::item/attribute::id",
                      '/child::a[attribute::kind = "x" and child::b]',
                      '/child::a["v" = attribute::id]'):
            assert to_string(parse_xpath(to_string(parse_xpath(query)))) == \
                to_string(parse_xpath(query))

    def test_literal_quote_styles(self):
        assert to_string(parse_xpath("/a[@x='it\"s']")) == \
            "/child::a[attribute::x = 'it\"s']"

    def test_node_identity_join_rejects_literals(self):
        with pytest.raises(XPathSyntaxError):
            parse_xpath('/a[@x == "v"]')

    def test_analysis_helpers(self):
        path = parse_xpath('//item[@id="42"]/price')
        assert analysis.has_attribute_steps(path)
        assert analysis.count_attribute_steps(path) == 1
        assert analysis.summarize(path)["attribute_steps"] == 1
        plain = parse_xpath("/descendant::price")
        assert not analysis.has_attribute_steps(plain)
        # A literal alone (even without an attribute step) marks the
        # expression as using the extension.
        assert analysis.has_attribute_steps(parse_xpath('/a[. = "v"]'))


# ---------------------------------------------------------------------------
# Streaming == DOM (the differential acceptance bar)
# ---------------------------------------------------------------------------

class TestStreamingEqualsDom:
    def test_attribute_workload(self, feed, feed_events, route):
        cache = QueryCache()
        for query in attribute_subscription_workload(60, seed=5, item_ids=12):
            compiled = cache.compile(query)
            expected = select_positions(parse_xpath(query), feed)
            got = stream_evaluate(compiled, feed_events).node_ids
            assert got == expected, (query, got, expected)

    def test_attribute_steps_at_every_position(self, feed, feed_events,
                                               route):
        for query in ("//item/@id",
                      "/descendant::item/attribute::*",
                      "//item/@id/self::node()",
                      '//item[@id="7"]/@category',
                      "//price[@currency][. = //price/text()]"):
            expected = select_positions(parse_xpath(query), feed)
            assert stream_evaluate(query, feed_events).node_ids == expected

    def test_subscription_index_and_text_front_end(self, feed, route):
        # End to end through the *text* front end: serialize, re-tokenize
        # (attributes parsed from the tags), match.
        xml_text = to_xml(feed, indent=0)
        events = list(iter_events(xml_text))
        subscriptions = {
            "by-id": '//item[@id="3"]/price',
            "by-category": '//item[@category="music"]',
            "ids": "//item/@id",
            "reverse": '//price[@currency="EUR"]/parent::item',
        }
        index = SubscriptionIndex(subscriptions)
        result = index.evaluate(iter(events))
        rebuilt = build_document(iter(events))
        for row in result:
            expected = select_positions(parse_xpath(subscriptions[row.key]),
                                        rebuilt)
            assert row.node_ids == expected, row.key

    def test_broker_with_chunked_attribute_documents(self, feed, route):
        xml_text = to_xml(feed, indent=0)
        chunks = [xml_text[i:i + 17] for i in range(0, len(xml_text), 17)]
        broker = DocumentBroker({
            "books": '//item[@category="books"]',
            "flagged": '//item[@featured="yes"]/title',
        })
        result = broker.submit("doc-1", chunks)
        assert result["books"].node_ids == \
            select_positions(parse_xpath('//item[@category="books"]'), feed)
        # The reused session leaves nothing behind (attribute expectations
        # expire within their own StartElement event).
        sizes = broker.session.registry_sizes()
        assert all(size == 0 for size in sizes.values()), sizes

    def test_attribute_qualifiers_decide_at_start_element(self, feed_events,
                                                          route):
        # Verdict-only matching halts as soon as every subscription is
        # decided; an [@a="v"] qualifier is decided AT the StartElement that
        # carries the attribute, so the session never consumes the rest.
        index = SubscriptionIndex({"first": '//item[@id="0"]'})
        matcher = index.matcher(matches_only=True)
        result = matcher.process(feed_events)
        assert result["first"].matched
        assert matcher.halted
        assert matcher.stats.events_skipped > 0

    def test_attributes_seen_counter(self, feed, feed_events, route):
        result = stream_evaluate("//item/@id", feed_events)
        assert result.stats.attributes_seen == feed.stats()["attributes"]


# ---------------------------------------------------------------------------
# Rewriting: reverse axes around attribute steps
# ---------------------------------------------------------------------------

ATTRIBUTE_REVERSE_QUERIES = [
    "//item/@id/parent::item",
    "/descendant::a/@id/ancestor::b",
    "/descendant::a/@id/ancestor-or-self::node()",
    "//a/@kind/preceding::b",
    "//a/@kind/preceding-sibling::*",
    "/descendant::a/@id[parent::b]",
    "/descendant::a/@id[ancestor::b]",
    "/descendant::a/@kind[ancestor-or-self::node()]",
    "/descendant::a/@kind[preceding::b]",
    "/descendant::a/@id[parent::b or ancestor::a]",
    "/descendant::a/@id[parent::b and parent::a]",
    "/descendant::a/@id[self::node()/parent::b]",
    "/descendant::a/@id[child::b/parent::c]",
    '/descendant::a/@id[parent::b = "x"]',
    "/a/@id/parent::a/@kind",
    "/attribute::a/parent::node()",
]


@pytest.fixture(scope="module")
def attribute_pool():
    pool = RandomDocumentPool(seeds=range(5),
                              attribute_probability=0.6).documents()
    pool.append(item_feed_document(items=4, seed=6))
    return pool


class TestAttributeRewriteLemmas:
    @pytest.mark.parametrize("ruleset", ["ruleset1", "ruleset2"])
    @pytest.mark.parametrize("query", ATTRIBUTE_REVERSE_QUERIES)
    def test_equivalent_and_reverse_free(self, query, ruleset, attribute_pool):
        path = parse_xpath(query)
        rewritten = remove_reverse_axes(path, ruleset=ruleset)
        assert not analysis.has_reverse_steps(rewritten)
        report = paths_equivalent_on(path, rewritten, attribute_pool)
        assert report.equivalent, report.describe()

    def test_rewritten_queries_stream(self, attribute_pool):
        # The full pipeline: rewrite away a reverse step that *leaves* an
        # attribute node, then answer it in one streaming pass.
        document = attribute_pool[-1]
        events = list(document_events(document))
        original = parse_xpath("//item/@id/parent::item/title")
        rewritten = remove_reverse_axes(original)
        assert stream_evaluate(rewritten, events).node_ids == \
            select_positions(original, document)
