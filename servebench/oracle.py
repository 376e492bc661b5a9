"""Independent output checker: ElementTree paths and document-order numbers.

The checker never runs the program's parser, rewriter or matcher.  It parses
the exact bytes that were submitted with the standard library's
``xml.etree.ElementTree``, numbers the nodes in document order the way the
XPath data model does (a document node 0, then every element followed by
its attributes in document order, then its text, children and the text
after each child), and evaluates each subscription's oracle plan (see
:mod:`inputs`) over that tree.  Payloads are compared with
``ElementTree.canonicalize``.

:func:`check_document` returns a list of problems (empty when the program's
answer is right); :func:`self_test` shows that the checker rejects a flipped
verdict, a missing node id and a corrupted payload.
"""

from __future__ import annotations

import copy
import xml.etree.ElementTree as ET
from typing import Dict, Hashable, List, Mapping, Sequence, Tuple

from inputs import NODE_IDS, SUBSTREAM, VERDICT, Subscription


class OracleDocument:
    """One parsed document with document-order node numbers."""

    def __init__(self, data: bytes):
        root = ET.fromstring(data)
        # A synthetic document node, so ``.//t`` also finds the root element
        # and ``..`` works from it, as ``/descendant::t`` and ``parent::``
        # do in XPath.
        self.top = ET.Element("document-node")
        self.top.append(root)
        self.ids: Dict[ET.Element, int] = {}
        self.last: Dict[ET.Element, int] = {}
        self.parent: Dict[ET.Element, ET.Element] = {}
        self.element_at: Dict[int, ET.Element] = {}
        self.attribute_at: Dict[int, Tuple[ET.Element, str]] = {}
        self._next = 1
        self._number(root)
        self._memo: Dict[tuple, List[int]] = {}

    def _number(self, element: ET.Element) -> None:
        node_id = self._next
        self.ids[element] = node_id
        self.element_at[node_id] = element
        for offset, name in enumerate(element.attrib, start=1):
            self.attribute_at[node_id + offset] = (element, name)
        self._next += 1 + len(element.attrib)
        if element.text:
            self._next += 1
        for child in element:
            self.parent[child] = element
            self._number(child)
            if child.tail:
                self._next += 1
        self.last[element] = self._next - 1

    def _find(self, path: str) -> List[ET.Element]:
        return self.top.findall(path)

    def select(self, plan: tuple) -> List[int]:
        """Sorted node ids the plan selects (memoized per document)."""
        ids = self._memo.get(plan)
        if ids is None:
            ids = sorted(self._evaluate(plan))
            self._memo[plan] = ids
        return ids

    def _evaluate(self, plan: tuple) -> set:
        kind = plan[0]
        if kind == "paths":
            return {self.ids[element]
                    for path in plan[1] for element in self._find(path)}
        if kind == "attribute":
            _, path, name = plan
            out = set()
            for element in self._find(path):
                if name in element.attrib:
                    out.add(self.ids[element] + 1
                            + list(element.attrib).index(name))
            return out
        if kind == "preceding":
            _, context_path, tag = plan
            contexts = [self.ids[element] for element in self._find(context_path)]
            if not contexts:
                return set()
            latest = max(contexts)
            # Preceding nodes end before the context node starts (which also
            # excludes its ancestors); the latest context sees the most.
            return {self.ids[element] for element in self.top.iter(tag)
                    if self.last[element] < latest}
        if kind == "ancestor_child":
            _, owner_path, ancestor_tag, child_tag = plan
            out = set()
            for owner in self._find(owner_path):
                # The ancestors of an attribute are its owner element and
                # the owner's ancestors.
                node = owner
                while node is not None and node is not self.top:
                    if node.tag == ancestor_tag:
                        out.update(self.ids[child] for child in node
                                   if child.tag == child_tag)
                    node = self.parent.get(node)
            return out
        raise ValueError(f"unknown oracle plan {plan!r}")

    def payload_matches(self, node_id: int, data: bytes) -> bool:
        """Whether ``data`` is the serialization of node ``node_id``."""
        element = self.element_at.get(node_id)
        if element is not None:
            expected = copy.copy(element)
            expected.tail = None
            try:
                return (ET.canonicalize(data.decode("utf-8"))
                        == ET.canonicalize(ET.tostring(expected,
                                                       encoding="unicode")))
            except (ET.ParseError, UnicodeDecodeError):
                return False
        owner_name = self.attribute_at.get(node_id)
        if owner_name is not None:
            # An attribute's payload is its value as escaped character data.
            owner, name = owner_name
            try:
                text = ET.fromstring(b"<v>" + data + b"</v>").text or ""
            except ET.ParseError:
                return False
            return text == owner.attrib[name]
        return False


def check_document(data: bytes, live: Mapping[Hashable, Subscription],
                   delivery: str, results: Sequence,
                   payloads: Sequence[Tuple[Hashable, int, bytes]] = ()
                   ) -> List[str]:
    """Problems in the program's answer for one submitted document.

    ``live`` is the subscription set at the time of the submit, ``results``
    the per-subscription results the program returned and ``payloads`` the
    ``(key, node_id, data)`` triples its payload callback received.
    """
    document = OracleDocument(data)
    problems: List[str] = []
    answered = {result.key: result for result in results}
    if set(answered) != set(live):
        problems.append(
            f"answered keys differ from the live set: "
            f"{len(set(answered) - set(live))} extra, "
            f"{len(set(live) - set(answered))} missing")
    delivered: Dict[Hashable, List[Tuple[int, bytes]]] = {}
    for key, node_id, payload in payloads:
        if key not in live:
            problems.append(f"payload delivered to removed key {key!r}")
            continue
        delivered.setdefault(key, []).append((node_id, payload))
    for key, subscription in live.items():
        result = answered.get(key)
        if result is None:
            continue
        expected = document.select(subscription.plan)
        if result.matched != bool(expected):
            problems.append(f"{key} {subscription.xpath}: verdict "
                            f"{result.matched}, oracle {bool(expected)}")
            continue
        if delivery == VERDICT:
            continue
        if list(result.node_ids) != expected:
            problems.append(f"{key} {subscription.xpath}: node ids "
                            f"{list(result.node_ids)}, oracle {expected}")
            continue
        if delivery == SUBSTREAM:
            got = delivered.get(key, [])
            if sorted(node_id for node_id, _ in got) != expected:
                problems.append(f"{key} {subscription.xpath}: payload ids "
                                f"{sorted(n for n, _ in got)}, "
                                f"oracle {expected}")
                continue
            for node_id, payload in got:
                if not document.payload_matches(node_id, payload):
                    problems.append(f"{key} {subscription.xpath}: payload "
                                    f"of node {node_id} differs: {payload!r}")
    return problems


_SELF_TEST_DOCUMENT = (
    '<feed><item id="1" category="books"><title>xml</title>'
    '<price currency="EUR">7</price></item>'
    '<item id="2" category="music" featured="yes"><title>r&amp;d</title>'
    '<price currency="USD">9</price></item></feed>').encode("utf-8")

_SELF_TEST_SUBSCRIPTIONS = {
    "books": Subscription('//item[@category="books"]/title',
                          ("paths", (".//item[@category='books']/title",)),
                          "self-test"),
    "usd": Subscription('//price[@currency="USD"]/preceding::title',
                        ("preceding", ".//price[@currency='USD']", "title"),
                        "self-test"),
    "ids": Subscription('//item[@featured]/@id',
                        ("attribute", ".//item[@featured]", "id"),
                        "self-test"),
    "none": Subscription('//item[@category="news"]',
                         ("paths", (".//item[@category='news']",)),
                         "self-test"),
}


def self_test() -> List[str]:
    """Run the real broker on a small document, check that the checker
    accepts its answers, then that it rejects three corruptions of them.
    Returns the failures of the self-test (empty when it passes)."""
    from repro.streaming import DocumentBroker

    subscriptions = {key: sub.xpath
                     for key, sub in _SELF_TEST_SUBSCRIPTIONS.items()}
    failures: List[str] = []

    verdicts = DocumentBroker(subscriptions, matches_only=True).submit(
        "self-test", _SELF_TEST_DOCUMENT).results
    payloads: List[Tuple[Hashable, int, bytes]] = []
    extracted = DocumentBroker(
        subscriptions,
        on_payload=lambda key, node_id, data: payloads.append(
            (key, node_id, data))).submit("self-test",
                                          _SELF_TEST_DOCUMENT).results

    def check(delivery, results, sent=()):
        return check_document(_SELF_TEST_DOCUMENT, _SELF_TEST_SUBSCRIPTIONS,
                              delivery, results, sent)

    if check(VERDICT, verdicts):
        failures.append("correct verdicts were rejected")
    if check(SUBSTREAM, extracted, payloads):
        failures.append("correct node ids and payloads were rejected")

    flipped = [copy.copy(result) for result in verdicts]
    flipped[0].matched = not flipped[0].matched
    if not check(VERDICT, flipped):
        failures.append("a flipped verdict was accepted")

    missing = [copy.copy(result) for result in extracted]
    victim = next(result for result in missing if len(result.node_ids) > 1)
    victim.node_ids = victim.node_ids[1:]
    if not check(NODE_IDS, missing):
        failures.append("a missing node id was accepted")

    corrupted = list(payloads)
    index = next(i for i, (_, _, data) in enumerate(corrupted)
                 if data.startswith(b"<"))
    key, node_id, data = corrupted[index]
    corrupted[index] = (key, node_id, data.replace(b">", b"><x/>", 1))
    if not check(SUBSTREAM, extracted, corrupted):
        failures.append("a corrupted payload was accepted")
    return failures
