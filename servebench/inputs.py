"""Workload inputs of the serving benchmark, generated from a seed.

Everything here is the benchmark's own code: the documents and
subscriptions are modelled on the program's ``repro.workloads`` and
``repro.xmlmodel.generator`` families but import nothing from the program,
so a change to the program's generators cannot change what is measured.
The same seed always gives the same inputs.

Every subscription is emitted together with an *oracle plan*: how the
independent checker (:mod:`oracle`) computes its answer with
``xml.etree.ElementTree`` paths plus document-order numbering.  A plan is a
tuple whose first item names its kind:

``("paths", (p1, p2, ...))``
    The union of the elements the ElementTree paths select, evaluated from
    a synthetic document node that holds the root element.
``("attribute", path, name)``
    The ``name`` attribute of each element ``path`` selects.
``("preceding", context_path, tag)``
    Elements named ``tag`` that end before some element ``context_path``
    selects starts (XPath ``preceding``).
``("ancestor_child", owner_path, ancestor_tag, child_tag)``
    ``child_tag`` children of the ``ancestor_tag`` elements that are the
    owner, or an ancestor of the owner, of an element ``owner_path`` selects.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple
from xml.sax.saxutils import escape, quoteattr

#: Leaf words.  Two of them need escaping and one is non-ASCII, so the
#: tokenizer's entity decoding and its UTF-8 handling across chunk
#: boundaries are on the measured path.
WORDS = ("anna", "bob", "carla", "dan", "eve", "frank", "grete", "holger",
         "ines", "jan", "klara", "lars", "mona", "nils", "r&d", "a<b",
         "zoë")
TOPICS = ("databases", "streams", "xml", "xpath", "xquery", "optimization",
          "semistructured data", "information retrieval", "query rewriting",
          "r&d notes")
CATEGORIES = ("books", "music", "tools", "games", "news")
CURRENCIES = ("EUR", "USD", "GBP")

VERDICT = "verdict"
NODE_IDS = "ids"
SUBSTREAM = "substream"


@dataclass(frozen=True)
class Subscription:
    """One subscription: the XPath the program gets, the plan the oracle
    evaluates, and the shape class churn replaces it within."""

    xpath: str
    plan: tuple
    shape: str


@dataclass
class Workload:
    name: str
    subscriptions: Dict[str, Subscription]
    #: The ``i``-th document of the run's feed, drawn afresh for every
    #: ``i``; the serving loop serves each one once.
    document: Callable[[int], bytes]
    chunk_size: int
    delivery: str
    #: Unsubscribe/subscribe pairs made before each document (0: none).
    churn_per_doc: int = 0
    #: Draws a fresh subscription of a given shape class (churn only).
    fresh: Optional[Callable[[str], Subscription]] = None

    def chunks(self, data: bytes) -> List[bytes]:
        size = self.chunk_size
        return [data[start:start + size] for start in range(0, len(data), size)]


# -- documents ---------------------------------------------------------------

def _render(tag: str, attributes: Tuple[Tuple[str, str], ...],
            inner: str) -> str:
    attrs = "".join(f" {name}={quoteattr(value)}" for name, value in attributes)
    return f"<{tag}{attrs}>{inner}</{tag}>"


def sections_document(rng: random.Random, tags: Tuple[str, ...],
                      sections: int, children: int, depth: int) -> bytes:
    """A wide-vocabulary document of nested sections (the shape of the
    program's ``tagged_sections_document``): ``sections`` subtrees under
    ``db`` whose root tags cycle through ``tags`` from a random offset,
    nested ``depth`` levels below with random tags and word leaves."""

    def build(level: int) -> str:
        tag = rng.choice(tags)
        if level >= depth:
            return _render(tag, (), escape(rng.choice(WORDS)))
        return _render(tag, (), "".join(
            build(level + 1) for _ in range(rng.randint(1, children))))

    offset = rng.randrange(len(tags))
    body = "".join(
        _render(tags[(offset + index) % len(tags)], (),
                "".join(build(1) for _ in range(children)))
        for index in range(sections))
    return _render("db", (), body).encode("utf-8")


def item_feed_document(rng: random.Random, items: int, id_range: int) -> bytes:
    """An attribute-heavy publish/subscribe message (the shape of the
    program's ``item_feed_document``): ``items`` items with distinct ids
    drawn from ``range(id_range)``, a category, every third one featured,
    each holding a title and a priced ``price`` element."""
    parts = []
    for position, item_id in enumerate(rng.sample(range(id_range), items)):
        attributes = [("id", str(item_id)),
                      ("category", rng.choice(CATEGORIES))]
        if position % 3 == 0:
            attributes.append(("featured", "yes"))
        title = _render("title", (), escape(rng.choice(TOPICS)))
        price = _render("price", (("currency", rng.choice(CURRENCIES)),),
                        str(rng.randint(1, 99)))
        parts.append(_render("item", tuple(attributes), title + price))
    return _render("feed", (), "".join(parts)).encode("utf-8")


# -- subscriptions -----------------------------------------------------------

def forward_subscription(rng: random.Random, root: str,
                         tags: Tuple[str, ...],
                         qualifier_probability: float) -> Subscription:
    """A low-overlap forward path (the shape of the program's
    ``low_overlap_workload``): rooted at ``root`` anywhere in the document,
    one or two child/descendant steps, sometimes a child qualifier."""
    xpath = f"/descendant::{root}"
    path = f".//{root}"
    for _ in range(rng.randint(1, 2)):
        axis = rng.choice(("child", "descendant", "child"))
        tag = rng.choice(tags)
        xpath += f"/{axis}::{tag}"
        path += ("/" if axis == "child" else "//") + tag
    if rng.random() < qualifier_probability:
        tag = rng.choice(tags)
        xpath += f"[child::{tag}]"
        path += f"[{tag}]"
    return Subscription(xpath, ("paths", (path,)), "forward")


def _item_shapes(rng: random.Random, id_range: int):
    """Shape class -> (how many of N=100, generator of one subscription)."""

    def category():
        return rng.choice(CATEGORIES)

    def currency():
        return rng.choice(CURRENCIES)

    def item_id():
        return str(rng.randrange(id_range))

    def id_price():
        k = item_id()
        return (f'//item[@id="{k}"]/price',
                ("paths", (f".//item[@id='{k}']/price",)))

    def category_item():
        c = category()
        return (f'//item[@category="{c}"]',
                ("paths", (f".//item[@category='{c}']",)))

    def category_title():
        c = category()
        return (f'//item[@category="{c}"]/title',
                ("paths", (f".//item[@category='{c}']/title",)))

    def currency_price():
        x = currency()
        return (f'//price[@currency="{x}"]',
                ("paths", (f".//price[@currency='{x}']",)))

    def featured_price():
        return ("//item[@featured]/price",
                ("paths", (".//item[@featured]/price",)))

    def id_category_attribute():
        k = item_id()
        return (f'//item[@id="{k}"]/@category',
                ("attribute", f".//item[@id='{k}']", "category"))

    def category_id_attribute():
        c = category()
        return (f'/descendant::item[@category="{c}"]/attribute::id',
                ("attribute", f".//item[@category='{c}']", "id"))

    def featured_or_category():
        c = category()
        return (f'//item[@featured="yes" or @category="{c}"]',
                ("paths", (".//item[@featured='yes']",
                           f".//item[@category='{c}']")))

    def priced_value():
        n = str(rng.randint(1, 99))
        return (f'//price[@currency][. = "{n}"]',
                ("paths", (f".//price[@currency][.='{n}']",)))

    # Reverse-axis shapes: RuleSet2 rewrites them before matching.
    def price_parent():
        x = currency()
        return (f'//price[@currency="{x}"]/parent::item',
                ("paths", (f".//price[@currency='{x}']/..",)))

    def id_parent():
        c = category()
        return (f'//item/@id/parent::item[@category="{c}"]',
                ("paths", (f".//item[@id][@category='{c}']",)))

    def currency_ancestor_title():
        x = currency()
        return (f'//price[@currency="{x}"]/@currency/ancestor::item/title',
                ("ancestor_child", f".//price[@currency='{x}']", "item",
                 "title"))

    def preceding_title():
        # The paper's Example 3.1 shape, over the item vocabulary.
        x = currency()
        return (f'//price[@currency="{x}"]/preceding::title',
                ("preceding", f".//price[@currency='{x}']", "title"))

    return {
        "id_price": (12, id_price),
        "category_item": (12, category_item),
        "category_title": (12, category_title),
        "currency_price": (10, currency_price),
        "featured_price": (8, featured_price),
        "id_category_attribute": (10, id_category_attribute),
        "category_id_attribute": (8, category_id_attribute),
        "featured_or_category": (8, featured_or_category),
        "priced_value": (5, priced_value),
        "price_parent": (5, price_parent),
        "id_parent": (4, id_parent),
        "currency_ancestor_title": (4, currency_ancestor_title),
        "preceding_title": (2, preceding_title),
    }


# -- the three workloads -----------------------------------------------------

def _vocabulary(prefix: str, count: int) -> Tuple[str, ...]:
    return tuple(f"{prefix}{index:02d}" for index in range(count))


def _document_rng(workload: str, seed: int, number: int) -> random.Random:
    """Each document draws from its own stream, so the ``i``-th document of
    a seed is the same however many documents a run serves."""
    return random.Random(f"{workload}/{seed}/document/{number}")


def section_route(seed: int) -> Workload:
    """N=1000 low-overlap forward subscriptions, ~21 KB section documents
    fed in 4 KB chunks, verdict delivery."""
    rng = random.Random(f"section_route/{seed}")
    tags = _vocabulary("t", 48)
    subscriptions = {
        f"s{index}": forward_subscription(rng, tags[index % len(tags)], tags,
                                          0.25)
        for index in range(1000)}

    def document(number: int) -> bytes:
        return sections_document(_document_rng("section_route", seed, number),
                                 tags, sections=72, children=3, depth=3)

    return Workload("section_route", subscriptions, document,
                    chunk_size=4096, delivery=VERDICT)


def wide_index(seed: int) -> Workload:
    """N=10000 forward subscriptions over a 96-tag vocabulary, ~0.85 KB
    documents, node-id delivery."""
    rng = random.Random(f"wide_index/{seed}")
    tags = _vocabulary("w", 96)
    subscriptions = {
        f"s{index}": forward_subscription(rng, tags[index % len(tags)], tags,
                                          0.25)
        for index in range(10000)}

    def document(number: int) -> bytes:
        return sections_document(_document_rng("wide_index", seed, number),
                                 tags, sections=6, children=3, depth=2)

    return Workload("wide_index", subscriptions, document,
                    chunk_size=4096, delivery=NODE_IDS)


def item_extract(seed: int) -> Workload:
    """N=100 attribute-qualified subscriptions (15 of them reverse-axis
    shapes) over ~2.5 KB item feeds, substream delivery, and 5
    unsubscribe/subscribe pairs before every document."""
    rng = random.Random(f"item_extract/{seed}")
    id_range = 60
    shapes = _item_shapes(rng, id_range)

    def fresh(shape: str) -> Subscription:
        xpath, plan = shapes[shape][1]()
        return Subscription(xpath, plan, shape)

    subscriptions = {}
    for shape, (count, _) in shapes.items():
        for _ in range(count):
            subscriptions[f"s{len(subscriptions)}"] = fresh(shape)

    def document(number: int) -> bytes:
        return item_feed_document(_document_rng("item_extract", seed, number),
                                  items=25, id_range=id_range)

    return Workload("item_extract", subscriptions, document,
                    chunk_size=4096, delivery=SUBSTREAM, churn_per_doc=5,
                    fresh=fresh)


WORKLOADS = {
    "section_route": section_route,
    "wide_index": wide_index,
    "item_extract": item_extract,
}
