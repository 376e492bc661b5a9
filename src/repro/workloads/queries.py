"""Query workloads: the paper's queries plus parametric families.

Three kinds of queries drive the experiments:

* :data:`PAPER_QUERIES` — every location path that appears in the paper
  (Examples 3.1–3.3, Figure 3/4, the equivalence illustrations), with the
  rewriting the paper reports where it gives one,
* *chains* — parametric families of growing length used for the complexity
  experiments: reverse-step chains for Theorem 4.1 (RuleSet1 linear) and
  ``following``/reverse interaction chains for Theorem 4.2 (RuleSet2
  worst-case exponential),
* *random paths* — randomized reverse-axis paths over the journal document
  vocabulary, used for coverage-style validation (experiment E10).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.xmlmodel.generator import ITEM_CATEGORIES, ITEM_CURRENCIES

JOURNAL_TAGS = ("journal", "title", "editor", "authors", "name", "article", "price")

REVERSE_AXES = ("parent", "ancestor", "ancestor-or-self", "preceding",
                "preceding-sibling")
FORWARD_AXES = ("child", "descendant", "descendant-or-self", "self",
                "following", "following-sibling")


@dataclass(frozen=True)
class PaperQuery:
    """A location path taken verbatim from the paper."""

    label: str
    xpath: str
    #: The rewriting reported by the paper, when it gives one (per rule set).
    expected_ruleset1: Optional[str] = None
    expected_ruleset2: Optional[str] = None
    description: str = ""


PAPER_QUERIES: List[PaperQuery] = [
    PaperQuery(
        label="example-3.1",
        xpath="/descendant::price/preceding::name",
        expected_ruleset1=(
            "/descendant::name[following::price == /descendant::price]"),
        expected_ruleset2="/descendant::name[following::price]",
        description="all names that appear before a price (Examples 3.1 and 3.3)",
    ),
    PaperQuery(
        label="example-3.1-variant",
        xpath="/descendant::journal[child::title]/descendant::price/preceding::name",
        expected_ruleset1=(
            "/descendant::name[following::price == "
            "/descendant::journal[child::title]/descendant::price]"),
        description="names before a price inside a journal with a title",
    ),
    PaperQuery(
        label="example-3.2",
        xpath="/descendant::editor[parent::journal]",
        expected_ruleset2="/descendant-or-self::journal/child::editor",
        description="all editors of journals (Rule (8))",
    ),
    PaperQuery(
        label="figure-3-4",
        xpath="/descendant::name/preceding::title[ancestor::journal]",
        expected_ruleset1=(
            "/descendant::title"
            "[/descendant::journal/descendant::node() == self::node()]"
            "[following::name == /descendant::name]"),
        expected_ruleset2=(
            "/descendant-or-self::journal/descendant::title[following::name]"),
        description="titles before a name and inside a journal (Figures 3 and 4)",
    ),
]


def reverse_chain(length: int, axis: str = "parent",
                  tags: Sequence[str] = JOURNAL_TAGS) -> str:
    """``/descendant::t0/axis::t1/axis::t2/...`` with ``length`` reverse steps.

    The workload for Theorem 4.1: RuleSet1 removes each reverse step with one
    rule application, so output size and rewrite time grow linearly.
    """
    if length < 1:
        raise ValueError("need at least one reverse step")
    steps = [f"descendant::{tags[0]}"]
    for index in range(length):
        steps.append(f"{axis}::{tags[(index + 1) % len(tags)]}")
    return "/" + "/".join(steps)


def parent_chain(length: int) -> str:
    """A chain of ``parent`` steps (special case of :func:`reverse_chain`)."""
    return reverse_chain(length, axis="parent")


def ancestor_chain(length: int) -> str:
    """A chain of ``ancestor`` steps."""
    return reverse_chain(length, axis="ancestor")


def preceding_chain(length: int) -> str:
    """A chain of ``preceding`` steps."""
    return reverse_chain(length, axis="preceding")


def following_reverse_chain(length: int, reverse_axis: str = "preceding",
                            tags: Sequence[str] = JOURNAL_TAGS) -> str:
    """``/descendant::t/(following::t/reverse::t)^length`` interaction chains.

    This is the worst case of Theorem 4.2: every ``following``/reverse
    interaction multiplies the number of union terms, so RuleSet2's output
    grows exponentially with ``length`` while RuleSet1's stays linear.
    """
    if length < 1:
        raise ValueError("need at least one interaction")
    steps = [f"descendant::{tags[0]}"]
    for index in range(length):
        steps.append(f"following::{tags[(2 * index + 1) % len(tags)]}")
        steps.append(f"{reverse_axis}::{tags[(2 * index + 2) % len(tags)]}")
    return "/" + "/".join(steps)


def mixed_reverse_path(length: int, seed: int = 11,
                       tags: Sequence[str] = JOURNAL_TAGS) -> str:
    """A pseudo-random alternation of forward and reverse steps of given length."""
    rng = random.Random(seed + length)
    steps = [f"descendant::{rng.choice(tags)}"]
    for _ in range(length - 1):
        if rng.random() < 0.5:
            axis = rng.choice(REVERSE_AXES)
        else:
            axis = rng.choice(("child", "descendant", "following",
                               "following-sibling"))
        steps.append(f"{axis}::{rng.choice(tags)}")
    return "/" + "/".join(steps)


#: Shared subscription prefixes of the SDI workload.  Every generated
#: subscription starts with one of these, so a batch of ``count``
#: subscriptions collapses onto at most ``len(SUBSCRIPTION_PREFIXES)``
#: leading-step chains in the shared trie.
SUBSCRIPTION_PREFIXES = (
    "/descendant::journal",
    "/descendant::journal/child::article",
    "/descendant::article/child::authors",
    "/descendant::journal/descendant::title",
    "/child::journal/descendant::name",
    "/descendant::price",
)


def subscription_workload(count: int, seed: int = 7,
                          prefixes: Sequence[str] = SUBSCRIPTION_PREFIXES,
                          max_tail_steps: int = 2,
                          qualifier_probability: float = 0.35,
                          reverse_probability: float = 0.2,
                          tags: Sequence[str] = JOURNAL_TAGS) -> List[str]:
    """A batch of overlapping SDI subscriptions (multi-query experiment).

    Each subscription starts with one of a small pool of shared prefixes and
    continues with a randomized tail of up to ``max_tail_steps`` steps —
    mixed axes and fan-out, optional existence qualifiers, and with
    probability ``reverse_probability`` a reverse step (``parent`` or
    ``ancestor``) that the subscription index removes by rewriting.  The
    result models a subscriber population whose queries cluster on popular
    document regions, the case where shared-trie matching pays off.
    """
    if count < 1:
        raise ValueError("need at least one subscription")
    rng = random.Random(seed)
    tail_forward = ("child", "descendant", "following-sibling", "self")
    tail_reverse = ("parent", "ancestor")
    subscriptions: List[str] = []
    for _ in range(count):
        parts = [rng.choice(prefixes)]
        for _ in range(rng.randint(0, max_tail_steps)):
            if rng.random() < reverse_probability:
                axis = rng.choice(tail_reverse)
            else:
                axis = rng.choice(tail_forward)
            test = rng.choice(tuple(tags) + ("*",))
            step = f"{axis}::{test}"
            if rng.random() < qualifier_probability:
                inner_axis = rng.choice(("child", "descendant"))
                inner_test = rng.choice(tuple(tags))
                step += f"[{inner_axis}::{inner_test}]"
            parts.append(step)
        subscriptions.append("/".join(parts))
    return subscriptions


#: Wide tag vocabulary of the low-overlap SDI workload (see
#: :func:`low_overlap_workload`); ``tagged_sections_document`` in
#: :mod:`repro.xmlmodel.generator` produces documents over the same names.
def low_overlap_tags(tag_count: int = 48) -> Tuple[str, ...]:
    return tuple(f"t{index:02d}" for index in range(tag_count))


def low_overlap_workload(count: int, seed: int = 7,
                         tags: Optional[Sequence[str]] = None,
                         qualifier_probability: float = 0.25) -> List[str]:
    """Subscriptions with almost no shared leading steps (anti-trie workload).

    Each subscription roots at a different tag of a wide vocabulary, so the
    prefix trie degenerates to one branch per subscription and per-event cost
    is dominated by how many expectations a node event has to be checked
    against.  This is the workload where tag-indexed expectation dispatch
    pays off the most — and where a linear scan is at its worst.
    """
    if count < 1:
        raise ValueError("need at least one subscription")
    if tags is None:
        tags = low_overlap_tags()
    rng = random.Random(seed)
    subscriptions: List[str] = []
    for index in range(count):
        parts = [f"/descendant::{tags[index % len(tags)]}"]
        for _ in range(rng.randint(1, 2)):
            axis = rng.choice(("child", "descendant", "child"))
            parts.append(f"{axis}::{rng.choice(tags)}")
        if rng.random() < qualifier_probability:
            parts[-1] += f"[child::{rng.choice(tags)}]"
        subscriptions.append("/".join(parts))
    return subscriptions


def extraction_workload(count: int, seed: int = 7,
                        tags: Optional[Sequence[str]] = None,
                        nested_probability: float = 0.3) -> List[str]:
    """Substream-extraction subscriptions (content routing, not verdicts).

    Shapes tuned for substream delivery over the
    :func:`repro.xmlmodel.generator.tagged_sections_document` vocabulary:
    most subscriptions select *bounded leaf-ish subtrees* (the realistic
    payload unit a router forwards), and with probability
    ``nested_probability`` a subscription instead selects a whole inner
    section — so extracted regions routinely nest and overlap across
    subscribers, exercising the shared tee buffer rather than one isolated
    window per match.
    """
    if count < 1:
        raise ValueError("need at least one subscription")
    if tags is None:
        tags = low_overlap_tags()
    rng = random.Random(seed)
    subscriptions: List[str] = []
    for index in range(count):
        root = tags[index % len(tags)]
        if rng.random() < nested_probability:
            # A containing region: its payload encloses what the leaf-ish
            # subscriptions below it extract.
            subscriptions.append(f"/descendant::{root}")
        else:
            leaf = rng.choice(tags)
            axis = rng.choice(("child", "descendant"))
            subscriptions.append(f"/descendant::{root}/{axis}::{leaf}")
    return subscriptions


#: Attribute vocabulary of :func:`attribute_subscription_workload` — the
#: *same* tuples the document generator uses, so subscriptions and
#: :func:`repro.xmlmodel.generator.item_feed_document` can never drift apart.
ITEM_FEED_CATEGORIES = ITEM_CATEGORIES
ITEM_FEED_CURRENCIES = ITEM_CURRENCIES


def attribute_subscription_workload(count: int, seed: int = 7,
                                    item_ids: int = 50,
                                    categories: Sequence[str] = ITEM_FEED_CATEGORIES,
                                    reverse_probability: float = 0.15) -> List[str]:
    """Attribute-qualified SDI subscriptions (YFilter-style, extension).

    Real publish/subscribe workloads are dominated by attribute-qualified
    subscriptions — ``//item[@id="42"]/price`` and friends — which the
    paper's attribute-free fragment cannot express.  This generator produces
    exactly those shapes over the :func:`item_feed_document` vocabulary:
    value-qualified ids and categories, attribute existence tests, attribute
    selections (``/@id``), and (with ``reverse_probability``) a reverse step
    that the subscription index rewrites away — including reverse steps
    *from attribute nodes*, exercising the driver's attribute lemmas.
    """
    if count < 1:
        raise ValueError("need at least one subscription")
    rng = random.Random(seed)
    shapes = (
        lambda: f'//item[@id="{rng.randrange(item_ids)}"]/price',
        lambda: f'//item[@category="{rng.choice(categories)}"]',
        lambda: f'//item[@category="{rng.choice(categories)}"]/title',
        lambda: f'//price[@currency="{rng.choice(ITEM_FEED_CURRENCIES)}"]',
        lambda: '//item[@featured]/price',
        lambda: f'//item[@id="{rng.randrange(item_ids)}"]/@category',
        lambda: '/descendant::item/attribute::id',
        lambda: '//item[@featured="yes" or @category="books"]',
        lambda: f'//price[@currency][. = "{rng.randint(1, 99)}"]',
    )
    reverse_shapes = (
        lambda: f'//price[@currency="{rng.choice(ITEM_FEED_CURRENCIES)}"]/parent::item',
        lambda: f'//item/@id/parent::item[@category="{rng.choice(categories)}"]',
        lambda: '//price/@currency/ancestor::item/title',
    )
    subscriptions: List[str] = []
    for _ in range(count):
        pool = reverse_shapes if rng.random() < reverse_probability else shapes
        subscriptions.append(rng.choice(pool)())
    return subscriptions


def differential_query_pool(count: int, seed: int = 7,
                            tags: Sequence[str] = ("a", "b", "c", "d"),
                            attribute_names: Sequence[str] = ("id", "kind",
                                                              "lang"),
                            attribute_values: Sequence[str] = ("1", "2",
                                                               "x", "y")) -> List[str]:
    """Queries spanning every route-relevant shape (differential testing).

    The three-way route-equivalence suite (lazy DFA == expectation engine
    == DOM baseline) needs query pools that hit every dispatch regime at
    once: structurally decided spines (pure automaton), qualifier gates
    (automaton hands off to expectations mid-spine), ``following``/
    ``following-sibling`` steps — including as the *first* step and behind
    ``//`` descents (compiled into close-event-armed sibling windows) —
    attribute steps and value comparisons, joins against absolute
    sub-paths, and unions mixing all of the above.  Tags and attribute
    vocabulary default to the ones
    :func:`repro.xmlmodel.generator.random_document` emits, so the shapes
    actually select nodes.
    """
    if count < 1:
        raise ValueError("need at least one query")
    rng = random.Random(seed)
    forward = ("child", "descendant", "descendant-or-self", "self")
    gated = forward + ("following", "following-sibling")

    def tag():
        return rng.choice(tuple(tags) + ("*", "node()"))

    def qualifier():
        roll = rng.random()
        if roll < 0.3:
            return f"[@{rng.choice(tuple(attribute_names))}]"
        if roll < 0.55:
            return (f'[@{rng.choice(tuple(attribute_names))} = '
                    f'"{rng.choice(tuple(attribute_values))}"]')
        if roll < 0.8:
            return f"[{rng.choice(gated)}::{tag()}]"
        return f"[self::node() = /descendant::{rng.choice(tuple(tags))}]"

    def spine(max_steps, axes):
        parts = []
        for _ in range(rng.randint(1, max_steps)):
            step = f"{rng.choice(axes)}::{tag()}"
            if rng.random() < 0.4:
                step += qualifier()
            parts.append(step)
        return "/".join(parts)

    shapes = (
        lambda: "/" + spine(3, forward),
        lambda: "/" + spine(3, gated),
        lambda: f"/descendant::{rng.choice(tuple(tags))}"
                f"/@{rng.choice(tuple(attribute_names))}",
        lambda: f"//{rng.choice(tuple(tags))}"
                f"[@{rng.choice(tuple(attribute_names))}"
                f' = "{rng.choice(tuple(attribute_values))}"]',
        lambda: "/descendant::" + rng.choice(tuple(tags)) + "/attribute::*",
        lambda: "/" + spine(2, forward) + "/child::text()",
        lambda: "/" + spine(2, forward) + " | /" + spine(2, gated),
        # First-step sibling windows (empty at the root, arming below it
        # through union members) and deep windows behind // descents.
        lambda: ("/" + rng.choice(("following", "following-sibling"))
                 + f"::{tag()}"),
        lambda: (f"//{rng.choice(tuple(tags))}/"
                 + rng.choice(("following", "following-sibling"))
                 + f"::{tag()}"),
        lambda: f"//{rng.choice(tuple(tags))}//following::{tag()}",
        lambda: ("/" + spine(1, forward) + "/following-sibling::"
                 + rng.choice(tuple(tags)) + " | /" + spine(2, gated)),
    )
    return [rng.choice(shapes)() for _ in range(count)]


def random_reverse_path(seed: int, max_steps: int = 4,
                        qualifier_probability: float = 0.4,
                        tags: Sequence[str] = JOURNAL_TAGS) -> str:
    """A random absolute path with reverse axes and optional qualifiers.

    Used by the coverage experiment (E10): the generated paths exercise every
    reverse axis both on the spine and inside qualifiers.
    """
    rng = random.Random(seed)
    count = rng.randint(2, max_steps)
    steps = [f"descendant::{rng.choice(tags)}"]
    for index in range(count - 1):
        axis = rng.choice(REVERSE_AXES + ("child", "descendant", "following",
                                          "following-sibling", "self"))
        test = rng.choice(tags + ("*", "node()"))
        step = f"{axis}::{test}"
        if rng.random() < qualifier_probability:
            inner_axis = rng.choice(REVERSE_AXES + ("child", "descendant"))
            inner_test = rng.choice(tags + ("*",))
            step += f"[{inner_axis}::{inner_test}]"
        steps.append(step)
    return "/" + "/".join(steps)
