"""Structural analysis of xPath expressions.

These helpers implement the definitions of Sections 2.1 and 4 that the
rewriting algorithm and the benchmarks rely on:

* the *length* of a path — the number of location steps it contains outside
  and inside qualifiers (Section 2.1),
* detection of *reverse steps* and where the first one occurs,
* detection of *RR joins* (Definition 4.2) which delimit the input class of
  ``rare``,
* join counting and other size metrics used by the RuleSet1/RuleSet2
  comparison experiment (E8).
"""

from __future__ import annotations

from typing import Iterable, Iterator, List, Optional, Tuple

from repro.xpath.ast import (
    AndExpr,
    Bottom,
    Comparison,
    Literal,
    LocationPath,
    NodeTestKind,
    OrExpr,
    PathExpr,
    PathQualifier,
    Qualifier,
    Step,
    Union,
    iter_union_members,
)
from repro.xpath.axes import Axis


# ---------------------------------------------------------------------------
# Iteration over every step of an expression (spine and qualifiers)
# ---------------------------------------------------------------------------

def iter_steps(path: PathExpr) -> Iterator[Step]:
    """Yield every step of ``path``, including steps inside qualifiers.

    Steps are yielded in left-to-right reading order: for each spine step,
    the step itself first, then the steps of its qualifiers.  This is the
    order in which ``rare`` eliminates reverse steps.  String literals
    (comparison operands of the attribute extension) contain no steps.
    """
    if isinstance(path, (Bottom, Literal)):
        return
    if isinstance(path, Union):
        for member in path.members:
            yield from iter_steps(member)
        return
    if isinstance(path, LocationPath):
        for spine_step in path.steps:
            yield spine_step
            for qual in spine_step.qualifiers:
                yield from _iter_qualifier_steps(qual)
        return
    raise TypeError(f"not a path expression: {path!r}")


def _iter_qualifier_steps(qual: Qualifier) -> Iterator[Step]:
    if isinstance(qual, PathQualifier):
        yield from iter_steps(qual.path)
    elif isinstance(qual, (AndExpr, OrExpr)):
        yield from _iter_qualifier_steps(qual.left)
        yield from _iter_qualifier_steps(qual.right)
    elif isinstance(qual, Comparison):
        yield from iter_steps(qual.left)
        yield from iter_steps(qual.right)
    else:  # pragma: no cover - defensive
        raise TypeError(f"not a qualifier: {qual!r}")


# ---------------------------------------------------------------------------
# Size metrics
# ---------------------------------------------------------------------------

def path_length(path: PathExpr) -> int:
    """The length of a location path (Section 2.1).

    The number of location steps it contains outside and inside qualifiers,
    summed over all union members.
    """
    return sum(1 for _ in iter_steps(path))


def spine_length(path: PathExpr) -> int:
    """Number of steps on the main spine only (maximum over union members)."""
    if isinstance(path, (Bottom, Literal)):
        return 0
    if isinstance(path, Union):
        return max(spine_length(member) for member in path.members)
    if isinstance(path, LocationPath):
        return len(path.steps)
    raise TypeError(f"not a path expression: {path!r}")


def union_term_count(path: PathExpr) -> int:
    """Number of top-level union members (1 for a plain path, 0 for ⊥)."""
    if isinstance(path, (Bottom, Literal)):
        return 0
    if isinstance(path, Union):
        return sum(union_term_count(member) or 1 for member in path.members)
    return 1


def count_reverse_steps(path: PathExpr) -> int:
    """Number of reverse steps anywhere in the expression."""
    return sum(1 for step in iter_steps(path) if step.is_reverse)


def count_forward_steps(path: PathExpr) -> int:
    """Number of forward steps anywhere in the expression."""
    return sum(1 for step in iter_steps(path) if step.is_forward)


def has_reverse_steps(path: PathExpr) -> bool:
    """Whether any reverse step occurs in the expression."""
    return any(step.is_reverse for step in iter_steps(path))


def count_attribute_steps(path: PathExpr) -> int:
    """Number of attribute-axis steps anywhere in the expression."""
    return sum(1 for step in iter_steps(path) if step.axis is Axis.ATTRIBUTE)


def has_attribute_steps(path: PathExpr) -> bool:
    """Whether the expression uses the attribute extension anywhere.

    True when any step navigates the attribute axis *or* any comparison
    operand is a string literal — both lie outside the paper's fragment.
    """
    if any(step.axis is Axis.ATTRIBUTE for step in iter_steps(path)):
        return True
    return any(
        isinstance(comparison.left, Literal)
        or isinstance(comparison.right, Literal)
        for comparison in iter_comparisons(path))


def count_joins(path: PathExpr) -> int:
    """Number of join comparisons (``=`` or ``==``) anywhere in the expression.

    The Section 4 "Comparison" paragraph observes that RuleSet1 output
    contains as many joins as the input had reverse steps while RuleSet2
    output contains none; experiment E8 reproduces that observation with this
    counter.
    """
    count = 0
    if isinstance(path, (Bottom, Literal)):
        return 0
    if isinstance(path, Union):
        return sum(count_joins(member) for member in path.members)
    if isinstance(path, LocationPath):
        for spine_step in path.steps:
            for qual in spine_step.qualifiers:
                count += _count_joins_in_qualifier(qual)
        return count
    raise TypeError(f"not a path expression: {path!r}")


def _count_joins_in_qualifier(qual: Qualifier) -> int:
    if isinstance(qual, PathQualifier):
        return count_joins(qual.path)
    if isinstance(qual, (AndExpr, OrExpr)):
        return _count_joins_in_qualifier(qual.left) + _count_joins_in_qualifier(qual.right)
    if isinstance(qual, Comparison):
        return 1 + count_joins(qual.left) + count_joins(qual.right)
    raise TypeError(f"not a qualifier: {qual!r}")


# ---------------------------------------------------------------------------
# Absolute / relative, RR joins (Definition 4.2)
# ---------------------------------------------------------------------------

def is_absolute(path: PathExpr) -> bool:
    """Whether the path is absolute in the sense of Section 2.1.

    A union is absolute iff all of its members are; ⊥ is treated as absolute
    (it is the canonical equivalent of absolute paths selecting nothing), and
    so are string literals (their value never depends on the context node).
    """
    if isinstance(path, (Bottom, Literal)):
        return True
    if isinstance(path, Union):
        return all(is_absolute(member) for member in path.members)
    if isinstance(path, LocationPath):
        return path.absolute
    raise TypeError(f"not a path expression: {path!r}")


def is_rr_join(comparison: Comparison) -> bool:
    """Whether a comparison is an RR join (Definition 4.2).

    ``p1 θ p2`` is an RR join when both operands are *relative* paths and at
    least one of them contains a reverse step.
    """
    left_relative = not is_absolute(comparison.left)
    right_relative = not is_absolute(comparison.right)
    if not (left_relative and right_relative):
        return False
    return has_reverse_steps(comparison.left) or has_reverse_steps(comparison.right)


def iter_comparisons(path: PathExpr) -> Iterator[Comparison]:
    """Yield every comparison qualifier anywhere in the expression."""
    if isinstance(path, (Bottom, Literal)):
        return
    if isinstance(path, Union):
        for member in path.members:
            yield from iter_comparisons(member)
        return
    if isinstance(path, LocationPath):
        for spine_step in path.steps:
            for qual in spine_step.qualifiers:
                yield from _iter_comparisons_in_qualifier(qual)
        return
    raise TypeError(f"not a path expression: {path!r}")


def _iter_comparisons_in_qualifier(qual: Qualifier) -> Iterator[Comparison]:
    if isinstance(qual, PathQualifier):
        yield from iter_comparisons(qual.path)
    elif isinstance(qual, (AndExpr, OrExpr)):
        yield from _iter_comparisons_in_qualifier(qual.left)
        yield from _iter_comparisons_in_qualifier(qual.right)
    elif isinstance(qual, Comparison):
        yield qual
        yield from iter_comparisons(qual.left)
        yield from iter_comparisons(qual.right)
    else:  # pragma: no cover - defensive
        raise TypeError(f"not a qualifier: {qual!r}")


def has_rr_joins(path: PathExpr) -> bool:
    """Whether any qualifier of the expression contains an RR join."""
    return any(is_rr_join(comparison) for comparison in iter_comparisons(path))


def is_rare_input(path: PathExpr) -> Tuple[bool, Optional[str]]:
    """Check whether ``path`` is in the input class of ``rare``.

    Returns ``(True, None)`` if the path is absolute and free of RR joins,
    otherwise ``(False, reason)`` with a human-readable reason.
    """
    if not is_absolute(path):
        return False, "rare requires an absolute location path"
    if has_rr_joins(path):
        return False, "qualifiers contain an RR join (Definition 4.2)"
    return True, None


# ---------------------------------------------------------------------------
# Automaton compilability (lazy-DFA classification)
# ---------------------------------------------------------------------------

#: Spine axes the lazy DFA compiles into automaton transitions.
#: The ancestor-chain axes (``self``/``child``/``descendant``/
#: ``descendant-or-self``/``attribute``) are decided by a run over the
#: root-to-node tag sequence alone; ``following``/``following-sibling``
#: compile into *sibling windows* — NFA states armed by the anchor's close
#: event (the automaton's alphabet includes EndElement) and expired when
#: the anchor's parent closes.
AUTOMATON_SPINE_AXES = frozenset({
    Axis.SELF,
    Axis.CHILD,
    Axis.DESCENDANT,
    Axis.DESCENDANT_OR_SELF,
    Axis.ATTRIBUTE,
    Axis.FOLLOWING,
    Axis.FOLLOWING_SIBLING,
})


#: Spine alternatives per union member before the automaton compiler gives
#: up and routes the member to the expectation engine.  ``//`` descents
#: (``descendant-or-self::node()``) fold into the next consuming item, so
#: only *named* ``descendant-or-self`` steps fork a self/descendant
#: alternative each — the limit is a safety valve for adversarial chains of
#: those, not something realistic pools reach.
AUTOMATON_ALTERNATIVE_LIMIT = 64

#: Internal node-test categories of the automaton's consuming transitions:
#: element by name, any element, any node, text, attribute by name, any
#: attribute.  Exposed for :mod:`repro.streaming.automaton`, which builds
#: its NFA edges from exactly these.
K_NAME, K_WILD, K_NODE, K_TEXT, K_ATTR, K_ATTR_ANY = range(6)

#: Categories matching only leaf nodes: nothing can be consumed below them.
LEAF_TEST_KINDS = (K_TEXT, K_ATTR, K_ATTR_ANY)

#: Item modes of a compiled alternative.  ``M_CHILD`` consumes one child
#: level, ``M_DESC`` consumes after a skip-any-elements loop, and the four
#: window modes consume from a *sibling window* armed by the previous
#: item's close event: ``following-sibling``/``following`` anchored at the
#: item itself (``M_SIB``/``M_FOL``) or at any of its descendants
#: (``M_SIB_DEEP``/``M_FOL_DEEP``, produced by a pending ``//`` descent in
#: front of the window step).  ``M_CHILD == False`` and ``M_DESC == True``
#: so window-free items keep their historical ``(loop, test)`` reading.
M_CHILD, M_DESC, M_SIB, M_SIB_DEEP, M_FOL, M_FOL_DEEP = range(6)

#: Modes whose item consumes from a close-event-armed window.
WINDOW_MODES = frozenset({M_SIB, M_SIB_DEEP, M_FOL, M_FOL_DEEP})


def automaton_test_of(spine_step: Step):
    """The consumable test category of a spine step, as ``(kind, name)``.

    ``None`` means the step can never match anything on its axis (e.g.
    ``attribute::text()``), which drops the alternative.
    """
    kind = spine_step.node_test.kind
    name = spine_step.node_test.name
    if kind is NodeTestKind.ATTRIBUTE:
        return (K_ATTR, name) if name is not None else (K_ATTR_ANY, None)
    if spine_step.axis is Axis.ATTRIBUTE:
        # The parser normalizes attribute-axis tests to ATTRIBUTE kind; map
        # the remaining spellings defensively.
        if kind in (NodeTestKind.WILDCARD, NodeTestKind.NODE):
            return (K_ATTR_ANY, None)
        if kind is NodeTestKind.NAME:
            return (K_ATTR, name)
        return None
    if kind is NodeTestKind.NAME:
        return (K_NAME, name)
    if kind is NodeTestKind.WILDCARD:
        return (K_WILD, None)
    if kind is NodeTestKind.TEXT:
        return (K_TEXT, None)
    return (K_NODE, None)


def intersect_automaton_tests(a, b):
    """Intersection of two test categories (``self`` steps folded into the
    preceding consuming transition); ``None`` is the empty intersection."""
    ka, na = a
    kb, nb = b
    if ka == K_NODE:
        return b
    if kb == K_NODE:
        return a
    if ka == K_ATTR_ANY:
        return b if kb in (K_ATTR, K_ATTR_ANY) else None
    if kb == K_ATTR_ANY:
        return a if ka == K_ATTR else None
    if ka == K_ATTR or kb == K_ATTR:
        return a if (ka == kb and na == nb) else None
    if ka == K_TEXT or kb == K_TEXT:
        return a if ka == kb else None
    if ka == K_WILD:
        return b
    if kb == K_WILD:
        return a
    return a if na == nb else None


def _fold_self_test(items, test):
    """Fold a ``self`` step into the preceding consuming item (or the root)."""
    if not items:
        # The anchor is the document root, which only node() matches.
        return () if test[0] == K_NODE else None
    loop, last = items[-1]
    merged = intersect_automaton_tests(last, test)
    if merged is None:
        return None
    return items[:-1] + ((loop, merged),)


def automaton_spine_alternatives(steps: Tuple[Step, ...],
                                 limit: int = AUTOMATON_ALTERNATIVE_LIMIT):
    """Compile a qualifier-free spine into consuming alternatives.

    Each alternative is a tuple of ``(mode, test)`` items: consume one tree
    level matching ``test`` (a category from :func:`automaton_test_of`),
    either as a child (``M_CHILD``), after a skip-any-elements loop
    (``M_DESC``), or inside a sibling window armed by the previous item's
    close event (the :data:`WINDOW_MODES`).  A ``//`` descent
    (``descendant-or-self::node()``) does not fork alternatives: it is
    carried as a *pending* flag and folded into the next item's mode, so
    ``//a//b`` compiles to the single alternative
    ``((M_DESC, a), (M_DESC, b))`` and only *named*
    ``descendant-or-self::t`` steps fork self/descendant pairs.  Returns
    ``None`` when the alternatives still explode past ``limit`` (the
    automaton compiler then falls back to the expectation engine) and
    ``[]`` when nothing can ever match.  This is the exact computation
    :mod:`repro.streaming.automaton` threads into its NFA, so the
    classifiers below can never drift from compiler behavior.
    """
    # (items, pending): ``pending`` records a ``//`` descent not yet
    # folded into a consuming item.
    alternatives = [((), False)]
    for spine_step in steps:
        test = automaton_test_of(spine_step)
        axis = spine_step.axis
        fresh = []
        for items, pending in alternatives:
            if test is None:
                continue
            at_leaf = bool(items) and items[-1][1][0] in LEAF_TEST_KINDS
            if axis is Axis.DESCENDANT_OR_SELF and test[0] == K_NODE:
                # ``//`` desugaring: defer the descent into the next
                # item's mode instead of forking here.  At a leaf the
                # descendant branch is empty and the step is the identity.
                fresh.append((items, pending or not at_leaf))
                continue
            if axis is Axis.SELF or axis is Axis.DESCENDANT_OR_SELF:
                # ``self::t`` on a pending descent (and any named
                # ``descendant-or-self::t``) splits into the zero-descent
                # fold and a consuming descendant item.
                folded = _fold_self_test(items, test)
                if folded is not None:
                    fresh.append((folded, False))
                if (axis is Axis.DESCENDANT_OR_SELF or pending) \
                        and not at_leaf:
                    fresh.append((items + ((M_DESC, test),), False))
                continue
            if axis in (Axis.FOLLOWING, Axis.FOLLOWING_SIBLING):
                # Attribute nodes neither appear on nor anchor the sibling
                # axes in this model: such windows are empty.
                if test[0] in (K_ATTR, K_ATTR_ANY):
                    continue
                if items and items[-1][1][0] in (K_ATTR, K_ATTR_ANY):
                    continue
                if axis is Axis.FOLLOWING:
                    mode = M_FOL_DEEP if pending else M_FOL
                else:
                    mode = M_SIB_DEEP if pending else M_SIB
                fresh.append((items + ((mode, test),), False))
                continue
            if at_leaf:
                # Text and attribute nodes have nothing below them.
                continue
            loop = pending or axis is Axis.DESCENDANT
            fresh.append((items + ((M_DESC if loop else M_CHILD, test),),
                          False))
        seen = set()
        alternatives = []
        for pair in fresh:
            if pair not in seen:
                seen.add(pair)
                alternatives.append(pair)
        if not alternatives:
            return []
        if len(alternatives) > limit:
            return None
    final = []
    closed = set()
    for items, pending in alternatives:
        # A trailing ``//`` selects the reached nodes *and* all their
        # descendants; expand it now that no item is left to fold into.
        expansion = (items, items + ((M_DESC, (K_NODE, None)),)) \
            if pending else (items,)
        for expanded in expansion:
            if expanded not in closed:
                closed.add(expanded)
                final.append(expanded)
    if len(final) > limit:
        return None
    return final


def automaton_spine_cut(member: LocationPath) -> Optional[int]:
    """Index of the first spine step the automaton cannot carry past.

    The lazy DFA compiles the qualifier-free prefix of a member's
    spine into automaton transitions and hands the rest to the expectation
    engine at a *gate*.  The cut is the first step that either carries
    qualifiers or navigates an axis outside :data:`AUTOMATON_SPINE_AXES`;
    ``None`` means the whole spine compiles (the member is structurally
    decided by DFA accept sets alone, unless its alternatives explode —
    see :func:`automaton_spine_alternatives`).
    """
    for index, spine_step in enumerate(member.steps):
        if spine_step.axis not in AUTOMATON_SPINE_AXES or spine_step.qualifiers:
            return index
    return None


def automaton_split_member(member: LocationPath):
    """Split a member's spine at the automaton's hand-off point.

    Returns ``(prefix_steps, gate_qualifiers, remaining_steps)``:
    ``gate_qualifiers is None`` marks a structurally decided member (no
    gate; the whole spine compiles), an empty tuple a hand-off at an
    unsupported axis.  Returns ``None`` when the member cannot be compiled
    at all (its very first step is already unsupported).  This is the one
    place the hand-off is defined — the automaton compiler
    (:mod:`repro.streaming.automaton`) and the classifiers below both
    consume it, so they can never drift apart.
    """
    steps = member.steps
    cut = automaton_spine_cut(member)
    if cut is None:
        return steps, None, ()
    at = steps[cut]
    if at.axis not in AUTOMATON_SPINE_AXES:
        if cut == 0:
            return None
        return steps[:cut], (), steps[cut:]
    return (steps[:cut] + (at.without_qualifiers(),),
            at.qualifiers, steps[cut + 1:])


def is_automaton_compilable(member: LocationPath) -> bool:
    """Whether the lazy DFA serves this member without falling back
    to the expectation engine from the very first step.

    Exact: mirrors the compiler — the member must split
    (:func:`automaton_split_member`) and the compiled prefix's alternatives
    must stay within :data:`AUTOMATON_ALTERNATIVE_LIMIT`.
    """
    split = automaton_split_member(member)
    if split is None:
        return False
    return automaton_spine_alternatives(split[0]) is not None


def is_structurally_decided(path: PathExpr) -> bool:
    """Whether the lazy DFA answers ``path`` by accept sets alone.

    True when every union member's spine uses only
    :data:`AUTOMATON_SPINE_AXES`, no step anywhere carries a qualifier,
    and the compiled alternatives stay within
    :data:`AUTOMATON_ALTERNATIVE_LIMIT` — no expectations, no conditions,
    one dictionary lookup per event.
    """
    for member in iter_union_members(path):
        if isinstance(member, Bottom):
            continue
        if not isinstance(member, LocationPath):
            return False
        if automaton_spine_cut(member) is not None:
            return False
        if automaton_spine_alternatives(member.steps) is None:
            return False
    return True


# ---------------------------------------------------------------------------
# Structural prefixes (multi-subscription sharing analysis)
# ---------------------------------------------------------------------------

def spine_sequences(path: PathExpr) -> List[Tuple[Step, ...]]:
    """The spine step sequences of every union member, in order.

    ``⊥`` contributes no sequence (it matches nothing).  Each sequence is a
    chain that the multi-subscription engine inserts into its prefix trie;
    two subscriptions share matching state exactly on the common prefixes of
    these sequences.
    """
    if isinstance(path, (Bottom, Literal)):
        return []
    if isinstance(path, Union):
        sequences: List[Tuple[Step, ...]] = []
        for member in path.members:
            sequences.extend(spine_sequences(member))
        return sequences
    if isinstance(path, LocationPath):
        return [tuple(path.steps)]
    raise TypeError(f"not a path expression: {path!r}")


def common_spine_prefix(paths: Iterable[PathExpr]) -> Tuple[Step, ...]:
    """Longest step prefix shared by *every* union member of every path.

    Steps compare structurally (axis, node test and qualifiers), matching
    the sharing criterion of the subscription trie.
    """
    sequences: List[Tuple[Step, ...]] = []
    for path in paths:
        sequences.extend(spine_sequences(path))
    if not sequences:
        return ()
    prefix = sequences[0]
    for sequence in sequences[1:]:
        limit = min(len(prefix), len(sequence))
        shared = 0
        while shared < limit and prefix[shared] == sequence[shared]:
            shared += 1
        prefix = prefix[:shared]
        if not prefix:
            break
    return prefix


def prefix_sharing_summary(paths: Iterable[PathExpr]) -> dict:
    """How much leading-step structure a batch of paths shares.

    Returns the total number of spine steps across all paths, the number of
    distinct step prefixes (the node count of a prefix trie over the batch),
    and the number of steps saved by sharing.  Used by
    :class:`repro.streaming.engine.SubscriptionIndex` to report how much
    per-event work the shared trie avoids.  Under live churn the index
    feeds this the *surviving* subscriptions only, so the ratio always
    describes the set actually being matched — retired ordinals awaiting
    ``vacuum()`` contribute nothing, even though their trie nodes linger
    until compaction.
    """
    total_steps = 0
    prefixes = set()
    path_count = 0
    for path in paths:
        path_count += 1
        for sequence in spine_sequences(path):
            total_steps += len(sequence)
            for stop in range(1, len(sequence) + 1):
                prefixes.add(sequence[:stop])
    shared = total_steps - len(prefixes)
    return {
        "paths": path_count,
        "spine_steps": total_steps,
        "trie_nodes": len(prefixes),
        "shared_steps": shared,
        "sharing_ratio": shared / total_steps if total_steps else 0.0,
    }


def summarize(path: PathExpr) -> dict:
    """Size summary used by benchmark reports."""
    return {
        "length": path_length(path),
        "spine_length": spine_length(path),
        "union_terms": union_term_count(path),
        "reverse_steps": count_reverse_steps(path),
        "forward_steps": count_forward_steps(path),
        "attribute_steps": count_attribute_steps(path),
        "joins": count_joins(path),
        "absolute": is_absolute(path),
    }
