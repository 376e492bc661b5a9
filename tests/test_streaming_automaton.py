"""Unit tests of the lazy-DFA structural dispatch (repro.streaming.automaton).

Comparisons against the expectation engine build the reference side inside
the ``forced_fallback`` seam (root ``conftest.py``), which routes every
union member through the fallback trie."""

import pytest

from repro.errors import StreamingError
from repro.streaming import (
    DocumentBroker,
    SubscriptionIndex,
    dom_evaluate,
    stream_evaluate,
)
from repro.streaming.automaton import (
    DEFAULT_TRANSITION_CAP,
    compile_subscription_automaton,
)
from repro.streaming.matcher import StreamingMatcher
from repro.xmlmodel.builder import document_events
from repro.xmlmodel.document import Document, element, text
from repro.xmlmodel.serialize import to_xml
from repro.xmlmodel.generator import (
    item_feed_document,
    journal_document,
    tagged_sections_document,
)
from repro.xpath import analysis
from repro.xpath.axes import Axis
from repro.xpath.parser import parse_xpath


#: Adversarial named descendant-or-self chains: k repetitions compile to
#: exactly k shared-prefix alternatives, so 64 sits at the cap and 65 is
#: the first spine past it (``//`` descents fold instead and never fork).
DOS_CHAIN_64 = "/descendant-or-self::a" * 64
DOS_CHAIN_65 = "/descendant-or-self::a" * 65


class TestSpineClassification:
    @pytest.mark.parametrize("query, decided", [
        ("/descendant::a/child::b", True),
        ("//a/@id", True),
        ("/", True),
        ("/a/b/c | //d", True),
        # Sibling windows compile: following/following-sibling spines are
        # decided by the automaton (close-event arming), no fallback.
        ("/descendant::a/following::b", True),
        ("/a | /b/following-sibling::c", True),
        ("/following::a", True),
        # // descents fold into the next item instead of forking, so long
        # //-chains stay one alternative.
        ("//a" * 8, True),
        ("/descendant::a[child::b]", False),
        # Alternative explosion (named descendant-or-self chains past the
        # cap): compiled by the fallback engine, so not decided by DFA
        # accept sets — the classifier mirrors the compiler.
        (DOS_CHAIN_64, True),
        (DOS_CHAIN_65, False),
    ])
    def test_is_structurally_decided(self, query, decided):
        assert analysis.is_structurally_decided(parse_xpath(query)) == decided

    def test_spine_cut_points(self):
        path = parse_xpath("/a/b[child::c]/d")
        assert analysis.automaton_spine_cut(path) == 1
        # Sibling-axis steps no longer cut the spine...
        assert analysis.automaton_spine_cut(
            parse_xpath("/a/following::b")) is None
        # ...unless they carry qualifiers, like any other step.
        assert analysis.automaton_spine_cut(
            parse_xpath("/a/following::b[child::c]")) == 1
        assert analysis.automaton_spine_cut(parse_xpath("/a/b")) is None

    def test_is_automaton_compilable(self):
        assert analysis.is_automaton_compilable(parse_xpath("/a[child::b]"))
        assert analysis.is_automaton_compilable(
            parse_xpath("/a/following::b"))
        assert analysis.is_automaton_compilable(
            parse_xpath("/following::a"))
        assert analysis.is_automaton_compilable(parse_xpath("//a" * 8))
        # Boundary of the alternative cap: 64 compiles, 65 falls back.
        assert analysis.is_automaton_compilable(parse_xpath(DOS_CHAIN_64))
        assert not analysis.is_automaton_compilable(parse_xpath(DOS_CHAIN_65))

    def test_alternative_counts_at_the_cap_boundary(self):
        sixty_four = parse_xpath(DOS_CHAIN_64)
        alternatives = analysis.automaton_spine_alternatives(
            sixty_four.steps)
        assert len(alternatives) == 64
        assert analysis.automaton_spine_alternatives(
            parse_xpath(DOS_CHAIN_65).steps) is None
        # One alternative short of the cap, the 65-chain would compile.
        assert analysis.automaton_spine_alternatives(
            parse_xpath(DOS_CHAIN_65).steps, limit=65) is not None

    def test_descent_folding_keeps_slash_slash_chains_linear(self):
        # //a//b compiles to the single alternative (desc a, desc b).
        path = parse_xpath("//a//b")
        alternatives = analysis.automaton_spine_alternatives(path.steps)
        assert alternatives == [
            ((analysis.M_DESC, (analysis.K_NAME, "a")),
             (analysis.M_DESC, (analysis.K_NAME, "b")))]
        assert len(analysis.automaton_spine_alternatives(
            parse_xpath("//a" * 8).steps)) == 1

    def test_classifiers_agree_with_the_compiler(self):
        # is_automaton_compilable must predict the fallback partition
        # exactly — they share one kernel in repro.xpath.analysis.
        from repro.workloads.queries import differential_query_pool
        from repro.xpath.ast import Bottom, iter_union_members
        queries = differential_query_pool(60, seed=21) + [
            "//a" * 8, "/following::a", "/a/following::b", "/",
        ]
        for query in queries:
            path = parse_xpath(query)
            _automaton, fallback = compile_subscription_automaton([(0, path)])
            fallen = {m for m in fallback.get(0, ())}
            for member in iter_union_members(path):
                if isinstance(member, Bottom):
                    continue
                assert analysis.is_automaton_compilable(member) \
                    == (member not in fallen), query

    def test_supported_axes_are_all_forward_axes(self):
        assert Axis.FOLLOWING in analysis.AUTOMATON_SPINE_AXES
        assert Axis.FOLLOWING_SIBLING in analysis.AUTOMATON_SPINE_AXES
        assert Axis.ATTRIBUTE in analysis.AUTOMATON_SPINE_AXES
        assert Axis.PARENT not in analysis.AUTOMATON_SPINE_AXES
        assert Axis.ANCESTOR not in analysis.AUTOMATON_SPINE_AXES


class TestCompilation:
    def test_window_spines_no_longer_fall_back(self):
        automaton, fallback = compile_subscription_automaton([
            (0, parse_xpath("/descendant::a")),
            (1, parse_xpath("/following::a")),
            (2, parse_xpath("/a | /following-sibling::b")),
            (3, parse_xpath("//a" * 8)),
        ])
        assert fallback == {}
        assert automaton.has_window_rules
        assert automaton.state_count() >= 2  # dead + start

    def test_fallback_partition(self):
        automaton, fallback = compile_subscription_automaton([
            (0, parse_xpath("/descendant::a")),
            (1, parse_xpath(DOS_CHAIN_65)),
            (2, parse_xpath(f"/a | {DOS_CHAIN_65}")),
        ])
        assert 0 not in fallback
        assert [str(type(m).__name__) for m in fallback[1]] == ["LocationPath"]
        # Only the exploding member of the union falls back.
        assert len(fallback[2]) == 1
        assert automaton.state_count() >= 2  # dead + start

    def test_alternative_explosion_falls_back(self, forced_fallback):
        # Named descendant-or-self chains fork a shared-prefix alternative
        # per step; past the limit the member routes to the expectation
        # engine — and both routes still agree.
        _automaton, fallback = compile_subscription_automaton(
            [(0, parse_xpath(DOS_CHAIN_65))])
        assert 0 in fallback
        document = Document.from_tree(
            element("a", element("a", element("a"))))
        events = list(document_events(document))
        for query in (DOS_CHAIN_64, DOS_CHAIN_65, "//a" * 8):
            with forced_fallback():
                reference = stream_evaluate(query, events).node_ids
            assert stream_evaluate(query, events).node_ids == reference, query

    def test_trie_sharing_keeps_shared_prefix_fragments_linear(self):
        # The 64 alternatives of the dos-chain share prefixes pairwise; the
        # builder memoizes (state, item) pairs, so the NFA stays linear in
        # the spine length instead of quadratic in the alternative count.
        automaton, fallback = compile_subscription_automaton(
            [(0, parse_xpath(DOS_CHAIN_64))])
        assert fallback == {}
        assert automaton.describe()["nfa_states"] < 4 * 64

    def test_union_members_share_spine_prefixes(self):
        # Ten members over one spine prefix thread through one fragment
        # with per-member accept tags instead of ten parallel chains.
        shared = compile_subscription_automaton(
            [(i, parse_xpath(f"/db/journal/t{i}")) for i in range(10)])[0]
        lone = compile_subscription_automaton(
            [(0, parse_xpath("/db/journal/t0"))])[0]
        per_member = (shared.describe()["nfa_states"]
                      - lone.describe()["nfa_states"])
        # Each extra member may only add its distinguishing final state.
        assert per_member == 9

    def test_relative_member_rejected(self):
        with pytest.raises(StreamingError, match="absolute"):
            compile_subscription_automaton([(0, parse_xpath("child::a"))])

    def test_impossible_spines_compile_to_nothing(self):
        # text() has no children: nothing to match, nothing to fall back to.
        automaton, fallback = compile_subscription_automaton(
            [(0, parse_xpath("/child::text()/child::a"))])
        assert fallback == {}
        document = Document.from_tree(element("a", text("x"), element("a")))
        result = stream_evaluate("/child::text()/child::a",
                                 document_events(document))
        assert result.node_ids == []

    def test_describe_reports_sizes(self):
        index = SubscriptionIndex({"q": "/descendant::a/child::b"})
        matcher = index.matcher()
        document = Document.from_tree(element("a", element("b")))
        matcher.process(document_events(document))
        figures = matcher._automaton.describe()
        assert figures["nfa_states"] > 0
        assert figures["dfa_states"] == matcher.dfa_state_count() > 0
        assert figures["transition_cap"] == DEFAULT_TRANSITION_CAP
        assert figures["evictions"] == 0


class TestLazyMaterialization:
    def test_states_materialize_on_demand_and_are_shared(self):
        index = SubscriptionIndex({"q": "//a/b"})
        document = Document.from_tree(
            element("a", element("b"), element("c", element("a", element("b")))))
        events = list(document_events(document))
        first = index.matcher()
        first.process(events)
        assert first.stats.dfa_states_materialized > 0
        assert first.stats.transition_cache_lookups > 0
        # A second matcher over the same index shares the warmed automaton.
        second = index.matcher()
        second.process(events)
        assert second.stats.dfa_states_materialized == 0
        assert (second.stats.transition_cache_hits
                == second.stats.transition_cache_lookups)
        assert second.dfa_state_count() == first.dfa_state_count()

    def test_bounded_table_evicts_and_stays_correct(self):
        # A cap far below the document's tag diversity forces evictions and
        # continuous on-the-fly subset construction; results must not change.
        document = tagged_sections_document(sections=30, depth=2, seed=4)
        events = list(document_events(document))
        queries = {f"q{i}": f"/child::db/child::t{i:02d}" for i in range(8)}
        capped = SubscriptionIndex(queries, dfa_transition_cap=16)
        roomy = SubscriptionIndex(queries)
        capped_result = capped.evaluate(events)
        roomy_result = roomy.evaluate(events)
        for key in queries:
            assert capped_result[key].node_ids == roomy_result[key].node_ids
        assert capped_result.stats.transition_cache_evictions > 0
        # FIFO eviction alone: the state set stayed under its bound.
        assert capped_result.stats.transition_cache_flushed == 0
        assert roomy_result.stats.transition_cache_evictions == 0

    def test_state_set_is_flushed_when_it_outgrows_its_bound(self):
        # Documents whose ancestor chains keep combining tags in new ways
        # materialize a new DFA state per distinct NFA subset; a long-lived
        # session must flush (and lazily rebuild) instead of growing without
        # bound — and results must not change across the flush.
        import itertools
        import random
        tags = [f"t{i:02d}" for i in range(12)]
        queries = {i: f"//{a}//{b}"
                   for i, (a, b) in enumerate(itertools.islice(
                       itertools.permutations(tags, 2), 24))}
        capped = SubscriptionIndex(queries, dfa_transition_cap=16)
        reference = SubscriptionIndex(queries)
        broker = DocumentBroker(capped)
        rng = random.Random(5)
        flushed_stats = None
        for round_index in range(80):
            chain = rng.sample(tags, 7)
            node = element(chain[-1])
            for tag in reversed(chain[:-1]):
                node = element(tag, node)
            events = list(document_events(Document.from_tree(node)))
            result = broker.submit(round_index, to_xml(
                Document.from_tree(node), indent=0))
            fresh = reference.evaluate(events)
            for key in queries:
                assert result[key].node_ids == fresh[key].node_ids, key
            automaton = broker.session._automaton
            assert automaton.state_count() <= automaton.describe()["state_cap"] \
                + len(chain) + 2
            if automaton.describe()["flushes"] and flushed_stats is None:
                flushed_stats = result.stats
        assert broker.session._automaton.describe()["flushes"] > 0
        assert flushed_stats is not None
        # A bulk flush is counted on its own counter, not as FIFO evictions.
        assert flushed_stats.transition_cache_flushed > 0

    def test_flush_and_fifo_eviction_counters_stay_distinguishable(self):
        # One hand-built stream triggering *both* overflow regimes: a tiny
        # transition cap (16) forces per-entry FIFO evictions while the
        # ever-new ancestor-chain tag combinations outgrow the state bound
        # (64) and force bulk flushes; each lands on its own counter.
        import itertools
        tags = [f"t{i:02d}" for i in range(12)]
        queries = {i: f"//{a}//{b}"
                   for i, (a, b) in enumerate(itertools.islice(
                       itertools.permutations(tags, 2), 24))}
        import random
        index = SubscriptionIndex(queries, dfa_transition_cap=16)
        broker = DocumentBroker(index)
        evicted = flushed = 0
        rng = random.Random(5)
        for round_index in range(80):
            chain = rng.sample(tags, 7)
            node = element(chain[-1])
            for tag in reversed(chain[:-1]):
                node = element(tag, node)
            result = broker.submit(round_index, to_xml(
                Document.from_tree(node), indent=0))
            evicted += result.stats.transition_cache_evictions
            flushed += result.stats.transition_cache_flushed
        assert evicted > 0
        assert flushed > 0

    def test_dead_branches_cost_one_lookup(self):
        # A subscription rooted at a tag the document never opens drives the
        # run into the dead state; everything below short-circuits.
        index = SubscriptionIndex({"q": "/child::nosuch/descendant::a"})
        document = Document.from_tree(
            element("r", element("a", element("a")), element("a")))
        matcher = index.matcher()
        matcher.process(list(document_events(document)))
        # Only the root element's transition is ever computed; the children
        # inherit the dead state without a lookup.
        assert matcher.stats.transition_cache_lookups == 1


class TestQualifierGating:
    def test_expectations_spawn_only_at_structural_matches(
            self, forced_fallback):
        # 40 journals, but only journal elements can open the gate of
        # //journal[child::price]: the expectation engine spawns per event,
        # the automaton once per journal.
        document = journal_document(journals=40, articles_per_journal=2,
                                    authors_per_article=2, seed=5)
        events = list(document_events(document))
        query = "/descendant::journal[child::price]/child::title"
        gated = StreamingMatcher(parse_xpath(query))
        with forced_fallback():
            full = StreamingMatcher(parse_xpath(query))
        assert gated.process(events) == full.process(events)
        assert 0 < gated.stats.expectations_created
        assert (gated.stats.expectations_created
                < full.stats.expectations_created)

    def test_structurally_decided_subscriptions_spawn_nothing(self):
        document = journal_document(journals=10, seed=3)
        events = list(document_events(document))
        matcher = StreamingMatcher(parse_xpath("/descendant::journal/child::title"))
        result = matcher.process(events)
        assert result
        assert matcher.stats.expectations_created == 0
        assert matcher.stats.conditions_created == 0

    def test_sibling_windows_run_without_expectations(self,
                                                      forced_fallback):
        # //title/following-sibling::price used to hand over to the
        # expectation engine mid-spine; the sibling window now compiles and
        # the whole query is decided by the automaton alone.
        document = journal_document(journals=6, seed=2)
        events = list(document_events(document))
        query = "/descendant::title/following-sibling::price"
        dfa = stream_evaluate(query, events)
        with forced_fallback():
            exp = stream_evaluate(query, events)
        assert dfa.node_ids == exp.node_ids != []
        assert dfa.stats.expectations_created == 0
        assert exp.stats.expectations_created > 0

    def test_window_step_with_qualifiers_gates_at_the_window(
            self, forced_fallback):
        # Qualifiers on a sibling-axis step gate like on any other step:
        # the window itself runs on the automaton, only nodes reaching it
        # spawn the qualifier machinery.
        tree = element("r",
                       element("a"),
                       element("b", element("c")),
                       element("b"))
        events = list(document_events(Document.from_tree(tree)))
        query = "/r/a/following-sibling::b[child::c]"
        dfa = stream_evaluate(query, events)
        with forced_fallback():
            exp = stream_evaluate(query, events)
        assert dfa.node_ids == exp.node_ids != []
        assert len(dfa.node_ids) == 1
        # Only the two structurally-reaching b siblings built conditions.
        assert dfa.stats.conditions_created == 2

    def test_attribute_gates_decide_at_start_element(self):
        feed = item_feed_document(items=20, seed=7)
        events = list(document_events(feed))
        index = SubscriptionIndex({"first": '//item[@id="0"]'})
        matcher = index.matcher(matches_only=True)
        result = matcher.process(events)
        assert result["first"].matched
        assert matcher.halted
        assert matcher.stats.events_skipped > 0


class TestSiblingWindows:
    """Close-event arming semantics of compiled following/following-sibling."""

    @pytest.fixture
    def both(self, forced_fallback):
        """Evaluate on both routes; they must agree with the DOM oracle."""
        def run(query, tree):
            events = list(document_events(Document.from_tree(tree)))
            dfa = stream_evaluate(query, events)
            with forced_fallback():
                exp = stream_evaluate(query, events)
            dom = dom_evaluate(query, events)
            assert dfa.node_ids == exp.node_ids == dom.node_ids, query
            return dfa
        return run

    def test_sibling_window_expires_when_the_parent_closes(self, both):
        # The second b is a sibling of the anchor; the third lives outside
        # the anchor's parent and must not match.
        tree = element("r",
                       element("p", element("a"), element("b")),
                       element("b"))
        result = both("//a/following-sibling::b", tree)
        assert len(result.node_ids) == 1

    def test_sibling_window_skips_preceding_siblings(self, both):
        tree = element("r", element("b"), element("a"), element("b"))
        result = both("/r/a/following-sibling::b", tree)
        assert len(result.node_ids) == 1

    def test_following_window_stays_armed_across_depths(self, both):
        # following::b matches everything after the anchor's close,
        # whatever the depth.
        tree = element("r",
                       element("p", element("a"), element("b")),
                       element("q", element("b")),
                       element("b"))
        result = both("//a/following::b", tree)
        assert len(result.node_ids) == 3

    def test_following_excludes_the_anchors_own_subtree(self, both):
        tree = element("r",
                       element("a", element("b")),
                       element("b"))
        result = both("//a/following::b", tree)
        assert len(result.node_ids) == 1

    def test_root_anchored_windows_are_empty(self, both):
        tree = element("r", element("a"))
        assert both("/following::a", tree).node_ids == []
        assert both("/following-sibling::a", tree).node_ids == []

    def test_text_anchors_arm_at_the_text_event(self, both):
        # Text nodes have no close event; their windows arm immediately.
        tree = element("r", text("x"), element("b"))
        assert len(both("//following::b", tree).node_ids) == 1
        assert len(both(
            "//text()/following-sibling::b", tree).node_ids) == 1

    def test_windows_continue_into_ordinary_steps(self, both):
        tree = element("r",
                       element("a"),
                       element("b", element("c"), element("d")))
        result = both("/r/a/following-sibling::b/c", tree)
        assert len(result.node_ids) == 1

    def test_first_step_window_members_run_without_wholesale_fallback(self):
        # Acceptance criterion: first-step following/following-sibling
        # members and deep //-windows compile — the fallback trie is empty.
        from repro.workloads.queries import differential_query_pool
        pool = differential_query_pool(120, seed=3)
        assert any("following" in query for query in pool)
        _automaton, fallback = compile_subscription_automaton(
            [(ordinal, parse_xpath(query))
             for ordinal, query in enumerate(pool)])
        assert fallback == {}

    def test_window_queries_leave_no_expectation_residue(self):
        index = SubscriptionIndex({0: "//a/following::b",
                                   1: "/r/a/following-sibling::b"})
        matcher = index.matcher()
        tree = element("r", element("a"), element("b"))
        matcher.process(list(document_events(Document.from_tree(tree))))
        assert matcher.stats.expectations_created == 0
        sizes = matcher.registry_sizes()
        assert all(size == 0 for size in sizes.values()), sizes


class TestRootAccepts:
    def test_root_only_path(self):
        document = Document.from_tree(element("a"))
        assert stream_evaluate("/", document_events(document)).node_ids == [0]

    def test_root_gate(self, forced_fallback):
        # A qualifier on the very first step gates at the document root.
        document = Document.from_tree(element("a", element("b")))
        events = list(document_events(document))
        for query in ("/descendant-or-self::node()[child::a]",
                      "/child::a[child::b]"):
            dfa = stream_evaluate(query, events).node_ids
            with forced_fallback():
                exp = stream_evaluate(query, events).node_ids
            assert dfa == exp, query
