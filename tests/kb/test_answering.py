"""Certain-answer computation and the depth-bounded chase."""

import pytest

from repro.chase import chase
from repro.kb.answering import (certain_answers, default_depth,
                                depth_bounded_chase)
from repro.kb.guarded_null import (sequence_has_guarded_nulls,
                                   step_has_guarded_nulls)
from repro.kb.treewidth import (gaifman_graph, lemma6_bound,
                                treewidth_upper_bound)
from repro.lang.parser import (parse_constraints, parse_instance,
                               parse_query)
from repro.lang.terms import Constant


class TestDepthBoundedChase:
    def test_truncates_divergent_chase(self):
        sigma = parse_constraints("S(x) -> E(x,y), S(y)")
        inst = parse_instance("S(a)")
        bounded = depth_bounded_chase(inst, sigma, depth_limit=3)
        assert bounded.truncated
        assert all(d <= 3 for d in bounded.null_depths.values())
        # exactly 3 generations of nulls
        assert len(bounded.instance.nulls()) == 3

    def test_exact_on_terminating_sets(self):
        sigma = parse_constraints("S(x) -> E(x,y)")
        inst = parse_instance("S(a). S(b)")
        bounded = depth_bounded_chase(inst, sigma, depth_limit=5)
        assert not bounded.truncated
        exact = chase(inst, sigma)
        assert len(bounded.instance) == len(exact.instance)

    def test_depth_respects_provenance(self):
        sigma = parse_constraints("S(x) -> E(x,y), S(y)")
        bounded = depth_bounded_chase(parse_instance("S(a)"), sigma, 2)
        depths = sorted(bounded.null_depths.values())
        assert depths == [1, 2]

    def test_fact_budget_truncates_earlier(self):
        sigma = parse_constraints("S(x) -> E(x,y), S(y)")
        inst = parse_instance("S(a)")
        capped = depth_bounded_chase(inst, sigma, depth_limit=50,
                                     max_facts=5)
        assert capped.truncated and len(capped.instance) <= 7

    def test_step_cap_truncates(self):
        sigma = parse_constraints("S(x) -> E(x,y), S(y)")
        capped = depth_bounded_chase(parse_instance("S(a)"), sigma,
                                     depth_limit=50, max_steps=3)
        assert capped.steps == 3 and capped.truncated

    def test_fixpoint_at_the_budgets_is_not_truncated(self):
        """Budgets only cut short a prefix that still has an active
        trigger: two steps reach the fixpoint at four facts."""
        sigma = parse_constraints("S(x) -> T(x)")
        inst = parse_instance("S(a). S(b)")
        for budgets in ({"max_facts": 4}, {"max_steps": 2}):
            bounded = depth_bounded_chase(inst, sigma, depth_limit=5,
                                          **budgets)
            assert not bounded.truncated, budgets
            assert bounded.steps == 2 and len(bounded.instance) == 4

    def test_wall_clock_budget_truncates(self):
        sigma = parse_constraints("S(x) -> E(x,y), S(y)")
        inst = parse_instance("S(a)")
        capped = depth_bounded_chase(inst, sigma, depth_limit=10_000,
                                     max_steps=1_000_000, wall_clock=0.0)
        assert capped.truncated and capped.steps <= 1


class TestCertainAnswers:
    def test_exact_path(self):
        sigma = parse_constraints("E(x,y) -> E(y,x)")
        inst = parse_instance("E(a,b)")
        q = parse_query("q(x,y) <- E(x,y)")
        answers = certain_answers(inst, sigma, q)
        assert answers == {(Constant("a"), Constant("b")),
                           (Constant("b"), Constant("a"))}

    def test_divergent_kb_constant_answers(self):
        """On the divergent intro set, constants-only answers are still
        computed from the bounded prefix."""
        sigma = parse_constraints("S(x) -> E(x,y), S(y)")
        inst = parse_instance("S(a). E(a,b). S(b)")
        q = parse_query("q(u) <- S(u)")
        answers = certain_answers(inst, sigma, q, max_steps=60)
        assert answers == {(Constant("a"),), (Constant("b"),)}

    def test_join_through_nulls(self):
        """A query that joins through a null witness but outputs
        constants is answerable on the prefix."""
        sigma = parse_constraints("S(x) -> E(x,y), S(y)")
        inst = parse_instance("S(a)")
        q = parse_query("q(u) <- S(u), E(u, v)")
        answers = certain_answers(inst, sigma, q, max_steps=40)
        assert answers == {(Constant("a"),)}

    def test_default_depth_scales_with_query(self):
        sigma = parse_constraints("S(x) -> E(x,y)")
        small = parse_query("q(u) <- S(u)")
        large = parse_query("q(u) <- S(u), E(u,v), E(v,w)")
        assert default_depth(large, sigma) > default_depth(small, sigma)


class TestGuardedNullProperty:
    def test_guarded_run(self):
        sigma = parse_constraints("R(x,y), S(y) -> R(y,z)")
        inst = parse_instance("R(a,b). S(b)")
        result = chase(inst, sigma, max_steps=100)
        assert sequence_has_guarded_nulls(result.sequence, inst)

    def test_unguarded_step_detected(self):
        # alpha2's trigger can split two nulls across body atoms
        sigma = parse_constraints("""
            P(x) -> E(x,y), F(x,z);
            E(x,y), F(x,z) -> G(y,z)
        """)
        inst = parse_instance("P(a)")
        result = chase(inst, sigma, max_steps=100)
        assert result.terminated
        assert not sequence_has_guarded_nulls(result.sequence, inst)

    def test_base_nulls_exempt(self):
        """Nulls already in dom(I) do not need guarding (Def. 21)."""
        sigma = parse_constraints("E(x,y), F(x,z) -> G(y,z)")
        inst = parse_instance("E(a,?n1). F(a,?n2)")
        result = chase(inst, sigma, max_steps=10)
        assert sequence_has_guarded_nulls(result.sequence, inst)


class TestTreewidth:
    def test_gaifman_graph(self):
        inst = parse_instance("E(a,b). E(b,c)")
        graph = gaifman_graph(inst)
        assert graph.has_edge(Constant("a"), Constant("b"))
        assert not graph.has_edge(Constant("a"), Constant("c"))

    def test_path_has_treewidth_one(self):
        inst = parse_instance("E(a,b). E(b,c). E(c,d)")
        assert treewidth_upper_bound(inst) == 1

    def test_lemma6_bound_holds_on_guarded_chase(self):
        sigma = parse_constraints("R(x,y), S(y) -> R(y,z)")
        inst = parse_instance("R(a,b). S(b). S(a)")
        result = chase(inst, sigma, max_steps=200)
        assert result.terminated
        assert sequence_has_guarded_nulls(result.sequence, inst)
        assert treewidth_upper_bound(result.instance) <= lemma6_bound(inst, 2)
