"""Tests for the firing relations < (Def. 2), <_c (Def. 4),
<_P (Def. 10) and <_k,P (Def. 14)."""

import pytest

from repro.lang.atoms import Position
from repro.lang.parser import parse_constraint, parse_constraints
from repro.termination.precedence import (ORACLE, PrecedenceOracle,
                                          precedes, precedes_c, precedes_k,
                                          precedes_p)
from repro.workloads.families import sigma_family
from repro.workloads.paper import example4, example10, example13, figure2

E1, E2, S1 = Position("E", 1), Position("E", 2), Position("S", 1)


class TestStandardPrecedes:
    def test_example2_no_self_edge(self):
        gamma = parse_constraint(
            "E(x1,x2), E(x2,x1) -> E(x1,y1), E(y1,y2), E(y2,x1)")
        assert not precedes(gamma, gamma)

    def test_chain_fires(self):
        a, b = parse_constraints("S(x) -> T(x); T(x) -> U(x)")
        assert precedes(a, b)
        assert not precedes(b, a)

    def test_example4_figure4_edges(self):
        a1, a2, a3, a4 = example4()
        assert precedes(a1, a2)
        assert precedes(a1, a3)
        assert precedes(a3, a4)
        assert precedes(a4, a1)
        # the decisive non-edge: alpha2's fresh null can never complete
        # a new alpha4 trigger under the *standard* step
        assert not precedes(a2, a4)

    def test_self_loop_on_generating_constraint(self):
        alpha2 = parse_constraint("S(x) -> E(x,y), S(y)")
        assert precedes(alpha2, alpha2)


class TestCPrecedes:
    def test_example6_no_self_edge(self):
        gamma = parse_constraint(
            "E(x1,x2), E(x2,x1) -> E(x1,y1), E(y1,y2), E(y2,x1)")
        assert not precedes_c(gamma, gamma)

    def test_example7_figure5_extra_edge(self):
        """The corrected oblivious relation gives alpha2 its successor."""
        a1, a2, a3, a4 = example4()
        assert precedes_c(a2, a4)

    def test_printed_variant_misses_example7(self):
        """Definition 4 as printed (with condition (i)) does NOT
        produce the edge -- the erratum-of-the-erratum documented in
        docs/PAPER_MAP.md."""
        a1, a2, a3, a4 = example4()
        assert not precedes_c(a2, a4, printed_variant=True)

    def test_c_extends_standard(self):
        """alpha < beta implies alpha <_c beta on the paper sets
        (the oblivious step subsumes the standard one)."""
        for sigma in (example4(), example10()):
            for alpha in sigma:
                for beta in sigma:
                    if precedes(alpha, beta):
                        assert precedes_c(alpha, beta)


class TestPositionalPrecedes:
    def test_example12_facts(self):
        a1, a2 = example10()
        assert precedes_p(a2, a1, [])
        assert not precedes_p(a1, a1, [E1, E2])
        assert not precedes_p(a1, a2, [E1, E2])
        assert not precedes_p(a2, a2, [E1, E2])

    def test_example13_s1_enables_edge(self):
        a1, a2 = example10()
        assert precedes_p(a1, a2, [E1, E2, S1])

    def test_empty_body_constraint_fires_everything(self):
        a1, a2, a3 = example13()
        assert precedes_p(a3, a1, [])
        assert precedes_p(a3, a2, [])
        assert not precedes_p(a3, a3, [])  # no universal head params

    def test_monotone_in_p(self):
        a1, a2 = example10()
        # a2 <_0 a1 holds, so it holds for every larger P
        assert precedes_p(a2, a1, [E1])
        assert precedes_p(a2, a1, [E1, E2, S1])


class TestChainRelation:
    def test_figure2_frontier(self):
        (alpha,) = figure2()
        assert precedes_k((alpha, alpha), [])
        assert not precedes_k((alpha, alpha, alpha), [])

    def test_sigma3_frontier_positive(self):
        (alpha,) = sigma_family(3)
        assert precedes_k((alpha, alpha), [])
        assert precedes_k((alpha, alpha, alpha), [])

    @pytest.mark.slow
    def test_sigma3_frontier_negative(self):
        (alpha,) = sigma_family(3)
        assert not precedes_k((alpha,) * 4, [])

    def test_sigma4_positive(self):
        (alpha,) = sigma_family(4)
        assert precedes_k((alpha,) * 4, [])

    def test_k2_equals_precedes_p(self):
        a1, a2 = example10()
        for p in ([], [E1, E2], [E1, E2, S1]):
            for x in (a1, a2):
                for y in (a1, a2):
                    assert precedes_k((x, y), p) == precedes_p(x, y, p)

    def test_chain_needs_two_constraints(self):
        (alpha,) = figure2()
        with pytest.raises(ValueError):
            precedes_k((alpha,), [])

    def test_relation_level_prefilter(self):
        """Chains over disjoint relations are rejected instantly."""
        a = parse_constraint("P(x) -> Q(x,y)")
        b = parse_constraint("Z(x) -> W(x,y)")
        assert not precedes_k((a, b), [])
        assert not precedes_k((a, a, b), [])


class TestOracleCaching:
    def test_results_cached(self):
        oracle = PrecedenceOracle()
        a1, a2 = example10()
        first = oracle.precedes_p(a2, a1, [])
        assert oracle.precedes_p(a2, a1, []) == first
        # monotone shortcut: cached True at empty P answers larger P
        assert oracle.precedes_p(a2, a1, [E1, E2]) is True

    def test_budget_exhaustion_is_conservative(self):
        oracle = PrecedenceOracle(node_budget=10)
        (alpha,) = sigma_family(3)
        with pytest.warns(RuntimeWarning):
            assert oracle.precedes_k((alpha, alpha, alpha), []) is True


class TestSearchCleanup:
    def test_exception_during_backtracking_reaches_the_caller(
            self, monkeypatch):
        """An exception raised while the search unwinds its generators
        after a witness (an oracle deadline firing in an undo, say)
        must reach the caller.  A generator left to the collector would
        run that undo during deallocation, where CPython prints and
        drops the exception, and the search would answer True."""
        from repro.termination import precedence

        class Interrupt(BaseException):
            pass

        witnessed = []
        real_final_conditions = precedence._final_conditions
        real_undo = precedence._Ctx.undo_i_fact

        def final_conditions(*args):
            verdict = real_final_conditions(*args)
            witnessed.append(verdict)
            return verdict

        def undo_i_fact(ctx, token):
            if any(witnessed):
                raise Interrupt
            real_undo(ctx, token)

        monkeypatch.setattr(precedence, "_final_conditions",
                            final_conditions)
        monkeypatch.setattr(precedence._Ctx, "undo_i_fact", undo_i_fact)
        a, b = parse_constraints("S(x) -> T(x); T(x) -> U(x)")
        with pytest.raises(Interrupt):
            precedence._search((a, b), None, True,
                               precedence.DEFAULT_NODE_BUDGET)
        assert any(witnessed)
