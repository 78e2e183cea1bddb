"""The T-hierarchy (Section 3.6) and Figure 8's check algorithm."""

import pytest
from hypothesis import given, settings

from repro.lang.parser import parse_constraints
from repro.termination.hierarchy import check, in_t_level, sub, t_level
from repro.termination.precedence import PrecedenceOracle
from repro.termination.restriction import is_inductively_restricted
from repro.workloads.families import sigma_family
from repro.workloads.paper import (example4, example8_beta, example13,
                                   figure2, section37_sigma_double_prime)

from tests.conftest import graph_tgd_sets


class TestTLevels:
    def test_t2_equals_inductive_restriction_prop5a(self):
        for sigma in (example13(), example8_beta(), example4(),
                      figure2()):
            assert in_t_level(sigma, 2) == is_inductively_restricted(sigma)

    def test_figure2_in_t3_not_t2(self):
        sigma = figure2()
        assert not in_t_level(sigma, 2)
        assert in_t_level(sigma, 3)
        assert t_level(sigma, max_k=3) == 3

    def test_monotone_in_k_prop5b(self):
        sigma = example13()
        assert in_t_level(sigma, 2)
        assert in_t_level(sigma, 3)  # T[2] subseteq T[3]

    def test_example4_outside_low_levels(self):
        assert t_level(example4(), max_k=2) is None

    def test_invalid_level_rejected(self):
        with pytest.raises(ValueError):
            in_t_level(figure2(), 1)
        with pytest.raises(ValueError):
            check(figure2(), 0)

    @pytest.mark.slow
    def test_sigma3_frontier_prop5c(self):
        """Sigma_3 in T[4] \\ T[3]: the strict-hierarchy witness.  Its
        exhaustive 4-chain search spends 311,953 nodes."""
        sigma = sigma_family(3)
        oracle = PrecedenceOracle(node_budget=1_000_000)
        assert not in_t_level(sigma, 3, oracle)
        assert in_t_level(sigma, 4, oracle)


class TestCheckAlgorithm:
    def test_check_matches_literal_definition(self):
        """Proposition 6 on the paper corpus."""
        for sigma in (example13(), example8_beta(), figure2(),
                      section37_sigma_double_prime()):
            for k in (2, 3):
                assert check(sigma, k) == in_t_level(sigma, k), (
                    f"check disagrees with Def. 16 on "
                    f"{[c.label for c in sigma]} at k={k}")

    def test_section37_walkthrough(self):
        """Sigma'' is inductively restricted via the safety fast-path
        on {a5} (Section 3.7's worked example)."""
        sigma = section37_sigma_double_prime()
        assert check(sigma, 2)

    def test_safety_fast_path(self):
        """sub() certifies a safe set without computing the system."""
        assert sub(frozenset(example8_beta()), 2)

    def test_check_false_on_divergent_set(self):
        sigma = parse_constraints("S(x) -> E(x,y), S(y)")
        assert not check(sigma, 2)
        assert not check(sigma, 3)

    @given(graph_tgd_sets(max_size=2))
    @settings(max_examples=8, deadline=None)
    def test_check_equals_definition_property(self, sigma):
        assert check(sigma, 2) == in_t_level(sigma, 2)
