"""The analyze() front-end and Figure 1's separations."""

import pytest

from repro.chase import chase
from repro.chase.strategies import StratifiedStrategy
from repro.lang.parser import parse_constraints
from repro.termination import (is_c_stratified, is_inductively_restricted,
                               is_safe, is_safely_restricted, is_stratified,
                               is_weakly_acyclic, PrecedenceOracle, t_level)
from repro.termination.report import analyze, CONDITIONS
from repro.workloads.paper import (example2_gamma, example4, example8_beta,
                                   example13, figure2, intro_alpha1,
                                   intro_alpha2, NAMED_SETS)


class TestAnalyze:
    def test_weakly_acyclic_set(self):
        report = analyze(intro_alpha1(), max_k=2)
        assert report.weakly_acyclic and report.safe
        assert report.stratified and report.c_stratified
        assert report.inductively_restricted
        assert report.guarantees_all_sequences

    def test_divergent_set(self):
        report = analyze(intro_alpha2(), max_k=2)
        assert not any(getattr(report, name) for name in CONDITIONS)
        assert report.t_hierarchy_level is None
        assert not report.guarantees_some_sequence

    def test_example4_only_stratified(self):
        report = analyze(example4(), max_k=2)
        assert report.stratified
        assert not report.c_stratified
        assert not report.inductively_restricted
        assert not report.guarantees_all_sequences
        assert report.guarantees_some_sequence
        assert report.recommended_strategy() is not None

    def test_safe_not_stratified(self):
        report = analyze(example8_beta(), max_k=2)
        assert report.safe and not report.weakly_acyclic
        assert report.recommended_strategy() is None

    def test_figure2_needs_t3(self):
        report = analyze(figure2(), max_k=3)
        assert not any(getattr(report, name) for name in CONDITIONS)
        assert report.t_hierarchy_level == 3
        assert report.guarantees_all_sequences

    def test_render_is_complete(self):
        text = analyze(example13(), max_k=2).render()
        for name in CONDITIONS:
            assert name in text
        assert "t_hierarchy" in text

    def test_as_row(self):
        row = analyze(example13(), max_k=2).as_row()
        assert row["inductively_restricted"] is True
        assert row["safe"] is False
        assert row["t_level"] == 2


class TestReportIdentity:
    """Value semantics, fingerprints and the analyze() memo (PR 4)."""

    def test_reports_are_value_objects(self):
        from repro.lang.parser import parse_constraints
        left = analyze(parse_constraints("S(x) -> E(x, y)"), max_k=2)
        right = analyze(parse_constraints("S(x) -> E(x, y)"), max_k=2)
        assert left == right
        assert hash(left) == hash(right)
        other = analyze(parse_constraints("S(x) -> E(y, x)"), max_k=2)
        assert left != other

    def test_fingerprint_ignores_order_and_labels_not_content(self):
        from repro.lang.parser import parse_constraints
        forward = analyze(parse_constraints(
            "a: S(x) -> E(x, y)\nb: E(x, y) -> T(y)"))
        backward = analyze(parse_constraints(
            "E(x, y) -> T(y)\nS(x) -> E(x, y)"))
        assert forward.fingerprint() == backward.fingerprint()
        deeper = analyze(parse_constraints(
            "a: S(x) -> E(x, y)\nb: E(x, y) -> T(y)"), max_k=5)
        assert forward.fingerprint() != deeper.fingerprint()
        other = analyze(parse_constraints("S(x) -> E(x, x)"))
        assert forward.fingerprint() != other.fingerprint()

    def test_analyze_is_memoized(self):
        from repro.termination.report import (analyze_cache_info,
                                              clear_analyze_cache)
        clear_analyze_cache()
        sigma = example4()
        first = analyze(sigma, max_k=2)
        before = analyze_cache_info().hits
        second = analyze(list(sigma), max_k=2)
        assert second is first
        assert analyze_cache_info().hits == before + 1
        # A different probe depth is a different memo entry.
        assert analyze(sigma, max_k=3) is not first
        clear_analyze_cache()


class TestLazyReport:
    """analyze() decides only what planning reads, cheapest condition
    first; every other verdict waits for its first read."""

    def test_weakly_acyclic_set_runs_no_precedence_search(self):
        oracle = PrecedenceOracle()
        report = analyze(intro_alpha1(), max_k=3, oracle=oracle)
        assert report.guarantees_some_sequence
        assert oracle.searches == 0
        text = report.render()
        assert oracle.searches > 0
        for name in CONDITIONS:
            assert f"  {name:<24}: True" in text
        assert "T[2]" in text

    def test_only_stratified_set_skips_safe_restriction(self):
        oracle = PrecedenceOracle()
        report = analyze(example4(), max_k=3, oracle=oracle)
        assert report.guarantees_some_sequence
        assert "stratified" in report._verdicts
        assert "safely_restricted" not in report._verdicts
        # Stratification is decided before the T[3..k] probe, which a
        # stratified set does not need.
        assert "t_hierarchy_level" not in report._verdicts

    def test_adversarial_set_is_planned_within_the_node_budget(self):
        """Fuzz seed 0, case 47: two constraints whose analysis ran for
        minutes under an effectively unbounded budget.  The default
        budget cuts searches short, and the report takes their
        conservative answers."""
        sigma = parse_constraints(
            "f0: R1(x, x) -> R0(x, y, x), R1(y, y)\n"
            "f1: R0(x0, x1, x2), R0(x0, z1, z2) -> x2 = z2")
        oracle = PrecedenceOracle()
        with pytest.warns(RuntimeWarning):
            report = analyze(sigma, max_k=3, oracle=oracle)
        assert not report.guarantees_some_sequence
        assert oracle.exhausted > 0
        assert oracle.nodes == 47_398

    def test_equality_ranges_over_constraints_and_probe_depth(self):
        lazy = analyze(example13(), max_k=2, oracle=PrecedenceOracle())
        decided = analyze(example13(), max_k=2, oracle=PrecedenceOracle())
        decided.as_row()
        assert lazy == decided and hash(lazy) == hash(decided)
        assert lazy != analyze(example13(), max_k=3)

    @pytest.mark.parametrize("name", sorted(NAMED_SETS))
    def test_verdicts_equal_the_condition_functions(self, name):
        sigma = NAMED_SETS[name][0]()
        report = analyze(sigma, max_k=3, oracle=PrecedenceOracle())
        oracle = PrecedenceOracle()
        direct = {
            "weakly_acyclic": is_weakly_acyclic(sigma),
            "safe": is_safe(sigma),
            "c_stratified": is_c_stratified(sigma, oracle),
            "stratified": is_stratified(sigma, oracle),
            "safely_restricted": is_safely_restricted(sigma, oracle),
            "inductively_restricted": is_inductively_restricted(sigma,
                                                                oracle),
        }
        level = t_level(sigma, 3, oracle)
        every = (direct["weakly_acyclic"] or direct["safe"]
                 or direct["c_stratified"]
                 or direct["inductively_restricted"] or level is not None)
        assert report.guarantees_all_sequences == every
        assert report.guarantees_some_sequence \
            == (every or direct["stratified"])
        strategy = report.recommended_strategy()
        certified = (direct["weakly_acyclic"] or direct["safe"]
                     or direct["c_stratified"]
                     or direct["inductively_restricted"])
        if direct["stratified"] and not certified:
            assert isinstance(strategy, StratifiedStrategy)
        else:
            assert strategy is None
        assert {condition: getattr(report, condition)
                for condition in CONDITIONS} == direct
        assert report.t_hierarchy_level == level
