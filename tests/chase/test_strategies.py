"""Strategy tests, centred on Example 4/5 and Theorem 2."""

import pytest

from repro.chase import (chase, ChaseStatus, OrderedStrategy,
                         RoundRobinStrategy, StratifiedStrategy)
from repro.homomorphism.extend import all_satisfied
from repro.lang.parser import parse_constraints, parse_instance
from repro.termination.stratification import (chase_strata,
                                              stratified_strategy)
from repro.workloads.paper import (example4, example4_instance,
                                   example5_instance)


class TestExample4:
    """The paper's refutation of [9]: a stratified set whose naive
    chase diverges but whose Theorem 2 stratum order terminates."""

    def test_round_robin_diverges(self):
        result = chase(example4_instance(), example4(),
                       strategy=RoundRobinStrategy(), max_steps=400)
        assert result.status is ChaseStatus.EXCEEDED_BUDGET

    def test_ordered_strategy_diverges(self):
        result = chase(example4_instance(), example4(),
                       strategy=OrderedStrategy(), max_steps=400)
        assert result.status is ChaseStatus.EXCEEDED_BUDGET

    def test_theorem2_strategy_terminates(self):
        sigma = example4()
        strategy = stratified_strategy(sigma, verify=True)
        result = chase(example4_instance(), sigma, strategy=strategy,
                       max_steps=400)
        assert result.terminated
        assert all_satisfied(sigma, result.instance)

    def test_theorem2_on_example5_instance(self):
        """Example 5 chases {R(a), T(b,b)} to completion in 5 steps."""
        sigma = example4()
        strategy = stratified_strategy(sigma)
        result = chase(example5_instance(), sigma, strategy=strategy,
                       max_steps=400)
        assert result.terminated
        assert all_satisfied(sigma, result.instance)
        # the cycle {a1, a3, a4} precedes {a2} in the strata
        strata = chase_strata(sigma)
        labels = [sorted(c.label for c in stratum) for stratum in strata]
        assert labels.index(["a1", "a3", "a4"]) < labels.index(["a2"])

    def test_strata_partition_sigma(self):
        sigma = example4()
        strata = chase_strata(sigma)
        flattened = [c for stratum in strata for c in stratum]
        assert sorted(c.label for c in flattened) == ["a1", "a2", "a3", "a4"]


class TestStratifiedStrategyValidation:
    def test_rejects_non_covering_strata(self):
        sigma = parse_constraints("a: S(x) -> E(x,y); b: E(x,y) -> E(y,x)")
        strategy = StratifiedStrategy([[sigma[0]]])
        with pytest.raises(ValueError):
            chase(parse_instance("S(a)"), sigma, strategy=strategy)

    @pytest.mark.parametrize("naive", [False, True], ids=["index", "naive"])
    def test_rejects_strata_outside_sigma(self, naive):
        """A stratum naming a constraint outside Sigma is refused before
        any step, not chased as if it were part of Sigma."""
        a, b = parse_constraints("a: S(x) -> T(x)\nb: T(x) -> U(x)")
        strategy = StratifiedStrategy([[a], [b]])
        with pytest.raises(ValueError, match="outside the constraint "
                                             "set: b"):
            chase(parse_instance("S(c)"), [a], strategy=strategy,
                  naive=naive)

    def test_single_stratum_behaves_like_ordered(self):
        sigma = parse_constraints("S(x) -> E(x,y)")
        strategy = StratifiedStrategy([sigma])
        result = chase(parse_instance("S(a)"), sigma, strategy=strategy)
        assert result.terminated
