"""TriggerIndex tests: unit behaviour + naive/incremental cross-validation.

The incremental (semi-naive) chase must be indistinguishable from the
naive reference path up to the classical order-independence guarantees:
identical statuses, and homomorphically equivalent results for
terminating runs (``null_renaming_equivalent``, Section 2).
"""

import pytest
from hypothesis import given, settings

from repro.chase import (chase, ChaseStatus, oblivious_chase,
                         OrderedStrategy, RandomStrategy, RoundRobinStrategy,
                         TriggerIndex)
from repro.homomorphism.engine import null_renaming_equivalent
from repro.homomorphism.extend import all_satisfied
from repro.lang.instance import Instance
from repro.lang.parser import parse_constraints, parse_instance
from repro.termination.stratification import stratified_strategy
from repro.workloads.families import (bounded_null_cascade, chain_instance,
                                      cycle_instance, example9_instance,
                                      full_tgd_chain, prop11_family,
                                      special_nodes_instance)
from repro.workloads.paper import (example2_gamma, example4,
                                   example4_instance, example5_instance,
                                   example8_beta, example13, figure2,
                                   intro_alpha1, intro_alpha2,
                                   intro_instance)

from tests.conftest import (graph_instances, graph_tgd_sets,
                            reference_satisfied)


#: A data-exchange mapping with a key EGD: every author occurrence gets
#: a fresh person null, and the EGD merges the nulls of equal names.
#: Names repeat across publications, and one publication lists the
#: same name twice.
KEY_EGD_AUTHORS = (
    parse_constraints("m4: author(k, i, n) -> Wrote(k, i, a), Person(a, n);"
                      "e2: Person(a1, n), Person(a2, n) -> a1 = a2"),
    parse_instance("author(p1, 1, ann). author(p1, 2, bob). "
                   "author(p2, 1, bob). author(p2, 2, ann). "
                   "author(p3, 1, cy). author(p3, 2, ann). "
                   "author(p4, 1, cy). author(p4, 2, cy)"))

# Every workload family the repo benchmarks, as (sigma, instance) pairs.
FAMILIES = [
    ("intro_alpha1", intro_alpha1(), intro_instance()),
    ("intro_alpha2_divergent", intro_alpha2(), intro_instance()),
    ("figure2", figure2(), special_nodes_instance(8)),
    ("example2_gamma", example2_gamma(), cycle_instance(6)),
    ("example4_divergent", example4(), example4_instance()),
    ("example4_on_example5", example4(), example5_instance()),
    ("example8_beta", example8_beta(), example9_instance(8)),
    ("example13", example13(), special_nodes_instance(6, spacing=2)),
    ("full_tgd_chain", full_tgd_chain(5), chain_instance(6, "R0")),
    ("null_cascade", bounded_null_cascade(4),
     parse_instance("L0(a). L0(b)")),
    ("prop11", *prop11_family(3)),
    ("egd_merge", parse_constraints("E(x,y), E(x,z) -> y = z"),
     parse_instance("E(a,b). E(a,?n1). E(?n1,c)")),
    ("egd_failure", parse_constraints("E(x,y), E(x,z) -> y = z"),
     parse_instance("E(a,b). E(a,c)")),
    ("egd_tgd_interplay",
     parse_constraints("S(x) -> E(x,y); E(x,y), E(x,z) -> y = z"),
     parse_instance("S(a). E(a,b). S(b)")),
    ("key_egd_authors", *KEY_EGD_AUTHORS),
]


@pytest.mark.parametrize("name,sigma,instance", FAMILIES,
                         ids=[f[0] for f in FAMILIES])
@pytest.mark.parametrize("strategy_factory",
                         [OrderedStrategy, RoundRobinStrategy],
                         ids=["ordered", "round_robin"])
def test_incremental_matches_naive(name, sigma, instance, strategy_factory):
    """Same status as the naive path; equivalent result on termination."""
    incremental = chase(instance, sigma, strategy=strategy_factory(),
                        max_steps=300)
    naive = chase(instance, sigma, strategy=strategy_factory(),
                  max_steps=300, naive=True)
    assert incremental.status is naive.status
    if incremental.terminated:
        assert all_satisfied(sigma, incremental.instance)
        assert null_renaming_equivalent(incremental.instance, naive.instance)


@pytest.mark.parametrize("engine", ["plan", "reference"])
def test_key_egd_mapping_matches_naive(engine):
    """The id-level trigger path against the naive path: one person
    per name, and a model by the join plans' search or, independently,
    by the reference search."""
    satisfied = all_satisfied if engine == "plan" else reference_satisfied
    sigma, source = KEY_EGD_AUTHORS
    instance = Instance(source)
    for strategy_factory in (OrderedStrategy, RoundRobinStrategy):
        incremental = chase(instance, sigma, strategy=strategy_factory())
        naive = chase(instance, sigma, strategy=strategy_factory(),
                      naive=True)
        assert incremental.terminated and naive.terminated
        assert satisfied(sigma, incremental.instance)
        assert null_renaming_equivalent(incremental.instance,
                                        naive.instance)
        assert len(incremental.instance.facts("Person")) == 3


@pytest.mark.parametrize("name,sigma,instance", FAMILIES,
                         ids=[f[0] for f in FAMILIES])
def test_oblivious_incremental_matches_naive(name, sigma, instance):
    """The queue-driven oblivious chase agrees with restart-enumeration."""
    incremental = oblivious_chase(instance, sigma, max_steps=200)
    naive = oblivious_chase(instance, sigma, max_steps=200, naive=True)
    assert incremental.status is naive.status
    if incremental.terminated:
        assert incremental.length == naive.length
        assert null_renaming_equivalent(incremental.instance, naive.instance)


def test_stratified_cross_validation():
    """Theorem 2's stratum order terminates identically on both paths."""
    sigma = example4()
    incremental = chase(example4_instance(), sigma,
                        strategy=stratified_strategy(sigma, verify=True),
                        max_steps=400)
    naive = chase(example4_instance(), sigma,
                  strategy=stratified_strategy(sigma, verify=True),
                  max_steps=400, naive=True)
    assert incremental.terminated and naive.terminated
    assert null_renaming_equivalent(incremental.instance, naive.instance)


class TestPropertyCrossValidation:
    @given(graph_tgd_sets(max_size=2), graph_instances())
    @settings(max_examples=25, deadline=None)
    def test_random_tgd_sets_agree(self, sigma, inst):
        # Budget kept small: the *naive* reference side is quadratic in
        # the step count on divergent sets.
        incremental = chase(inst, sigma, strategy=OrderedStrategy(),
                            max_steps=80)
        naive = chase(inst, sigma, strategy=OrderedStrategy(),
                      max_steps=80, naive=True)
        assert incremental.status is naive.status
        if incremental.terminated:
            assert all_satisfied(sigma, incremental.instance)
            assert null_renaming_equivalent(incremental.instance,
                                            naive.instance)

    @given(graph_tgd_sets(max_size=2, allow_existential=False),
           graph_instances())
    @settings(max_examples=30, deadline=None)
    def test_random_strategy_incremental_sound(self, sigma, inst):
        result = chase(inst, sigma, strategy=RandomStrategy(seed=11),
                       max_steps=2000)
        assert result.terminated
        assert all_satisfied(sigma, result.instance)


class TestEdgeCases:
    def test_empty_body_tgd_fires_from_empty_instance(self):
        """Axiom TGDs (empty body) must be seeded explicitly: their
        empty homomorphism uses no fact, so no delta discovers it."""
        from repro.lang.atoms import Atom
        from repro.lang.constraints import TGD
        from repro.lang.instance import Instance
        from repro.lang.terms import Constant
        sigma = [TGD([], [Atom("S", (Constant("c"),))], label="axiom")]
        for naive in (False, True):
            result = chase(Instance(), sigma, naive=naive)
            assert result.terminated and result.length == 1
            assert len(result.instance) == 1

    def test_cross_product_body_cross_validates(self):
        """Disconnected (cross-product) bodies explode the homomorphism
        space; the lazy expansion must stay correct there."""
        sigma = parse_constraints("E(x,y), E(u,v), S(w) -> E(y,z), S(z)")
        inst = parse_instance("E(a,b). E(b,c). S(a). S(b)")
        incremental = chase(inst, sigma, max_steps=25)
        naive = chase(inst, sigma, max_steps=25, naive=True)
        assert incremental.status is naive.status is ChaseStatus.EXCEEDED_BUDGET

    def test_cross_product_body_terminating_agrees(self):
        sigma = parse_constraints("E(x,y), S(u) -> T(x,u)")
        inst = parse_instance("E(a,b). E(b,c). S(a). S(c)")
        incremental = chase(inst, sigma)
        naive = chase(inst, sigma, naive=True)
        assert incremental.terminated and naive.terminated
        assert incremental.instance == naive.instance


class TestTriggerIndexUnit:
    def test_seed_enumerates_initial_triggers(self):
        sigma = parse_constraints("a: S(x) -> E(x,y)")
        inst = parse_instance("S(a). S(b)")
        index = TriggerIndex(sigma, inst)
        assert index.pending_count(sigma[0]) == 2
        index.detach()

    def test_delta_discovers_new_triggers_only(self):
        sigma = parse_constraints("a: S(x) -> E(x,y)")
        inst = parse_instance("S(a)")
        index = TriggerIndex(sigma, inst)
        assert index.pending_count() == 1
        inst.add(parse_instance("S(b)").facts().pop())
        index.refresh()
        assert index.pending_count() == 2
        index.detach()

    def test_satisfied_triggers_are_never_enqueued(self):
        sigma = parse_constraints("a: S(x) -> E(x,y)")
        inst = parse_instance("S(a). E(a,b)")  # head already satisfied
        index = TriggerIndex(sigma, inst)
        assert index.next_active(sigma[0]) is None
        assert index.pending_count() == 0  # settled, remembered only
        index.detach()

    def test_removal_retires_triggers(self):
        from repro.lang.atoms import Atom
        from repro.lang.instance import Instance
        from repro.lang.terms import Constant, Null
        sigma = parse_constraints("a: E(x,y) -> T(x)")
        null = Null(901)
        inst = Instance([Atom("E", (Constant("a"), null))])
        index = TriggerIndex(sigma, inst)
        assert index.pending_count() == 1
        inst.substitute_term(null, Constant("b"))
        index.refresh()
        # the old trigger (through E(a, ?n901)) is retired; the new fact
        # E(a, b) yields a fresh trigger for the substituted assignment
        assignments = index.pending_assignments(sigma[0])
        assert len(assignments) == 1
        assert Constant("b") in assignments[0].values()
        index.detach()

    def test_mark_fired_consumes_and_blocks_rediscovery(self):
        sigma = parse_constraints("a: E(x,y) -> E(y,x)")
        inst = parse_instance("E(a,b)")
        index = TriggerIndex(sigma, inst, oblivious=True)
        _, key = index.next_active(sigma[0])
        index.mark_fired(sigma[0], key)
        # Re-adding nothing: the fired trigger must not reappear.
        assert index.next_active(sigma[0]) is None
        index.detach()

    def test_oblivious_mode_keeps_satisfied_tgd_triggers(self):
        sigma = parse_constraints("a: S(x) -> E(x,y)")
        inst = parse_instance("S(a). E(a,b)")  # head already satisfied
        index = TriggerIndex(sigma, inst, oblivious=True)
        assert index.next_active(sigma[0]) is not None
        index.detach()

    def test_oblivious_mode_skips_trivial_egd_triggers(self):
        sigma = parse_constraints("a: E(x,y), E(y,x) -> x = y")
        inst = parse_instance("E(a,a)")
        index = TriggerIndex(sigma, inst, oblivious=True)
        assert index.next_active(sigma[0]) is None
        index.detach()

    def test_expansion_decodes_only_enqueued_triggers(self, monkeypatch):
        """Delta rows stay interned ids through the key, the activity
        check and the image probes: terms are decoded once per variable
        of each trigger that is enqueued, and for nothing else."""
        from repro.storage.interning import TermTable
        sigma = parse_constraints("a: S(x) -> E(x,y);"
                                  "e: E(x,y), E(x,z) -> y = z")
        inst = parse_instance("S(a). S(b). E(a,c). E(d,e). E(d,f)")
        index = TriggerIndex(sigma, inst)
        decoded = []
        term = TermTable.term
        monkeypatch.setattr(TermTable, "term",
                            lambda table, tid: decoded.append(tid)
                            or term(table, tid))
        # a: x=a is settled (E(a,c) exists), x=b is active; e: two
        # orderings of (e, f) are active, the trivial bindings settled.
        assert index.pending_count() == 3
        enqueued = [assignment for constraint in sigma
                    for assignment in index.pending_assignments(constraint)]
        assert len(decoded) == sum(map(len, enqueued)) == 1 + 3 + 3
        index.detach()

    def test_detach_stops_listening(self):
        sigma = parse_constraints("a: S(x) -> E(x,y)")
        inst = parse_instance("S(a)")
        index = TriggerIndex(sigma, inst)
        index.detach()
        inst.add(parse_instance("S(b)").facts().pop())
        index.refresh()
        assert index.pending_count() == 1  # never saw the new fact
