"""Storage-backend tests: SetStore/ColumnStore parity.

The set backend is the reference semantics; the columnar backend must
be observationally identical through the ``Instance`` facade -- same
query answers, same listener event sequences, and (the acceptance bar)
identical chase results over randomized generator workloads.
"""

import pytest
from hypothesis import given, settings

from repro.chase import chase, ChaseStatus, oblivious_chase, OrderedStrategy
from repro.homomorphism.engine import null_renaming_equivalent
from repro.homomorphism.extend import all_satisfied
from repro.lang.atoms import Atom, Position
from repro.lang.instance import Instance
from repro.lang.parser import parse_instance
from repro.lang.terms import Constant, Null
from repro.storage import ColumnStore, SetStore, make_store
from repro.workloads.generators import (random_constraint_set,
                                        random_full_tgds,
                                        random_graph_instance,
                                        random_instance, random_schema)

from tests.conftest import graph_instances

BACKENDS = ["set", "column"]

a, b, c = Constant("a"), Constant("b"), Constant("c")
n1, n2 = Null(901), Null(902)


def both(facts):
    return (Instance(facts, backend="set"),
            Instance(facts, backend="column"))


# ----------------------------------------------------------------------
# Facade parity on the query API
# ----------------------------------------------------------------------
class TestQueryParity:
    @given(graph_instances())
    @settings(max_examples=30, deadline=None)
    def test_queries_agree(self, inst):
        facts = sorted(inst.facts(), key=str)
        left, right = both(facts)
        assert left == right
        assert left.facts("E") == right.facts("E")
        assert left.domain() == right.domain()
        assert left.relations() == right.relations()
        for term in left.domain():
            assert left.positions_of(term) == right.positions_of(term)
        for fact in facts:
            bindings = dict(enumerate(fact.args))
            assert (left.matching(fact.relation, bindings)
                    == right.matching(fact.relation, bindings))
            assert (left.matching(fact.relation, {0: fact.args[0]})
                    == right.matching(fact.relation, {0: fact.args[0]}))
        assert left.matching("E", {}) == right.matching("E", {})

    @given(graph_instances())
    @settings(max_examples=20, deadline=None)
    def test_scan_agrees(self, inst):
        facts = sorted(inst.facts(), key=str)
        left, right = both(facts)
        for relation, arity in (("E", 2), ("S", 1)):
            decoded = []
            for instance in (left, right):
                store = instance.store
                term_of = store.terms.term
                decoded.append({tuple(term_of(tid) for tid in row)
                                for row in store.scan(relation, arity, [])})
            assert decoded[0] == decoded[1]

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_mutation_semantics(self, backend):
        inst = Instance(backend=backend)
        fact = Atom("E", (a, b))
        assert inst.add(fact) and not inst.add(fact)
        assert len(inst) == 1 and fact in inst
        assert inst.discard(fact) and not inst.discard(fact)
        assert len(inst) == 0 and inst.matching("E", {0: a}) == set()
        assert inst.domain() == set()

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_substitute_merges_and_reindexes(self, backend):
        inst = Instance([Atom("E", (a, n1)), Atom("E", (n1, b)),
                         Atom("E", (a, b))], backend=backend)
        changed = inst.substitute_term(n1, b)
        # E(a, n1) merges onto the existing E(a, b).
        assert len(inst) == 2
        assert changed == [Atom("E", (b, b))]
        assert inst.matching("E", {0: n1}) == set()
        assert inst.positions_of(n1) == set()
        assert n1 not in inst.domain()

    def test_nullary_relations_scan_on_both_backends(self):
        """Regression: zip() over zero columns yields nothing, so the
        column backend used to lose arity-0 facts from scans."""
        from repro.homomorphism.engine import find_homomorphisms
        from repro.lang.terms import Variable
        x = Variable("x")
        facts = [Atom("P", ()), Atom("Q", (a,))]
        pattern = [Atom("P", ()), Atom("Q", (x,))]
        expected = [{x: a}]
        for backend in BACKENDS:
            inst = Instance(facts, backend=backend)
            assert list(find_homomorphisms(pattern, inst)) == expected
            store = inst.store
            assert list(store.scan("P", 0, [])) == [()]
            inst.discard(Atom("P", ()))
            assert list(store.scan("P", 0, [])) == []

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_positions_of_after_discard(self, backend):
        inst = Instance([Atom("E", (a, n1)), Atom("S", (n1,))],
                        backend=backend)
        inst.discard(Atom("S", (n1,)))
        assert inst.positions_of(n1) == {Position("E", 2)}


# ----------------------------------------------------------------------
# Listener event sequences (identical on every backend)
# ----------------------------------------------------------------------
class Recorder:
    def __init__(self):
        self.events = []

    def fact_added(self, fact):
        self.events.append(("+", fact))

    def fact_removed(self, fact):
        self.events.append(("-", fact))


class TestListenerOrdering:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_substitute_removal_precedes_addition_per_fact(self, backend):
        inst = Instance([Atom("E", (a, n1)), Atom("E", (n1, b))],
                        backend=backend)
        recorder = Recorder()
        inst.add_listener(recorder)
        inst.substitute_term(n1, c)
        # Rewritten in insertion order, removal before the rewrite.
        assert recorder.events == [
            ("-", Atom("E", (a, n1))), ("+", Atom("E", (a, c))),
            ("-", Atom("E", (n1, b))), ("+", Atom("E", (c, b)))]

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_merge_produces_no_addition_event(self, backend):
        inst = Instance([Atom("E", (a, n1)), Atom("E", (a, b))],
                        backend=backend)
        recorder = Recorder()
        inst.add_listener(recorder)
        inst.substitute_term(n1, b)
        assert recorder.events == [("-", Atom("E", (a, n1)))]

    def test_sequences_identical_across_backends(self):
        facts = [Atom("E", (a, n1)), Atom("E", (n1, n2)),
                 Atom("S", (n1,)), Atom("E", (b, c))]
        sequences = []
        for backend in BACKENDS:
            inst = Instance(facts, backend=backend)
            recorder = Recorder()
            inst.add_listener(recorder)
            inst.substitute_term(n1, a)
            inst.substitute_term(n2, b)
            sequences.append(recorder.events)
        assert sequences[0] == sequences[1]

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_listeners_fire_in_registration_order(self, backend):
        inst = Instance(backend=backend)
        order = []
        first, second = Recorder(), Recorder()
        first.fact_added = lambda fact: order.append("first")
        second.fact_added = lambda fact: order.append("second")
        inst.add_listener(first)
        inst.add_listener(second)
        inst.add(Atom("S", (a,)))
        assert order == ["first", "second"]


# ----------------------------------------------------------------------
# Fact ids and columnar internals
# ----------------------------------------------------------------------
class TestFactIds:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_ids_survive_removal_and_reinsertion(self, backend):
        store = make_store(backend)
        fact = Atom("E", (a, b))
        store.add(fact)
        fid = store.fact_id(fact)
        assert fid is not None and store.alive(fid)
        store.discard(fact)
        assert store.fact_id(fact) == fid and not store.alive(fid)
        assert store.fact_of(fid) == fact
        store.add(Atom("E", (a, b)))
        assert store.fact_id(fact) == fid and store.alive(fid)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_row_fid_matches_fact_id(self, backend):
        store = make_store(backend)
        fact = Atom("E", (a, b))
        store.add(fact)
        ids = tuple(store.terms.id_of(term) for term in fact.args)
        assert store.row_fid("E", 2, ids) == store.fact_id(fact)
        assert store.has_row("E", 2, ids)
        store.discard(fact)
        assert store.row_fid("E", 2, ids) is None
        assert not store.has_row("E", 2, ids)

    def test_column_store_compaction_preserves_answers(self):
        store = ColumnStore()
        facts = [Atom("E", (Constant(f"v{i}"), Constant(f"v{i+1}")))
                 for i in range(200)]
        for fact in facts:
            store.add(fact)
        keep = facts[::3]
        for fact in facts:
            if fact not in keep:
                store.discard(fact)  # tombstones, then compaction
        bucket = store._bucket("E", 2)
        assert bucket.dead < len(facts)  # compaction ran at some point
        assert store.facts("E") == set(keep)
        for fact in keep:
            fid = store.fact_id(fact)
            assert store.alive(fid) and store.fact_of(fid) == fact
            assert store.matching("E", {0: fact.args[0]}) == {fact}
        decoded = {tuple(store.terms.term(tid) for tid in row)
                   for row in store.scan("E", 2, [])}
        assert decoded == {fact.args for fact in keep}

    def test_set_store_is_default_reference(self, monkeypatch):
        monkeypatch.delenv("REPRO_BACKEND", raising=False)
        assert isinstance(Instance().store, SetStore)


@pytest.mark.parametrize("backend", BACKENDS)
class TestJoinStatistics:
    """What join ordering reads from a store
    (:meth:`repro.homomorphism.plan.JoinPlan.order_for`): the mutation
    counter its order cache keys on, and the size estimates."""

    def _store(self, backend):
        facts = [Atom("E", (Constant(f"a{i % 4}"), Constant(f"b{i % 3}")))
                 for i in range(12)]
        facts += [Atom("S", (Constant("a1"),)), Atom("S", (Constant("z"),))]
        return Instance(facts, backend=backend).store

    def test_generation_counts_successful_mutations(self, backend):
        store = self._store(backend)
        start = store.generation
        fact = Atom("E", (Constant("fresh"), Constant("fresh")))
        assert store.add(fact) and store.generation == start + 1
        assert not store.add(fact) and store.generation == start + 1
        assert store.discard(fact) and store.generation == start + 2
        assert not store.discard(fact) and store.generation == start + 2

    def test_posting_size_bounds_matching(self, backend):
        store = self._store(backend)
        a1 = store.terms.id_of(Constant("a1"))
        facts = store.matching("E", {0: Constant("a1")})
        assert store.posting_size("E", 0, a1) == len(facts) == 3
        store.discard(next(iter(facts)))
        assert store.posting_size("E", 0, a1) >= 2
        assert store.relation_size("E") == len(store.facts("E")) == 11


# ----------------------------------------------------------------------
# Randomized cross-validation: identical chase results on both backends
# ----------------------------------------------------------------------
def _chase_on(backend, sigma, facts, **kw):
    return chase(Instance(facts, backend=backend), sigma,
                 strategy=OrderedStrategy(), **kw)


class TestChaseCrossValidation:
    @pytest.mark.parametrize("seed", range(8))
    def test_full_tgd_generator_workloads_agree(self, seed):
        """Full TGDs always terminate: both backends must reach
        null-renaming-equivalent results."""
        sigma = random_full_tgds(seed, size=4)
        schema = random_schema(__import__("random").Random(seed))
        facts = sorted(random_instance(seed, schema, n_facts=12).facts(),
                       key=str)
        results = [_chase_on(backend, sigma, facts, max_steps=5000)
                   for backend in BACKENDS]
        assert all(r.status is ChaseStatus.TERMINATED for r in results)
        assert null_renaming_equivalent(results[0].instance,
                                        results[1].instance)
        for result in results:
            assert all_satisfied(sigma, result.instance)

    @pytest.mark.parametrize("seed", range(8))
    def test_existential_generator_workloads_agree(self, seed):
        """Random TGD sets over the graph schema (possibly divergent):
        same status under the same budget; equivalent when terminating."""
        sigma = random_constraint_set(seed, size=3,
                                      existential_probability=0.5)
        facts = sorted(random_graph_instance(seed, n_nodes=5).facts(),
                       key=str)
        results = [_chase_on(backend, sigma, facts, max_steps=300)
                   for backend in BACKENDS]
        assert results[0].status is results[1].status
        if results[0].status is ChaseStatus.TERMINATED:
            assert null_renaming_equivalent(results[0].instance,
                                            results[1].instance)

    @pytest.mark.parametrize("seed", range(4))
    def test_egd_generator_workloads_agree(self, seed):
        sigma = random_constraint_set(seed, size=4,
                                      existential_probability=0.3,
                                      egd_probability=0.5)
        facts = sorted(random_graph_instance(seed + 100, n_nodes=4).facts(),
                       key=str)
        results = [_chase_on(backend, sigma, facts, max_steps=300)
                   for backend in BACKENDS]
        assert results[0].status is results[1].status
        if results[0].status is ChaseStatus.TERMINATED:
            assert null_renaming_equivalent(results[0].instance,
                                            results[1].instance)

    @pytest.mark.parametrize("seed", range(4))
    def test_oblivious_chase_agrees(self, seed):
        sigma = random_full_tgds(seed, size=3)
        schema = random_schema(__import__("random").Random(seed))
        facts = sorted(random_instance(seed, schema, n_facts=8).facts(),
                       key=str)
        results = [oblivious_chase(Instance(facts, backend=backend), sigma,
                                   max_steps=4000)
                   for backend in BACKENDS]
        assert results[0].status is results[1].status
        if results[0].status is ChaseStatus.TERMINATED:
            assert results[0].length == results[1].length
            assert null_renaming_equivalent(results[0].instance,
                                            results[1].instance)

    def test_egd_failure_and_merge_families(self):
        for text, instance_text in [
            ("E(x,y), E(x,z) -> y = z", "E(a,b). E(a,c)"),
            ("E(x,y), E(x,z) -> y = z", "E(a,b). E(a,?n1). E(?n1,c)"),
        ]:
            from repro.lang.parser import parse_constraints
            sigma = parse_constraints(text)
            facts = sorted(parse_instance(instance_text).facts(), key=str)
            results = [_chase_on(backend, sigma, facts, max_steps=100)
                       for backend in BACKENDS]
            assert results[0].status is results[1].status
            if results[0].status is ChaseStatus.TERMINATED:
                assert null_renaming_equivalent(results[0].instance,
                                                results[1].instance)
