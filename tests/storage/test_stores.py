"""Instance storage tests: an instance against a brute-force model.

The model is a plain Python set of atoms plus the bookkeeping an
instance promises on top of set semantics: first-insertion fact ids,
last-insertion row order (the order ``scan`` yields in) and the
listener events each mutation must emit.  Seeded sequences of
``add``, ``discard`` and ``substitute_term`` drive instance and model
alike, with enough removals to compact buckets, and every query of
the instance -- ``copy()`` included -- is compared with what the set
answers.  The chase itself is cross-validated against the naive
chase, and its terminated results are checked to be models by the
reference search.
"""

import random

import pytest
from hypothesis import given, settings

from repro.chase import chase, ChaseStatus, oblivious_chase, OrderedStrategy
from repro.homomorphism.engine import (find_homomorphisms,
                                       null_renaming_equivalent)
from repro.homomorphism.extend import all_satisfied
from repro.lang.atoms import Atom, Position
from repro.lang.errors import SchemaError
from repro.lang.instance import _Bucket, _COMPACT_MIN_DEAD, Instance
from repro.lang.parser import parse_constraints, parse_instance
from repro.lang.terms import Constant, Null, Variable
from repro.workloads.generators import (random_constraint_set,
                                        random_full_tgds,
                                        random_graph_instance,
                                        random_instance, random_schema)

from tests.conftest import graph_instances, reference_satisfied

a, b, c = Constant("a"), Constant("b"), Constant("c")
n1, n2 = Null(901), Null(902)


# ----------------------------------------------------------------------
# The brute-force model
# ----------------------------------------------------------------------
class SetModel:
    """What an instance must answer, computed from a set of atoms."""

    def __init__(self):
        #: live facts, in last-insertion order (a dict keeps it)
        self.live = {}
        #: fact -> id, assigned at first insertion and never dropped
        self.ids = {}
        self.events = []
        self.generation = 0

    def add(self, fact):
        if fact in self.live:
            return False
        self.live[fact] = None
        fid = self.ids.setdefault(fact, len(self.ids))
        self.events.append(("+", fact, fid))
        self.generation += 1
        return True

    def discard(self, fact):
        if fact not in self.live:
            return False
        del self.live[fact]
        self.events.append(("-", fact, self.ids[fact]))
        self.generation += 1
        return True

    def substitute(self, old, new):
        if old == new:
            return []
        changed = []
        for fact in self.with_term(old):
            self.discard(fact)
            rewritten = fact.substitute({old: new})
            if self.add(rewritten):
                changed.append(rewritten)
        return changed

    def in_id_order(self):
        return sorted(self.live, key=self.ids.__getitem__)

    def with_term(self, term):
        return [fact for fact in self.in_id_order() if term in fact.args]

    def matching(self, relation, bindings):
        return {fact for fact in self.live if fact.relation == relation
                and all(position < fact.arity and fact.args[position] == term
                        for position, term in bindings.items())}

    def scan(self, relation, arity, bindings):
        return [fact.args for fact in self.live
                if fact.relation == relation and fact.arity == arity
                and all(fact.args[position] == term
                        for position, term in bindings.items())]

    def positions(self, term):
        return {Position(fact.relation, index + 1) for fact in self.live
                for index, arg in enumerate(fact.args) if arg == term}

    def domain(self):
        return {arg for fact in self.live for arg in fact.args}


class EventLog:
    def __init__(self):
        self.events = []

    def fact_added(self, fact, fid):
        self.events.append(("+", fact, fid))

    def fact_removed(self, fact, fid):
        self.events.append(("-", fact, fid))


#: Relations by arity; ``R`` is stored at two arities (two buckets).
SHAPES = (("E", 2), ("S", 1), ("P", 0), ("R", 1), ("R", 2), ("T", 3))


def check_instance(inst, model, terms):
    """The instance-level queries against the model, and ``copy()``:
    an equal instance with the same fact order and no listeners."""
    domain = model.domain()
    assert inst.domain() == domain
    assert inst.constants() == {t for t in domain if isinstance(t, Constant)}
    assert inst.nulls() == {t for t in domain if isinstance(t, Null)}
    for term in terms:
        assert inst.positions_of(term) == model.positions(term)
    clone = inst.copy()
    assert clone == inst and list(clone) == model.in_id_order()
    assert clone._listeners == []


def check_store(inst, model, terms):
    """Every query of the instance against the model."""
    check_instance(inst, model, terms)
    assert len(inst) == len(model.live)
    assert list(inst) == model.in_id_order()
    assert inst.generation == model.generation
    assert inst.relations() == {fact.relation for fact in model.live}
    for relation in {name for name, _ in SHAPES}:
        live = {fact for fact in model.live if fact.relation == relation}
        assert inst.facts(relation) == live
        assert inst.relation_size(relation) == len(live)
    id_of = inst.terms.id_of
    for term in terms:
        assert inst.facts_with_term(term) == model.with_term(term)
        assert inst.matching("E", {0: term}) == model.matching("E", {0: term})
        tid = id_of(term)
        for relation, arity in SHAPES:
            for position in range(arity):
                count = len(model.matching(relation, {position: term}))
                if tid is None:
                    assert count == 0
                else:
                    assert inst.posting_size(relation, position,
                                             tid) >= count
    for fact, fid in model.ids.items():
        assert inst.fact_id(fact) == fid
        assert inst.fact_of(fid) == fact
        live = fact in model.live
        assert inst.alive(fid) is live
        assert (fact in inst) is live
        ids = tuple(id_of(term) for term in fact.args)
        assert inst.has_row(fact.relation, fact.arity, ids) is live
        assert inst.row_fid(fact.relation, fact.arity, ids) == \
            (fid if live else None)
        assert inst.matching(fact.relation, dict(enumerate(fact.args))) == \
            model.matching(fact.relation, dict(enumerate(fact.args)))
    assert list(inst.live_fids()) == [model.ids[fact]
                                      for fact in model.in_id_order()]


def check_scans(inst, model, rng, terms):
    """Decoded scans, with zero, one and every position bound, in row
    order."""
    term_of = inst.terms.term
    id_of = inst.terms.id_of
    for relation, arity in SHAPES:
        patterns = [{}]
        patterns += [{position: rng.choice(terms)}
                     for position in range(arity)]
        patterns.append({position: rng.choice(terms)
                         for position in range(arity)})
        patterns += [dict(enumerate(fact.args)) for fact in model.live
                     if fact.relation == relation and fact.arity == arity][:3]
        for bindings in patterns:
            expected = model.scan(relation, arity, bindings)
            bound = [(position, id_of(term))
                     for position, term in bindings.items()]
            if any(tid is None for _, tid in bound):
                assert expected == []
                continue
            decoded = [tuple(term_of(tid) for tid in row)
                       for row in inst.scan(relation, arity, bound)]
            assert decoded == expected, (relation, bindings)


def random_fact(rng, terms):
    relation, arity = rng.choice(SHAPES)
    return Atom(relation, tuple(rng.choice(terms) for _ in range(arity)))


def drive(seed, steps=900):
    """A seeded add/discard/substitute sequence on instance and model:
    a fill phase, a drain phase that crosses the compaction threshold,
    then a mixed phase.  Yields after every step."""
    rng = random.Random(seed)
    terms = [Constant(f"c{i}") for i in range(10)] + \
        [Null(i) for i in range(1, 7)] + [Constant(7)]
    inst, model, log = Instance(), SetModel(), EventLog()
    inst.add_listener(log)
    for step in range(steps):
        phase = step * 3 // steps
        roll = rng.random()
        if roll < 0.06:
            old, new = rng.choice(terms), rng.choice(terms)
            assert inst.substitute_term(old, new) == \
                model.substitute(old, new)
        elif roll < (0.85, 0.2, 0.5)[phase]:
            fact = random_fact(rng, terms)
            assert inst.add(fact) == model.add(fact)
        else:
            live = list(model.live)
            fact = (rng.choice(live) if live and rng.random() < 0.9
                    else random_fact(rng, terms))
            assert inst.discard(fact) == model.discard(fact)
        assert log.events == model.events
        yield inst, model, terms


class TestModelSequences:
    @pytest.mark.parametrize("seed", range(4))
    def test_random_sequences_match_model(self, seed, monkeypatch):
        compactions = []
        compact = _Bucket.compact
        monkeypatch.setattr(
            _Bucket, "compact",
            lambda bucket: compactions.append(bucket.dead)
            or compact(bucket))
        for step, (inst, model, terms) in enumerate(drive(seed)):
            if step % 25 == 0:
                check_store(inst, model, terms)
                check_scans(inst, model, random.Random(step), terms)
            else:
                check_instance(inst, model, terms)
        check_store(inst, model, terms)
        check_scans(inst, model, random.Random(seed), terms)
        assert compactions and min(compactions) > _COMPACT_MIN_DEAD

    def test_removed_facts_keep_their_ids_through_compaction(self):
        inst = Instance()
        facts = [Atom("E", (Constant(i), Constant(i + 1)))
                 for i in range(3 * _COMPACT_MIN_DEAD)]
        for fact in facts:
            inst.add(fact)
        ids = [inst.fact_id(fact) for fact in facts]
        for fact in facts[:-1]:
            inst.discard(fact)
        for fact in facts:
            inst.add(fact)
        assert [inst.fact_id(fact) for fact in facts] == ids
        # Re-inserted rows come after the survivor, in insertion order.
        term_of = inst.terms.term
        assert [Atom("E", tuple(term_of(tid) for tid in row))
                for row in inst.scan("E", 2, [])] == \
            facts[-1:] + facts[:-1]
        assert list(inst) == facts


# ----------------------------------------------------------------------
# The query API on hand-written and generated instances
# ----------------------------------------------------------------------
class TestQueryParity:
    @given(graph_instances())
    @settings(max_examples=30, deadline=None)
    def test_queries_agree(self, inst):
        model = SetModel()
        for fact in inst:
            model.add(fact)
        check_store(inst, model, sorted(inst.domain(), key=str))
        assert inst.matching("E", {}) == model.matching("E", {})

    @given(graph_instances())
    @settings(max_examples=20, deadline=None)
    def test_scan_agrees(self, inst):
        model = SetModel()
        for fact in inst:
            model.add(fact)
        check_scans(inst, model, random.Random(0),
                    sorted(inst.domain(), key=str))

    def test_mutation_semantics(self):
        inst = Instance()
        fact = Atom("E", (a, b))
        assert inst.add(fact) and not inst.add(fact)
        assert len(inst) == 1 and fact in inst
        assert inst.discard(fact) and not inst.discard(fact)
        assert len(inst) == 0 and inst.matching("E", {0: a}) == set()
        assert inst.domain() == set()
        with pytest.raises(SchemaError):
            inst.add(Atom("E", (a, Variable("x"))))

    def test_substitute_merges_and_reindexes(self):
        inst = Instance([Atom("E", (a, n1)), Atom("E", (n1, b)),
                         Atom("E", (a, b))])
        changed = inst.substitute_term(n1, b)
        # E(a, n1) merges onto the existing E(a, b).
        assert len(inst) == 2
        assert changed == [Atom("E", (b, b))]
        assert inst.matching("E", {0: n1}) == set()
        assert inst.positions_of(n1) == set()
        assert n1 not in inst.domain()

    def test_nullary_relations_scan(self):
        """Regression: zip() over zero columns yields nothing, so
        scans used to lose arity-0 facts."""
        x = Variable("x")
        facts = [Atom("P", ()), Atom("Q", (a,))]
        pattern = [Atom("P", ()), Atom("Q", (x,))]
        inst = Instance(facts)
        assert list(find_homomorphisms(pattern, inst)) == [{x: a}]
        assert list(inst.scan("P", 0, [])) == [()]
        inst.discard(Atom("P", ()))
        assert list(inst.scan("P", 0, [])) == []

    def test_positions_of_after_discard(self):
        inst = Instance([Atom("E", (a, n1)), Atom("S", (n1,))])
        inst.discard(Atom("S", (n1,)))
        assert inst.positions_of(n1) == {Position("E", 2)}


# ----------------------------------------------------------------------
# Listener event sequences
# ----------------------------------------------------------------------
class TestListenerOrdering:
    def test_substitute_removal_precedes_addition_per_fact(self):
        inst = Instance([Atom("E", (a, n1)), Atom("E", (n1, b))])
        log = EventLog()
        inst.add_listener(log)
        inst.substitute_term(n1, c)
        # Rewritten in fact-id order, removal before the rewrite.
        assert log.events == [
            ("-", Atom("E", (a, n1)), 0), ("+", Atom("E", (a, c)), 2),
            ("-", Atom("E", (n1, b)), 1), ("+", Atom("E", (c, b)), 3)]

    def test_merge_produces_no_addition_event(self):
        inst = Instance([Atom("E", (a, n1)), Atom("E", (a, b))])
        log = EventLog()
        inst.add_listener(log)
        inst.substitute_term(n1, b)
        assert log.events == [("-", Atom("E", (a, n1)), 0)]

    def test_listeners_fire_in_registration_order(self):
        inst = Instance()
        order = []
        first, second = EventLog(), EventLog()
        first.fact_added = lambda fact, fid: order.append("first")
        second.fact_added = lambda fact, fid: order.append("second")
        inst.add_listener(first)
        inst.add_listener(second)
        inst.add(Atom("S", (a,)))
        assert order == ["first", "second"]


# ----------------------------------------------------------------------
# Fact ids and compaction
# ----------------------------------------------------------------------
class TestFactIds:
    def test_ids_survive_removal_and_reinsertion(self):
        inst = Instance()
        fact = Atom("E", (a, b))
        inst.add(fact)
        fid = inst.fact_id(fact)
        assert fid is not None and inst.alive(fid)
        inst.discard(fact)
        assert inst.fact_id(fact) == fid and not inst.alive(fid)
        assert inst.fact_of(fid) == fact
        inst.add(Atom("E", (a, b)))
        assert inst.fact_id(fact) == fid and inst.alive(fid)

    def test_row_fid_matches_fact_id(self):
        inst = Instance()
        fact = Atom("E", (a, b))
        inst.add(fact)
        ids = tuple(inst.terms.id_of(term) for term in fact.args)
        assert inst.row_fid("E", 2, ids) == inst.fact_id(fact)
        assert inst.has_row("E", 2, ids)
        inst.discard(fact)
        assert inst.row_fid("E", 2, ids) is None
        assert not inst.has_row("E", 2, ids)

    def test_column_store_compaction_preserves_answers(self):
        inst = Instance()
        facts = [Atom("E", (Constant(f"v{i}"), Constant(f"v{i+1}")))
                 for i in range(200)]
        for fact in facts:
            inst.add(fact)
        keep = facts[::3]
        for fact in facts:
            if fact not in keep:
                inst.discard(fact)  # tombstones, then compaction
        bucket = inst._buckets[("E", 2)]
        assert bucket.dead < len(facts)  # compaction ran at some point
        assert inst.facts("E") == set(keep)
        for fact in keep:
            fid = inst.fact_id(fact)
            assert inst.alive(fid) and inst.fact_of(fid) == fact
            assert inst.matching("E", {0: fact.args[0]}) == {fact}
        decoded = [tuple(inst.terms.term(tid) for tid in row)
                   for row in inst.scan("E", 2, [])]
        assert decoded == [fact.args for fact in keep]


class TestJoinStatistics:
    """What join ordering reads from an instance
    (:meth:`repro.homomorphism.plan.JoinPlan.order_for`): the mutation
    counter its order cache keys on, and the size estimates."""

    def _instance(self):
        facts = [Atom("E", (Constant(f"a{i % 4}"), Constant(f"b{i % 3}")))
                 for i in range(12)]
        facts += [Atom("S", (Constant("a1"),)), Atom("S", (Constant("z"),))]
        return Instance(facts)

    def test_generation_counts_successful_mutations(self):
        inst = self._instance()
        start = inst.generation
        fact = Atom("E", (Constant("fresh"), Constant("fresh")))
        assert inst.add(fact) and inst.generation == start + 1
        assert not inst.add(fact) and inst.generation == start + 1
        assert inst.discard(fact) and inst.generation == start + 2
        assert not inst.discard(fact) and inst.generation == start + 2

    def test_posting_size_bounds_matching(self):
        inst = self._instance()
        a1 = inst.terms.id_of(Constant("a1"))
        facts = inst.matching("E", {0: Constant("a1")})
        assert inst.posting_size("E", 0, a1) == len(facts) == 3
        inst.discard(next(iter(facts)))
        assert inst.posting_size("E", 0, a1) >= 2
        assert inst.relation_size("E") == len(inst.facts("E")) == 11


# ----------------------------------------------------------------------
# Randomized cross-validation: the chase against its oracles
# ----------------------------------------------------------------------
def _runs(sigma, facts, run=chase, **kw):
    """The chase on the trigger index and the naive chase, with the
    same strategy and budget."""
    out = []
    for naive in (False, True):
        if run is chase:
            kw["strategy"] = OrderedStrategy()
        out.append(run(Instance(facts), sigma, naive=naive, **kw))
    return out


def assert_runs_agree(sigma, results):
    """Same status, and on termination equivalent results that the
    reference search confirms are models of ``sigma``."""
    first, other = results
    assert other.status is first.status
    if first.status is ChaseStatus.TERMINATED:
        assert null_renaming_equivalent(first.instance, other.instance)
        assert reference_satisfied(sigma, first.instance)


class TestChaseCrossValidation:
    @pytest.mark.parametrize("seed", range(8))
    def test_full_tgd_generator_workloads_agree(self, seed):
        """Full TGDs always terminate: every run must reach
        null-renaming-equivalent results."""
        sigma = random_full_tgds(seed, size=4)
        schema = random_schema(random.Random(seed))
        facts = sorted(random_instance(seed, schema, n_facts=12).facts(),
                       key=str)
        results = _runs(sigma, facts, max_steps=5000)
        assert results[0].status is ChaseStatus.TERMINATED
        assert_runs_agree(sigma, results)
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
        assert_runs_agree(sigma, _runs(sigma, facts, max_steps=300))

    @pytest.mark.parametrize("seed", range(4))
    def test_egd_generator_workloads_agree(self, seed):
        sigma = random_constraint_set(seed, size=4,
                                      existential_probability=0.3,
                                      egd_probability=0.5)
        facts = sorted(random_graph_instance(seed + 100, n_nodes=4).facts(),
                       key=str)
        assert_runs_agree(sigma, _runs(sigma, facts, max_steps=300))

    @pytest.mark.parametrize("seed", range(4))
    def test_oblivious_chase_agrees(self, seed):
        sigma = random_full_tgds(seed, size=3)
        schema = random_schema(random.Random(seed))
        facts = sorted(random_instance(seed, schema, n_facts=8).facts(),
                       key=str)
        results = _runs(sigma, facts, run=oblivious_chase, max_steps=4000)
        assert_runs_agree(sigma, results)
        if results[0].status is ChaseStatus.TERMINATED:
            assert len({result.length for result in results}) == 1

    def test_egd_failure_and_merge_families(self):
        for text, instance_text in [
            ("E(x,y), E(x,z) -> y = z", "E(a,b). E(a,c)"),
            ("E(x,y), E(x,z) -> y = z", "E(a,b). E(a,?n1). E(?n1,c)"),
        ]:
            sigma = parse_constraints(text)
            facts = sorted(parse_instance(instance_text).facts(), key=str)
            assert_runs_agree(sigma, _runs(sigma, facts, max_steps=100))
