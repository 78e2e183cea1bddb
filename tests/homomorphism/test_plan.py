"""Compiled join plans: unit behaviour + reference cross-validation.

The plan executor must enumerate exactly the assignments of the
preserved PR 1 search (:mod:`repro.homomorphism.reference`) -- the
same discipline as the trigger index's naive/incremental
cross-validation.
"""

from collections import Counter

import pytest
from hypothesis import given, settings

from repro.homomorphism.engine import (find_homomorphisms,
                                       find_homomorphisms_through)
from repro.homomorphism.plan import JoinPlan, compile_plan
from repro.homomorphism.reference import (
    reference_find_homomorphisms, reference_find_homomorphisms_through)
from repro.lang.atoms import Atom
from repro.lang.instance import Instance
from repro.lang.parser import parse_instance
from repro.lang.terms import Constant, Null, Variable

from tests.conftest import graph_instances

x, y, z, u = Variable("x"), Variable("y"), Variable("z"), Variable("u")
a, b, c = Constant("a"), Constant("b"), Constant("c")

PATTERNS = [
    [Atom("E", (x, y))],
    [Atom("E", (x, x))],
    [Atom("E", (x, y)), Atom("E", (y, z))],
    [Atom("E", (x, y)), Atom("E", (y, x))],
    [Atom("E", (x, y)), Atom("S", (x,))],
    [Atom("E", (x, y)), Atom("S", (u,))],          # cross product
    [Atom("E", (a, y)), Atom("E", (y, z))],        # ground position
    [Atom("S", (x,)), Atom("S", (y,)), Atom("E", (x, y))],
]


def _as_set(assignments):
    return {frozenset(h.items()) for h in assignments}


def _multiset(assignments):
    return Counter(frozenset(h.items()) for h in assignments)


N1, N2 = Null(901), Null(902)
NULL_HEAVY = [Atom("E", (N1, N2)), Atom("E", (N2, N1)), Atom("E", (N1, a)),
              Atom("S", (N1,)), Atom("S", (a,))]


class TestPlanMatchesReference:
    @given(graph_instances())
    @settings(max_examples=30, deadline=None)
    def test_find_homomorphisms_agrees(self, inst):
        facts = sorted(inst.facts(), key=str)
        instance = Instance(facts)
        for pattern in PATTERNS:
            expected = _as_set(
                reference_find_homomorphisms(pattern, instance))
            actual = _as_set(find_homomorphisms(pattern, instance))
            assert actual == expected, pattern

    @given(graph_instances())
    @settings(max_examples=30, deadline=None)
    def test_delta_search_agrees(self, inst):
        facts = sorted(inst.facts(), key=str)
        instance = Instance(facts)
        delta = facts[0]
        for pattern in PATTERNS:
            expected = _as_set(reference_find_homomorphisms_through(
                pattern, instance, delta))
            actual = _as_set(find_homomorphisms_through(
                pattern, instance, delta))
            assert actual == expected, pattern

    @pytest.mark.parametrize("facts, pattern", [
        ("E(a,b). S(a)", [Atom("E", (c, y)), Atom("S", (x,))]),
        ("S(a). S(b)", [Atom("E", (x, y)), Atom("S", (x,))]),
        ("E(a,b). S(c)", [Atom("E", (a, b)), Atom("S", (c,))]),
        ("E(a,b). S(c)", [Atom("E", (b, a)), Atom("S", (c,))]),
        ("S(a). S(b). T(b). T(c)", [Atom("S", (x,)), Atom("T", (x,))]),
    ], ids=["absent_constant", "empty_relation", "ground_present",
            "ground_absent", "arity_one_join"])
    def test_edge_shapes_agree(self, facts, pattern):
        inst = parse_instance(facts)
        assert _multiset(find_homomorphisms(pattern, inst)) \
            == _multiset(reference_find_homomorphisms(pattern, inst))

    def test_null_heavy_instance_agrees(self):
        inst = Instance(NULL_HEAVY)
        for pattern in PATTERNS:
            assert _multiset(find_homomorphisms(pattern, inst)) \
                == _multiset(reference_find_homomorphisms(pattern, inst)), \
                pattern

    def test_partial_binding_agrees(self):
        inst = parse_instance("E(a,b). E(b,c). E(a,c). S(a). S(b)")
        pattern = [Atom("E", (x, y)), Atom("E", (y, z))]
        expected = _as_set(
            reference_find_homomorphisms(pattern, inst, partial={x: a}))
        assert _as_set(find_homomorphisms(pattern, inst,
                                          partial={x: a})) == expected


class TestPlanUnits:
    def test_compile_plan_is_cached_per_body(self):
        body = (Atom("E", (x, y)), Atom("S", (x,)))
        assert compile_plan(body) is compile_plan(body)
        assert compile_plan(body) is not compile_plan((Atom("E", (x, y)),))

    def test_order_cached_per_signature(self):
        inst = parse_instance("E(a,b). E(b,c). S(a)")
        plan = JoinPlan([Atom("E", (x, y)), Atom("S", (x,))])
        first = plan.order_for(inst, frozenset())
        assert plan.order_for(inst, frozenset()) is first
        pinned = plan.order_for(inst, frozenset(), pin=0)
        assert pinned == (1,)

    def test_order_prefers_selective_relation(self):
        # S has 1 fact, E has 3: with nothing bound the greedy order
        # starts at the smaller relation.
        inst = parse_instance("E(a,b). E(b,c). E(c,a). S(a)")
        plan = JoinPlan([Atom("E", (x, y)), Atom("S", (x,))])
        assert plan.order_for(inst, frozenset()) == (1, 0)

    def test_pin_binding_rejects_mismatches(self):
        plan = JoinPlan([Atom("E", (x, x)), Atom("E", (a, y))])
        assert plan.pin_binding(0, Atom("E", (a, b)), {}) is None
        assert plan.pin_binding(0, Atom("E", (a, a)), {}) == {x: a}
        assert plan.pin_binding(1, Atom("S", (a,)), {}) is None
        assert plan.pin_binding(1, Atom("E", (a, b)), {}) == {y: b}
        assert plan.pin_binding(1, Atom("E", (b, b)), {}) is None

    def test_single_pin_skips_dedup_but_stays_correct(self):
        # The delta unifies with exactly one atom: results must equal
        # the reference (which always pays the dedup hash).
        inst = parse_instance("E(a,b). E(b,c). S(a). S(b)")
        pattern = [Atom("E", (x, y)), Atom("S", (x,))]
        delta = Atom("S", (b,))
        expected = _as_set(reference_find_homomorphisms_through(
            pattern, inst, delta))
        assert _as_set(find_homomorphisms_through(pattern, inst,
                                                  delta)) == expected

    def test_multi_pin_deduplicates(self):
        inst = parse_instance("E(a,a)")
        pattern = [Atom("E", (x, y)), Atom("E", (y, x))]
        homs = list(find_homomorphisms_through(pattern, inst,
                                               Atom("E", (a, a))))
        assert homs == [{x: a, y: a}]

    def test_partial_ids_bind_like_partial_terms(self):
        inst = parse_instance("E(a,b). E(b,c). E(a,c). E(c,a)")
        plan = compile_plan((Atom("E", (x, y)), Atom("E", (y, z))))
        ids = {x: inst.terms.intern(a)}
        assert _as_set(plan.execute(inst, partial_ids=ids)) == \
            _as_set(plan.execute(inst, partial={x: a}))
        assert list(plan.execute(inst, partial_ids=ids, limit=1,
                                 project=())) == [()]

    def test_projected_multi_pin_yields_each_trigger_once(self):
        """A delta fact that unifies with both atoms of a same-relation
        body: the id rows come out once each, as the reference search
        finds each homomorphism once."""
        a1, a2, n = Variable("a1"), Variable("a2"), Variable("n")
        ann, p, q = Constant("ann"), Constant("p"), Constant("q")
        pattern = [Atom("Person", (a1, n)), Atom("Person", (a2, n))]
        facts = [Atom("Person", (p, ann)), Atom("Person", (q, ann))]
        delta = facts[0]
        variables = compile_plan(tuple(pattern)).variable_order
        assert variables == (a1, a2, n)
        inst = Instance(facts)
        ids = inst.terms.intern
        expected = sorted((ids(h[a1]), ids(h[a2]), ids(h[n]))
                          for h in reference_find_homomorphisms_through(
                              pattern, inst, delta))
        assert len(expected) == 3
        rows = list(find_homomorphisms_through(pattern, inst, delta,
                                               project=variables))
        assert sorted(rows) == expected and len(set(rows)) == 3
        assert _multiset(find_homomorphisms_through(pattern, inst, delta)) \
            == _multiset(reference_find_homomorphisms_through(
                pattern, inst, delta))
        # A narrower projection still has one row per homomorphism.
        assert list(find_homomorphisms_through(
            pattern, inst, delta, project=(n,))) == [(ids(ann),)] * 3

    def test_finished_search_leaves_no_cyclic_garbage(self):
        """The join walks its order without a self-referencing closure,
        so a search frees everything by reference counting alone."""
        import gc
        pattern = [Atom("E", (x, y)), Atom("E", (y, z))]
        inst = parse_instance("E(a,b). E(b,c). E(c,a)")
        list(find_homomorphisms(pattern, inst))
        gc.collect()
        gc.disable()
        try:
            assert len(list(find_homomorphisms(pattern, inst))) == 3
            abandoned = find_homomorphisms(pattern, inst)
            next(abandoned)
            del abandoned
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_limit_respected_on_all_paths(self):
        inst = parse_instance("E(a,b). E(b,c). E(c,a). S(a). S(b). S(c)")
        assert len(list(find_homomorphisms([Atom("E", (x, y))], inst,
                                           limit=2))) == 2
        assert len(list(find_homomorphisms(
            [Atom("E", (x, y)), Atom("S", (u,))], inst, limit=4))) == 4

    def test_prune_depends_on_abandons_scan_soundly(self):
        # A prune predicate reading only x: declaring depends_on lets
        # the executor abandon whole scans, without changing results.
        inst = parse_instance("E(a,b). E(b,c). S(a). S(b). S(c)")
        pattern = [Atom("E", (x, y)), Atom("S", (u,))]

        plan = compile_plan(tuple(pattern))
        a_id = inst.terms.intern(a)

        def make_prune(declare):
            def prune(binding):
                return binding.get(x) == a_id
            if declare:
                prune.depends_on = frozenset((x,))
            return prune

        plain = list(plan.execute(inst, prune=make_prune(False)))
        declared = list(plan.execute(inst, prune=make_prune(True)))
        assert _as_set(plain) == _as_set(declared)
        assert declared and all(h[x] != a for h in declared)

class TestStaleStatisticsInvalidation:
    """The order cache must not keep serving a join order whose
    statistics have been invalidated by the chase growing a relation
    past it (regression: orders used to be cached forever with the
    sizes observed at first use)."""

    def _plan_and_instance(self, n_s, n_e):
        facts = [Atom("S", (Constant(f"s{i}"),)) for i in range(n_s)]
        facts += [Atom("E", (Constant(f"e{i}"), Constant(f"e{i+1}")))
                  for i in range(n_e)]
        return JoinPlan([Atom("S", (x,)), Atom("E", (x, y))]), \
            Instance(facts)

    def test_pathological_stale_order_is_recomputed(self):
        # Decision time: S holds 1 fact, E holds 100 -> scan S first.
        plan, inst = self._plan_and_instance(1, 100)
        assert plan.order_for(inst, frozenset()) == (0, 1)
        # The chase then grows S far past E (a >4x shift): the cached
        # order would now enumerate 800 S facts per execution when
        # starting from E costs 100.  The generation-aware cache must
        # flip it.
        for i in range(800):
            inst.add(Atom("S", (Constant(f"grown{i}"),)))
        assert plan.order_for(inst, frozenset()) == (1, 0)

    def test_small_shifts_keep_the_cached_order(self):
        plan, inst = self._plan_and_instance(10, 40)
        first = plan.order_for(inst, frozenset())
        assert first == (0, 1)
        # Growth within 4x of the decision-time snapshot: same order
        # object, no recompute (the tie could legitimately flip at
        # exactly equal sizes, but the rule is cheap stability).
        for i in range(25):
            inst.add(Atom("S", (Constant(f"g{i}"),)))
        assert plan.order_for(inst, frozenset()) is first

    def test_shrink_also_invalidates(self):
        plan, inst = self._plan_and_instance(64, 8)
        assert plan.order_for(inst, frozenset()) == (1, 0)
        for fact in list(inst.facts("E"))[:6]:
            inst.discard(fact)
        assert plan.order_for(inst, frozenset()) == (1, 0)  # 8->2: 4x ok
        victim = next(iter(inst.facts("E")))
        inst.discard(victim)
        assert plan.order_for(inst, frozenset()) == (1, 0)  # still E first

    def test_unchanged_generation_is_a_fast_path(self, monkeypatch):
        plan, inst = self._plan_and_instance(3, 9)
        first = plan.order_for(inst, frozenset())
        calls = []
        original = Instance.relation_size
        monkeypatch.setattr(Instance, "relation_size",
                            lambda self, rel: (calls.append(rel),
                                               original(self, rel))[1])
        assert plan.order_for(inst, frozenset()) is first
        assert calls == []      # no statistics were consulted
