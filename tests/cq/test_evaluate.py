"""Compiled CQ evaluation vs the reference oracle.

The acceptance bar of the query subsystem: :func:`compiled_answers`
(id-level projection, dedup and null filtering pushed into the
compiled join plan) must produce exactly the answers of
:func:`reference_answers` (the pre-plan term-level loop) -- on
hand-written edge cases and on randomized generator workloads, with
and without the constants-only filter.
"""

import random

import pytest

from repro.chase import chase
from repro.cq.evaluate import compile_query, compiled_answers
from repro.cq.query import ConjunctiveQuery
from repro.homomorphism.reference import reference_answers
from repro.lang.atoms import Atom
from repro.lang.instance import Instance
from repro.lang.parser import parse_constraints, parse_instance, parse_query
from repro.lang.terms import Constant, Null, Variable
from repro.workloads.families import example9_instance
from repro.workloads.paper import example8_beta
from repro.workloads.generators import (random_full_tgds,
                                        random_graph_instance,
                                        random_instance, random_schema)

QUERIES = [
    "q(x, z) <- E(x, y), E(y, z)",               # join
    "q(u) <- S(u), E(u, v)",                     # existential body var
    "q(x, y) <- E(x, y), S(x), S(y)",            # triangle of conditions
    "q(x, x2) <- E(x, x2), E(x2, x)",            # symmetric join
    "q(x) <- E('a', x)",                         # constant in the body
    "q(x, x) <- E(x, y)",                        # repeated head variable
]

GRAPH = "E(a, b). E(b, c). E(c, a). E(a, ?n1). E(?n1, c). S(a). S(b). S(?n1)"


class TestParityHandwritten:
    @pytest.mark.parametrize("query_text", QUERIES)
    @pytest.mark.parametrize("constants_only", [True, False])
    def test_compiled_matches_reference(self, query_text, constants_only):
        query = parse_query(query_text)
        instance = parse_instance(GRAPH)
        compiled = compiled_answers(query, instance, constants_only)
        reference = reference_answers(query, instance, constants_only)
        assert compiled == reference, query_text

    def test_null_filtering_edge_cases(self):
        """Null heads are dropped by the id-level filter exactly when
        the term-level filter would drop them -- including answers
        whose join runs *through* a null but outputs constants."""
        query = parse_query("q(x, z) <- E(x, y), E(y, z)")
        instance = parse_instance(GRAPH)
        with_nulls = compiled_answers(query, instance,
                                      constants_only=False)
        without = compiled_answers(query, instance)
        assert without < with_nulls
        assert all(not any(isinstance(t, Null) for t in row)
                   for row in without)
        # a -> ?n1 -> c joins through the null, outputs constants
        assert (Constant("a"), Constant("c")) in without
        dropped = with_nulls - without
        assert dropped and all(any(isinstance(t, Null) for t in row)
                               for row in dropped)

    def test_constant_head_terms_pass_through(self):
        query = ConjunctiveQuery(
            "q", (Constant("tag"), Variable("x")),
            parse_query("h(x) <- S(x)").body)
        instance = parse_instance(GRAPH)
        assert (compiled_answers(query, instance)
                == reference_answers(query, instance))
        assert all(row[0] == Constant("tag")
                   for row in compiled_answers(query, instance))

    def test_boolean_query(self):
        boolean = ConjunctiveQuery("q", (),
                                   parse_query("h(x) <- S(x), E(x, y)").body)
        instance = parse_instance(GRAPH)
        assert boolean.holds_in(instance)
        assert compiled_answers(boolean, instance) == {()}
        empty = Instance()
        assert not boolean.holds_in(empty)
        assert compiled_answers(boolean, empty) == set()

    def test_compiled_query_is_cached(self):
        left = parse_query(QUERIES[0])
        right = parse_query(QUERIES[0])
        assert compile_query(left) is compile_query(right)


class TestParityOnChasedInstances:
    """Queries over instances the chase filled with labeled nulls."""

    def test_safe_workload_answers_agree(self):
        result = chase(Instance(example9_instance(8).facts()),
                       example8_beta(), max_steps=100_000)
        assert result.terminated
        for query_text in ("q(x1, x3) <- R(x1, x2, x3), S(x3)",
                           "q(x1, x2) <- R(x1, x2, x3)"):
            query = parse_query(query_text)
            for constants_only in (True, False):
                assert (compiled_answers(query, result.instance,
                                         constants_only)
                        == reference_answers(query, result.instance,
                                             constants_only))
        # the chase put nulls into R's middle position, so the filter
        # must be load-bearing for the second query
        assert (compiled_answers(query, result.instance, False)
                != compiled_answers(query, result.instance, True))


def _random_query(rng, schema, max_atoms=3):
    """A random query over ``schema`` with a variable pool small
    enough to force joins; the head exports a sample of body vars."""
    pool = [Variable(f"v{i}") for i in range(4)]
    body = []
    for _ in range(rng.randint(1, max_atoms)):
        relation = rng.choice(list(schema))
        body.append(Atom(relation, tuple(rng.choice(pool)
                                         for _ in range(schema.arity(relation)))))
    body_vars = sorted({v for atom in body for v in atom.variables()},
                       key=lambda v: v.name)
    head = tuple(rng.sample(body_vars, rng.randint(1, len(body_vars))))
    return ConjunctiveQuery("q", head, tuple(body))


class TestRandomizedCrossValidation:
    @pytest.mark.parametrize("seed", range(10))
    def test_generator_workloads_agree(self, seed):
        """Random queries over chased random instances: compiled and
        reference answers identical, and equal to the answers over the
        naive chase's result (full TGDs invent no nulls, so the chase
        result is unique; this pins the store access paths too)."""
        rng = random.Random(seed)
        schema = random_schema(rng)
        sigma = random_full_tgds(seed, size=3)
        facts = sorted(random_instance(seed, schema, n_facts=14).facts(),
                       key=str)
        queries = [_random_query(rng, schema) for _ in range(4)]
        per_run = []
        for naive in (False, True):
            result = chase(Instance(facts), sigma, max_steps=5_000,
                           naive=naive)
            assert result.terminated
            answers = []
            for query in queries:
                compiled = compiled_answers(query, result.instance)
                assert compiled == reference_answers(query, result.instance)
                answers.append(compiled)
            per_run.append(answers)
        assert per_run[0] == per_run[1]

    @pytest.mark.parametrize("seed", range(6))
    def test_graph_workloads_agree(self, seed):
        instance = random_graph_instance(seed, n_nodes=7)
        for query_text in QUERIES:
            query = parse_query(query_text)
            assert (compiled_answers(query, instance)
                    == reference_answers(query, instance)), query_text
