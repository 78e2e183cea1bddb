"""Shared fixtures and hypothesis strategies for the test suite."""

from __future__ import annotations

import random

import pytest
from hypothesis import strategies as st

from repro.homomorphism.reference import reference_find_homomorphisms
from repro.lang.atoms import Atom
from repro.lang.constraints import EGD, TGD
from repro.lang.instance import Instance
from repro.lang.terms import Constant, Variable


# ----------------------------------------------------------------------
# hypothesis strategies over the graph schema S(n), E(src, dst)
# ----------------------------------------------------------------------
_VARIABLES = [Variable(name) for name in ("x", "y", "z", "u", "v")]
_EVARS = [Variable(name) for name in ("e1", "e2")]
_CONSTANTS = [Constant(name) for name in ("a", "b", "c", "d")]


@st.composite
def graph_atoms(draw, pool):
    """A random S/E atom over the given term pool."""
    if draw(st.booleans()):
        return Atom("S", (draw(st.sampled_from(pool)),))
    return Atom("E", (draw(st.sampled_from(pool)),
                      draw(st.sampled_from(pool))))


@st.composite
def graph_instances(draw):
    """A random small instance over constants."""
    n_facts = draw(st.integers(min_value=1, max_value=8))
    facts = [draw(graph_atoms(_CONSTANTS)) for _ in range(n_facts)]
    return Instance(facts)


@st.composite
def graph_tgds(draw, allow_existential=True):
    """A random well-formed TGD over the graph schema."""
    n_body = draw(st.integers(min_value=1, max_value=3))
    body = [draw(graph_atoms(_VARIABLES)) for _ in range(n_body)]
    body_vars = sorted({v for atom in body for v in atom.variables()},
                       key=lambda v: v.name)
    head_pool = list(body_vars)
    if allow_existential and draw(st.booleans()):
        head_pool += _EVARS[:draw(st.integers(min_value=1, max_value=2))]
    n_head = draw(st.integers(min_value=1, max_value=2))
    head = [draw(graph_atoms(head_pool)) for _ in range(n_head)]
    return TGD(body, head)


@st.composite
def graph_tgd_sets(draw, max_size=3, allow_existential=True):
    size = draw(st.integers(min_value=1, max_value=max_size))
    return [draw(graph_tgds(allow_existential=allow_existential))
            for _ in range(size)]


def reference_satisfied(sigma, instance) -> bool:
    """Does ``instance`` satisfy every constraint of ``sigma``, by the
    reference search alone?  A model check independent of the join
    plans that the chase and ``all_satisfied`` run on."""
    for constraint in sigma:
        for body in reference_find_homomorphisms(list(constraint.body),
                                                 instance):
            if isinstance(constraint, EGD):
                if body[constraint.lhs] != body[constraint.rhs]:
                    return False
                continue
            frontier = {var: body[var]
                        for var in constraint.frontier_variables()}
            if next(reference_find_homomorphisms(
                    list(constraint.head), instance, partial=frontier,
                    limit=1), None) is None:
                return False
    return True


@pytest.fixture
def rng():
    return random.Random(20090617)


def pytest_collection_modifyitems(items):
    """Everything not explicitly slow or fuzz is tier-1 by definition,
    so `-m tier1` selects exactly the fast deterministic suite."""
    for item in items:
        if ("slow" not in item.keywords and "fuzz" not in item.keywords):
            item.add_marker(pytest.mark.tier1)
