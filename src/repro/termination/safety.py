"""Safety (Section 3.4, Definitions 7 and 8) -- the paper's first novel
termination condition.

The *propagation graph* ``prop(Sigma)`` restricts the dependency graph
to the flow of labeled nulls: its vertices are the affected positions,
and edges originate only from body variables that occur *exclusively*
at affected positions (only those can carry a null at runtime).  A set
is **safe** iff ``prop(Sigma)`` has no cycle through a special edge.

Theorem 4: ``prop(Sigma)`` is a subgraph of ``dep(Sigma)``; weak
acyclicity implies safety; safety and (c-)stratification are
incomparable.  Theorem 5: safety bounds every chase sequence
polynomially in ``|dom(I)|``.
"""

from __future__ import annotations

from typing import Iterable

import networkx as nx

from repro.lang.atoms import Position, occurrences
from repro.lang.constraints import Constraint, TGD
from repro.termination.affected import affected_positions
from repro.termination.dependency_graph import (_add_edge,
                                                has_special_cycle,
                                                special_cycle_edge)


def propagation_graph(sigma: Iterable[Constraint]) -> nx.DiGraph:
    """Build ``prop(Sigma)`` (Definition 7).

    Note the vertex set is ``aff(Sigma)``: edges whose endpoint is not
    affected cannot exist because (a) sources are restricted to
    positions of variables occurring only at affected positions and
    (b) targets of special edges are existential positions (affected by
    definition) while targets of normal edges inherit affectedness from
    their source variable (Definition 6's inductive case).
    """
    sigma = list(sigma)
    affected = affected_positions(sigma)
    graph = nx.DiGraph()
    graph.add_nodes_from(affected)
    for tgd in (c for c in sigma if isinstance(c, TGD)):
        special_targets: set[Position] = set()
        for evar in tgd.existential_variables():
            special_targets |= occurrences(tgd.head, evar)
        for var in tgd.frontier_variables():
            body_positions = occurrences(tgd.body, var)
            if not body_positions or not body_positions <= affected:
                continue  # var can never carry a null
            head_positions = occurrences(tgd.head, var)
            for pi1 in body_positions:
                for pi2 in head_positions:
                    if pi2 in affected:
                        _add_edge(graph, pi1, pi2, special=False)
                for pi2 in special_targets:
                    _add_edge(graph, pi1, pi2, special=True)
    return graph


def is_safe(sigma: Iterable[Constraint]) -> bool:
    """Definition 8: no cycle through a special edge in ``prop``."""
    return not has_special_cycle(propagation_graph(sigma))


def safety_witness(sigma: Iterable[Constraint]):
    """A special edge on a cycle of ``prop(Sigma)``, or None if safe."""
    return special_cycle_edge(propagation_graph(sigma))
