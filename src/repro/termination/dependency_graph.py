"""The dependency graph of a constraint set (Definition 1, after [21]).

Vertices are the positions occurring in some TGD of ``Sigma``.  For
every TGD ``forall x (phi -> exists y psi)``, every universal variable
``x`` occurring in the head, and every body occurrence of ``x`` at
position ``pi1``:

* a *normal* edge ``pi1 -> pi2`` for every head occurrence of ``x`` at
  ``pi2`` (data may be copied along it), and
* a *special* edge ``pi1 ->* pi2`` for every existential variable
  occurrence at head position ``pi2`` (a fresh null may be created).

EGDs contribute no edges.
"""

from __future__ import annotations

from typing import Iterable, Optional

import networkx as nx

from repro.lang.atoms import Position, occurrences
from repro.lang.constraints import Constraint, TGD

#: edge attribute marking special (null-creating) edges
SPECIAL = "special"


def dependency_graph(sigma: Iterable[Constraint]) -> nx.DiGraph:
    """Build ``dep(Sigma)`` as a networkx digraph.

    Edge attribute ``special`` is True for special edges.  When both a
    normal and a special edge connect the same pair of positions, the
    edge is marked special (only special edges matter for cycles, and a
    parallel normal edge cannot remove one).  A dedicated
    ``normal_too`` attribute records that both kinds exist, so the
    exact edge multiset of the paper's figures can be recovered.
    """
    graph = nx.DiGraph()
    tgds = [c for c in sigma if isinstance(c, TGD)]
    for tgd in tgds:
        for atoms in (tgd.body, tgd.head):
            for atom in atoms:
                for position in atom.positions():
                    graph.add_node(position)
        existential = tgd.existential_variables()
        special_targets: set[Position] = set()
        for evar in existential:
            special_targets |= occurrences(tgd.head, evar)
        for var in tgd.frontier_variables():
            body_positions = occurrences(tgd.body, var)
            head_positions = occurrences(tgd.head, var)
            for pi1 in body_positions:
                for pi2 in head_positions:
                    _add_edge(graph, pi1, pi2, special=False)
                for pi2 in special_targets:
                    _add_edge(graph, pi1, pi2, special=True)
    return graph


def _add_edge(graph: nx.DiGraph, source: Position, target: Position,
              special: bool) -> None:
    if graph.has_edge(source, target):
        data = graph.edges[source, target]
        if special and not data[SPECIAL]:
            data[SPECIAL] = True
            data["normal_too"] = True
        elif not special and data[SPECIAL]:
            data["normal_too"] = True
        return
    graph.add_edge(source, target, **{SPECIAL: special, "normal_too": False})


def special_cycle_edge(graph: nx.DiGraph) -> Optional[tuple]:
    """The first special edge ``(source, target)`` lying on a cycle,
    or None when no cycle goes through a special edge.

    A special edge lies on a cycle iff its endpoints belong to the same
    strongly connected component.
    """
    component_of: dict[Position, int] = {}
    for i, component in enumerate(nx.strongly_connected_components(graph)):
        for node in component:
            component_of[node] = i
    for source, target, data in graph.edges(data=True):
        if data.get(SPECIAL) and component_of[source] == component_of[target]:
            return (source, target)
    return None


def has_special_cycle(graph: nx.DiGraph) -> bool:
    """Does the graph contain a cycle going through a special edge?"""
    return special_cycle_edge(graph) is not None


def position_ranks(graph: nx.DiGraph) -> dict[Position, int]:
    """``rank(pi)``: the maximum number of special edges on any incoming
    path (finite iff no cycle through a special edge; used in the proof
    of Theorem 5 and handy for diagnostics).

    Raises ``ValueError`` when a special cycle makes ranks infinite.
    """
    if has_special_cycle(graph):
        raise ValueError("ranks are infinite: cycle through a special edge")
    condensation = nx.condensation(graph)
    order = list(nx.topological_sort(condensation))
    ranks: dict[Position, int] = {node: 0 for node in graph.nodes}
    for scc_id in order:
        members = condensation.nodes[scc_id]["members"]
        # Propagate within the graph in topological order of SCCs;
        # inside an SCC all edges are normal (no special cycles), so
        # members share the same rank contribution from outside.
        changed = True
        while changed:
            changed = False
            for node in members:
                for pred in graph.predecessors(node):
                    weight = 1 if graph.edges[pred, node][SPECIAL] else 0
                    candidate = ranks[pred] + weight
                    if candidate > ranks[node]:
                        ranks[node] = candidate
                        changed = True
    return ranks
