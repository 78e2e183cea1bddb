"""Chase graphs (Definitions 3 and 5) and their cycle analysis.

The chase graph ``G(Sigma)`` has the constraints as vertices and an
edge ``(alpha, beta)`` iff ``alpha < beta``; the c-chase graph
``G_c(Sigma)`` uses the oblivious relation ``<_c``.  Both
(c-)stratification and the Theorem 2 chase order are read off these
graphs.  Both conditions ask the same question of their graph --
does some cycle fail weak acyclicity? -- and
:func:`non_weakly_acyclic_cycle_of` answers it for either.
"""

from __future__ import annotations

from typing import Callable, Iterable, List, Optional, Set

import networkx as nx

from repro.lang.constraints import Constraint
from repro.termination.precedence import ORACLE, PrecedenceOracle
from repro.termination.weak_acyclicity import is_weakly_acyclic


def chase_graph(sigma: Iterable[Constraint],
                oracle: PrecedenceOracle = ORACLE) -> nx.DiGraph:
    """``G(Sigma)`` over the standard firing relation ``<`` (Def. 3)."""
    return _graph(sigma, oracle.precedes)


def c_chase_graph(sigma: Iterable[Constraint],
                  oracle: PrecedenceOracle = ORACLE,
                  printed_variant: bool = False) -> nx.DiGraph:
    """``G_c(Sigma)`` over the oblivious relation ``<_c`` (Def. 5)."""
    def relation(alpha: Constraint, beta: Constraint) -> bool:
        return oracle.precedes_c(alpha, beta, printed_variant=printed_variant)
    return _graph(sigma, relation)


def _graph(sigma: Iterable[Constraint],
           relation: Callable[[Constraint, Constraint], bool]) -> nx.DiGraph:
    constraints = list(sigma)
    graph = nx.DiGraph()
    graph.add_nodes_from(constraints)
    for alpha in constraints:
        for beta in constraints:
            if relation(alpha, beta):
                graph.add_edge(alpha, beta)
    return graph


def nontrivial_sccs(graph: nx.DiGraph) -> List[Set[Constraint]]:
    """Strongly connected components that contain at least one cycle
    (two or more vertices, or a vertex with a self-loop)."""
    out: List[Set[Constraint]] = []
    for component in nx.strongly_connected_components(graph):
        members = set(component)
        if len(members) > 1:
            out.append(members)
        else:
            (node,) = members
            if graph.has_edge(node, node):
                out.append(members)
    return out


def non_weakly_acyclic_cycle_of(graph: nx.DiGraph
                                ) -> Optional[List[Constraint]]:
    """The first cycle of a (c-)chase graph whose constraints are not
    weakly acyclic, or None when every cycle is.

    Weak acyclicity is closed under subsets, so a weakly acyclic SCC
    certifies every cycle it contains; only an SCC that fails weak
    acyclicity has its simple cycles enumerated one by one.
    """
    for component in nontrivial_sccs(graph):
        if is_weakly_acyclic(component):
            continue
        for cycle in nx.simple_cycles(graph.subgraph(component)):
            if not is_weakly_acyclic(cycle):
                return list(cycle)
    return None


def topological_strata(graph: nx.DiGraph) -> List[List[Constraint]]:
    """The SCC quotient in topological order (Theorem 2's W'_1..W'_n).

    Every constraint appears in exactly one stratum; singleton SCCs
    without self-loops form their own strata.
    """
    condensation = nx.condensation(graph)
    order = nx.topological_sort(condensation)
    return [sorted(condensation.nodes[scc_id]["members"],
                   key=lambda c: c.display_name())
            for scc_id in order]
