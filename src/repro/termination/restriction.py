"""Restriction systems (Definitions 11, 12, 15), the ``part``
algorithm (Figure 7), and the classes *safe restriction* [18] and
**inductive restriction** (Definition 13, Section 3.5).

A k-restriction system is a pair ``(G'(Sigma), f)`` of a constraint
graph and a set of positions, closed under

* *edge generation*: ``<_{k,f}(alpha_1..alpha_k)`` forces the edges
  ``(alpha_1,alpha_2), ..., (alpha_{k-1},alpha_k)``, and
* *position closure*: endpoints of edges push their ``aff-cl`` head
  positions into ``f``.

The minimal system is the least fixpoint, unique because both
operators are monotone (``<_{k,P}`` is monotone in ``P``).

For k = 2 we follow Definition 12 exactly: both endpoints of every
edge are closed and the closure is intersected with ``pos(Sigma)``
(body positions).  For k >= 3 Definition 15 closes only edge sources
and omits the intersection; both choices are kept as written, and the
k = 2 instance coincides with inductive restriction (Proposition 5a).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Dict, FrozenSet, Iterable, List, Set, Tuple

import networkx as nx

from repro.lang.atoms import Position, occurrences
from repro.lang.constraints import (Constraint, constraint_set_positions,
                                    TGD)
from repro.termination.chase_graph import nontrivial_sccs
from repro.termination.precedence import ORACLE, PrecedenceOracle
from repro.termination.safety import is_safe


def aff_cl(constraint: Constraint, positions: Set[Position]
           ) -> Set[Position]:
    """Definition 11: head positions of a TGD that may receive a null
    when nulls can only sit at ``positions`` in the body.

    A head position qualifies if it holds an existentially quantified
    variable, or if every universally quantified variable occurring at
    it occurs in the body only at positions from ``positions``.
    EGDs have no head positions: their closure is empty.
    """
    if not isinstance(constraint, TGD):
        return set()
    existential = constraint.existential_variables()
    universal = constraint.universal_variables()
    result: Set[Position] = set()
    head_positions: Dict[Position, Set] = {}
    for atom in constraint.head:
        for index, arg in enumerate(atom.args):
            head_positions.setdefault(Position(atom.relation, index + 1),
                                      set()).add(arg)
    for position, terms in head_positions.items():
        term_vars = {t for t in terms if t in existential or t in universal}
        if term_vars & existential:
            result.add(position)
            continue
        universal_here = term_vars & universal
        if universal_here and all(
                occurrences(constraint.body, var) <= positions
                for var in universal_here):
            result.add(position)
    return result


@dataclass(frozen=True)
class RestrictionSystem:
    """A computed minimal k-restriction system."""

    k: int
    graph: nx.DiGraph
    positions: FrozenSet[Position]

    def edges(self) -> Set[Tuple[Constraint, Constraint]]:
        """The restriction system's constraint-to-constraint edges
        (Definition 11's binary relation)."""
        return set(self.graph.edges())

    def cyclic_components(self) -> List[Set[Constraint]]:
        """Strongly connected components containing a cycle."""
        return nontrivial_sccs(self.graph)


def minimal_restriction_system(sigma: Iterable[Constraint], k: int = 2,
                               oracle: PrecedenceOracle = ORACLE
                               ) -> RestrictionSystem:
    """Least-fixpoint computation of the minimal k-restriction system."""
    if k < 2:
        raise ValueError("restriction systems need k >= 2")
    # Callers pass frozensets (``part`` recurses on components): a
    # fixed order makes the oracle queries, and so the search work and
    # the component order, the same under every string-hash seed.
    constraints = sorted(sigma, key=str)
    body_positions = constraint_set_positions(constraints)
    graph = nx.DiGraph()
    graph.add_nodes_from(constraints)
    f: Set[Position] = set()
    changed = True
    while changed:
        changed = False
        # Edge generation from the firing chains.
        for chain in product(constraints, repeat=k):
            consecutive = list(zip(chain, chain[1:]))
            if all(graph.has_edge(a, b) for a, b in consecutive):
                continue  # nothing new to learn from this tuple
            if oracle.precedes_k(chain, f):
                for a, b in consecutive:
                    if not graph.has_edge(a, b):
                        graph.add_edge(a, b)
                        changed = True
        # Position closure along edges.
        for alpha, beta in list(graph.edges()):
            if k == 2:
                closure = aff_cl(alpha, f) | aff_cl(beta, f)
                closure &= body_positions
            else:
                closure = aff_cl(alpha, f)
            if not closure <= f:
                f |= closure
                changed = True
    return RestrictionSystem(k=k, graph=graph, positions=frozenset(f))


@dataclass(frozen=True)
class FlowRestrictionSystem:
    """A per-constraint variant of the 2-restriction system.

    This is the refinement the paper actually *uses* in the Section 3.7
    walkthrough (``f(alpha_1) = f(alpha_2) = {E1,E2,S1}, f(alpha_3) =
    empty, ...``) and in Example 19 / Definition 22: ``f(beta)``
    collects the head closures of ``beta``'s predecessors,

        ``f(beta) = union over edges (alpha, beta) of
        aff-cl(alpha, f(alpha))``,

    with the edge test ``alpha <_{f(alpha)} beta``.  It is finer than
    the global Definition 12 fixpoint (whose literal both-endpoint
    closure grows ``f`` past the paper's own Example 19 values; see
    docs/PAPER_MAP.md) and satisfies ``f(alpha) subseteq aff(Sigma)`` (the
    containment behind Lemma 7's WG => RG direction).
    """

    graph: nx.DiGraph
    positions: Dict[Constraint, FrozenSet[Position]]

    def positions_of(self, constraint: Constraint) -> FrozenSet[Position]:
        """``f(alpha)``: the flow-restricted position set of ``alpha``."""
        return self.positions.get(constraint, frozenset())


def flow_restriction_system(sigma: Iterable[Constraint],
                            oracle: PrecedenceOracle = ORACLE
                            ) -> FlowRestrictionSystem:
    """Least fixpoint of the per-constraint flow system (see
    :class:`FlowRestrictionSystem`)."""
    constraints = list(sigma)
    graph = nx.DiGraph()
    graph.add_nodes_from(constraints)
    f: Dict[Constraint, Set[Position]] = {c: set() for c in constraints}
    changed = True
    while changed:
        changed = False
        for alpha in constraints:
            for beta in constraints:
                if graph.has_edge(alpha, beta):
                    continue
                if oracle.precedes_p(alpha, beta, f[alpha]):
                    graph.add_edge(alpha, beta)
                    changed = True
        for alpha, beta in graph.edges():
            closure = aff_cl(alpha, f[alpha])
            if not closure <= f[beta]:
                f[beta] |= closure
                changed = True
    return FlowRestrictionSystem(
        graph=graph,
        positions={c: frozenset(p) for c, p in f.items()})


def part(sigma: Iterable[Constraint], k: int = 2,
         oracle: PrecedenceOracle = ORACLE) -> List[FrozenSet[Constraint]]:
    """Figure 7's ``part(Sigma, k)``: recursively decompose the
    constraint set along the cyclic components of its minimal
    k-restriction system.  Returns the irreducible cyclic subsets; an
    empty list means the decomposition dissolved every cycle."""
    sigma_set = frozenset(sigma)
    system = minimal_restriction_system(sigma_set, k, oracle)
    components = [frozenset(c) for c in system.cyclic_components()]
    if len(components) == 0:
        return []
    if len(components) == 1:
        (component,) = components
        if component != sigma_set:
            return part(component, k, oracle)
        return [sigma_set]
    result: List[FrozenSet[Constraint]] = []
    for component in components:
        result.extend(part(component, k, oracle))
    return result


def is_safely_restricted(sigma: Iterable[Constraint],
                         oracle: PrecedenceOracle = ORACLE) -> bool:
    """The intermediate class of [18]: every cyclic component of the
    minimal 2-restriction system is safe (no recursion)."""
    system = minimal_restriction_system(sigma, 2, oracle)
    return all(is_safe(component) for component in system.cyclic_components())


def is_inductively_restricted(sigma: Iterable[Constraint],
                              oracle: PrecedenceOracle = ORACLE) -> bool:
    """Definition 13: every set in ``part(Sigma, 2)`` is safe.

    Coincides with membership in T[2] (Proposition 5a); guarantees
    termination of every chase sequence in polynomial time data
    complexity (Theorem 6).
    """
    return all(is_safe(subset) for subset in part(sigma, 2, oracle))
