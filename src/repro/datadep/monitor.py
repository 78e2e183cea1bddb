"""The monitor graph and k-cyclicity (Section 4.2, Definitions 17-19).

The monitor graph tracks the provenance of labeled nulls created
during a chase run:

* a **node** is a pair ``(n, pi)`` of a freshly created null and the
  set of positions at which it first appeared;
* an **edge** ``(n1, pi1, phi, Pi, n2, pi2)`` records that the step
  firing constraint ``phi`` consumed null ``n1`` (at body positions
  ``Pi``) and created null ``n2``.

A run is **k-cyclic** (Definition 19) when some path carries ``k``
pairwise distinct edges with identical labels ``(pi1, phi, Pi, pi2)``
-- the signature of a self-feeding null-creation loop.  Lemma 5: every
infinite sequence has a k-cyclic finite prefix for every ``k``, so
aborting at a fixed depth never kills a "safe-looking" run silently
and larger depths succeed on strictly more inputs (Proposition 11,
pay-as-you-go).

Creation order makes the graph a DAG (edges point from older to newer
nulls), so the maximum same-label chain is maintained incrementally in
O(parents x labels) per created null.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Set, Tuple

from repro.chase.step import ChaseStep
from repro.lang.atoms import Position
from repro.lang.constraints import Constraint
from repro.lang.terms import Null

Label = Tuple[FrozenSet[Position], Constraint, FrozenSet[Position],
              FrozenSet[Position]]


@dataclass(frozen=True)
class MonitorNode:
    """A monitor-graph node ``(n, pi)``."""

    null: Null
    positions: FrozenSet[Position]


@dataclass(frozen=True)
class MonitorEdge:
    """A monitor-graph edge ``(n1, pi1, phi, Pi, n2, pi2)``."""

    source: MonitorNode
    constraint: Constraint
    body_positions: FrozenSet[Position]
    target: MonitorNode

    @property
    def label(self) -> Label:
        """The projection ``p_{2,3,4,6}`` used by Definition 19."""
        return (self.source.positions, self.constraint,
                self.body_positions, self.target.positions)


class MonitorGraph:
    """Incrementally built monitor graph with k-cyclicity tracking."""

    def __init__(self) -> None:
        self.nodes: Dict[Null, MonitorNode] = {}
        self.edges: List[MonitorEdge] = []
        # best[n][label] = longest same-label chain among edges ending
        # at n or any of its ancestors.
        self._best: Dict[Null, Dict[Label, int]] = {}
        self._max_chain = 0

    @property
    def cycle_depth(self) -> int:
        """The largest k such that the graph is k-cyclic (0 if none)."""
        return self._max_chain

    def is_k_cyclic(self, k: int) -> bool:
        """Definition 19 membership test."""
        return self._max_chain >= k

    def observe(self, step: ChaseStep) -> None:
        """Account for one executed chase step (Definition 18).

        EGD steps and steps that create no nulls leave the graph
        unchanged.  For a null-creating TGD step, a node is added per
        fresh null and an edge per (existing-node null in the grounded
        body) x (fresh null).
        """
        if not step.new_nulls:
            return
        assignment = step.assignment_dict()
        constraint = step.constraint
        # Positions where each *existing tracked* null sits in the
        # grounded body of the trigger.
        body_occurrences: Dict[Null, Set[Position]] = {}
        grounded_body = [atom.substitute(assignment)
                         for atom in constraint.body]
        for atom in grounded_body:
            for index, arg in enumerate(atom.args):
                if isinstance(arg, Null) and arg in self.nodes:
                    body_occurrences.setdefault(arg, set()).add(
                        Position(atom.relation, index + 1))
        # Where does each fresh null first occur?
        creation_positions: Dict[Null, Set[Position]] = {}
        for fact in step.new_facts:
            for index, arg in enumerate(fact.args):
                if isinstance(arg, Null) and arg in step.new_nulls:
                    creation_positions.setdefault(arg, set()).add(
                        Position(fact.relation, index + 1))
        for null in step.new_nulls:
            positions = frozenset(creation_positions.get(null, set()))
            node = MonitorNode(null, positions)
            self.nodes[null] = node
            best: Dict[Label, int] = {}
            for parent_null, parent_positions in body_occurrences.items():
                parent = self.nodes[parent_null]
                edge = MonitorEdge(parent, constraint,
                                   frozenset(parent_positions), node)
                self.edges.append(edge)
                parent_best = self._best.get(parent_null, {})
                chain = 1 + parent_best.get(edge.label, 0)
                if chain > best.get(edge.label, 0):
                    best[edge.label] = chain
                if chain > self._max_chain:
                    self._max_chain = chain
                # Inherit the ancestors' chains wholesale.
                for label, value in parent_best.items():
                    if value > best.get(label, 0):
                        best[label] = value
            self._best[null] = best

    # ------------------------------------------------------------------
    @classmethod
    def from_sequence(cls, sequence: Iterable[ChaseStep]) -> "MonitorGraph":
        """Build the monitor graph of a recorded chase sequence."""
        graph = cls()
        for step in sequence:
            graph.observe(step)
        return graph

    def describe(self) -> str:
        lines = [f"monitor graph: {len(self.nodes)} nodes, "
                 f"{len(self.edges)} edges, cycle depth {self._max_chain}"]
        for edge in self.edges:
            pi1 = "{" + ", ".join(sorted(map(str, edge.source.positions))) + "}"
            pi2 = "{" + ", ".join(sorted(map(str, edge.target.positions))) + "}"
            body = "{" + ", ".join(sorted(map(str, edge.body_positions))) + "}"
            lines.append(
                f"  ({edge.source.null}, {pi1}) --"
                f"{edge.constraint.display_name()}, {body}--> "
                f"({edge.target.null}, {pi2})")
        return "\n".join(lines)
