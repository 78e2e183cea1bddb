"""Weak acyclicity (Definition 1, after Fagin et al. [21]).

A constraint set is weakly acyclic iff its dependency graph has no
cycle through a special edge.  The check is polynomial; it is both the
baseline condition of Figure 1 and the leaf test of stratification,
c-stratification and the ``check`` algorithm.
"""

from __future__ import annotations

from typing import Iterable

from repro.lang.constraints import Constraint
from repro.termination.dependency_graph import (dependency_graph,
                                                has_special_cycle,
                                                special_cycle_edge)


def is_weakly_acyclic(sigma: Iterable[Constraint]) -> bool:
    """``Sigma`` is weakly acyclic iff ``dep(Sigma)`` has no cycle
    through a special edge."""
    return not has_special_cycle(dependency_graph(sigma))


def weak_acyclicity_witness(sigma: Iterable[Constraint]):
    """A special edge lying on a cycle, or None when weakly acyclic.

    Useful for error messages and for rendering the paper's Figure 3
    (the ``fly^2 ->* fly^2`` self-loop of Example 1).
    """
    return special_cycle_edge(dependency_graph(sigma))
