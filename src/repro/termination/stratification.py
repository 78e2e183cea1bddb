"""Stratification (Definition 3, after Deutsch, Nash, Remmel [9]) and
the paper's correction of its guarantee (Theorems 1 and 2).

``Sigma`` is *stratified* iff the constraints in every cycle of the
chase graph ``G(Sigma)`` are weakly acyclic.  The paper's Example 4
shows this does **not** bound every chase sequence (contrary to the
claim in [9]); Theorems 1 and 2 salvage the condition: some chase
sequence terminates, and it can be constructed from the chase graph by
chasing the strongly connected components in topological order.

Cycles are checked by
:func:`repro.termination.chase_graph.non_weakly_acyclic_cycle_of`,
which c-stratification shares.
"""

from __future__ import annotations

from typing import Iterable, List, Optional

from repro.chase.strategies import StratifiedStrategy
from repro.lang.constraints import Constraint
from repro.termination.chase_graph import (chase_graph,
                                           non_weakly_acyclic_cycle_of,
                                           topological_strata)
from repro.termination.precedence import ORACLE, PrecedenceOracle


def is_stratified(sigma: Iterable[Constraint],
                  oracle: PrecedenceOracle = ORACLE) -> bool:
    """Definition 3.  Guarantees (only) that *some* chase sequence
    terminates -- see Theorem 1 and Example 4."""
    return non_weakly_acyclic_cycle(sigma, oracle) is None


def chase_strata(sigma: Iterable[Constraint],
                 oracle: PrecedenceOracle = ORACLE
                 ) -> List[List[Constraint]]:
    """Theorem 2's effective construction: the SCCs of ``G(Sigma)`` in
    topological order.  Chasing stratum by stratum yields a terminating
    sequence whenever each stratum's chase terminates
    data-independently (in particular for stratified ``Sigma``)."""
    return topological_strata(chase_graph(sigma, oracle))


def stratified_strategy(sigma: Iterable[Constraint],
                        oracle: PrecedenceOracle = ORACLE,
                        verify: bool = False) -> StratifiedStrategy:
    """A ready-to-use chase strategy implementing Theorem 2."""
    return StratifiedStrategy(chase_strata(sigma, oracle), verify=verify)


def non_weakly_acyclic_cycle(sigma: Iterable[Constraint],
                             oracle: PrecedenceOracle = ORACLE
                             ) -> Optional[List[Constraint]]:
    """A witness cycle whose constraints are not weakly acyclic, or
    None when the set is stratified."""
    return non_weakly_acyclic_cycle_of(chase_graph(sigma, oracle))
