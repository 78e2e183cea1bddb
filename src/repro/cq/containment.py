"""CQ containment and equivalence, plain and under constraints.

Classical (Chandra-Merkle) containment: ``q1 subseteq q2`` iff there
is a homomorphism from ``q2``'s canonical instance to ``q1``'s that
maps head to head.  Under a constraint set ``Sigma`` the canonical
instance of ``q1`` is first chased (Johnson-Klug [13]; this is the
correctness backbone of the Section 4 SQO pipeline).
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional

from repro.chase.result import ChaseStatus
from repro.chase.runner import chase, DEFAULT_MAX_STEPS
from repro.cq.query import ConjunctiveQuery
from repro.homomorphism.engine import find_homomorphisms
from repro.lang.constraints import Constraint
from repro.lang.errors import NonTerminationBudget
from repro.lang.terms import GroundTerm, Variable


def _head_image(query: ConjunctiveQuery,
                mapping: Dict[Variable, GroundTerm]) -> tuple:
    return tuple(mapping.get(t, t) if isinstance(t, Variable) else t
                 for t in query.head)


def contained_in(q1: ConjunctiveQuery, q2: ConjunctiveQuery,
                 sigma: Iterable[Constraint] = (),
                 max_steps: int = DEFAULT_MAX_STEPS,
                 cycle_limit: Optional[int] = None) -> bool:
    """``q1 subseteq_Sigma q2``?

    Freezes ``q1``, chases it with ``sigma`` (must terminate, else
    :class:`NonTerminationBudget` is raised) and searches a
    head-preserving homomorphism from ``q2``'s body.  ``cycle_limit``
    arms the Section 4.2 monitor so divergent candidate chases abort
    after a handful of steps instead of burning the step budget.
    """
    frozen, var_map = q1.freeze()
    sigma = list(sigma)
    if sigma:
        if cycle_limit is not None:
            from repro.datadep.monitored_chase import monitored_chase
            result = monitored_chase(frozen, sigma, cycle_limit,
                                     max_steps=max_steps).result
        else:
            result = chase(frozen, sigma, max_steps=max_steps)
        if result.status is not ChaseStatus.TERMINATED:
            raise NonTerminationBudget(
                f"chase of {q1.name}'s canonical instance did not "
                f"terminate within {max_steps} steps "
                f"({result.status.value})")
        frozen = result.instance
    target_head = tuple(var_map.get(t, t) if isinstance(t, Variable) else t
                        for t in q1.head)
    for assignment in find_homomorphisms(list(q2.body), frozen):
        if _head_image(q2, assignment) == target_head:
            return True
    return False


def equivalent(q1: ConjunctiveQuery, q2: ConjunctiveQuery,
               sigma: Iterable[Constraint] = (),
               max_steps: int = DEFAULT_MAX_STEPS,
               cycle_limit: Optional[int] = None) -> bool:
    """``q1 equiv_Sigma q2``: containment both ways."""
    return (contained_in(q1, q2, sigma, max_steps, cycle_limit)
            and contained_in(q2, q1, sigma, max_steps, cycle_limit))
