"""Affected positions (Definition 6, after Cali, Gottlob, Kifer [5]).

``aff(Sigma)`` over-estimates the positions in which a labeled null
introduced during the chase may occur.  Inductively, a head position
``pi`` of a TGD is affected if

* an existentially quantified variable appears at ``pi``, or
* a universally quantified variable appears at ``pi`` in the head and
  occurs in the body *only* at affected positions.

EGDs contribute nothing (they never create nulls; the equality
replacement can only shrink null occurrences).
"""

from __future__ import annotations

from typing import Iterable

from repro.lang.atoms import Position, occurrences
from repro.lang.constraints import Constraint, TGD


def affected_positions(sigma: Iterable[Constraint]) -> set[Position]:
    """The least fixpoint of Definition 6."""
    tgds = [c for c in sigma if isinstance(c, TGD)]
    affected: set[Position] = set()
    # Base case: existential positions.
    for tgd in tgds:
        for evar in tgd.existential_variables():
            affected |= occurrences(tgd.head, evar)
    # Inductive case, to fixpoint.
    changed = True
    while changed:
        changed = False
        for tgd in tgds:
            for var in tgd.frontier_variables():
                body_positions = occurrences(tgd.body, var)
                if not body_positions:
                    continue
                if body_positions <= affected:
                    new_positions = occurrences(tgd.head, var) - affected
                    if new_positions:
                        affected |= new_positions
                        changed = True
    return affected
