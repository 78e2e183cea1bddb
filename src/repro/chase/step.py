"""Single chase steps (standard and oblivious) and their records.

A standard chase step ``I --(alpha, mu(x))--> J`` (Section 2):

* for a TGD, extend ``mu`` by fresh labeled nulls for the existential
  variables and add the grounded head atoms;
* for an EGD with ``mu(x_i) != mu(x_j)``, substitute one value by the
  other, preferring to eliminate a labeled null; if both are constants
  the chase *fails* (result undefined).

The oblivious variant differs only in its applicability condition
(checked by the caller): the body merely has to map, the head may
already be satisfied.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Optional, Tuple

from repro.homomorphism.engine import Assignment, apply_assignment
from repro.homomorphism.extend import freeze_assignment as _freeze_assignment
from repro.lang.atoms import Atom
from repro.lang.constraints import Constraint, EGD, TGD
from repro.lang.errors import ChaseFailure
from repro.lang.instance import Instance
from repro.lang.terms import (GroundTerm, Null, NullFactory, NULLS, Variable)


@dataclass(frozen=True)
class ChaseStep:
    """A record of one executed chase step."""

    index: int
    constraint: Constraint
    assignment: Tuple[Tuple[str, GroundTerm], ...]
    new_facts: Tuple[Atom, ...]
    new_nulls: Tuple[Null, ...]
    substitution: Optional[Tuple[GroundTerm, GroundTerm]] = None
    oblivious: bool = False

    def assignment_dict(self) -> dict[Variable, GroundTerm]:
        """The body assignment ``mu`` as a variable -> term mapping."""
        return {Variable(name): value for name, value in self.assignment}

    def describe(self) -> str:
        """The paper's arrow notation ``--(alpha, mu(x))-->`` (Section 2)."""
        params = ", ".join(f"{name}={value}"
                           for name, value in self.assignment)
        marker = "*," if self.oblivious else ""
        name = self.constraint.display_name()
        return f"--({marker}{name}, {params})-->"


def apply_tgd_step(instance: Instance, tgd: TGD, assignment: Assignment,
                   index: int = 0, oblivious: bool = False,
                   nulls: NullFactory = NULLS) -> ChaseStep:
    """Execute a TGD step in place and return its record."""
    extension: dict[Variable, GroundTerm] = dict(assignment)
    fresh: list[Null] = []
    for var in sorted(tgd.existential_variables(), key=lambda v: v.name):
        null = nulls.fresh()
        extension[var] = null
        fresh.append(null)
    head_facts = apply_assignment(tgd.head, extension)
    new_facts = instance.add_all(head_facts)
    # Only count nulls that actually made it into a new fact.
    used = {null for fact in new_facts for null in fact.nulls()}
    created = tuple(null for null in fresh if null in used)
    return ChaseStep(index=index, constraint=tgd,
                     assignment=_freeze_assignment(assignment),
                     new_facts=tuple(new_facts), new_nulls=created,
                     oblivious=oblivious)


def apply_egd_step(instance: Instance, egd: EGD, assignment: Assignment,
                   index: int = 0, oblivious: bool = False) -> ChaseStep:
    """Execute an EGD step in place; raises :class:`ChaseFailure` when
    both terms are constants."""
    left = assignment[egd.lhs]
    right = assignment[egd.rhs]
    if left == right:
        raise ValueError("EGD step requires mu(x_i) != mu(x_j)")
    if isinstance(right, Null):
        old, new = right, left
    elif isinstance(left, Null):
        old, new = left, right
    else:
        # Named in the order of their canonical JSON text (the term
        # order of :mod:`repro.service.serialize`), not in the order
        # the trigger bound them, which varies with the search (the
        # reference engine's follows the string-hash seed): the reason
        # is part of the reply.
        first, second = sorted(
            (left, right), key=lambda term: json.dumps(term.value,
                                                       default=repr))
        raise ChaseFailure(
            f"EGD {egd.display_name()} equates distinct constants "
            f"{first} and {second}")
    changed = instance.substitute_term(old, new)
    return ChaseStep(index=index, constraint=egd,
                     assignment=_freeze_assignment(assignment),
                     new_facts=tuple(changed), new_nulls=(),
                     substitution=(old, new), oblivious=oblivious)


def apply_step(instance: Instance, constraint: Constraint,
               assignment: Assignment, index: int = 0,
               oblivious: bool = False,
               nulls: NullFactory = NULLS) -> ChaseStep:
    """Dispatch on the constraint kind."""
    if isinstance(constraint, TGD):
        return apply_tgd_step(instance, constraint, assignment, index,
                              oblivious, nulls)
    assert isinstance(constraint, EGD)
    return apply_egd_step(instance, constraint, assignment, index, oblivious)
