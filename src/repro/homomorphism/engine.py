"""Homomorphism search between atom sets and database instances.

A homomorphism (Section 2 of the paper) is a mapping
``mu : Delta cup V -> Delta cup Delta_null`` such that (i) constants
map to themselves and (ii) atom images are preserved.  We additionally
require nulls occurring on the *source* side to map to themselves --
the source side of every search in this library is either a constraint
body (variables + constants) or an already-grounded atom set.

The search itself is a backtracking join executed by a compiled
:class:`repro.homomorphism.plan.JoinPlan`: the atom order is chosen
once per binding signature (selectivity-informed most-constrained
first), candidates come from the instance's interned-id access
paths, and terms are decoded only when a binding survives.
"""

from __future__ import annotations

from typing import (Callable, Dict, Iterable, Iterator, Mapping, Optional,
                    Sequence, Tuple, Union)

from repro.homomorphism.plan import Assignment, JoinPlan, compile_plan
from repro.lang.atoms import Atom
from repro.lang.instance import Instance
from repro.lang.terms import GroundTerm, Null, Variable

__all__ = [
    "Assignment", "apply_assignment", "find_homomorphism",
    "find_homomorphisms", "find_homomorphisms_through",
    "has_homomorphism", "homomorphism_between", "instance_maps_into",
    "is_endomorphism_proper", "null_renaming_equivalent",
]


def find_homomorphisms(atoms: Sequence[Atom], instance: Instance,
                       partial: Optional[Mapping[Variable, GroundTerm]] = None,
                       limit: Optional[int] = None
                       ) -> Iterator[Assignment]:
    """Enumerate homomorphisms from ``atoms`` into ``instance``.

    ``partial`` pre-binds some variables (used for head-extension
    checks, where the universal variables are already fixed).  Yields
    complete assignments for the variables of ``atoms`` (pre-bound
    variables are included).  ``limit`` caps the number of results.
    """
    return compile_plan(tuple(atoms)).execute(
        instance, partial=partial, limit=limit)


def find_homomorphisms_through(atoms: Union[Sequence[Atom], JoinPlan],
                               instance: Instance,
                               delta_fact: Atom,
                               partial: Optional[Mapping[Variable, GroundTerm]] = None,
                               limit: Optional[int] = None,
                               prune: Optional[Callable[[Mapping[Variable, int]],
                                                        bool]] = None,
                               project: Optional[Tuple[Variable, ...]] = None
                               ) -> Iterator[Assignment]:
    """Enumerate homomorphisms whose image uses ``delta_fact``.

    The semi-naive restriction (cf. delta rules in datalog evaluation):
    ``delta_fact`` is a fact just added to ``instance``, and only
    homomorphisms mapping at least one atom of ``atoms`` onto it are of
    interest -- every other homomorphism already existed before the
    insertion.  Each atom that unifies with ``delta_fact`` is pinned to
    it inside the body's compiled plan and the remaining atoms are
    solved against the full instance.  ``atoms`` may be that plan
    itself, which spares callers with a fixed body the plan-cache
    lookup per search.

    ``prune`` and ``project`` are :meth:`JoinPlan.execute`'s: a
    predicate over the id-level binding that abandons a subtree, and
    tuples of the listed variables' interned ids in place of
    assignment dicts.

    A homomorphism using the delta fact at several positions is
    yielded once: when more than one atom unifies, results are
    deduplicated on the id tuple of the body variables.  In the common
    single-pin case -- the delta fact unifies with exactly one body
    atom -- no duplicate can arise (within one pin, a complete binding
    determines every matched fact), so the per-yield dedup hashing is
    skipped entirely.

    This is the workhorse of :class:`repro.chase.triggers.TriggerIndex`:
    after a chase step adds facts, only these restricted searches run,
    instead of re-enumerating every body homomorphism from scratch.
    """
    plan = atoms if isinstance(atoms, JoinPlan) \
        else compile_plan(tuple(atoms))
    base: Assignment = dict(partial) if partial else {}
    pins = []
    for index in range(len(plan.atoms)):
        entries = plan.pin_binding(index, delta_fact, base)
        if entries is not None:
            pins.append((index, entries))
    if not pins:
        return
    if len(pins) == 1:
        index, entries = pins[0]
        yield from plan.execute(instance, partial=base, pin_index=index,
                                pin_entries=entries, limit=limit,
                                prune=prune, project=project)
        return
    # Several pins: each runs with every body variable projected, so
    # results dedup on that id tuple, then go out in the caller's form.
    variables = plan.variable_order
    as_is = project == variables
    table = instance.terms
    seen: set = set()
    produced = 0
    for index, entries in pins:
        for row in plan.execute(instance, partial=base, pin_index=index,
                                pin_entries=entries, prune=prune,
                                project=variables):
            if row in seen:
                continue
            seen.add(row)
            produced += 1
            if as_is:
                yield row
            elif project is None:
                assignment = dict(base)
                assignment.update(zip(variables, map(table.term, row)))
                yield assignment
            else:
                ids = dict(zip(variables, row))
                yield tuple([ids[var] if var in ids
                             else table.intern(base[var])
                             for var in project])
            if limit is not None and produced >= limit:
                return


def find_homomorphism(atoms: Sequence[Atom], instance: Instance,
                      partial: Optional[Mapping[Variable, GroundTerm]] = None
                      ) -> Optional[Assignment]:
    """The first homomorphism, or None."""
    for assignment in find_homomorphisms(atoms, instance, partial, limit=1):
        return assignment
    return None


def has_homomorphism(atoms: Sequence[Atom], instance: Instance,
                     partial: Optional[Mapping[Variable, GroundTerm]] = None
                     ) -> bool:
    """Existence check."""
    return find_homomorphism(atoms, instance, partial) is not None


def homomorphism_between(source: Iterable[Atom], target: Iterable[Atom],
                         partial: Optional[Mapping[Variable, GroundTerm]] = None
                         ) -> Optional[Assignment]:
    """A homomorphism between two plain atom sets (wraps the target)."""
    return find_homomorphism(list(source), Instance(target), partial)


def apply_assignment(atoms: Iterable[Atom],
                     assignment: Mapping[Variable, GroundTerm]
                     ) -> list[Atom]:
    """Ground ``atoms`` under ``assignment`` (identity elsewhere)."""
    mapping = dict(assignment)
    return [atom.substitute(mapping) for atom in atoms]


def is_endomorphism_proper(instance: Instance, assignment: Mapping) -> bool:
    """True when ``assignment`` (on nulls) is non-injective or drops a
    null -- i.e. maps some null to a constant (or, more generally, to
    any non-null value).

    Used by the core computation as a *can-this-shrink* filter: an
    endomorphism that is injective on the nulls of ``instance`` and
    maps nulls only to nulls is a null permutation, so its image has
    exactly as many facts as ``instance`` and folding along it can
    never make progress.  (``instance`` is part of the signature for
    symmetry with the other instance-level predicates; the test is a
    property of the assignment alone.)
    """
    values = list(assignment.values())
    if len(set(values)) < len(values):
        return True
    return any(not isinstance(value, Null) for value in values)


def null_renaming_equivalent(left: Instance, right: Instance) -> bool:
    """Homomorphic equivalence: homomorphisms both ways.

    The paper (after [21]) uses this to compare results of different
    chase orders.  Nulls on the source side must be treated as
    *movable*, so we first rename each side's nulls to fresh variables.
    """
    return (instance_maps_into(left, right)
            and instance_maps_into(right, left))


def instance_maps_into(source: Instance, target: Instance) -> bool:
    """Is there a homomorphism ``source -> target`` (nulls movable)?"""
    renaming: Dict[Null, Variable] = {
        null: Variable(f"__h{null.label}") for null in source.nulls()}
    atoms = [atom.substitute(dict(renaming)) for atom in source]
    return has_homomorphism(atoms, target)
