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
first), candidates come from the fact store's interned-id access
paths, and terms are decoded only when a binding survives.
"""

from __future__ import annotations

from typing import (Callable, Dict, Iterable, Iterator, Mapping, Optional,
                    Sequence)

from contextlib import contextmanager

from repro.homomorphism.plan import Assignment, compile_plan
from repro.homomorphism.reference import (reference_find_homomorphisms,
                                          reference_find_homomorphisms_through)
from repro.lang.atoms import Atom
from repro.lang.instance import Instance
from repro.lang.terms import GroundTerm, Null, Variable

__all__ = [
    "Assignment", "apply_assignment", "batch_disabled",
    "batch_mode_active", "find_homomorphism",
    "find_homomorphisms", "find_homomorphisms_through",
    "has_homomorphism", "homomorphism_between", "instance_maps_into",
    "is_endomorphism_proper", "null_renaming_equivalent",
    "reference_engine", "reference_mode_active",
]

#: When True, searches run on the preserved PR 1 algorithm
#: (:mod:`repro.homomorphism.reference`) instead of compiled plans.
_reference_mode = False

#: When True, exhaustive searches on vectorized stores run through
#: :meth:`JoinPlan.execute_batch` (the column-at-a-time kernels).
#: :func:`batch_disabled` turns it off per block.
_batch_mode = True


@contextmanager
def reference_engine():
    """Temporarily route all searches through the pre-plan engine.

    The reference oracle for the compiled-plan executor -- used by the
    cross-validation tests and as the baseline of the storage-layer
    benchmarks (``benchmarks/bench_chase_scaling.py``).  Not
    thread-safe; intended for tests and benchmarks only.
    """
    global _reference_mode
    previous = _reference_mode
    _reference_mode = True
    try:
        yield
    finally:
        _reference_mode = previous


def reference_mode_active() -> bool:
    """Is a :func:`reference_engine` context currently in force?

    Layers with their own compiled fast paths (the compiled CQ
    evaluation of :mod:`repro.cq.evaluate`) consult this so that one
    ``reference_engine()`` block routes the *whole* stack through the
    pre-plan algorithms.
    """
    return _reference_mode


@contextmanager
def batch_disabled():
    """Temporarily pin every search to the tuple-at-a-time path.

    The cross-validation twin of :func:`reference_engine`, one layer
    up: inside the block, :meth:`JoinPlan.execute_batch` is never
    chosen, so a chase / query run inside ``batch_disabled()`` is the
    oracle against which the column-at-a-time kernels are checked (the
    ``kernel_parity`` fuzz oracle, the batch parity tests, and the
    tuple baseline of ``bench_join_kernels.py``).  Not thread-safe;
    intended for tests and benchmarks only.
    """
    global _batch_mode
    previous = _batch_mode
    _batch_mode = False
    try:
        yield
    finally:
        _batch_mode = previous


def batch_mode_active() -> bool:
    """May exhaustive searches take the column-at-a-time path?

    Consulted by the routing sites (:func:`find_homomorphisms_through`
    and the compiled CQ evaluation of :mod:`repro.cq.evaluate`); the
    per-shape fallbacks of :meth:`JoinPlan.execute_batch` still apply
    on top.
    """
    return _batch_mode and not _reference_mode


def find_homomorphisms(atoms: Sequence[Atom], instance: Instance,
                       partial: Optional[Mapping[Variable, GroundTerm]] = None,
                       limit: Optional[int] = None,
                       prune: Optional[Callable[[Mapping[Variable, GroundTerm]],
                                                bool]] = None,
                       batch: bool = False
                       ) -> Iterator[Assignment]:
    """Enumerate homomorphisms from ``atoms`` into ``instance``.

    ``partial`` pre-binds some variables (used for head-extension
    checks, where the universal variables are already fixed).  Yields
    complete assignments for the variables of ``atoms`` (pre-bound
    variables are included).  ``limit`` caps the number of results.

    ``prune``, if given, is called with each (partial) binding after an
    extension; returning True abandons the whole subtree.  The trigger
    index uses this to skip bindings whose frontier is already known to
    be satisfied (every completion would be satisfied too).

    ``batch`` opts an exhaustive enumeration into the column-at-a-time
    path (subject to :func:`batch_mode_active` and the plan's own
    shape fallbacks).  It is **opt-in** here because most callers of
    this entry point short-circuit or mutate the instance while
    iterating -- the chase runners break out after the first applicable
    trigger, the core search stops on the first improving endomorphism
    -- and materializing the full result set first would do strictly
    wasted work.  ``limit`` forces the tuple path for the same reason.
    """
    if _reference_mode:
        return reference_find_homomorphisms(atoms, instance, partial=partial,
                                            limit=limit, prune=prune)
    plan = compile_plan(tuple(atoms))
    if batch and limit is None and batch_mode_active():
        return plan.execute_batch(instance.store, partial=partial,
                                  prune=prune)
    return plan.execute(instance.store, partial=partial, limit=limit,
                        prune=prune)


def find_homomorphisms_through(atoms: Sequence[Atom], instance: Instance,
                               delta_fact: Atom,
                               partial: Optional[Mapping[Variable, GroundTerm]] = None,
                               limit: Optional[int] = None,
                               prune: Optional[Callable[[Mapping[Variable, GroundTerm]],
                                                        bool]] = None
                               ) -> Iterator[Assignment]:
    """Enumerate homomorphisms whose image uses ``delta_fact``.

    The semi-naive restriction (cf. delta rules in datalog evaluation):
    ``delta_fact`` is a fact just added to ``instance``, and only
    homomorphisms mapping at least one atom of ``atoms`` onto it are of
    interest -- every other homomorphism already existed before the
    insertion.  Each atom that unifies with ``delta_fact`` is pinned to
    it inside the body's compiled plan and the remaining atoms are
    solved against the full instance.

    A homomorphism using the delta fact at several positions is
    yielded once: when more than one atom unifies, results are
    deduplicated on their frozen assignment.  In the common single-pin
    case -- the delta fact unifies with exactly one body atom -- no
    duplicate can arise (within one pin, a complete binding determines
    every matched fact), so the per-yield dedup hashing is skipped
    entirely.

    This is the workhorse of :class:`repro.chase.triggers.TriggerIndex`:
    after a chase step adds facts, only these restricted searches run,
    instead of re-enumerating every body homomorphism from scratch.
    """
    if _reference_mode:
        yield from reference_find_homomorphisms_through(
            atoms, instance, delta_fact, partial=partial, limit=limit,
            prune=prune)
        return
    plan = compile_plan(tuple(atoms))
    store = instance.store
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
        if limit is None and prune is None and _batch_mode \
                and not _reference_mode and store.supports_batch():
            # Exhaustive, prune-free single-pin searches vectorize;
            # execute_batch still falls back per shape (tiny delta
            # neighborhoods stay tuple-at-a-time).  Searches carrying a
            # prune predicate stay on the tuple path even though
            # execute_batch honors prune: the trigger index's
            # predicates are *stateful across generator suspensions*
            # (a frontier fires between pulls and the resumed scan is
            # abandoned), so breadth-first materialization would do all
            # the join work the prune exists to skip.
            yield from plan.execute_batch(store, partial=base,
                                          pin_index=index,
                                          pin_entries=entries)
            return
        yield from plan.execute(store, partial=base, pin_index=index,
                                pin_entries=entries, limit=limit,
                                prune=prune)
        return
    seen: set = set()
    produced = 0
    for index, entries in pins:
        for assignment in plan.execute(store, partial=base, pin_index=index,
                                       pin_entries=entries, prune=prune):
            key = frozenset(assignment.items())
            if key in seen:
                continue
            seen.add(key)
            produced += 1
            yield assignment
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
