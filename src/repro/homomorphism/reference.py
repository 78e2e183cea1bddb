"""The reference searches: the oracles the production paths answer to.

This module preserves the homomorphism search exactly as it shipped
with the incremental trigger index (PR 1): a most-constrained-first
backtracking join that re-derives its atom order on every recursion
step, pulls candidates through ``Instance.matching`` (set
intersections of boxed atoms) and copies the binding dict on every
extension.  :func:`reference_answers` is the pre-plan conjunctive
query evaluation on top of it.

Nothing on a production path calls these functions; a test
(``tests/test_import_boundary.py``) fails if a module outside
:mod:`repro.fuzz` imports this one.  They are called directly by:

* **cross-validation** -- the compiled-plan executor of
  :mod:`repro.homomorphism.plan` must enumerate exactly the same
  assignments (``tests/homomorphism/test_plan.py``), and compiled
  query evaluation must give the same answers
  (``tests/cq/test_evaluate.py``);
* **the fuzzer** -- the ``engine_parity`` and ``certain_answers``
  oracles of :mod:`repro.fuzz.oracles` compare both sides on every
  generated case;
* **baseline** -- ``benchmarks/bench_chase_scaling.py`` measures the
  compiled query path against :func:`reference_answers`.

Do not "optimize" this module; its value is staying put.
"""

from __future__ import annotations

from typing import (Callable, Dict, Iterable, Iterator, List, Mapping,
                    Optional, Sequence, Set, Tuple)

from repro.lang.atoms import Atom
from repro.lang.terms import GroundTerm, Null, Variable

Assignment = Dict[Variable, GroundTerm]


def _resolve(term, binding: Mapping[Variable, GroundTerm]
             ) -> Optional[GroundTerm]:
    """The ground value of ``term`` under ``binding`` or None if unbound."""
    if isinstance(term, Variable):
        return binding.get(term)
    # Constants and nulls are rigid on the source side.
    return term


def _bound_count(atom: Atom, binding: Mapping[Variable, GroundTerm]) -> int:
    return sum(1 for arg in atom.args if _resolve(arg, binding) is not None)


def _match_atom(atom: Atom, fact: Atom, binding: Assignment
                ) -> Optional[Assignment]:
    """Try to unify ``atom`` with ``fact`` under ``binding``.

    Returns the (possibly extended) binding on success, None otherwise.
    The returned dict is a fresh copy only when new variables are bound.
    """
    if atom.relation != fact.relation or atom.arity != fact.arity:
        return None
    new_entries: list[tuple[Variable, GroundTerm]] = []
    local: Dict[Variable, GroundTerm] = {}
    for arg, value in zip(atom.args, fact.args):
        if isinstance(arg, Variable):
            bound = binding.get(arg)
            if bound is None:
                bound = local.get(arg)
            if bound is None:
                local[arg] = value
                new_entries.append((arg, value))
            elif bound != value:
                return None
        elif arg != value:
            # Constants and source-side nulls must match exactly.
            return None
    if not new_entries:
        return binding if isinstance(binding, dict) else dict(binding)
    extended = dict(binding)
    extended.update(new_entries)
    return extended


def _candidates(instance, atom: Atom, binding: Assignment) -> Iterable[Atom]:
    """Facts of the instance that could match ``atom`` under ``binding``."""
    bound: Dict[int, GroundTerm] = {}
    for i, arg in enumerate(atom.args):
        value = _resolve(arg, binding)
        if value is not None:
            bound[i] = value
    return instance.matching(atom.relation, bound)


def reference_find_homomorphisms(atoms: Sequence[Atom], instance,
                                 partial: Optional[Mapping[Variable, GroundTerm]] = None,
                                 limit: Optional[int] = None,
                                 prune: Optional[Callable[[Mapping[Variable, GroundTerm]],
                                                          bool]] = None
                                 ) -> Iterator[Assignment]:
    """PR 1's ``find_homomorphisms``: per-call order, per-step copies."""
    binding: Assignment = dict(partial) if partial else {}
    remaining = list(atoms)
    produced = 0
    if prune is not None and prune(binding):
        return

    def search(pending: list[Atom], current: Assignment) -> Iterator[Assignment]:
        nonlocal produced
        if limit is not None and produced >= limit:
            return
        if not pending:
            produced += 1
            yield dict(current)
            return
        # Most-constrained-first: pick the atom with the most bound args.
        best_index = max(range(len(pending)),
                         key=lambda i: _bound_count(pending[i], current))
        atom = pending[best_index]
        rest = pending[:best_index] + pending[best_index + 1:]
        for fact in _candidates(instance, atom, current):
            extended = _match_atom(atom, fact, current)
            if extended is None:
                continue
            if (prune is not None and extended is not current
                    and prune(extended)):
                continue
            yield from search(rest, extended)
            if limit is not None and produced >= limit:
                return

    yield from search(remaining, binding)


def reference_find_homomorphisms_through(atoms: Sequence[Atom], instance,
                                         delta_fact: Atom,
                                         partial: Optional[Mapping[Variable, GroundTerm]] = None,
                                         limit: Optional[int] = None,
                                         prune: Optional[Callable[[Mapping[Variable, GroundTerm]],
                                                                  bool]] = None
                                         ) -> Iterator[Assignment]:
    """PR 1's delta-restricted search (always pays the dedup hash)."""
    atoms = list(atoms)
    base: Assignment = dict(partial) if partial else {}
    seen: set = set()
    produced = 0
    for pin, atom in enumerate(atoms):
        pinned = _match_atom(atom, delta_fact, base)
        if pinned is None:
            continue
        rest = atoms[:pin] + atoms[pin + 1:]
        for assignment in reference_find_homomorphisms(rest, instance,
                                                       partial=pinned,
                                                       prune=prune):
            key = frozenset(assignment.items())
            if key in seen:
                continue
            seen.add(key)
            produced += 1
            yield assignment
            if limit is not None and produced >= limit:
                return


def reference_answers(query, instance,
                      constants_only: bool = True
                      ) -> Set[Tuple[GroundTerm, ...]]:
    """The pre-plan evaluation loop, verbatim: enumerate every body
    homomorphism through :func:`reference_find_homomorphisms`, build
    the head image at the term level, filter nulls per tuple.

    The oracle for :func:`repro.cq.evaluate.compiled_answers` --
    deliberately independent of it (different search algorithm,
    different filtering level), so agreement between the two is
    meaningful.
    """
    answers: Set[Tuple[GroundTerm, ...]] = set()
    for assignment in reference_find_homomorphisms(list(query.body),
                                                   instance):
        row: List[GroundTerm] = []
        for term in query.head:
            if isinstance(term, Variable):
                row.append(assignment[term])
            else:
                row.append(term)
        tup = tuple(row)
        if constants_only and any(isinstance(t, Null) for t in tup):
            continue
        answers.add(tup)
    return answers
