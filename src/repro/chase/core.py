"""Core computation for instances with labeled nulls.

The *core* of an instance is its smallest retract: a subinstance that
the whole instance maps into homomorphically.  Cores are the canonical
representatives of homomorphic equivalence classes, which makes them
handy when comparing the results of different chase orders (the paper,
after [21], proves those results homomorphically equivalent) and for
the core-chase remark in the conclusions.

Core computation is NP-hard in general; this implementation is the
standard greedy folding loop, adequate for the instance sizes produced
by the test and benchmark workloads.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.homomorphism.engine import (find_homomorphisms,
                                       is_endomorphism_proper)
from repro.lang.atoms import Atom
from repro.lang.instance import Instance
from repro.lang.terms import GroundTerm, Null, Variable


def _frozen_atoms(instance: Instance) -> tuple[list[Atom], Dict[Variable, Null]]:
    """Replace each null by a fresh variable so it becomes movable."""
    renaming = {null: Variable(f"__core{null.label}")
                for null in instance.nulls()}
    atoms = [atom.substitute(dict(renaming)) for atom in instance]
    inverse = {var: null for null, var in renaming.items()}
    return atoms, inverse


def _improving_endomorphism(instance: Instance,
                            search_limit: int = 200_000
                            ) -> Optional[Dict[Null, GroundTerm]]:
    """An endomorphism whose image has strictly fewer facts, if any."""
    atoms, inverse = _frozen_atoms(instance)
    if not inverse:
        return None
    facts = instance.facts()
    examined = 0
    for assignment in find_homomorphisms(atoms, instance):
        examined += 1
        mapping = {inverse[var]: value for var, value in assignment.items()}
        # Null permutations (injective, null-valued) cannot shrink the
        # image -- skip them without materializing it.
        if is_endomorphism_proper(instance, mapping):
            image = {atom.substitute(dict(mapping)) for atom in facts}
            if len(image) < len(facts):
                return mapping
        if examined >= search_limit:
            break
    return None


def core(instance: Instance) -> Instance:
    """The core of ``instance`` (a fresh instance)."""
    current = instance.copy()
    while True:
        mapping = _improving_endomorphism(current)
        if mapping is None:
            return current
        current = Instance(atom.substitute(dict(mapping))
                           for atom in current)


def is_core(instance: Instance) -> bool:
    """True when no proper retraction exists."""
    return _improving_endomorphism(instance) is None
