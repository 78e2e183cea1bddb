"""Weakly guarded and restrictedly guarded TGDs (Section 5,
Definitions 20 and 22).

Weak guardedness [5] demands, per TGD, a body atom (the *weak guard*)
containing every variable that occurs at an affected position of the
body.  The paper's refinement replaces ``aff(Sigma)`` by the position
set ``f`` of the minimal 2-restriction system -- a tighter
over-estimate of where nulls can appear (``f subseteq aff(Sigma)``,
Lemma 7) -- yielding the strictly larger class of *restrictedly
guarded* sets for which the query-answering machinery of [5, 6] still
applies (Corollary 1).
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Set

from repro.lang.atoms import Atom, occurrences, Position
from repro.lang.constraints import Constraint, TGD
from repro.termination.affected import affected_positions
from repro.termination.precedence import ORACLE, PrecedenceOracle
from repro.termination.restriction import flow_restriction_system


def _guard_for(tgd: TGD, positions: Set[Position]) -> Optional[Atom]:
    """A body atom containing every universally quantified variable
    that occurs (in the body) at some position from ``positions``."""
    required = {var for var in tgd.universal_variables()
                if occurrences(tgd.body, var) & positions}
    for atom in tgd.body:
        if required <= atom.variables():
            return atom
    return None


def weak_guards(sigma: Iterable[Constraint]
                ) -> Optional[Dict[TGD, Atom]]:
    """The weak guards per TGD (Definition 20), or None if some TGD
    has none (the set is not weakly guarded)."""
    sigma = list(sigma)
    affected = affected_positions(sigma)
    guards: Dict[TGD, Atom] = {}
    for constraint in sigma:
        if not isinstance(constraint, TGD):
            continue
        guard = _guard_for(constraint, affected)
        if guard is None:
            return None
        guards[constraint] = guard
    return guards


def is_weakly_guarded(sigma: Iterable[Constraint]) -> bool:
    """``WGTGD(Sigma)`` (Definition 20)."""
    return weak_guards(sigma) is not None


def restricted_guards(sigma: Iterable[Constraint],
                      oracle: PrecedenceOracle = ORACLE
                      ) -> Optional[Dict[TGD, Atom]]:
    """The restricted guards per TGD (Definition 22), or None.

    Uses the per-constraint flow refinement of the 2-restriction
    system (the semantics of the paper's Section 3.7 ``f(alpha_i)``
    table and of Example 19; see docs/PAPER_MAP.md): each TGD needs a body
    atom covering the variables occurring at *its own* incoming null
    positions ``f(alpha)``.
    """
    sigma = list(sigma)
    system = flow_restriction_system(sigma, oracle)
    guards: Dict[TGD, Atom] = {}
    for constraint in sigma:
        if not isinstance(constraint, TGD):
            continue
        guard = _guard_for(constraint, set(system.positions_of(constraint)))
        if guard is None:
            return None
        guards[constraint] = guard
    return guards


def is_restrictedly_guarded(sigma: Iterable[Constraint],
                            oracle: PrecedenceOracle = ORACLE) -> bool:
    """``RGTGD(Sigma)`` (Definition 22).  Lemma 7: implied by weak
    guardedness, and strictly more general (Example 19)."""
    return restricted_guards(sigma, oracle) is not None
