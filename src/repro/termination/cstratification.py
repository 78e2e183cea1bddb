"""C-stratification (Section 3.3, Definitions 4 and 5): the paper's
correction of stratification.

``Sigma`` is *c-stratified* iff the constraints in every cycle of the
c-chase graph ``G_c(Sigma)`` (built over the oblivious firing relation
``<_c``) are weakly acyclic.  Unlike plain stratification this bounds
**every** chase sequence polynomially in ``|dom(I)|`` (Theorem 3).

Example 4/7: the set {R(x)->S(x,x); S(x,y)->exists z T(y,z);
S(x,y)->T(x,y),T(y,x); T(x,y),T(x,z),T(z,x)->R(y)} is stratified but
not c-stratified -- the oblivious relation gives alpha_2 the successor
it was missing, closing a non-weakly-acyclic cycle.
"""

from __future__ import annotations

from typing import Iterable, List, Optional

from repro.lang.constraints import Constraint
from repro.termination.chase_graph import (c_chase_graph,
                                           non_weakly_acyclic_cycle_of)
from repro.termination.precedence import ORACLE, PrecedenceOracle


def is_c_stratified(sigma: Iterable[Constraint],
                    oracle: PrecedenceOracle = ORACLE,
                    printed_variant: bool = False) -> bool:
    """Definition 5 over the corrected ``<_c``.

    ``printed_variant=True`` uses Definition 4 exactly as printed in
    the technical report (retaining its condition (i)); see
    docs/PAPER_MAP.md ("Deviations and interpretation points") for why
    the corrected relation is the reproducible one.
    """
    return non_weakly_acyclic_cycle_of(c_chase_graph(
        sigma, oracle, printed_variant=printed_variant)) is None


def non_weakly_acyclic_c_cycle(sigma: Iterable[Constraint],
                               oracle: PrecedenceOracle = ORACLE
                               ) -> Optional[List[Constraint]]:
    """A cycle of ``G_c(Sigma)`` that is not weakly acyclic (witnessing
    non-c-stratification), or None."""
    return non_weakly_acyclic_cycle_of(c_chase_graph(sigma, oracle))
