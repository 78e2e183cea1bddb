"""(I, Sigma)-irrelevant constraints and the static data-dependent
termination guarantee (Section 4.1, Lemma 4, Proposition 7).

A constraint is *(I, Sigma)-irrelevant* iff no chase sequence starting
from ``I`` can ever fire it.  Irrelevance is undecidable in general
(Theorem 8, via a Turing-machine reduction reproduced in
:mod:`repro.workloads.turing`); Proposition 7 gives the sufficient
test implemented here: encode the instance as an all-existential,
empty-body TGD ``alpha_I``, build the c-chase graph of
``Sigma + {alpha_I}``, and declare every constraint unreachable from
``alpha_I`` irrelevant.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Set

import networkx as nx

from repro.lang.atoms import Atom
from repro.lang.constraints import Constraint, TGD
from repro.lang.instance import Instance
from repro.lang.terms import GroundTerm, Variable
from repro.termination.chase_graph import c_chase_graph
from repro.termination.hierarchy import in_t_level
from repro.termination.precedence import ORACLE, PrecedenceOracle


def instance_constraint(instance: Instance) -> TGD:
    """Proposition 7's ``alpha_I``: an empty-body TGD whose head is the
    instance with every domain element (constant or null) replaced by
    an existentially quantified variable."""
    if len(instance) == 0:
        raise ValueError("alpha_I is only defined for non-empty instances")
    renaming: Dict[GroundTerm, Variable] = {}
    for index, term in enumerate(sorted(instance.domain(), key=str)):
        renaming[term] = Variable(f"xI{index}")
    head: List[Atom] = []
    for fact in sorted(instance.facts(), key=str):
        head.append(Atom(fact.relation,
                         tuple(renaming[arg] for arg in fact.args)))
    return TGD((), head, label="alpha_I")


def relevant_constraints(instance: Instance, sigma: Iterable[Constraint],
                         oracle: PrecedenceOracle = ORACLE
                         ) -> Set[Constraint]:
    """The constraints *not* certified irrelevant by Proposition 7:
    those reachable from ``alpha_I`` in the c-chase graph.

    Proposition 7 requires every constraint to have a non-empty body
    (otherwise it fires regardless of the instance); empty-body
    constraints are conservatively kept relevant.
    """
    sigma = list(sigma)
    alpha_i = instance_constraint(instance)
    graph = c_chase_graph(sigma + [alpha_i], oracle)
    reachable = nx.descendants(graph, alpha_i)
    relevant = {c for c in sigma if c in reachable}
    relevant |= {c for c in sigma if not c.body}
    return relevant


def irrelevant_constraints(instance: Instance, sigma: Iterable[Constraint],
                           oracle: PrecedenceOracle = ORACLE
                           ) -> Set[Constraint]:
    """The constraints certified (I, Sigma)-irrelevant."""
    sigma = list(sigma)
    return set(sigma) - relevant_constraints(instance, sigma, oracle)


def terminates_statically(instance: Instance, sigma: Iterable[Constraint],
                          max_k: int = 3,
                          oracle: PrecedenceOracle = ORACLE
                          ) -> Optional[int]:
    """Lemma 4: if the relevant subset lies in some T[k], the chase of
    ``instance`` with ``sigma`` terminates.  Returns the level found,
    or None when no guarantee can be made (try the monitored chase).
    """
    relevant = relevant_constraints(instance, sigma, oracle)
    for k in range(2, max_k + 1):
        if in_t_level(relevant, k, oracle):
            return k
    return None
