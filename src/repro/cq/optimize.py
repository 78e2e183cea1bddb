"""Chase-based semantic query optimization (Section 4's scenario,
after Deutsch-Popa-Tannen [1]).

The pipeline: freeze the query, chase it with the constraints (using a
data-dependent termination guard), unfreeze into the *universal plan*,
then enumerate subqueries of the universal plan that chase back to a
homomorphic copy of it -- each is an equivalent (and hopefully
cheaper) rewriting.  On the paper's travel-agency scenario this
discovers ``q2''`` (join elimination) and ``q2'''`` (join
introduction) from ``q2``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from typing import Dict, Iterable, List, Optional

from repro.chase.core import core
from repro.chase.result import ChaseStatus
from repro.chase.runner import chase, DEFAULT_MAX_STEPS
from repro.cq.containment import equivalent
from repro.cq.query import ConjunctiveQuery, unfreeze
from repro.datadep.monitored_chase import monitored_chase
from repro.lang.atoms import Atom, atoms_variables
from repro.lang.constraints import Constraint
from repro.lang.errors import NonTerminationBudget
from repro.lang.instance import Instance
from repro.lang.terms import Constant, Null, Term

#: Tags marking the frozen terms of :func:`minimize_query` -- tuple
#: values cannot collide with any parsed constant (str/number).
_HEAD_TAG = "__cq_head__"
_NULL_TAG = "__cq_null__"


@dataclass
class OptimizationResult:
    """Outcome of the SQO pipeline for one query."""

    original: ConjunctiveQuery
    universal_plan: ConjunctiveQuery
    rewritings: List[ConjunctiveQuery] = field(default_factory=list)

    def minimal_rewritings(self) -> List[ConjunctiveQuery]:
        """The rewritings with the fewest body atoms."""
        if not self.rewritings:
            return []
        best = min(len(q.body) for q in self.rewritings)
        return [q for q in self.rewritings if len(q.body) == best]


def universal_plan(query: ConjunctiveQuery, sigma: Iterable[Constraint],
                   cycle_limit: Optional[int] = 3,
                   max_steps: int = DEFAULT_MAX_STEPS) -> ConjunctiveQuery:
    """Chase the query into its universal plan [1].

    With ``cycle_limit`` set, the monitored chase of Section 4.2 guards
    against divergence; :class:`NonTerminationBudget` is raised when
    the guard trips (the caller should then fall back to evaluating the
    original query -- e.g. ``q1`` of the travel scenario diverges).
    """
    frozen, var_map = query.freeze()
    sigma = list(sigma)
    if cycle_limit is not None:
        monitored = monitored_chase(frozen, sigma, cycle_limit,
                                    max_steps=max_steps)
        result = monitored.result
    else:
        result = chase(frozen, sigma, max_steps=max_steps)
    if result.status is not ChaseStatus.TERMINATED:
        raise NonTerminationBudget(
            f"chase of {query.name} did not terminate "
            f"({result.status.value}); no universal plan exists")
    return unfreeze(result.instance, var_map, query)


def minimize_query(query: ConjunctiveQuery) -> ConjunctiveQuery:
    """Classical CQ minimization via the core: fold the body onto
    itself by head-preserving endomorphisms until no proper fold
    remains.

    The body is frozen into an instance with head variables as tagged
    *constants* (endomorphisms must fix them -- the head-preservation
    requirement) and existential variables as nulls (movable), the
    greedy core computation of :mod:`repro.chase.core` shrinks it, and
    the retract unfreezes back into a query.  Labeled nulls already
    occurring in the body are frozen as tagged constants too: source-
    side nulls match themselves exactly during evaluation (see
    :mod:`repro.homomorphism.engine`), so minimization must keep them
    rigid rather than let the core fold them.  The result is
    equivalent to the input (the core is a homomorphic retract both
    ways) with a minimal body -- the "minimize via the core" step of
    the Section 4 pipeline, polynomial-ish where the subquery
    enumeration of :func:`optimize` is exponential.
    """
    head_vars = query.head_variables()
    freeze: Dict[Term, Term] = {}
    for index, var in enumerate(sorted(query.variables(),
                                       key=lambda v: v.name)):
        if var in head_vars:
            freeze[var] = Constant((_HEAD_TAG, var.name))
        else:
            freeze[var] = Null(-(index + 1) - 20_000_000)
    for null in sorted({arg for atom in query.body for arg in atom.args
                        if isinstance(arg, Null)},
                       key=lambda n: n.label):
        freeze[null] = Constant((_NULL_TAG, null.label))
    thaw: Dict[Term, Term] = {term: source
                              for source, term in freeze.items()}
    folded = core(Instance(atom.substitute(freeze)
                           for atom in query.body))
    body: List[Atom] = []
    for fact in sorted(folded.facts(), key=str):
        args: List[Term] = []
        for arg in fact.args:
            if (isinstance(arg, Null)
                    or (isinstance(arg, Constant)
                        and isinstance(arg.value, tuple)
                        and arg.value[0] in (_HEAD_TAG, _NULL_TAG))):
                args.append(thaw[arg])
            else:
                args.append(arg)
        body.append(Atom(fact.relation, tuple(args)))
    return query.with_body(body)


def optimize(query: ConjunctiveQuery, sigma: Iterable[Constraint],
             cycle_limit: Optional[int] = 3,
             max_steps: int = DEFAULT_MAX_STEPS,
             max_subquery_atoms: Optional[int] = None) -> OptimizationResult:
    """Full SQO: universal plan plus equivalent subquery rewritings.

    A subquery of the universal plan qualifies iff it keeps every head
    variable and is Sigma-equivalent to the original query (checked by
    chase-and-homomorphism, as in [1]).  ``max_subquery_atoms`` caps
    the enumeration for large plans.
    """
    sigma = list(sigma)
    plan = universal_plan(query, sigma, cycle_limit, max_steps)
    head_vars = query.head_variables()
    atoms = list(plan.body)
    rewritings: List[ConjunctiveQuery] = []
    limit = len(atoms) if max_subquery_atoms is None else max_subquery_atoms
    for size in range(1, min(limit, len(atoms)) + 1):
        for subset in combinations(atoms, size):
            if not head_vars <= atoms_variables(subset):
                continue
            candidate = query.with_body(subset)
            try:
                if equivalent(candidate, query, sigma, max_steps,
                              cycle_limit=cycle_limit):
                    rewritings.append(candidate)
            except NonTerminationBudget:
                continue
    return OptimizationResult(original=query, universal_plan=plan,
                              rewritings=rewritings)
