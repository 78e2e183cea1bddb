"""Conjunctive queries: representation, freezing, evaluation.

A CQ is ``ans(x) <- phi(x, z)`` (Section 2); its *canonical instance*
(freeze) replaces every variable by a fresh labeled null, turning the
body into a database -- the object that Section 4 chases during
semantic query optimization ("the query -- interpreted as database
instance -- is chased").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Set, Tuple

from repro.cq.evaluate import compiled_answers, compiled_holds_in
from repro.lang.atoms import Atom, atoms_variables
from repro.lang.errors import SchemaError
from repro.lang.instance import Instance
from repro.lang.terms import GroundTerm, Null, Term, Variable


@dataclass(frozen=True)
class ConjunctiveQuery:
    """``name(head) <- body`` with ``head`` a tuple of variables or
    constants, each head variable occurring in the body."""

    name: str
    head: Tuple[Term, ...]
    body: Tuple[Atom, ...]

    def __post_init__(self) -> None:
        body_vars = atoms_variables(self.body)
        for term in self.head:
            if isinstance(term, Variable) and term not in body_vars:
                raise SchemaError(
                    f"head variable {term} does not occur in the body")
            if isinstance(term, Null):
                raise SchemaError("queries cannot contain labeled nulls")

    # ------------------------------------------------------------------
    @property
    def is_boolean(self) -> bool:
        return not self.head

    def variables(self) -> Set[Variable]:
        return atoms_variables(self.body)

    def head_variables(self) -> Set[Variable]:
        return {t for t in self.head if isinstance(t, Variable)}

    def existential_variables(self) -> Set[Variable]:
        """Body variables not exported by the head."""
        return self.variables() - self.head_variables()

    # ------------------------------------------------------------------
    def evaluate(self, instance: Instance,
                 constants_only: bool = True) -> Set[Tuple[GroundTerm, ...]]:
        """``q(I)``: all head images under body homomorphisms.

        With ``constants_only`` (the paper's semantics: answers range
        over ``Delta``), tuples containing labeled nulls are dropped.

        Evaluation runs through the compiled id-level path of
        :mod:`repro.cq.evaluate` (projection pushed into the body's
        :class:`~repro.homomorphism.plan.JoinPlan`, dedup and null
        filtering on interned ids).
        """
        return compiled_answers(self, instance, constants_only)

    def holds_in(self, instance: Instance) -> bool:
        """Boolean-query satisfaction (existence of a body match)."""
        return compiled_holds_in(self, instance)

    # ------------------------------------------------------------------
    def freeze(self) -> Tuple[Instance, Dict[Variable, Null]]:
        """The canonical instance: variables become labeled nulls.

        Returns the instance and the variable-to-null mapping so
        results of chasing can be translated back (unfrozen).
        """
        mapping: Dict[Variable, Null] = {}
        for index, var in enumerate(sorted(self.variables(),
                                           key=lambda v: v.name)):
            mapping[var] = Null(-(index + 1) - 10_000_000)
        facts = [atom.substitute(dict(mapping)) for atom in self.body]
        return Instance(facts), mapping

    def with_body(self, body: Iterable[Atom]) -> "ConjunctiveQuery":
        return ConjunctiveQuery(self.name, self.head, tuple(body))

    # ------------------------------------------------------------------
    def __str__(self) -> str:
        head_inner = ", ".join(str(t) for t in self.head)
        body_inner = ", ".join(str(a) for a in self.body)
        return f"{self.name}({head_inner}) <- {body_inner}"


def unfreeze(instance: Instance, mapping: Dict[Variable, Null],
             query: ConjunctiveQuery) -> ConjunctiveQuery:
    """Translate a (chased) canonical instance back into a query.

    Nulls from the original freeze map back to their variables; nulls
    invented by the chase become fresh variables ``zN``.
    """
    inverse: Dict[Null, Term] = {null: var for var, null in mapping.items()}
    fresh_index = 0
    body: List[Atom] = []
    for fact in sorted(instance.facts(), key=str):
        args: List[Term] = []
        for arg in fact.args:
            if isinstance(arg, Null):
                if arg not in inverse:
                    inverse[arg] = Variable(f"z{fresh_index}")
                    fresh_index += 1
                args.append(inverse[arg])
            else:
                args.append(arg)
        body.append(Atom(fact.relation, tuple(args)))
    return ConjunctiveQuery(query.name, query.head, tuple(body))
