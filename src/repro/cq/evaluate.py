"""Compiled conjunctive-query evaluation over interned-id columns.

``q(I)`` (Section 2; the workload of Section 5's certain-answer
computation, Theorem 9 / Corollary 1) used to be computed by
enumerating every body homomorphism through the generic engine and
materializing a full term-level assignment dict per match.  This
module compiles the query once onto the same
:class:`~repro.homomorphism.plan.JoinPlan` machinery the chase runs
on, and pushes the head projection *into* the plan:

* the body join runs over interned ids with the instance's
  selectivity-ordered access paths (one compiled plan per body tuple,
  shared with any constraint of identical body for the process
  lifetime);
* the plan yields only the projected head-variable ids
  (``JoinPlan.execute(project=...)``) -- no assignment dict, no term
  decoding per match;
* answers are **deduplicated and null-filtered at the id level**:
  distinct homomorphisms with equal head images collapse on a tuple of
  ints, the constants-only filter of the paper's certain-answer
  semantics (answers range over ``Delta``) drops null ids before
  decoding, and only surviving distinct rows are decoded to terms.

The pre-plan evaluation loop is kept as a cross-validation oracle,
:func:`repro.homomorphism.reference.reference_answers`, which
``tests/cq/test_evaluate.py`` and the fuzzer's ``certain_answers``
oracle compare against this module across the workload families.
"""

from __future__ import annotations

from functools import lru_cache
from typing import List, Set, Tuple

from repro.homomorphism.plan import compile_plan, JoinPlan
from repro.lang.instance import Instance
from repro.lang.terms import GroundTerm, Null, Variable

__all__ = ["CompiledQuery", "compile_query", "compiled_answers",
           "compiled_holds_in"]


class CompiledQuery:
    """A conjunctive query compiled for id-level evaluation.

    Compiled once per query: the body's :class:`JoinPlan` (shared via
    :func:`~repro.homomorphism.plan.compile_plan`), the projection
    tuple of head-variable occurrences (in head order, duplicates
    preserved), and the positions of constant head terms.
    """

    __slots__ = ("query", "plan", "head", "project", "var_positions")

    def __init__(self, query) -> None:
        self.query = query
        self.plan: JoinPlan = compile_plan(query.body)
        self.head = query.head
        positions: List[int] = []
        variables: List[Variable] = []
        for position, term in enumerate(query.head):
            if isinstance(term, Variable):
                positions.append(position)
                variables.append(term)
        self.project: Tuple[Variable, ...] = tuple(variables)
        self.var_positions: Tuple[int, ...] = tuple(positions)

    # ------------------------------------------------------------------
    def answers(self, instance: Instance,
                constants_only: bool = True) -> Set[Tuple[GroundTerm, ...]]:
        """``q(I)`` over the instance's columns, dedup/filter on ids.

        With ``constants_only`` (the paper's certain-answer semantics)
        head images containing labeled nulls are dropped -- decided on
        the interned id, before any term is materialized.
        """
        term_of = instance.terms.term
        head = self.head
        var_positions = self.var_positions
        seen: Set[Tuple[int, ...]] = set()
        out: Set[Tuple[GroundTerm, ...]] = set()
        #: id -> is it a null?  Memoized per call: answer rows share
        #: ids heavily, so each distinct id is classified once.
        null_id: dict = {}
        for row in self.plan.execute(instance, project=self.project):
            if row in seen:
                continue
            seen.add(row)
            if constants_only:
                dropped = False
                for tid in row:
                    is_null = null_id.get(tid)
                    if is_null is None:
                        is_null = isinstance(term_of(tid), Null)
                        null_id[tid] = is_null
                    if is_null:
                        dropped = True
                        break
                if dropped:
                    continue
            answer = list(head)
            for position, tid in zip(var_positions, row):
                answer[position] = term_of(tid)
            out.add(tuple(answer))
        return out

    def holds_in(self, instance: Instance) -> bool:
        """Boolean satisfaction: does any body match exist?"""
        for _ in self.plan.execute(instance, limit=1, project=()):
            return True
        return False


@lru_cache(maxsize=1024)
def compile_query(query) -> CompiledQuery:
    """The compiled form of a query, cached on the (frozen) query."""
    return CompiledQuery(query)


def compiled_answers(query, instance: Instance,
                     constants_only: bool = True
                     ) -> Set[Tuple[GroundTerm, ...]]:
    """Evaluate ``query`` on ``instance`` through its compiled form."""
    return compile_query(query).answers(instance, constants_only)


def compiled_holds_in(query, instance: Instance) -> bool:
    return compile_query(query).holds_in(instance)

