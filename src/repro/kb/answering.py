"""Certain-answer computation over knowledge bases (Section 5,
Theorem 9 / Corollary 1).

When the chase terminates, ``q(I^Sigma)`` is computed exactly.  When
it may not, the paper appeals to the algorithms of Cali-Gottlob-Kifer
[5, 6], which exploit the guarded null property: the relevant part of
the (possibly infinite) chase is its *guarded chase forest* up to a
depth determined by the query.  We implement that standard truncation
directly -- a **depth-bounded chase** that refuses to create nulls of
derivation depth beyond a limit -- and evaluate the query on the
finite prefix, restricting answers to non-null tuples.  This is the
one substitution in the reproduction -- it exercises the same
decidability mechanism (finite-treewidth prefixes) without
re-implementing [5]'s alternating algorithm; the full rationale lives
in ``docs/PAPER_MAP.md`` ("Deviations from the paper").

The depth-bounded chase owns no loop and no trigger search: it runs
:func:`repro.chase.runner.chase` with ``naive=True`` and a selection
rule that walks the naive trigger source in constraint order and
skips the triggers that would create too-deep nulls, and an observer
that records each new null's depth.  Its budgets are therefore the
runner's, under the same rule.

Queries are evaluated through the compiled id-level path of
:mod:`repro.cq.evaluate`, and :func:`optimize_query` wires Section 4's
semantic optimization in front of answering: chase the frozen query
(strategy pinned from the memoized termination report, depth-bounded
prefix for sets guaranteeing nothing), unfreeze, minimize via the
core.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Optional, Sequence, Set, Tuple

from repro.chase.result import ChaseStatus
from repro.chase.runner import chase
from repro.chase.step import ChaseStep
from repro.chase.strategies import Selection, Strategy
from repro.chase.triggers import NaiveTriggers
from repro.cq.query import ConjunctiveQuery, unfreeze
from repro.lang.constraints import Constraint, TGD
from repro.lang.errors import ChaseFailure, SchemaError
from repro.lang.instance import Instance
from repro.lang.terms import GroundTerm, Null


@dataclass
class BoundedChaseResult:
    """The finite prefix produced by the depth-bounded chase."""

    instance: Instance
    depth_limit: int
    truncated: bool          # True when the prefix was cut short
    steps: int
    null_depths: Dict[Null, int]


class _DepthBoundedRule(Strategy):
    """The depth-bounded chase's selection rule and null-depth observer.

    :meth:`select` walks the naive trigger source in constraint order
    and returns the first active trigger, skipping (and noting, in
    :attr:`truncated`) the TGD triggers whose nulls would lie deeper
    than the limit; :meth:`observe` records the depth of every null a
    step creates."""

    def __init__(self, depth_limit: int) -> None:
        self.depth_limit = depth_limit

    def start(self, sigma: Sequence[Constraint],
              triggers: NaiveTriggers) -> None:
        super().start(sigma, triggers)
        self.depths: Dict[Null, int] = {
            null: 0 for null in triggers.instance.nulls()}
        self.truncated = False

    def _depth(self, values: Iterable[GroundTerm]) -> int:
        """A trigger's depth: the deepest null it binds (0 for none)."""
        return max((self.depths.get(value, 0) for value in values
                    if isinstance(value, Null)), default=0)

    def select(self) -> Selection:
        for constraint in self._sigma:
            creates_nulls = (isinstance(constraint, TGD)
                             and constraint.existential_variables())
            for assignment, key in self._triggers.iter_active(constraint):
                if (creates_nulls and self._depth(assignment.values()) + 1
                        > self.depth_limit):
                    self.truncated = True
                    continue
                return constraint, assignment, key
        return None

    def observe(self, step: ChaseStep, _working: Instance) -> None:
        if step.new_nulls:
            depth = self._depth(value for _, value in step.assignment) + 1
            for null in step.new_nulls:
                self.depths[null] = depth


def depth_bounded_chase(instance: Instance, sigma: Iterable[Constraint],
                        depth_limit: int,
                        max_steps: int = 50_000,
                        max_facts: Optional[int] = None,
                        wall_clock: Optional[float] = None
                        ) -> BoundedChaseResult:
    """Chase, but never create nulls of derivation depth beyond
    ``depth_limit``.

    The *depth* of a null is ``1 +`` the maximum depth of the nulls in
    its creating trigger (base-instance values have depth 0) -- the
    guarded-chase-forest level of [5] and the quantity that
    c-chase graphs / k-restriction systems bound data-independently
    (proofs of Theorems 3 and 7, citing [11]).

    The run is a naive :func:`~repro.chase.runner.chase` with a rule
    of its own, so its budgets follow the runner's rule: a prefix with
    no active trigger left is complete (not ``truncated``), and
    ``max_steps`` / ``max_facts`` / ``wall_clock`` otherwise cut it
    short (``truncated=True``) -- every prefix is sound for
    constants-only answers, so a budget cut costs completeness, never
    soundness.  A wall-clock cut makes the prefix timing-dependent;
    callers that cache results must not cache those (the query service
    already carries the non-cacheable ``EXCEEDED_WALL_CLOCK`` status
    whenever a wall clock was the reason it fell back here).  An EGD
    equating two constants raises :class:`ChaseFailure`.
    """
    rule = _DepthBoundedRule(depth_limit)
    result = chase(instance, sigma, strategy=rule, max_steps=max_steps,
                   observers=(rule.observe,), naive=True,
                   max_facts=max_facts, wall_clock=wall_clock)
    if result.status is ChaseStatus.FAILED:
        raise ChaseFailure(result.failure_reason)
    return BoundedChaseResult(
        instance=result.instance, depth_limit=depth_limit,
        truncated=rule.truncated or not result.terminated,
        steps=result.length, null_depths=rule.depths)


def default_depth(query: ConjunctiveQuery,
                  sigma: Iterable[Constraint]) -> int:
    """A query-sized depth heuristic: enough levels for every body
    atom of the query plus one round of constraint interaction."""
    body_sizes = [len(c.body) for c in sigma if c.body]
    return len(query.body) + max(body_sizes, default=1) + 2


def optimize_query(query: ConjunctiveQuery,
                   sigma: Iterable[Constraint],
                   depth_limit: Optional[int] = None,
                   max_steps: int = 2_000) -> ConjunctiveQuery:
    """Section 4's semantic optimization, wired for answering.

    Chase the frozen query under ``sigma`` -- the strategy pinned from
    the memoized :func:`~repro.termination.report.analyze` report
    (Theorem 2's stratum order for stratified-only sets, the default
    otherwise), falling back to the depth-bounded prefix of
    :func:`depth_bounded_chase` when no Figure 1 condition guarantees
    a terminating sequence -- then unfreeze and minimize via the core
    (:func:`repro.cq.optimize.minimize_query`).

    Every chase step on the canonical instance preserves
    Sigma-equivalence, so even a truncated prefix unfreezes into an
    equivalent (if not necessarily universal) plan; the exact fixpoint
    is only needed for rewriting *completeness*.  Both the minimized
    plan and the minimized original are Sigma-equivalent to ``query``,
    so the one with the smaller body wins (ties go to the original's
    minimization -- without a cost model, the join *introduction* of
    the paper's ``q2'''`` is not assumed beneficial): chases that
    merge variables through EGDs genuinely shrink the query, chases
    that only add atoms fall back to plain core minimization.  The
    original query is returned untouched when optimization cannot
    help soundly: the canonical instance fails (an EGD equates two
    distinct query constants) or an EGD collapses a head variable
    away.
    """
    from repro.cq.optimize import minimize_query
    from repro.termination.report import analyze
    sigma = list(sigma)
    if not sigma:
        return minimize_query(query)
    if any(isinstance(arg, Null) for atom in query.body
           for arg in atom.args):
        # Labeled nulls in a query body match themselves exactly, but
        # unfreezing a chased canonical instance would rename them to
        # fresh (more permissive) variables -- skip the chase step and
        # only core-minimize.
        return minimize_query(query)
    frozen, var_map = query.freeze()
    report = analyze(sigma)
    try:
        chased: Optional[Instance] = None
        if report.guarantees_some_sequence:
            result = chase(frozen, sigma,
                           strategy=report.recommended_strategy(),
                           max_steps=max_steps)
            if result.status is ChaseStatus.TERMINATED:
                chased = result.instance
        if chased is None:
            if depth_limit is None:
                depth_limit = default_depth(query, sigma)
            chased = depth_bounded_chase(frozen, sigma, depth_limit,
                                         max_steps).instance
        from_plan = minimize_query(unfreeze(chased, var_map, query))
        from_original = minimize_query(query)
        return (from_plan if len(from_plan.body) < len(from_original.body)
                else from_original)
    except (ChaseFailure, SchemaError):
        return query


def certain_answers(instance: Instance, sigma: Iterable[Constraint],
                    query: ConjunctiveQuery,
                    depth_limit: Optional[int] = None,
                    max_steps: int = 50_000,
                    optimize: bool = False
                    ) -> Set[Tuple[GroundTerm, ...]]:
    """Answers of ``query`` on the implied knowledge base ``I^Sigma``.

    Tries the exact chase first; if it exceeds the budget, falls back
    to the depth-bounded prefix (sound for constants-only answers on
    guarded-null workloads; complete for depth limits large enough
    relative to the query).  Evaluation runs through the compiled
    id-level path of :mod:`repro.cq.evaluate`.

    With ``optimize``, the Sigma-equivalent rewriting of
    :func:`optimize_query` is evaluated instead of ``query`` -- but
    only on the exact path: ``I^Sigma`` satisfies ``sigma``, so
    equivalent queries agree there, whereas a truncated prefix need
    not satisfy ``sigma`` and is always evaluated with the original
    query.
    """
    sigma = list(sigma)
    exact = chase(instance, sigma, max_steps=max_steps)
    if exact.status is ChaseStatus.TERMINATED:
        target = (optimize_query(query, sigma, depth_limit=depth_limit)
                  if optimize else query)
        return target.evaluate(exact.instance, constants_only=True)
    if depth_limit is None:
        depth_limit = default_depth(query, sigma)
    bounded = depth_bounded_chase(instance, sigma, depth_limit, max_steps)
    return query.evaluate(bounded.instance, constants_only=True)
