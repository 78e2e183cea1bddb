"""Chase runners: one loop for the standard and the oblivious chase.

``chase`` repeatedly fires active triggers until either the instance
satisfies the constraint set (``TERMINATED``), an EGD fails
(``FAILED``), the step or fact budget is exhausted
(``EXCEEDED_BUDGET``), the wall-clock budget is exhausted
(``EXCEEDED_WALL_CLOCK``) or an observer aborts the run
(``ABORTED_BY_MONITOR``; see Section 4.2 of the paper and
:mod:`repro.datadep.monitored_chase`).

One loop, :func:`_run`, steps every chase run (only the precedence
search of :mod:`repro.termination.precedence` replays short step
sequences of its own).  It builds one trigger source per run and
hands it to the selection rule (a
:class:`~repro.chase.strategies.Strategy`), which chooses among the
source's active triggers; the loop fires the chosen assignment and
hands its key back to the source.  The variants differ only in the
source's mode and the rule:

* ``chase`` -- the caller's strategy (round-robin by default) over a
  standard :class:`repro.chase.triggers.TriggerIndex` (semi-naive
  evaluation: seed once, then only delta-restricted searches per
  step);
* ``oblivious_chase`` -- every (constraint, body-homomorphism) pair
  fires exactly once regardless of satisfaction, the variant
  underlying the corrected stratification condition of Section 3.3:
  constraint order over an ``oblivious=True`` index;
* :func:`repro.kb.answering.depth_bounded_chase` -- ``chase(...,
  naive=True)`` with a selection rule that skips triggers creating
  too-deep nulls, and an observer recording null depths.

Budgets follow one rule.  A run with no active trigger left is
``TERMINATED``, whatever its budgets; otherwise the step cap, then the
fact budget, then the wall clock cut it short, checked in that order
before each step.  Every budget abort surfaces as a
:class:`~repro.chase.result.ChaseResult` carrying the partial run --
budgets never raise, so a divergent chase can be bounded and its
prefix inspected (the operational face of the paper's termination
guarantees; the batch service of :mod:`repro.service` relies on it).

``naive=True`` swaps the index for the reference source
:class:`repro.chase.triggers.NaiveTriggers`, which the
cross-validation tests and the ``engine_parity`` fuzz oracle check the
index against: the standard chase re-enumerates every body
homomorphism on each selection, and the oblivious chase restarts its
enumeration after every step, skipping the triggers it already fired.
"""

from __future__ import annotations

import time
from typing import Callable, Iterable, Optional, Sequence

from repro.chase.result import ChaseResult, ChaseStatus
from repro.chase.step import ChaseStep, apply_step
from repro.chase.strategies import (OrderedStrategy, RoundRobinStrategy,
                                    Strategy)
from repro.chase.triggers import NaiveTriggers, TriggerIndex
from repro.lang.constraints import Constraint
from repro.lang.errors import ChaseFailure
from repro.lang.instance import Instance
from repro.lang.terms import NullFactory, NULLS
from repro.obs import trace as _trace
from repro.obs.metrics import OBS

Observer = Callable[[ChaseStep, Instance], None]


def _record_run(result: ChaseResult, max_steps: int) -> None:
    """Fold one finished run into the metrics registry.

    Run-level only -- the per-step loop stays uninstrumented so the
    enabled overhead is one pass over the recorded sequence, and the
    disabled overhead is a single ``OBS.enabled`` check per run.
    """
    steps = len(result.sequence)
    OBS.inc("chase.runs")
    OBS.inc(f"chase.status.{result.status.value}")
    OBS.inc("chase.steps", steps)
    OBS.inc("chase.triggers_fired", steps)
    OBS.inc("chase.facts_added",
            sum(len(step.new_facts) for step in result.sequence))
    OBS.inc("chase.new_nulls", result.new_null_count())
    OBS.observe("chase.steps_per_run", steps)
    if max_steps > 0:
        # Pay-as-you-go accounting (Proposition 11): how much of the
        # granted step budget the run actually consumed.
        OBS.observe("chase.budget.step_fraction", steps / max_steps)


class AbortChase(Exception):
    """Raised by an observer to abort the run (monitored chase)."""

    def __init__(self, reason: str) -> None:
        self.reason = reason
        super().__init__(reason)


DEFAULT_MAX_STEPS = 10_000


def _guard_fresh_nulls(working: Instance, nulls: NullFactory) -> None:
    """Make the factory's future labels disjoint from the instance's.

    Source instances may carry labeled nulls (``?n7`` in spec text);
    a factory whose counter lags behind them would hand out "fresh"
    nulls that alias existing values, and an EGD equating the old one
    would silently corrupt the new one.
    """
    nulls.advance_past(max((null.label for null in working.nulls()),
                           default=0))


class _Budget:
    """One run's budgets and the one rule that applies them.

    ``check`` runs once an active trigger has been selected -- a run
    with none left is ``TERMINATED`` whatever its budgets -- and cuts
    the run short on the step cap, then the fact budget, then the wall
    clock.  It returns the abort result to hand back, or None to fire
    the trigger."""

    __slots__ = ("max_steps", "max_facts", "wall_clock", "deadline")

    def __init__(self, max_steps: int, max_facts: Optional[int],
                 wall_clock: Optional[float]) -> None:
        if max_facts is not None and max_facts < 0:
            raise ValueError("max_facts must be non-negative")
        if wall_clock is not None and wall_clock < 0:
            raise ValueError("wall_clock must be non-negative")
        self.max_steps = max_steps
        self.max_facts = max_facts
        self.wall_clock = wall_clock
        self.deadline = (None if wall_clock is None
                         else time.monotonic() + wall_clock)

    def check(self, working: Instance,
              sequence: list) -> Optional[ChaseResult]:
        steps = len(sequence)
        if steps >= self.max_steps:
            return ChaseResult(ChaseStatus.EXCEEDED_BUDGET, working, sequence)
        if self.max_facts is not None and len(working) > self.max_facts:
            return ChaseResult(
                ChaseStatus.EXCEEDED_BUDGET, working, sequence,
                failure_reason=(f"fact budget of {self.max_facts} exceeded "
                                f"({len(working)} facts after {steps} steps)"))
        if self.deadline is not None and time.monotonic() >= self.deadline:
            return ChaseResult(
                ChaseStatus.EXCEEDED_WALL_CLOCK, working, sequence,
                failure_reason=(f"wall-clock budget of {self.wall_clock:g}s "
                                f"exhausted after {steps} steps"))
        return None


def _run(instance: Instance, sigma: Iterable[Constraint],
         strategy: Strategy, max_steps: int, copy: bool,
         nulls: NullFactory, observers: Sequence[Observer], naive: bool,
         max_facts: Optional[int], wall_clock: Optional[float],
         oblivious: bool = False) -> ChaseResult:
    """The chase loop: fire the trigger ``strategy`` selects until it
    selects none or :class:`_Budget` cuts the run short.

    The run's one trigger source is a :class:`TriggerIndex`, or with
    ``naive`` a :class:`NaiveTriggers`; ``oblivious`` builds it in
    oblivious mode and marks the steps oblivious.  The selection rule
    is entirely the strategy's.
    """
    sigma = list(sigma)
    budget = _Budget(max_steps, max_facts, wall_clock)
    working = instance.copy() if copy else instance
    _guard_fresh_nulls(working, nulls)
    triggers = (NaiveTriggers(working, oblivious=oblivious) if naive
                else TriggerIndex(sigma, working, oblivious=oblivious))
    tracer = _trace.active()
    run_span = (tracer.start("chase", constraints=len(sigma),
                             max_steps=max_steps)
                if tracer is not None else None)

    def done(result: ChaseResult,
             step_span: Optional[_trace.Span] = None) -> ChaseResult:
        if step_span is not None:
            # The span of the selection that ended the run: written, so
            # its search span's parent exists in the trace.
            tracer.finish(step_span, terminal=True)
        if OBS.enabled:
            _record_run(result, max_steps)
        if run_span is not None:
            tracer.finish(run_span, status=result.status.value,
                          steps=len(result.sequence))
        return result

    try:
        strategy.start(sigma, triggers)
        sequence: list[ChaseStep] = []
        while True:
            index = len(sequence)
            if tracer is not None and tracer.sampled(index):
                step_span = tracer.start("step", index=index)
                search_span = tracer.start("homomorphism_search")
                selection = strategy.select()
                tracer.finish(search_span)
            else:
                step_span = None
                selection = strategy.select()
            if selection is None:
                return done(ChaseResult(ChaseStatus.TERMINATED, working,
                                        sequence), step_span)
            aborted = budget.check(working, sequence)
            if aborted is not None:
                return done(aborted, step_span)
            constraint, assignment, key = selection
            try:
                step = apply_step(working, constraint, assignment,
                                  index=index, oblivious=oblivious,
                                  nulls=nulls)
            except ChaseFailure as failure:
                return done(ChaseResult(ChaseStatus.FAILED, working,
                                        sequence,
                                        failure_reason=str(failure)),
                            step_span)
            triggers.mark_fired(constraint, key)
            sequence.append(step)
            if step_span is not None:
                tracer.finish(step_span,
                              constraint=constraint.display_name(),
                              new_facts=len(step.new_facts))
            try:
                for observer in observers:
                    observer(step, working)
            except AbortChase as abort:
                return done(ChaseResult(ChaseStatus.ABORTED_BY_MONITOR,
                                        working, sequence,
                                        failure_reason=abort.reason))
    finally:
        triggers.detach()


def chase(instance: Instance, sigma: Iterable[Constraint],
          strategy: Optional[Strategy] = None,
          max_steps: int = DEFAULT_MAX_STEPS,
          copy: bool = True,
          nulls: NullFactory = NULLS,
          observers: Sequence[Observer] = (),
          naive: bool = False,
          max_facts: Optional[int] = None,
          wall_clock: Optional[float] = None) -> ChaseResult:
    """Run the standard chase of ``instance`` with ``sigma`` (Section 2).

    The input instance is left untouched unless ``copy=False``.
    ``naive=True`` draws the triggers from :class:`NaiveTriggers`,
    which searches the whole instance again on every selection (the
    reference the incremental trigger index is checked against).

    ``max_facts`` bounds the working instance size (abort status
    ``EXCEEDED_BUDGET``, like the step budget); ``wall_clock`` bounds
    the elapsed seconds (abort status ``EXCEEDED_WALL_CLOCK``).  Both
    return the partial run instead of raising.
    """
    return _run(instance, sigma,
                RoundRobinStrategy() if strategy is None else strategy,
                max_steps, copy, nulls, observers, naive, max_facts,
                wall_clock)


def oblivious_chase(instance: Instance, sigma: Iterable[Constraint],
                    max_steps: int = DEFAULT_MAX_STEPS,
                    copy: bool = True,
                    nulls: NullFactory = NULLS,
                    observers: Sequence[Observer] = (),
                    naive: bool = False,
                    max_facts: Optional[int] = None,
                    wall_clock: Optional[float] = None) -> ChaseResult:
    """Run the oblivious chase: every trigger fires exactly once
    (Section 3.3's chase variant).

    Triggers are identified by (constraint, body image); new facts
    create new triggers, so the run terminates only when no unfired
    trigger remains.  The selection rule is constraint order
    (:class:`OrderedStrategy`): the first unfired trigger of the first
    constraint that has one, drawn from an oblivious trigger index --
    or, with ``naive=True``, from an oblivious :class:`NaiveTriggers`,
    which restarts the full enumeration after every step and skips the
    triggers already fired.
    """
    if OBS.enabled:
        OBS.inc("chase.oblivious_runs")
    return _run(instance, sigma, OrderedStrategy(), max_steps, copy, nulls,
                observers, naive, max_facts, wall_clock, oblivious=True)


def chase_with_budget_probe(instance: Instance, sigma: Iterable[Constraint],
                            budgets: Sequence[int],
                            strategy_factory=RoundRobinStrategy
                            ) -> tuple[ChaseResult, int]:
    """Run the chase with increasing budgets; return the first result
    that is not ``EXCEEDED_BUDGET`` (or the last one), plus the budget
    used.  Convenient for divergence experiments (Example 4)."""
    result: ChaseResult | None = None
    used = 0
    for budget in budgets:
        used = budget
        result = chase(instance, sigma, strategy=strategy_factory(),
                       max_steps=budget)
        if result.status is not ChaseStatus.EXCEEDED_BUDGET:
            return result, used
    assert result is not None
    return result, used
