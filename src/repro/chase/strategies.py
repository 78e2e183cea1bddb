"""Chase application strategies (which applicable constraint fires next).

The paper imposes "no strict order what constraint must be applied in
case several constraints apply" (Section 2) -- so the engine is
parameterized by a strategy.  Four are essential to the reproduction:

* :class:`OrderedStrategy` and :class:`RoundRobinStrategy` reproduce
  the divergent sequence of Example 4 (apply alpha_1..alpha_4
  cyclically);
* :class:`RandomStrategy` exercises order-independence properties;
* :class:`StratifiedStrategy` implements Theorem 2: chase the strongly
  connected components of the chase graph in topological order, which
  yields a terminating sequence for every stratified constraint set.

Strategies draw active triggers from a
:class:`repro.chase.triggers.TriggerIndex` when the runner provides
one (the default), falling back to the naive full re-enumeration of
:func:`repro.homomorphism.extend.violation` otherwise (the
``naive=True`` escape hatch of :func:`repro.chase.runner.chase`).
"""

from __future__ import annotations

import random
from typing import Callable, Iterable, List, Optional, Sequence, TYPE_CHECKING

from repro.homomorphism.engine import Assignment, find_homomorphisms
from repro.homomorphism.extend import head_extends, violation
from repro.lang.constraints import Constraint, EGD, TGD
from repro.lang.instance import Instance

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.chase.triggers import TriggerIndex

Selection = Optional[tuple[Constraint, Assignment]]


class Strategy:
    """Base class: pick the next (constraint, active trigger) pair."""

    _triggers: "Optional[TriggerIndex]" = None

    def start(self, sigma: Sequence[Constraint], instance: Instance) -> None:
        """Called once before the run begins.

        The incremental trigger index is delivered separately through
        :meth:`attach_triggers` (and the runner treats that hook as
        optional), so strategies implementing only this historical
        start/select contract keep working -- they simply enumerate
        naively.
        """
        self._sigma = list(sigma)

    def attach_triggers(self, triggers: "Optional[TriggerIndex]") -> None:
        """Hand the strategy the runner's trigger index (None detaches,
        restoring naive enumeration)."""
        self._triggers = triggers

    def select(self, instance: Instance) -> Selection:
        """Return the next step to execute, or None when ``I |= Sigma``."""
        raise NotImplementedError

    def _next_violation(self, constraint: Constraint, instance: Instance
                        ) -> Optional[Assignment]:
        """An active trigger of ``constraint`` -- from the index when
        available, by full enumeration otherwise."""
        if self._triggers is not None and self._triggers.tracks(constraint):
            return self._triggers.next_active(constraint)
        return violation(constraint, instance)


class OrderedStrategy(Strategy):
    """Always fire the first violated constraint in the listed order
    (one deterministic instantiation of Section 2's free choice)."""

    def select(self, instance: Instance) -> Selection:
        """First constraint (in listed order) with an active trigger."""
        for constraint in self._sigma:
            assignment = self._next_violation(constraint, instance)
            if assignment is not None:
                return constraint, assignment
        return None


class RoundRobinStrategy(Strategy):
    """Cycle through the constraints, firing each at most once per turn.

    With Example 4's constraint set this reproduces the paper's
    divergent sequence ``alpha_1, ..., alpha_4, alpha_1, ...``.
    """

    def start(self, sigma: Sequence[Constraint], instance: Instance) -> None:
        """Reset the cursor to the first constraint."""
        super().start(sigma, instance)
        self._cursor = 0

    def select(self, instance: Instance) -> Selection:
        """Next active trigger at or after the cursor (cyclically)."""
        n = len(self._sigma)
        for offset in range(n):
            constraint = self._sigma[(self._cursor + offset) % n]
            assignment = self._next_violation(constraint, instance)
            if assignment is not None:
                self._cursor = (self._cursor + offset + 1) % n
                return constraint, assignment
        return None


class RandomStrategy(Strategy):
    """Pick a uniformly random active trigger (seeded) among the first
    :attr:`TRIGGER_CAP` of each constraint.

    Used to exercise the classical order-independence of terminating
    chase results (homomorphically equivalent, Section 2)."""

    #: active triggers drawn per constraint and selection
    TRIGGER_CAP = 16

    def __init__(self, seed: int = 0) -> None:
        self._rng = random.Random(seed)

    def _naive_candidates(self, constraint: Constraint, instance: Instance
                          ) -> List[Assignment]:
        candidates: list[Assignment] = []
        for assignment in find_homomorphisms(list(constraint.body),
                                             instance):
            if isinstance(constraint, TGD):
                active = not head_extends(constraint, instance, assignment)
            else:
                assert isinstance(constraint, EGD)
                active = (assignment[constraint.lhs]
                          != assignment[constraint.rhs])
            if active:
                candidates.append(assignment)
                if len(candidates) >= self.TRIGGER_CAP:
                    break
        return candidates

    def select(self, instance: Instance) -> Selection:
        """A seeded-random choice among (capped) active triggers."""
        candidates: list[tuple[Constraint, Assignment]] = []
        for constraint in self._sigma:
            if (self._triggers is not None
                    and self._triggers.tracks(constraint)):
                assignments = self._triggers.active_triggers(
                    constraint, cap=self.TRIGGER_CAP)
            else:
                assignments = self._naive_candidates(constraint, instance)
            candidates.extend((constraint, assignment)
                              for assignment in assignments)
        if not candidates:
            return None
        return self._rng.choice(candidates)


class StratifiedStrategy(Strategy):
    """Theorem 2: chase stratum by stratum.

    ``strata`` is a topologically sorted partition of the constraint
    set (as produced by
    :func:`repro.termination.stratification.chase_strata`).  The
    strategy chases the first stratum to satisfaction, then the second,
    and so on; Theorem 2 shows later strata never re-violate earlier
    ones, which the optional ``verify`` mode asserts.
    """

    def __init__(self, strata: Sequence[Iterable[Constraint]],
                 verify: bool = False) -> None:
        self._strata = [list(stratum) for stratum in strata]
        self._verify = verify
        self._level = 0

    def start(self, sigma: Sequence[Constraint], instance: Instance) -> None:
        """Validate that the strata cover ``sigma``; reset to level 0."""
        super().start(sigma, instance)
        covered = {c for stratum in self._strata for c in stratum}
        missing = [c for c in sigma if c not in covered]
        if missing:
            raise ValueError(
                "strata do not cover the constraint set: missing "
                + ", ".join(c.display_name() for c in missing))
        self._level = 0

    def select(self, instance: Instance) -> Selection:
        """Next active trigger of the current stratum, advancing to the
        next stratum once the current one is satisfied (Theorem 2)."""
        while self._level < len(self._strata):
            for constraint in self._strata[self._level]:
                assignment = self._next_violation(constraint, instance)
                if assignment is not None:
                    return constraint, assignment
            if self._verify:
                for earlier in self._strata[:self._level]:
                    for constraint in earlier:
                        if self._next_violation(constraint,
                                                instance) is not None:
                            raise AssertionError(
                                "Theorem 2 violated: earlier stratum "
                                f"re-violated at level {self._level}")
            self._level += 1
        return None


StrategyFactory = Callable[[], Strategy]
