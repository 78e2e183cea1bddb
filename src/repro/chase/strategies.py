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

Strategies only choose: finding the active triggers is the engine's
job.  The runner hands each strategy one trigger source per run --
a :class:`repro.chase.triggers.TriggerIndex` by default, or the
reference :class:`repro.chase.triggers.NaiveTriggers` for
``chase(..., naive=True)`` -- and strategies read nothing else.
"""

from __future__ import annotations

import random
from typing import Iterable, Optional, Sequence

from repro.chase.triggers import TriggerKey, TriggerSource
from repro.homomorphism.engine import Assignment
from repro.lang.constraints import Constraint

#: A chosen trigger: the constraint, the body assignment to fire and
#: the key the runner hands back to the source once it has fired.
Selection = Optional[tuple[Constraint, Assignment, Optional[TriggerKey]]]


class Strategy:
    """Base class: pick the next (constraint, active trigger) pair."""

    def start(self, sigma: Sequence[Constraint],
              triggers: TriggerSource) -> None:
        """Called once before the run begins, with the run's trigger
        source."""
        self._sigma = list(sigma)
        self._triggers = triggers

    def select(self) -> Selection:
        """Return the next step to execute, or None when ``I |= Sigma``."""
        raise NotImplementedError

    def _first_active(self, constraints: Iterable[Constraint]) -> Selection:
        """The first active trigger of the first of ``constraints``
        that has one."""
        for constraint in constraints:
            found = self._triggers.next_active(constraint)
            if found is not None:
                return (constraint, *found)
        return None


class OrderedStrategy(Strategy):
    """Always fire the first violated constraint in the listed order
    (one deterministic instantiation of Section 2's free choice)."""

    def select(self) -> Selection:
        """First constraint (in listed order) with an active trigger."""
        return self._first_active(self._sigma)


class RoundRobinStrategy(Strategy):
    """Cycle through the constraints, firing each at most once per turn.

    With Example 4's constraint set this reproduces the paper's
    divergent sequence ``alpha_1, ..., alpha_4, alpha_1, ...``.
    """

    def start(self, sigma: Sequence[Constraint],
              triggers: TriggerSource) -> None:
        """Reset the cursor to the first constraint."""
        super().start(sigma, triggers)
        self._cursor = 0

    def select(self) -> Selection:
        """Next active trigger at or after the cursor (cyclically)."""
        n = len(self._sigma)
        for offset in range(n):
            constraint = self._sigma[(self._cursor + offset) % n]
            found = self._triggers.next_active(constraint)
            if found is not None:
                self._cursor = (self._cursor + offset + 1) % n
                return (constraint, *found)
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

    def select(self) -> Selection:
        """A seeded-random choice among (capped) active triggers."""
        candidates = [(constraint, assignment, key)
                      for constraint in self._sigma
                      for assignment, key in self._triggers.active_triggers(
                          constraint, cap=self.TRIGGER_CAP)]
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

    def start(self, sigma: Sequence[Constraint],
              triggers: TriggerSource) -> None:
        """Validate that the strata partition ``sigma`` exactly; reset
        to level 0."""
        super().start(sigma, triggers)
        covered = {c for stratum in self._strata for c in stratum}
        missing = [c for c in self._sigma if c not in covered]
        if missing:
            raise ValueError(
                "strata do not cover the constraint set: missing "
                + ", ".join(c.display_name() for c in missing))
        members = set(self._sigma)
        extra = [c for stratum in self._strata for c in stratum
                 if c not in members]
        if extra:
            raise ValueError(
                "strata name constraints outside the constraint set: "
                + ", ".join(c.display_name() for c in extra))
        self._level = 0

    def select(self) -> Selection:
        """Next active trigger of the current stratum, advancing to the
        next stratum once the current one is satisfied (Theorem 2)."""
        while self._level < len(self._strata):
            selection = self._first_active(self._strata[self._level])
            if selection is not None:
                return selection
            if self._verify:
                for earlier in self._strata[:self._level]:
                    if self._first_active(earlier) is not None:
                        raise AssertionError(
                            "Theorem 2 violated: earlier stratum "
                            f"re-violated at level {self._level}")
            self._level += 1
        return None
