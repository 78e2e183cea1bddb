"""The core chase (Deutsch, Nash, Remmel [9]).

The paper's conclusions note that its termination results carry over
to the core chase: alternate ordinary chase rounds with core
computation, so the instance is always a core.  The core chase is
*complete* for finding universal solutions: it terminates whenever
some finite universal solution exists -- in particular it terminates
on inputs where only some orders of the standard chase do (it would,
e.g., tame Example 4's divergent order by folding the spurious nulls
away each round).
"""

from __future__ import annotations

from typing import Iterable

from repro.chase.core import core
from repro.chase.result import ChaseResult, ChaseStatus
from repro.chase.runner import chase as standard_chase
from repro.chase.step import ChaseStep
from repro.chase.strategies import OrderedStrategy
from repro.homomorphism.extend import all_satisfied
from repro.lang.constraints import Constraint
from repro.lang.instance import Instance
from repro.lang.terms import NullFactory, NULLS


def core_chase(instance: Instance, sigma: Iterable[Constraint],
               max_rounds: int = 200,
               steps_per_round: int = 500,
               nulls: NullFactory = NULLS) -> ChaseResult:
    """Run the core chase: each round applies one *parallel* batch of
    chase steps (every currently violated constraint fires once) and
    then replaces the instance by its core.

    Terminates iff a finite universal solution exists (within the
    round budget); the returned instance is that solution's core.
    """
    sigma = list(sigma)
    working = instance.copy()
    sequence: list[ChaseStep] = []
    for round_index in range(max_rounds):
        if all_satisfied(sigma, working):
            return ChaseResult(ChaseStatus.TERMINATED, working, sequence)
        # One bounded burst of ordinary chasing ...
        burst = standard_chase(working, sigma, strategy=OrderedStrategy(),
                               max_steps=steps_per_round, copy=False,
                               nulls=nulls)
        sequence.extend(burst.sequence)
        if burst.status is ChaseStatus.FAILED:
            return ChaseResult(ChaseStatus.FAILED, working, sequence,
                               failure_reason=burst.failure_reason)
        # ... then fold the instance to its core.
        working = core(working)
        if burst.status is ChaseStatus.TERMINATED:
            return ChaseResult(ChaseStatus.TERMINATED, working, sequence)
    return ChaseResult(ChaseStatus.EXCEEDED_BUDGET, working, sequence)
