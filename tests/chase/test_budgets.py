"""Runner budget semantics: steps, facts and wall clock.

Every budget abort must surface as a distinct ``ChaseResult`` status
carrying the partial run -- never as an exception -- and the
wall-clock abort must be a true prefix of the unbounded run on the
divergent workload families (cross-validation: budgets change *when*
a run stops, not *what* it computes).
"""

import pytest

from repro.chase import (chase, ChaseStatus, oblivious_chase,
                         OrderedStrategy, RandomStrategy,
                         RoundRobinStrategy, StratifiedStrategy)
from repro.datadep import monitored_chase
from repro.lang.parser import parse_constraints, parse_instance
from repro.lang.terms import NullFactory
from repro.workloads.families import special_nodes_instance
from repro.workloads.paper import (example4, example4_instance,
                                   intro_alpha2)

#: Divergent workload families: (constraints, instance) pairs whose
#: round-robin chase never terminates.
DIVERGENT_FAMILIES = [
    ("intro_alpha2", intro_alpha2, lambda: special_nodes_instance(4)),
    ("example4", example4, example4_instance),
]


@pytest.mark.parametrize("name,sigma,instance", DIVERGENT_FAMILIES,
                         ids=[f[0] for f in DIVERGENT_FAMILIES])
def test_wall_clock_abort_is_a_status_not_an_exception(name, sigma,
                                                       instance):
    result = chase(instance(), sigma(), max_steps=100_000_000,
                   wall_clock=0.05)
    assert result.status is ChaseStatus.EXCEEDED_WALL_CLOCK
    assert "wall-clock budget" in result.failure_reason
    assert result.length > 0                   # a partial run came back
    assert not result.terminated


@pytest.mark.parametrize("name,sigma,instance", DIVERGENT_FAMILIES,
                         ids=[f[0] for f in DIVERGENT_FAMILIES])
def test_wall_clock_abort_is_a_prefix_of_the_unbounded_run(name, sigma,
                                                           instance):
    """Cross-validation: the aborted run's sequence must replay the
    budgeted run step for step (same strategy, same null labels)."""
    aborted = chase(instance(), sigma(), max_steps=100_000_000,
                    wall_clock=0.05, nulls=NullFactory())
    reference = chase(instance(), sigma(), max_steps=aborted.length,
                      nulls=NullFactory())
    assert reference.status is ChaseStatus.EXCEEDED_BUDGET
    assert reference.length == aborted.length
    assert ([step.describe() for step in reference.sequence]
            == [step.describe() for step in aborted.sequence])
    assert reference.instance == aborted.instance


def test_fact_budget_aborts_with_budget_status():
    sigma = parse_constraints("a2: S(x) -> E(x, y), S(y)")
    instance = parse_instance("S(a).")
    result = chase(instance, sigma, max_steps=100_000_000, max_facts=25)
    assert result.status is ChaseStatus.EXCEEDED_BUDGET
    assert "fact budget" in result.failure_reason
    assert len(result.instance) > 25           # first crossing, then stop
    assert result.length < 100


def step_capped_runners(sigma):
    """Every chase runner, as ``(name, run(instance, max_steps))``."""
    strategies = [("ordered", OrderedStrategy), ("round_robin",
                                                 RoundRobinStrategy),
                  ("random", RandomStrategy),
                  ("stratified", lambda: StratifiedStrategy([sigma]))]
    runners = [(f"chase/{name}",
                lambda inst, n, make=make: chase(inst, sigma,
                                                 strategy=make(),
                                                 max_steps=n))
               for name, make in strategies]
    runners += [
        ("monitored_chase",
         lambda inst, n: monitored_chase(inst, sigma, cycle_limit=3,
                                         max_steps=n).result),
        ("oblivious_chase",
         lambda inst, n: oblivious_chase(inst, sigma, max_steps=n)),
        ("oblivious_chase/naive",
         lambda inst, n: oblivious_chase(inst, sigma, max_steps=n,
                                         naive=True)),
    ]
    return runners


def test_fixpoint_wins_over_every_budget():
    """An instance that already satisfies sigma is TERMINATED, however
    large it is, however tight the clock and however few steps it may
    take -- budgets only cut short runs that still have an active
    trigger.  So is a run that reaches its fixpoint in exactly
    ``max_steps`` steps."""
    sigma = parse_constraints("a: S(x) -> T(x)")
    satisfied = parse_instance("S(a). T(a). S(b). T(b).")
    assert chase(satisfied, sigma,
                 max_facts=3).status is ChaseStatus.TERMINATED
    assert chase(satisfied, sigma,
                 wall_clock=0.0).status is ChaseStatus.TERMINATED
    assert oblivious_chase(parse_instance("T(a)."), sigma,
                           max_facts=0).status is ChaseStatus.TERMINATED
    assert oblivious_chase(parse_instance("T(a)."), sigma, max_facts=0,
                           naive=True).status is ChaseStatus.TERMINATED
    # (instance, step cap): no trigger at all (not even an oblivious
    # one), and a fixpoint two steps away.
    for instance, max_steps in ((parse_instance("T(a). T(b)."), 0),
                                (parse_instance("S(a). S(b)."), 2)):
        for name, run in step_capped_runners(sigma):
            result = run(instance, max_steps)
            assert result.status is ChaseStatus.TERMINATED, (name,
                                                             max_steps)
            assert result.length == max_steps, name


def test_fact_budget_does_not_fire_below_the_bound():
    sigma = parse_constraints("a1: S(x) -> E(x, y)")
    instance = parse_instance("S(a). S(b).")
    result = chase(instance, sigma, max_facts=100)
    assert result.status is ChaseStatus.TERMINATED


def test_oblivious_chase_honours_wall_clock_and_fact_budgets():
    sigma = parse_constraints("a2: S(x) -> E(x, y), S(y)")
    instance = parse_instance("S(a).")
    by_time = oblivious_chase(instance, sigma, max_steps=100_000_000,
                              wall_clock=0.05)
    assert by_time.status is ChaseStatus.EXCEEDED_WALL_CLOCK
    by_facts = oblivious_chase(instance, sigma, max_steps=100_000_000,
                               max_facts=25)
    assert by_facts.status is ChaseStatus.EXCEEDED_BUDGET
    naive = oblivious_chase(instance, sigma, max_steps=100_000_000,
                            max_facts=25, naive=True)
    assert naive.status is ChaseStatus.EXCEEDED_BUDGET


def test_step_cap_comes_before_the_fact_budget():
    """Three steps reach 7 facts: when the step cap and the fact
    budget run out together, every runner reports the step cap."""
    sigma = parse_constraints("a2: S(x) -> E(x, y), S(y)")
    instance = parse_instance("S(a).")
    for naive in (False, True):
        for run in (chase, oblivious_chase):
            result = run(instance, sigma, max_steps=3, max_facts=6,
                         naive=naive)
            assert result.status is ChaseStatus.EXCEEDED_BUDGET
            assert result.length == 3 and len(result.instance) == 7
            assert result.failure_reason is None, (run, naive)


def test_zero_wall_clock_aborts_immediately_but_cleanly():
    sigma = parse_constraints("a1: S(x) -> E(x, y)")
    instance = parse_instance("S(a).")
    result = chase(instance, sigma, wall_clock=0.0)
    assert result.status is ChaseStatus.EXCEEDED_WALL_CLOCK
    assert result.length == 0
    assert len(result.instance) == 1           # input untouched


def test_budget_validation():
    sigma = parse_constraints("a1: S(x) -> E(x, y)")
    instance = parse_instance("S(a).")
    with pytest.raises(ValueError):
        chase(instance, sigma, max_facts=-1)
    with pytest.raises(ValueError):
        chase(instance, sigma, wall_clock=-0.5)


def test_status_helper_properties():
    assert ChaseStatus.EXCEEDED_BUDGET.is_budget_abort
    assert ChaseStatus.EXCEEDED_WALL_CLOCK.is_budget_abort
    assert not ChaseStatus.TERMINATED.is_budget_abort
    assert not ChaseStatus.EXCEEDED_WALL_CLOCK.is_deterministic
    assert all(status.is_deterministic for status in ChaseStatus
               if status is not ChaseStatus.EXCEEDED_WALL_CLOCK)


def test_monitored_chase_forwards_budgets_and_observers():
    sigma = parse_constraints("a2: S(x) -> E(x, y), S(y)")
    instance = parse_instance("S(a).")
    seen = []
    guarded = monitored_chase(instance, sigma, cycle_limit=50,
                              max_steps=100_000_000, max_facts=25,
                              observers=(lambda step, w:
                                         seen.append(step.index),))
    assert guarded.status is ChaseStatus.EXCEEDED_BUDGET
    assert seen == list(range(guarded.result.length))
