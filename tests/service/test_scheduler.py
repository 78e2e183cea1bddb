"""Batch scheduling: the acceptance scenario plus policy details.

The headline test runs a batch of >= 16 mixed workload-family jobs
through a 2-worker scheduler and cross-validates every result against
plain sequential in-process execution; a warm-cache rerun must answer
everything without executing a single chase, and a deliberately
divergent job must be stopped by its budget without affecting
siblings.
"""

import pytest

from repro.lang.instance import Instance
from repro.lang.parser import parse_constraints, parse_instance
from repro.service.cache import report_key, ServiceCache
from repro.service.jobs import ChaseJob, execute_job, STATUS_ERROR
from repro.service.scheduler import BatchScheduler, Plan
from repro.termination import PrecedenceOracle
from repro.termination.report import analyze, TerminationReport
from repro.workloads.batch import mixed_batch_specs
from repro.workloads.paper import NAMED_SETS

DIVERGENT = "a2: S(x) -> E(x, y), S(y)"


def load(specs):
    return [ChaseJob.from_dict(spec) for spec in specs]


def comparable(result):
    return (result.job, result.status, result.steps, result.new_nulls,
            result.facts)


def test_batch_of_16_parallel_equals_sequential_and_warm_cache_skips():
    jobs = load(mixed_batch_specs(16, seed=11))
    assert len(jobs) == 16
    # Reference: plain sequential in-process execution, no service.
    expected = [comparable(execute_job(job)) for job in jobs]

    events = []
    scheduler = BatchScheduler(workers=2, on_event=events.append)
    results = scheduler.run_batch(jobs)
    assert [comparable(r) for r in results] == expected
    # All four families actually ran (mixed batch, not a degenerate one).
    assert {r.job.split("_")[0] for r in results} == {
        "chain", "safe", "t3", "divergent"}
    # The divergent jobs were stopped by their step budgets while
    # sibling jobs terminated normally.
    divergent = [r for r in results if r.job.startswith("divergent")]
    others = [r for r in results if not r.job.startswith("divergent")]
    assert divergent and all(r.status == "exceeded_budget"
                             for r in divergent)
    assert others and all(r.status == "terminated" for r in others)
    # Guaranteed-terminating jobs were all dispatched before any
    # budget-capped unknown (divergent) job.
    started = [e.job for e in events if e.kind == "started"]
    first_unknown = started.index(
        next(name for name in started if name.startswith("divergent")))
    assert all(not name.startswith("divergent")
               for name in started[:first_unknown])

    executed_cold = scheduler.pool.executed
    assert executed_cold < len(jobs)  # seeded sizes repeat: dedup hit

    # Warm rerun: identical payloads, zero executions.
    rerun = scheduler.run_batch(load(mixed_batch_specs(16, seed=11)))
    assert [comparable(r) for r in rerun] == expected
    assert all(r.cached for r in rerun)
    assert scheduler.pool.executed == executed_cold


def test_results_come_back_in_input_order():
    jobs = load(mixed_batch_specs(8, seed=3))
    scheduler = BatchScheduler(workers=2)
    results = scheduler.run_batch(jobs)
    assert [r.job for r in results] == [job.name for job in jobs]


def test_wall_clock_budget_kills_divergent_job_without_hurting_siblings():
    specs = mixed_batch_specs(4, seed=5)
    jobs = load(specs)
    runaway = ChaseJob.from_dict({
        "name": "runaway", "constraints": DIVERGENT, "instance": "S(a).",
        "max_steps": 100_000_000, "wall_clock": 0.15})
    scheduler = BatchScheduler(workers=2, unknown_step_cap=None)
    results = scheduler.run_batch([runaway] + jobs)
    assert results[0].job == "runaway"
    assert results[0].status == "exceeded_wall_clock"
    expected = [comparable(execute_job(job)) for job in jobs]
    assert [comparable(r) for r in results[1:]] == expected
    # Timing-dependent outcome: never cached, reruns execute again.
    before = scheduler.pool.executed
    again = scheduler.run_batch([runaway])
    assert not again[0].cached
    assert scheduler.pool.executed == before + 1


def test_unknown_jobs_get_step_capped():
    job = ChaseJob.from_dict({
        "name": "big", "constraints": DIVERGENT, "instance": "S(a).",
        "max_steps": 100_000_000})
    scheduler = BatchScheduler(workers=1, unknown_step_cap=100)
    planned, report, guaranteed = scheduler.plan_job(job)
    assert not guaranteed and not report.guarantees_some_sequence
    assert planned.max_steps == 100
    result = scheduler.run_batch([job])[0]
    assert result.status == "exceeded_budget" and result.steps == 100


def test_guaranteed_jobs_keep_their_budgets():
    job = ChaseJob.from_dict({
        "name": "chain", "constraints": "c: R(x, y) -> T(x, y)",
        "instance": "R(a, b).", "max_steps": 100_000_000})
    scheduler = BatchScheduler(workers=1, unknown_step_cap=100)
    planned, _, guaranteed = scheduler.plan_job(job)
    assert guaranteed and planned.max_steps == 100_000_000


def test_auto_strategy_is_pinned_from_the_cached_report():
    from repro.lang.parser import render_constraints
    from repro.workloads.paper import example4, example4_instance
    job = ChaseJob.from_dict({
        "name": "ex4",
        "constraints": render_constraints(example4()),
        "instance": "\n".join(sorted(f"{f}." for f in example4_instance())),
        "strategy": "auto", "max_steps": 2000})
    scheduler = BatchScheduler(workers=1)
    planned, report, guaranteed = scheduler.plan_job(job)
    assert report.stratified and not report.guarantees_all_sequences
    assert planned.strategy == "stratified"
    assert guaranteed
    # And the run indeed terminates where round-robin would diverge.
    result = scheduler.run_batch([job])[0]
    assert result.status == "terminated"


def test_warm_plans_build_the_strata_once(monkeypatch):
    """A set that is only stratified keeps Theorem 2's stratum order
    on its report, so warm plans do not rebuild the chase graph's
    condensation."""
    from repro.termination import report as report_module
    from repro.workloads.paper import example4
    built = []
    chase_strata = report_module.chase_strata
    monkeypatch.setattr(report_module, "chase_strata",
                        lambda *args: built.append(args)
                        or chase_strata(*args))
    report_module.clear_analyze_cache()
    job = ChaseJob(name="ex4", sigma=tuple(example4()), instance=Instance(),
                   strategy="auto")
    scheduler = BatchScheduler(workers=1)
    plans = [scheduler.plan_job(job) for _ in range(5)]
    assert {plan.job.strategy for plan in plans} == {"stratified"}
    assert len(built) == 1


def test_explicit_stratified_request_on_unstratifiable_set_errors():
    job = ChaseJob.from_dict({
        "name": "bad", "constraints": DIVERGENT, "instance": "S(a).",
        "strategy": "stratified"})
    scheduler = BatchScheduler(workers=1)
    sibling = ChaseJob.from_dict({
        "name": "good", "constraints": "c: R(x, y) -> T(x, y)",
        "instance": "R(a, b)."})
    results = scheduler.run_batch([job, sibling])
    assert results[0].status == STATUS_ERROR
    assert "not stratified" in results[0].failure_reason
    assert results[1].status == "terminated"


def test_duplicate_jobs_share_deterministic_results_only():
    """Intra-batch dedup replays a duplicate only when the shared run
    ended deterministically; a wall-clock abort is re-executed."""
    spec = {"constraints": DIVERGENT, "instance": "S(a).",
            "max_steps": 100_000_000, "wall_clock": 0.1}
    pair = [ChaseJob.from_dict(dict(spec, name="first")),
            ChaseJob.from_dict(dict(spec, name="twin"))]
    scheduler = BatchScheduler(workers=2, unknown_step_cap=None)
    results = scheduler.run_batch(pair)
    assert all(r.status == "exceeded_wall_clock" for r in results)
    assert not any(r.cached for r in results)
    assert scheduler.pool.executed == 2      # the twin really ran
    # Deterministic duplicates, by contrast, execute once.
    fast = {"constraints": DIVERGENT, "instance": "S(a).",
            "max_steps": 30}
    twins = [ChaseJob.from_dict(dict(fast, name="a")),
             ChaseJob.from_dict(dict(fast, name="b"))]
    before = scheduler.pool.executed
    deduped = scheduler.run_batch(twins)
    assert scheduler.pool.executed == before + 1
    assert deduped[1].cached and deduped[1].facts == deduped[0].facts


def test_no_cache_disables_dedup_too():
    """With the result cache off, duplicate jobs must really execute:
    the user asked for every run to happen."""
    fast = {"constraints": DIVERGENT, "instance": "S(a).",
            "max_steps": 30}
    twins = [ChaseJob.from_dict(dict(fast, name="a")),
             ChaseJob.from_dict(dict(fast, name="b"))]
    scheduler = BatchScheduler(workers=1, cache=ServiceCache(result_size=0))
    results = scheduler.run_batch(twins)
    assert scheduler.pool.executed == 2
    assert not any(r.cached for r in results)


def test_shared_cache_across_scheduler_instances():
    cache = ServiceCache()
    jobs = load(mixed_batch_specs(4, seed=2))
    first = BatchScheduler(workers=1, cache=cache)
    first.run_batch(jobs)
    second = BatchScheduler(workers=2, cache=cache)
    results = second.run_batch(load(mixed_batch_specs(4, seed=2)))
    assert all(r.cached for r in results)
    assert second.pool.executed == 0


def test_cancellation_racing_completion_keeps_the_contract():
    """A ``should_cancel`` probe that flips exactly when the first job
    finishes: the batch must neither hang nor drop results -- every
    slot comes back filled, in input order, with the already-finished
    work kept and the never-started remainder marked cancelled."""
    jobs = load(mixed_batch_specs(6, seed=13))
    finished = []

    def on_event(event):
        if event.kind == "finished":
            finished.append(event.job)

    scheduler = BatchScheduler(workers=1, on_event=on_event)
    results = scheduler.run_batch(jobs,
                                  should_cancel=lambda: bool(finished))
    assert [r.job for r in results] == [job.name for job in jobs]
    assert all(r is not None for r in results)
    done = [r for r in results if r.status != "killed"]
    cancelled = [r for r in results if r.status == "killed"]
    assert done and cancelled                  # the race really raced
    assert all(r.failure_reason == "cancelled" for r in cancelled)
    # Cancelled results are timing artifacts: never cached, so a
    # rerun without the probe executes them for real.
    rerun = scheduler.run_batch(load(mixed_batch_specs(6, seed=13)))
    assert all(r.status != "killed" for r in rerun)
    assert [comparable(r) for r in rerun] == \
        [comparable(execute_job(job)) for job in jobs]


def test_cancellation_racing_completion_through_the_pool():
    """Same race through real worker processes: cancellation mid-batch
    terminates running workers, fills every result slot, and leaves
    the scheduler usable for the next batch."""
    jobs = load(mixed_batch_specs(8, seed=21))
    seen = []

    def on_event(event):
        if event.kind == "finished":
            seen.append(event.job)

    scheduler = BatchScheduler(workers=2, on_event=on_event)
    try:
        results = scheduler.run_batch(
            jobs, should_cancel=lambda: len(seen) >= 1)
        assert [r.job for r in results] == [job.name for job in jobs]
        assert all(r.status in ("terminated", "exceeded_budget",
                                "killed", "error") for r in results)
        assert any(r.status == "killed" and
                   r.failure_reason == "cancelled" for r in results)
        # The pool survives the cancellation: the same scheduler
        # serves the next (uncancelled) batch correctly.
        rerun = scheduler.run_batch(load(mixed_batch_specs(8, seed=21)))
        assert all(r.status != "killed" for r in rerun)
        assert [comparable(r) for r in rerun] == \
            [comparable(execute_job(job)) for job in jobs]
    finally:
        scheduler.close()
    assert scheduler.pool.worker_pids() == []


def test_cached_events_are_emitted_on_warm_hits():
    events = []
    scheduler = BatchScheduler(workers=1, on_event=events.append)
    jobs = load(mixed_batch_specs(4, seed=7))
    scheduler.run_batch(jobs)
    events.clear()
    scheduler.run_batch(load(mixed_batch_specs(4, seed=7)))
    assert [e.kind for e in events if e.kind in ("cached", "started")] \
        == ["cached"] * 4


def plan_with_oracle(job, oracle):
    """Plan ``job`` on a report analyzed by ``oracle``, so the
    precedence searches planning spends can be counted."""
    scheduler = BatchScheduler(workers=1)
    report = analyze(job.sigma, max_k=job.max_k, oracle=oracle)
    scheduler.cache.reports.put(report_key(job.sigma, job.max_k), report)
    plan = scheduler.plan_job(job)
    assert plan.report is report
    return plan


def test_figure2_is_planned_by_the_t3_probe_alone():
    """Figure 2 is in T[3] but in no cheaper class, and it is not
    stratified: the planner's guarantee comes from the T[3] probe,
    which runs once stratification has failed, and the default order
    is kept.  (Example 4, only stratified, is pinned by
    ``test_auto_strategy_is_pinned_from_the_cached_report``.)"""
    from repro.workloads.paper import figure2
    job = ChaseJob(name="fig2", sigma=tuple(figure2()), instance=Instance(),
                   strategy="auto")
    scheduler = BatchScheduler(workers=1)
    planned, report, guaranteed = scheduler.plan_job(job)
    assert (planned.strategy, planned.max_steps, guaranteed) \
        == ("round_robin", job.max_steps, True)
    assert report.t_hierarchy_level == 3
    assert not (report.weakly_acyclic or report.safe or report.c_stratified
                or report.inductively_restricted or report.stratified)


def test_stratified_set_in_t3_is_planned_with_its_stratum_order():
    """Fuzz seed 1, case 179: stratified and in T[3], but in none of
    WA, safe, c-stratified and IR.  Stratification is decided before
    the T[3] probe, so the plan is Theorem 2's stratum order rather
    than the default round-robin, which T[3] also guarantees.  Both
    orders terminate on the case's instance."""
    job = ChaseJob(
        name="seed1_case179",
        sigma=tuple(parse_constraints(
            "f0: R1(x3, x1, x1) -> R1(x1, x3, y0), R1(y0, x3, x1)\n"
            "f1: R0(x0, x1) -> R1(x0, x1, x0)")),
        instance=parse_instance(
            "R0(?n1, c0). R0(c1, c0). R0(c1, c1). R0(c2, c0). "
            "R1(?n1, c1, ?n2). R1(?n2, c0, ?n2)."))
    planned, report, guaranteed = plan_with_oracle(job, PrecedenceOracle())
    assert (planned.strategy, planned.max_steps, guaranteed) \
        == ("stratified", job.max_steps, True)
    assert "t_hierarchy_level" not in report._verdicts
    assert report.t_hierarchy_level == 3
    for strategy in ("stratified", "round_robin"):
        result = execute_job(planned.with_updates(strategy=strategy))
        assert (result.status, result.steps, len(result.facts)) \
            == ("terminated", 4, 10)


def test_stratified_mapping_with_a_key_egd_plans_without_the_probe():
    """A stratified data-exchange mapping plus a key EGD on ``PartOf``
    (perfbench's stratified mapping and the EGD it leaves out).  None
    of WA, safe, c-stratified and IR holds, so planning stops at
    stratification.  The T[2..3] probe would spend 442,063 search
    nodes on this set, and the node budget would cut 14 searches
    short."""
    job = ChaseJob(name="stratified_key_egd", sigma=tuple(parse_constraints(
        "t1: inproc(k, t, y, c) -> Pub(k, t, y), PartOf(k, c)\n"
        "t2: crossref(c, b, y) -> Vol(c)\n"
        "t3: author(k, i, n) -> Wrote(k, i, n)\n"
        "t4: article(k, t, y, j) -> Pub(k, t, y), InJournal(k, j)\n"
        "a1: Vol(x1) -> Ed(x1, x1)\n"
        "a2: Ed(x1, x2) -> Ref(x2, z)\n"
        "a3: Ed(x1, x2) -> Ref(x1, x2), Ref(x2, x1)\n"
        "a4: Ref(x1, x2), Ref(x1, x3), Ref(x3, x1) -> Vol(x2)\n"
        "e0: PartOf(k, c1), PartOf(k, c2) -> c1 = c2")),
        instance=Instance())
    oracle = PrecedenceOracle()
    planned, report, guaranteed = plan_with_oracle(job, oracle)
    assert (planned.strategy, guaranteed) == ("stratified", True)
    assert "t_hierarchy_level" not in report._verdicts
    assert oracle.exhausted == 0
    assert oracle.nodes == 28_721


#: The plan (strategy, guaranteed, step cap) of an empty-instance job
#: with a 100,000-step budget on each paper set: unknown sets are
#: capped at the scheduler's 10,000 steps.
NAMED_PLANS = {
    "example10": ("round_robin", True, 100_000),
    "example13": ("round_robin", True, 100_000),
    "example17": ("round_robin", False, 10_000),
    "example19": ("round_robin", True, 100_000),
    "example2_gamma": ("round_robin", True, 100_000),
    "example4": ("stratified", True, 100_000),
    "example8_beta": ("round_robin", True, 100_000),
    "figure2": ("round_robin", True, 100_000),
    "figure9": ("round_robin", False, 10_000),
    "intro_alpha1": ("round_robin", True, 100_000),
    "intro_alpha2": ("round_robin", False, 10_000),
    "intro_alpha3": ("round_robin", True, 100_000),
    "intro_betas": ("round_robin", True, 100_000),
    "intro_betas_ext": ("round_robin", True, 100_000),
    "sigma_double_prime": ("round_robin", True, 100_000),
    "thm4_safe_not_strat": ("round_robin", True, 100_000),
}


@pytest.mark.parametrize("name", sorted(NAMED_SETS))
def test_every_paper_set_keeps_its_plan(name):
    job = ChaseJob(name=name, sigma=tuple(NAMED_SETS[name][0]()),
                   instance=Instance(), max_steps=100_000)
    planned, _, guaranteed = BatchScheduler(workers=1).plan_job(job)
    assert (planned.strategy, guaranteed, planned.max_steps) \
        == NAMED_PLANS[name]


def test_queued_detail_renders_the_constraint_set_once(monkeypatch):
    """A report's fingerprint is computed on first use and kept: the
    spec memo entry and the ``queued`` event both read it."""
    from repro.lang import parser
    job = ChaseJob(name="chain", sigma=tuple(parse_constraints(
        "c: R(x, y) -> T(x, y)\nd: T(x, y) -> U(y)")), instance=Instance())
    plan = Plan(job, TerminationReport(job.sigma, job.max_k), True)
    rendered = []
    render = parser._render_constraint_body
    monkeypatch.setattr(parser, "_render_constraint_body",
                        lambda c: rendered.append(c) or render(c))
    first, second = plan.queued_detail(), plan.queued_detail()
    assert first == second
    assert len(rendered) == len(job.sigma)


def test_a_plan_runs_as_given_with_the_same_events():
    """A job planned by the caller runs without a second plan_job call
    and emits exactly the events of the same job planned inside
    run_batch."""
    jobs = load(mixed_batch_specs(6, seed=3))

    def run(hand_over_plans):
        events = []
        scheduler = BatchScheduler(workers=1, on_event=events.append)
        batch = ([scheduler.plan_job(job) for job in jobs]
                 if hand_over_plans else jobs)
        calls = []
        plan_job = scheduler.plan_job
        scheduler.plan_job = lambda job: calls.append(job) or plan_job(job)
        results = scheduler.run_batch(batch)
        return ([comparable(r) for r in results],
                [(e.kind, e.job, e.fingerprint,
                  {k: v for k, v in e.detail.items() if k != "elapsed"})
                 for e in events], len(calls))

    planned_inside, events_inside, calls_inside = run(False)
    planned_before, events_before, calls_before = run(True)
    assert (calls_inside, calls_before) == (len(jobs), 0)
    assert planned_before == planned_inside
    assert events_before == events_inside
