"""Worker-pool behaviour: parallel parity, kills, degradation."""

import pytest

from repro.service.jobs import (ChaseJob, execute_job, STATUS_ERROR,
                                STATUS_KILLED)
from repro.service.pool import WorkerPool

TERMINATING = "a1: S(x) -> E(x, y)"
DIVERGENT = "a2: S(x) -> E(x, y), S(y)"


def make_job(name, constraints=TERMINATING, instance="S(a). S(b).", **kw):
    payload = {"name": name, "constraints": constraints,
               "instance": instance}
    payload.update(kw)
    return ChaseJob.from_dict(payload)


def small_batch():
    return [
        make_job("t1"),
        make_job("t2", instance="S(a). S(b). S(c)."),
        make_job("d1", constraints=DIVERGENT, instance="S(a).",
                 max_steps=50),
        make_job("t3", constraints="c: R(x, y) -> T(y, x)",
                 instance="R(a, b). R(b, c)."),
    ]


def by_comparable(result):
    return (result.job, result.status, result.steps, result.facts)


def test_pool_results_match_inprocess_execution():
    jobs = small_batch()
    expected = [by_comparable(execute_job(job)) for job in jobs]
    pool = WorkerPool(workers=2)
    results = pool.run(jobs)
    assert [by_comparable(r) for r in results] == expected
    assert pool.executed == len(jobs)
    assert not pool.degraded
    # Every job genuinely ran out-of-process.
    assert all(r.worker.startswith("pid-") for r in results)


def test_forced_inprocess_degradation_matches_too(monkeypatch):
    jobs = small_batch()
    expected = [by_comparable(execute_job(job)) for job in jobs]
    monkeypatch.setattr(WorkerPool, "_spawn", lambda self: None)
    pool = WorkerPool(workers=2)
    results = pool.run(jobs)
    assert pool.degraded
    assert [by_comparable(r) for r in results] == expected
    assert all(r.worker == "inproc" for r in results)


def test_single_job_runs_inprocess_without_fork_overhead():
    pool = WorkerPool(workers=4)
    results = pool.run([make_job("only")])
    assert results[0].worker == "inproc"


def test_workers_1_with_kill_deadline_still_uses_a_worker_process():
    """`repro serve` defaults to one worker; a hard timeout must still
    be enforceable there, which requires a subprocess."""
    pool = WorkerPool(workers=1, default_hard_timeout=0.4)
    results = pool.run([make_job("stuck", constraints=DIVERGENT,
                                 instance="S(a).",
                                 max_steps=100_000_000),
                        make_job("fine")])
    assert results[0].status == STATUS_KILLED
    assert results[1].status == "terminated"


def test_single_job_with_kill_deadline_gets_a_worker():
    """A lone job must not lose the hard-timeout backstop just because
    it is alone (the `repro serve` path): with a deadline in play it
    runs out-of-process, where it can actually be killed."""
    pool = WorkerPool(workers=4, default_hard_timeout=0.4)
    killed = pool.run([make_job("stuck", constraints=DIVERGENT,
                               instance="S(a).",
                               max_steps=100_000_000)])
    assert killed[0].status == STATUS_KILLED
    fine = pool.run([make_job("fine", wall_clock=5.0)])
    assert fine[0].status == "terminated"
    assert fine[0].worker.startswith("pid-")


def test_hard_timeout_kills_divergent_job_but_not_siblings():
    jobs = [
        make_job("ok1"),
        make_job("runaway", constraints=DIVERGENT, instance="S(a).",
                 max_steps=100_000_000),
        make_job("ok2", instance="S(x). S(y)."),
    ]
    pool = WorkerPool(workers=3, default_hard_timeout=0.4)
    results = pool.run(jobs)
    by_name = {result.job: result for result in results}
    assert by_name["runaway"].status == STATUS_KILLED
    assert "hard timeout" in by_name["runaway"].failure_reason
    assert by_name["ok1"].status == "terminated"
    assert by_name["ok2"].status == "terminated"


def test_soft_wall_clock_beats_the_hard_kill():
    """A job with its own wall_clock budget aborts gracefully inside
    the worker (EXCEEDED_WALL_CLOCK with a partial result), before the
    pool's backstop fires."""
    job = make_job("soft", constraints=DIVERGENT, instance="S(a).",
                   max_steps=100_000_000, wall_clock=0.1)
    pool = WorkerPool(workers=2, hard_timeout_grace=5.0)
    results = pool.run([job, make_job("sibling")])
    by_name = {result.job: result for result in results}
    assert by_name["soft"].status == "exceeded_wall_clock"
    assert by_name["soft"].facts is not None      # partial run came back
    assert by_name["sibling"].status == "terminated"


def test_error_jobs_are_isolated():
    jobs = [make_job("good"),
            make_job("bad", strategy="bogus"),
            make_job("also_good")]
    pool = WorkerPool(workers=2)
    results = pool.run(jobs)
    assert [r.status for r in results] == ["terminated", STATUS_ERROR,
                                           "terminated"]


def test_cancellation_stops_the_batch():
    jobs = [make_job(f"j{i}", constraints=DIVERGENT, instance="S(a).",
                     max_steps=100_000_000) for i in range(4)]
    pool = WorkerPool(workers=2)
    results = pool.run(jobs, should_cancel=lambda: True)
    assert all(r.status == STATUS_KILLED for r in results)
    assert all(r.failure_reason == "cancelled" for r in results)


def test_workers_persist_across_runs_until_closed():
    """One fork per worker, not per job -- and not per run() either:
    a serve loop reuses the same processes across requests."""
    pool = WorkerPool(workers=2)
    first = pool.run(small_batch())
    pids_first = {r.worker for r in first}
    second = pool.run(small_batch())
    pids_second = {r.worker for r in second}
    assert pids_first == pids_second          # same processes served both
    pool.close()
    assert pool._workers == []
    third = pool.run(small_batch())           # respawns on demand
    assert {r.worker for r in third}.isdisjoint(pids_first)
    pool.close()


def test_degraded_drain_honours_cancellation(monkeypatch):
    """When worker processes cannot be spawned at all, the in-place
    drain of the pending queue must still consult should_cancel."""
    monkeypatch.setattr(WorkerPool, "_spawn", lambda self: None)
    jobs = [make_job(f"j{i}") for i in range(4)]
    pool = WorkerPool(workers=2)
    calls = iter([False, False, False, True, True])
    events = []
    results = pool.run(jobs, should_cancel=lambda: next(calls))
    pool.run([], on_event=events.append)      # no-op sanity
    assert pool.degraded
    statuses = [r.status for r in results]
    assert statuses[:2] == ["terminated", "terminated"]
    assert STATUS_KILLED in statuses[2:]
    killed = [r for r in results if r.status == STATUS_KILLED]
    assert all(r.failure_reason == "cancelled" for r in killed)


def test_degraded_run_emits_the_inprocess_events(monkeypatch):
    """A pool that cannot spawn workers drains its queue through the
    in-process loop: after the ``degraded`` notice, the same events as
    a ``workers=1`` run, ``started`` included."""
    jobs = [make_job(f"j{i}") for i in range(3)]
    forced = []
    WorkerPool(workers=1).run(jobs, on_event=forced.append)
    monkeypatch.setattr(WorkerPool, "_spawn", lambda self: None)
    degraded = []
    WorkerPool(workers=2).run(jobs, on_event=degraded.append)
    assert [(e.kind, e.job) for e in degraded] \
        == [("degraded", "j0")] + [(e.kind, e.job) for e in forced]


def test_worker_replacement_mid_batch():
    """A worker SIGKILLed while chasing: its job surfaces as a
    structured error, its siblings are untouched, and the pool spawns
    a replacement so the rest of the batch still runs out-of-process.
    """
    import os
    import signal

    victim = make_job("victim", constraints=DIVERGENT, instance="S(a).",
                      max_steps=50_000_000)
    jobs = [victim] + [make_job(f"sib{i}", instance=f"S(s{i}).")
                       for i in range(4)]
    expected = {job.name: by_comparable(execute_job(job))
                for job in jobs[1:]}
    killed_pids = []

    def on_event(event):
        # The kill lands from inside the dispatch callback: the batch
        # is mid-flight by construction, not by sleeping.
        if event.kind == "started" and event.job == "victim":
            pid = int(event.detail["worker"].removeprefix("pid-"))
            killed_pids.append(pid)
            os.kill(pid, signal.SIGKILL)

    pool = WorkerPool(workers=2)
    try:
        results = pool.run(jobs, on_event=on_event)
        by_name = {result.job: result for result in results}
        assert killed_pids, "victim never reached a worker"
        assert by_name["victim"].status == STATUS_ERROR
        assert "worker exited" in by_name["victim"].failure_reason
        for name, reference in expected.items():
            assert by_comparable(by_name[name]) == reference
        # The dead worker was replaced, not just buried: live workers
        # exclude the killed pid and the next run stays out-of-process.
        assert killed_pids[0] not in pool.worker_pids()
        follow_up = pool.run([make_job("after1"),
                              make_job("after2", instance="S(z).")])
        assert all(r.status == "terminated" for r in follow_up)
        assert all(r.worker.startswith("pid-") for r in follow_up)
    finally:
        pool.close()
    assert pool.worker_pids() == []


def test_worker_pids_reports_only_live_workers():
    pool = WorkerPool(workers=2)
    assert pool.worker_pids() == []           # lazy: nothing spawned yet
    pool.run(small_batch())
    pids = pool.worker_pids()
    assert len(pids) == 2 and pool.alive_workers == 2
    pool.close()
    assert pool.worker_pids() == [] and pool.alive_workers == 0


def test_worker_pool_validates_workers():
    with pytest.raises(ValueError):
        WorkerPool(workers=0)


def test_pool_streams_progress_events_across_processes():
    events = []
    jobs = [make_job("p1", constraints=DIVERGENT, instance="S(a).",
                     max_steps=40),
            make_job("p2", constraints=DIVERGENT, instance="S(b).",
                     max_steps=40)]
    pool = WorkerPool(workers=2, progress_every=10)
    pool.run(jobs, on_event=events.append)
    progress = [e for e in events if e.kind == "progress"]
    assert {e.job for e in progress} == {"p1", "p2"}
    assert all(e.detail["steps"] % 10 == 0 for e in progress)
    kinds = [e.kind for e in events]
    assert kinds.count("started") == 2 and kinds.count("finished") == 2


def test_worker_adopts_the_planned_fingerprint(monkeypatch):
    """A worker decodes the job and runs it under the fingerprint the
    parent planned it with: the instance is not digested again."""
    from multiprocessing import Pipe

    from repro.service import jobs as jobs_module
    from repro.service.pool import _STOP, _worker_loop
    job = make_job("fp", instance="S(a). S(b). S(c).")
    planned = job.fingerprint()
    calls = []
    digest = jobs_module.instance_fingerprint
    monkeypatch.setattr(jobs_module, "instance_fingerprint",
                        lambda instance: calls.append(1) or digest(instance))
    parent, child = Pipe()
    parent.send((job.to_dict(), 0, None, planned))
    parent.send(_STOP)
    _worker_loop(child)
    kind, out = parent.recv()
    assert kind == "result"
    assert out["status"] == "terminated"
    assert out["fingerprint"] == planned
    assert calls == []
    parent.close()
