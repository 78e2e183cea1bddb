"""Cross-process aggregation: worker snapshots merge into the parent.

Workers run with their own registry (cleared per job) and ship a
snapshot inside each :class:`JobResult`; the scheduler folds every
snapshot into the parent's global registry.  After a 2-worker batch
the parent must hold *fleet-wide* totals -- the same numbers an
in-process run would have produced -- and cached replays must never
re-merge.
"""

import pytest

from repro.obs import metrics, trace
from repro.obs.trace import Tracer
from repro.service.cache import ServiceCache
from repro.service.jobs import ChaseJob, JobResult
from repro.service.pool import WorkerPool
from repro.service.scheduler import BatchScheduler

TERMINATING = "a1: S(x) -> E(x, y)"


def make_job(name, instance="S(a). S(b).", **kw):
    payload = {"name": name, "constraints": TERMINATING,
               "instance": instance}
    payload.update(kw)
    return ChaseJob.from_dict(payload)


def batch_jobs():
    return [make_job("t1"),
            make_job("t2", instance="S(a). S(b). S(c)."),
            make_job("t3", instance="S(a).")]


class TestPoolSnapshots:
    def test_worker_results_carry_per_job_snapshots(self):
        metrics.enable()
        pool = WorkerPool(workers=2)
        try:
            results = pool.run(batch_jobs())
        finally:
            pool.close()
        assert all(r.worker.startswith("pid-") for r in results)
        for result in results:
            assert result.metrics is not None
            assert result.metrics["counters"]["chase.runs"] == 1
        # Per-job snapshots, not cumulative: the steps across the
        # batch equal the sum of each job's own count.
        total = sum(r.metrics["counters"]["chase.steps"]
                    for r in results)
        assert total == sum(r.steps for r in results)

    def test_disabled_parent_means_no_snapshots(self):
        pool = WorkerPool(workers=1)
        try:
            results = pool.run([make_job("t1")])
        finally:
            pool.close()
        assert results[0].metrics is None

    def test_inprocess_results_carry_no_snapshot(self):
        metrics.enable()
        pool = WorkerPool(workers=1)
        try:
            results = pool.run([make_job("t1")])
        finally:
            pool.close()
        # In-process counters land in the parent registry directly.
        assert results[0].metrics is None
        assert metrics.OBS.counters["chase.runs"] == 1


class TestSchedulerMerge:
    def test_batch_merges_fleet_wide_totals(self):
        metrics.enable()
        jobs = batch_jobs()
        with BatchScheduler(workers=2) as scheduler:
            results = scheduler.run_batch(jobs)
        assert all(r.ok for r in results)
        counters = metrics.OBS.counters
        assert counters["chase.runs"] == len(jobs)
        assert counters["chase.steps"] == sum(r.steps for r in results)
        assert counters["pool.jobs_dispatched"] == len(jobs)
        hist = metrics.OBS.snapshot()["histograms"]
        assert hist["chase.steps_per_run"]["count"] == len(jobs)

    def test_cached_replay_does_not_remerge(self):
        metrics.enable()
        with BatchScheduler(workers=1) as scheduler:
            scheduler.run_batch([make_job("t1")])
            runs_after_first = metrics.OBS.counters["chase.runs"]
            second = scheduler.run_batch([make_job("t1")])
        assert second[0].cached
        assert second[0].metrics is None
        assert metrics.OBS.counters["chase.runs"] == runs_after_first

    def test_store_result_strips_metrics(self):
        cache = ServiceCache()
        result = JobResult(job="j", fingerprint="fp",
                           status="terminated",
                           metrics={"counters": {"chase.runs": 1}})
        assert cache.store_result(result)
        job = make_job("j")
        stored = cache.results.get("fp")
        assert stored.metrics is None


class TestEventsAndElapsed:
    def run_with_events(self, workers=2):
        events = []
        scheduler = BatchScheduler(workers=workers,
                                   on_event=events.append)
        with scheduler:
            results = scheduler.run_batch(batch_jobs())
        return results, events

    @pytest.mark.parametrize("inprocess", [False, True])
    def test_events_carry_timestamp_and_fingerprint(self, inprocess):
        results, events = self.run_with_events(
            workers=1 if inprocess else 2)
        by_kind = {}
        for event in events:
            by_kind.setdefault(event.kind, []).append(event)
        for kind in ("queued", "started", "finished"):
            assert kind in by_kind
            for event in by_kind[kind]:
                assert event.ts > 0
                assert len(event.fingerprint) == 64      # sha256 hex
        # The rendered form surfaces both (the --events stream).
        rendered = by_kind["finished"][0].render()
        assert " fp=" in rendered
        assert " t=" in rendered

    def test_elapsed_recorded_on_success(self):
        results, events = self.run_with_events()
        for result in results:
            assert result.ok
            assert result.elapsed > 0
            assert result.to_dict()["elapsed"] == result.elapsed
        finished = [e for e in events if e.kind == "finished"]
        # Surfaced (rounded to ms, so fast jobs may read 0.0).
        assert all("elapsed" in e.detail for e in finished)


class TestTraceReplay:
    def test_worker_trace_records_replay_into_parent_sink(self):
        records = []
        with trace.tracing(Tracer(records.append)):
            with BatchScheduler(workers=2) as scheduler:
                results = scheduler.run_batch(batch_jobs())
        assert all(r.worker.startswith("pid-") for r in results)
        names = {r["name"] for r in records}
        assert {"job", "chase", "step"} <= names
        # One trace id per job: the *planned* job's fingerprint (the
        # scheduler pins "auto" to a concrete strategy first).
        traces = {r["trace"] for r in records}
        planner = BatchScheduler(workers=1)
        expected = {planner.plan_job(job)[0].fingerprint()
                    for job in batch_jobs()}
        assert traces == expected
        # Parent links resolve within each trace (child-first order).
        spans = {(r["trace"], r["span"]) for r in records}
        for record in records:
            if record["parent"] is not None:
                assert (record["trace"], record["parent"]) in spans

    def test_jobresult_metrics_roundtrip_json(self):
        snap = {"counters": {"chase.runs": 1}, "gauges": {},
                "histograms": {}}
        result = JobResult(job="j", fingerprint="fp",
                           status="terminated", metrics=snap)
        assert JobResult.from_dict(result.to_dict()).metrics == snap
