"""A multiprocessing worker pool for chase and query jobs.

The pool keeps up to ``workers`` **persistent worker processes**, each
running a small job loop: receive a job spec over its pipe, execute
it (chase or query job alike, through
:func:`repro.service.jobs.job_from_dict` / ``execute_any``), send the
wire-form result back, wait for the next.  Spawning is
paid once per worker (not once per job), so batch throughput scales
with workers instead of drowning in fork overhead; a worker that gets
killed (hard timeout, cancellation) is simply replaced by a fresh one
for the remaining jobs.  Live instances never cross the boundary --
everything on the pipe is the wire encoding of
:mod:`repro.service.serialize`: a job goes out as its spec dict, and
its result comes back as the :class:`~repro.service.jobs.JobResult`
fields, facts and answers as the JSON text the worker encoded.

On top of parallelism, the pool adds the operational guarantees the
in-process runner cannot give:

* **hard timeouts** -- a job that blows past its deadline (the soft
  ``wall_clock`` budget plus a grace period, or the pool-wide default)
  gets its worker SIGTERMed and surfaces as ``status="killed"``
  without disturbing sibling jobs;
* **cancellation** -- a ``should_cancel`` probe checked on every poll
  tick terminates running workers and drains the queue;
* **isolation** -- a worker that crashes (or a job that raises before
  the runner even starts) yields a ``status="error"`` result, never an
  exception in the caller.

When no hard-kill deadline is in play, single-job batches and
``workers=1`` runs skip worker startup and execute in-process; jobs
with a deadline always get a worker process (in-process execution
could not kill them).  If worker processes cannot be created at all
(restricted containers), the pool **degrades gracefully** to
sequential in-process execution: same results, same events, minus the
hard-kill backstop (the soft wall-clock budget still bounds each job).

Workers stream :class:`~repro.service.jobs.ProgressEvent` messages
through the same pipe (every ``progress_every`` steps, via the
runner's observer hook), so a batch caller sees live per-step progress
from every process.
"""

from __future__ import annotations

import multiprocessing
import os
import time
import traceback
from collections import deque
from dataclasses import dataclass
from multiprocessing.connection import wait as _connection_wait
from typing import Callable, List, Optional, Sequence

from repro.obs import trace as _trace
from repro.obs.metrics import OBS
from repro.obs.trace import Tracer
from repro.service.jobs import (ChaseJob, EventCallback, execute_any,
                                job_from_dict, JobResult, ProgressEvent,
                                STATUS_ERROR, STATUS_KILLED)

#: Pipe sentinel telling a worker loop to exit cleanly.
_STOP = None

# Workers are created with the ``fork`` start method where the
# platform offers it.  Results do not depend on it: the
# byte-identical-results invariant of
# :func:`repro.service.jobs.execute_job` holds under any string-hash
# seed, so a spawned worker, which draws its own seed, returns the
# same bytes as a forked one.
try:
    _MP = multiprocessing.get_context("fork")
except ValueError:  # pragma: no cover - spawn-only platform
    _MP = multiprocessing.get_context()


def _worker_loop(conn) -> None:
    """Worker-process entry point: serve jobs until told to stop.

    Must stay top-level (picklable under spawn start methods).  Every
    message in is ``(job_payload, progress_every, obs_cfg,
    fingerprint)`` where ``obs_cfg`` mirrors the parent's live
    observability state (or is None when everything is off) and
    ``fingerprint`` is the digest the parent planned the job under --
    the decoded job adopts it instead of sorting and hashing its
    instance again; every message out is ``("event", kind, job,
    detail, ts, fingerprint)``, ``("trace", records)`` or
    ``("result", payload)``.

    Per-job observability: when the parent has metrics enabled the
    worker clears its own registry before the job and attaches the
    snapshot to the result payload as ``metrics`` (the scheduler
    merges it -- cross-process aggregation).  Trace records collect
    into a list and ship as one ``("trace", ...)`` message *before*
    the result, so the parent has replayed them by the time the
    worker is marked idle.
    """
    worker = f"pid-{os.getpid()}"
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            break
        if message is _STOP:
            break
        payload, progress_every, obs_cfg, fingerprint = message
        obs_cfg = obs_cfg or {}
        # Reconfigure per job: a persistent worker may serve metered
        # and unmetered jobs back to back.
        OBS.enabled = bool(obs_cfg.get("metrics"))
        if OBS.enabled:
            OBS.clear()
        records: list = []
        tracer = (Tracer(records.append,
                         sample=obs_cfg.get("sample", 1))
                  if obs_cfg.get("trace") else None)
        try:
            job = job_from_dict(payload).adopt_fingerprint(fingerprint)
            on_event: Optional[EventCallback] = None
            if progress_every > 0:
                def on_event(event: ProgressEvent) -> None:
                    try:
                        conn.send(("event", event.kind, event.job,
                                   event.detail, event.ts,
                                   event.fingerprint))
                    except (BrokenPipeError, OSError):  # parent went away
                        pass
            with _trace.tracing(tracer):
                result = execute_any(job, on_event=on_event,
                                     progress_every=progress_every,
                                     worker=worker)
        except Exception:                             # noqa: BLE001
            result = JobResult(job=payload.get("name", "job"),
                               fingerprint=fingerprint, status=STATUS_ERROR,
                               failure_reason=traceback.format_exc(limit=8),
                               worker=worker)
        # The result's fields as they are: its facts or answers stay
        # the JSON text the job encoded, never a decoded list.
        out = dict(vars(result))
        if OBS.enabled:
            out["metrics"] = OBS.snapshot()
        try:
            if records:
                conn.send(("trace", records))
            conn.send(("result", out))
        except (BrokenPipeError, OSError):  # pragma: no cover
            break
    conn.close()


@dataclass
class _Assignment:
    index: int
    job: ChaseJob
    deadline: Optional[float]
    started: float


class _Worker:
    """Parent-side handle of one persistent worker process."""

    __slots__ = ("process", "conn", "assignment")

    def __init__(self, process, conn) -> None:
        self.process = process
        self.conn = conn
        self.assignment: Optional[_Assignment] = None

    @property
    def busy(self) -> bool:
        return self.assignment is not None

    def label(self) -> str:
        return f"pid-{self.process.pid}"


class WorkerPool:
    """Run chase jobs in parallel persistent worker processes.

    ``workers`` bounds concurrency; ``default_hard_timeout`` (seconds,
    None = never) is the kill deadline for jobs without a soft
    ``wall_clock`` budget; jobs *with* one get ``wall_clock +
    hard_timeout_grace`` (the soft budget aborts gracefully inside the
    worker, the hard deadline is only the backstop for a worker stuck
    inside one enormous step).  ``progress_every`` > 0 streams
    per-step progress events from the workers.
    """

    def __init__(self, workers: int = 2,
                 default_hard_timeout: Optional[float] = None,
                 hard_timeout_grace: float = 2.0,
                 progress_every: int = 0) -> None:
        if workers < 1:
            raise ValueError("workers must be at least 1")
        self.workers = workers
        self.default_hard_timeout = default_hard_timeout
        self.hard_timeout_grace = hard_timeout_grace
        self.progress_every = progress_every
        self.degraded = False
        self.executed = 0  # jobs actually run (workers + in-process)
        # Idle workers survive across run() calls ("one fork per
        # worker, not per job" holds for a serve loop too); close()
        # releases them.  Workers die with the parent regardless
        # (daemon processes), so close() is about promptness, not
        # correctness.
        self._workers: List[_Worker] = []

    # ------------------------------------------------------------------
    def worker_pids(self) -> List[int]:
        """PIDs of the currently live persistent workers.  The HTTP
        gateway's ``/stats`` gauge and the stress suite's no-leak
        assertion both read this (a drained pool reports [])."""
        return [worker.process.pid for worker in self._workers
                if worker.process.is_alive()]

    @property
    def alive_workers(self) -> int:
        return len(self.worker_pids())

    # ------------------------------------------------------------------
    def hard_timeout_for(self, job: ChaseJob) -> Optional[float]:
        if job.wall_clock is not None:
            return job.wall_clock + self.hard_timeout_grace
        return self.default_hard_timeout

    def run(self, jobs: Sequence[ChaseJob],
            on_event: Optional[EventCallback] = None,
            should_cancel: Optional[Callable[[], bool]] = None
            ) -> List[JobResult]:
        """Run ``jobs`` and return their results in input order."""
        jobs = list(jobs)
        emit = on_event or (lambda event: None)
        needs_kill = any(self.hard_timeout_for(job) is not None
                         for job in jobs)
        if not needs_kill and (self.workers == 1 or len(jobs) <= 1):
            # No parallelism to gain and no kill deadline to enforce:
            # skip the worker startup.  Jobs *with* a hard timeout
            # always go through a worker process, even alone or at
            # workers=1 -- in-process execution could not kill them.
            return self._run_inprocess(jobs, emit, should_cancel)
        return self._run_pool(jobs, emit, should_cancel)

    # ------------------------------------------------------------------
    def _run_inprocess(self, jobs, emit, should_cancel) -> List[JobResult]:
        """Sequential degradation path: same contract, one process."""
        results: List[JobResult] = []
        for job in jobs:
            if should_cancel is not None and should_cancel():
                results.append(self._cancelled_result(job))
                emit(ProgressEvent("killed", job.name,
                                   {"reason": "cancelled"},
                                   fingerprint=job.fingerprint()))
                continue
            emit(ProgressEvent("started", job.name, {"worker": "inproc"},
                               fingerprint=job.fingerprint()))
            result = execute_any(job, on_event=emit,
                                 progress_every=self.progress_every)
            self.executed += 1
            results.append(result)
            emit(ProgressEvent("finished", job.name,
                               {"status": result.status,
                                "elapsed": round(result.elapsed, 3)},
                               fingerprint=job.fingerprint()))
        return results

    def _run_pool(self, jobs, emit, should_cancel) -> List[JobResult]:
        results: List[Optional[JobResult]] = [None] * len(jobs)
        queued_at = time.monotonic()
        pending = deque((index, job, queued_at)
                        for index, job in enumerate(jobs))
        pool = self._workers
        try:
            while pending or any(worker.busy for worker in pool):
                if should_cancel is not None and should_cancel():
                    self._cancel_everything(pool, pending, results, emit)
                    break
                self._dispatch(pool, pending, results, emit,
                               should_cancel)
                self._collect(pool, results, emit)
        finally:
            # Busy workers at this point mean an abnormal exit (an
            # exception above): kill them.  Idle workers are kept for
            # the next run() -- close() ends them for good.
            for worker in list(pool):
                if worker.busy:
                    self._terminate(worker)
                    worker.conn.close()
                    pool.remove(worker)
        for index, result in enumerate(results):
            if result is None:  # pragma: no cover - defensive
                results[index] = JobResult(
                    job=jobs[index].name,
                    fingerprint=jobs[index].fingerprint(),
                    status=STATUS_ERROR, failure_reason="lost result")
        return results  # type: ignore[return-value]

    # ------------------------------------------------------------------
    def _dispatch(self, pool, pending, results, emit,
                  should_cancel=None) -> None:
        """Hand pending jobs to idle workers, growing the pool up to
        its bound; degrade to in-process execution if workers cannot
        be created at all."""
        while pending:
            worker = next((w for w in pool
                           if not w.busy and w.process.is_alive()), None)
            if worker is None:
                alive = sum(1 for w in pool if w.process.is_alive())
                if alive >= self.workers:
                    return
                worker = self._spawn()
                if worker is None:
                    self.degraded = True
                    emit(ProgressEvent("degraded", pending[0][1].name,
                                       {"reason": "no worker process"}))
                    drained = list(pending)
                    pending.clear()
                    done = self._run_inprocess([job for _, job, _ in drained],
                                               emit, should_cancel)
                    for (index, _, _), result in zip(drained, done):
                        results[index] = result
                    return
                pool.append(worker)
            index, job, enqueued = pending.popleft()
            try:
                worker.conn.send((job.to_dict(), self.progress_every,
                                  self._obs_config(), job.fingerprint()))
            except (BrokenPipeError, OSError):
                # Worker died between jobs: drop it, requeue, retry.
                pending.appendleft((index, job, enqueued))
                pool.remove(worker)
                worker.conn.close()
                continue
            hard = self.hard_timeout_for(job)
            now = time.monotonic()
            if OBS.enabled:
                OBS.inc("pool.jobs_dispatched")
                OBS.observe("pool.dispatch_latency_s", now - enqueued)
            worker.assignment = _Assignment(
                index=index, job=job,
                deadline=(None if hard is None else now + hard),
                started=now)
            self.executed += 1
            emit(ProgressEvent("started", job.name,
                               {"worker": worker.label()},
                               fingerprint=job.fingerprint()))

    @staticmethod
    def _obs_config() -> Optional[dict]:
        """The parent's live observability state, shipped with every
        job so workers meter/trace exactly when the parent does (None
        when everything is off -- the common case)."""
        tracer = _trace.active()
        if not OBS.enabled and tracer is None:
            return None
        return {"metrics": OBS.enabled,
                "trace": tracer is not None,
                "sample": tracer.sample if tracer is not None else 1}

    def _spawn(self) -> Optional[_Worker]:
        try:
            parent_conn, child_conn = _MP.Pipe()
            process = _MP.Process(target=_worker_loop,
                                  args=(child_conn,),
                                  daemon=True)
            process.start()
            child_conn.close()
        except (OSError, ImportError, ValueError):
            return None
        return _Worker(process, parent_conn)

    def _collect(self, pool, results, emit) -> None:
        """One poll tick: drain ready pipes, enforce deadlines."""
        busy = {worker.conn: worker for worker in pool if worker.busy}
        if not busy:
            return
        now = time.monotonic()
        deadlines = [w.assignment.deadline for w in busy.values()
                     if w.assignment.deadline is not None]
        timeout = 0.2
        if deadlines:
            timeout = max(0.01, min(timeout, min(deadlines) - now))
        for conn in _connection_wait(list(busy), timeout=timeout):
            worker = busy[conn]
            assignment = worker.assignment
            try:
                message = conn.recv()
            except (EOFError, OSError):
                # The worker died mid-job (crash, OOM-kill, ...).
                worker.process.join(timeout=1.0)
                if OBS.enabled:
                    OBS.inc("pool.worker_crashes")
                results[assignment.index] = JobResult(
                    job=assignment.job.name,
                    fingerprint=assignment.job.fingerprint(),
                    status=STATUS_ERROR,
                    failure_reason=("worker exited with code "
                                    f"{worker.process.exitcode}"),
                    elapsed=time.monotonic() - assignment.started,
                    worker=worker.label())
                emit(ProgressEvent("finished", assignment.job.name,
                                   {"status": STATUS_ERROR},
                                   fingerprint=assignment.job.fingerprint()))
                pool.remove(worker)
                conn.close()
                continue
            if message[0] == "event":
                _, kind, name, detail, ts, fingerprint = message
                emit(ProgressEvent(kind, name, detail, ts=ts,
                                   fingerprint=fingerprint))
                continue
            if message[0] == "trace":
                # Replay worker-side span records into the parent's
                # sink (they already carry the job's trace id).
                tracer = _trace.active()
                if tracer is not None:
                    for record in message[1]:
                        tracer.emit(record)
                continue
            result = JobResult(**message[1])
            if result.elapsed == 0.0:
                # Results synthesized before the runner started (spec
                # parse errors in the worker) carry no elapsed time;
                # account the pool-observed wall clock so *every*
                # JobResult reports one.
                result.elapsed = time.monotonic() - assignment.started
            results[assignment.index] = result
            emit(ProgressEvent("finished", assignment.job.name,
                               {"status": result.status,
                                "steps": result.steps,
                                "elapsed": round(result.elapsed, 3)},
                               fingerprint=assignment.job.fingerprint()))
            worker.assignment = None        # idle again, ready for reuse
        now = time.monotonic()
        for worker in list(pool):
            assignment = worker.assignment
            if (assignment is not None and assignment.deadline is not None
                    and now > assignment.deadline):
                self._terminate(worker)
                if OBS.enabled:
                    OBS.inc("pool.hard_timeout_kills")
                results[assignment.index] = JobResult(
                    job=assignment.job.name,
                    fingerprint=assignment.job.fingerprint(),
                    status=STATUS_KILLED,
                    failure_reason=(
                        "hard timeout of "
                        f"{self.hard_timeout_for(assignment.job):g}s "
                        "exceeded; worker terminated"),
                    elapsed=now - assignment.started,
                    worker=worker.label())
                emit(ProgressEvent("killed", assignment.job.name,
                                   {"after": round(now - assignment.started,
                                                   3)},
                                   fingerprint=assignment.job.fingerprint()))
                pool.remove(worker)
                worker.conn.close()

    # ------------------------------------------------------------------
    def _cancel_everything(self, pool, pending, results, emit) -> None:
        for worker in list(pool):
            if worker.busy:
                assignment = worker.assignment
                self._terminate(worker)
                if OBS.enabled:
                    OBS.inc("pool.cancelled_jobs")
                results[assignment.index] = self._cancelled_result(
                    assignment.job)
                emit(ProgressEvent("killed", assignment.job.name,
                                   {"reason": "cancelled"},
                                   fingerprint=assignment.job.fingerprint()))
                pool.remove(worker)
                worker.conn.close()
        while pending:
            index, job, _ = pending.popleft()
            if OBS.enabled:
                OBS.inc("pool.cancelled_jobs")
            results[index] = self._cancelled_result(job)
            emit(ProgressEvent("killed", job.name, {"reason": "cancelled"},
                               fingerprint=job.fingerprint()))

    def close(self) -> None:
        """Stop every persistent worker (idle ones get the stop
        sentinel and a clean exit; anything unresponsive is killed).
        The pool can be used again afterwards -- workers respawn on
        demand."""
        for worker in self._workers:
            if worker.busy:
                self._terminate(worker)
            else:
                try:
                    worker.conn.send(_STOP)
                except (BrokenPipeError, OSError):
                    pass
                worker.process.join(timeout=1.0)
                if worker.process.is_alive():  # pragma: no cover
                    self._terminate(worker)
            worker.conn.close()
        self._workers.clear()

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    @staticmethod
    def _terminate(worker: _Worker, grace: float = 1.0) -> None:
        process = worker.process
        if process.is_alive():
            process.terminate()
        process.join(timeout=grace)
        if process.is_alive():  # pragma: no cover - stubborn worker
            process.kill()
            process.join(timeout=grace)

    @staticmethod
    def _cancelled_result(job: ChaseJob) -> JobResult:
        return JobResult(job=job.name, fingerprint=job.fingerprint(),
                         status=STATUS_KILLED, failure_reason="cancelled")
