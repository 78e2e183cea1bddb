"""Budgeted batch scheduling of chase jobs.

The scheduler is where the paper's termination theory becomes an
operational policy.  For every job it consults the (cached)
:class:`~repro.termination.report.TerminationReport` of the job's
constraint set and derives:

* a **strategy** -- jobs with ``strategy="auto"`` keep the default
  order when weak acyclicity, safety, c-stratification or inductive
  restriction bounds every chase sequence (Theorems 3/5/6), get
  Theorem 2's stratum order when the set is merely stratified (in
  none of those four classes, whatever its T[k] level), and otherwise
  stay on the default, which terminates if the T[3..k] probe places
  the set in the T-hierarchy (Theorem 7) and else **must** be
  budget-capped;
* a **priority class** -- jobs whose constraint sets guarantee
  termination are scheduled ahead of unknown ones, so a batch's
  guaranteed work is never starved behind divergence suspects burning
  their budgets;
* a **budget cap** -- an unknown job whose step budget exceeds
  ``unknown_step_cap`` is clamped (with an event, never silently), so
  a single divergent request has bounded blast radius even before the
  pool's hard timeout.

Each job is planned once.  :meth:`BatchScheduler.run_batch` plans
the jobs it is given; the serve transports plan each request as it
arrives (the planned fingerprint is their cache key) and hand the
resulting :class:`Plan` to the scheduler, which then uses it as is.
A request whose exact bytes the serving session planned before is not
planned again: :meth:`BatchScheduler.replay` answers it from the cache
by the fingerprint the session memoized.

Before dispatch, every job is looked up in the fingerprint cache --
warm hits are answered without executing anything.  Results with
deterministic outcomes are stored back, so re-running a batch is O(1)
per previously-seen job.

Progress streams through :class:`~repro.service.jobs.ProgressEvent`
callbacks: ``queued`` (with the scheduling verdict), ``cached``,
``started`` / ``progress`` / ``finished`` (from the pool and the
runner's observer hooks), ``killed`` and ``degraded``.
"""

from __future__ import annotations

from dataclasses import replace
from typing import (Callable, List, NamedTuple, Optional, Sequence, Tuple,
                    Union)

from repro.chase.strategies import StratifiedStrategy
from repro.obs.metrics import OBS
from repro.service.cache import ServiceCache
from repro.service.jobs import (ChaseJob, EventCallback, JobResult,
                                ProgressEvent, STATUS_ERROR)
from repro.service.pool import WorkerPool
from repro.termination.report import TerminationReport

#: Step cap imposed on jobs whose termination is unknown.
DEFAULT_UNKNOWN_STEP_CAP = 10_000


class Plan(NamedTuple):
    """A job resolved against its termination report
    (:meth:`BatchScheduler.plan_job`).

    ``job`` is the rewritten job (strategy pinned, unknown-set step
    cap applied); ``guaranteed`` means some checked condition promises
    a terminating sequence for the strategy the job will run.
    """

    job: ChaseJob
    report: TerminationReport
    guaranteed: bool

    def queued_detail(self) -> dict:
        """The scheduling verdict the job's ``queued`` event carries."""
        return {"guaranteed": self.guaranteed,
                "strategy": self.job.strategy,
                "max_steps": self.job.max_steps,
                "report": self.report.fingerprint()[:12]}


def _cached_event(name: str, hit: JobResult,
                  fingerprint: str) -> ProgressEvent:
    return ProgressEvent("cached", name,
                         {"status": hit.status, "steps": hit.steps},
                         fingerprint=fingerprint)


class BatchScheduler:
    """Schedule and run a batch of chase jobs.

    ``workers``/``default_hard_timeout``/``progress_every`` configure
    the :class:`WorkerPool`; ``cache`` is
    shared across batches when provided (a server owns one for its
    lifetime).  ``unknown_step_cap`` bounds the step budget of jobs
    whose constraint set guarantees nothing (set to None to trust job
    budgets as-is).
    """

    def __init__(self, workers: int = 2,
                 cache: Optional[ServiceCache] = None,
                 on_event: Optional[EventCallback] = None,
                 unknown_step_cap: Optional[int] = DEFAULT_UNKNOWN_STEP_CAP,
                 default_hard_timeout: Optional[float] = None,
                 progress_every: int = 0) -> None:
        self.cache = cache if cache is not None else ServiceCache()
        self.on_event = on_event
        self.unknown_step_cap = unknown_step_cap
        self.pool = WorkerPool(workers=workers,
                               default_hard_timeout=default_hard_timeout,
                               progress_every=progress_every)

    # ------------------------------------------------------------------
    def _emit(self, event: ProgressEvent) -> None:
        if self.on_event is not None:
            self.on_event(event)

    def plan_job(self, job: ChaseJob) -> Plan:
        """Resolve one job against its termination report (see
        :class:`Plan`).

        Reads only the verdicts :func:`~repro.termination.report
        .analyze` decides up front -- whether one of the four classes
        checked before stratification bounds every sequence, else
        whether the set is stratified, else whether the T[3..k] probe
        bounds every sequence -- unless the job pins its own strategy:
        a stratum order request reads stratification, another order on
        a stratified set reads the probe.
        """
        report = self.cache.report_for(job.sigma, max_k=job.max_k)
        if job.strategy == "auto":
            # Pin the concrete strategy now so the fingerprint (and
            # hence the cache key) reflects what actually runs, and so
            # worker processes skip re-resolving.  The policy itself
            # lives in TerminationReport.recommended_strategy() -- the
            # same source resolve_strategy("auto") consults.
            recommended = report.recommended_strategy()
            job = job.with_updates(
                strategy="stratified"
                if isinstance(recommended, StratifiedStrategy)
                else "round_robin")
        if job.strategy == "stratified" and not report.stratified:
            raise ValueError(f"job {job.name!r} requests the stratified "
                             "strategy but its constraint set is not "
                             "stratified")
        # The stratum order of a stratified set terminates (Theorem 2):
        # such a plan needs no T[3..k] probe.
        guaranteed = (job.strategy == "stratified"
                      or report.guarantees_all_sequences)
        if not guaranteed and self.unknown_step_cap is not None \
                and job.max_steps > self.unknown_step_cap:
            job = job.with_updates(max_steps=self.unknown_step_cap)
        return Plan(job, report, guaranteed)

    # ------------------------------------------------------------------
    def run_batch(self, jobs: Sequence[Union[ChaseJob, Plan]],
                  should_cancel: Optional[Callable[[], bool]] = None,
                  on_event: Optional[EventCallback] = None
                  ) -> List[JobResult]:
        """Plan, cache-check, execute and collect a batch.

        Each item is a job, planned here, or the :class:`Plan` of a
        job the caller already planned, used as given.  Results come
        back in the *input* order regardless of the execution order
        (guaranteed-first) and of which results were answered from the
        cache.  ``on_event`` overrides the constructor's event sink
        for this call only -- the transport split: one scheduler can
        serve the NDJSON loop and the HTTP gateway's per-batch event
        routing at different call sites.
        """
        emit = on_event if on_event is not None else self._emit
        planned: List[Tuple[int, ChaseJob, bool]] = []
        results: List[Optional[JobResult]] = [None] * len(jobs)
        for index, item in enumerate(jobs):
            if isinstance(item, Plan):
                plan = item
            else:
                try:
                    plan = self.plan_job(item)
                except Exception as exc:              # noqa: BLE001
                    results[index] = JobResult(
                        job=item.name, fingerprint="",
                        status=STATUS_ERROR,
                        failure_reason=f"planning failed: {exc}")
                    emit(ProgressEvent("finished", item.name,
                                       {"status": STATUS_ERROR}))
                    continue
            job = plan.job
            emit(ProgressEvent("queued", job.name, plan.queued_detail(),
                               fingerprint=job.fingerprint()))
            hit = self.cache.lookup_result(job)
            if hit is not None:
                results[index] = hit
                emit(_cached_event(job.name, hit, job.fingerprint()))
                continue
            planned.append((index, job, plan.guaranteed))
        # Intra-batch dedup: jobs with equal fingerprints execute once
        # and share the result (marked cached for the duplicates --
        # unless the shared outcome turns out non-deterministic, in
        # which case the duplicates run after all, below).  A disabled
        # result cache (--no-cache) disables dedup too: the user asked
        # for every job to really execute.
        dedup = self.cache.results.maxsize > 0
        first_of: dict = {}
        duplicates: List[Tuple[int, ChaseJob, str]] = []
        unique: List[Tuple[int, ChaseJob, bool]] = []
        for index, job, guaranteed in planned:
            fingerprint = job.fingerprint()
            if dedup and fingerprint in first_of:
                duplicates.append((index, job, fingerprint))
            else:
                first_of.setdefault(fingerprint, index)
                unique.append((index, job, guaranteed))
        # Guaranteed-terminating jobs first; stable within each class.
        unique.sort(key=lambda item: 0 if item[2] else 1)
        executed = self.pool.run([job for _, job, _ in unique],
                                 on_event=emit,
                                 should_cancel=should_cancel)
        by_index = {index: result
                    for (index, _, _), result in zip(unique, executed)}
        for index, result in by_index.items():
            results[index] = result
            self._absorb_metrics(result)
            self.cache.store_result(result)
        retry: List[Tuple[int, ChaseJob]] = []
        for index, job, fingerprint in duplicates:
            source = by_index[first_of[fingerprint]]
            if source.cacheable:
                results[index] = replace(source, job=job.name, cached=True)
                emit(ProgressEvent("cached", job.name,
                                   {"status": source.status,
                                    "via": source.job}))
            else:
                # The shared run ended in a timing-dependent state
                # (killed, error, wall clock) -- replaying that for a
                # job that never ran would be unsound, so execute it.
                retry.append((index, job))
        if retry:
            rerun = self.pool.run([job for _, job in retry],
                                  on_event=emit,
                                  should_cancel=should_cancel)
            for (index, _), result in zip(retry, rerun):
                results[index] = result
                self._absorb_metrics(result)
                self.cache.store_result(result)
        return results  # type: ignore[return-value]

    def replay(self, name: str, fingerprint: str, queued: dict,
               on_event: Optional[EventCallback] = None
               ) -> Optional[JobResult]:
        """Answer a job planned earlier from the result cache, without
        its plan.

        ``fingerprint`` is the planned job's and ``queued`` its
        :meth:`Plan.queued_detail`.  On a hit, emits the ``queued`` and
        ``cached`` events :meth:`run_batch` emits for a warm job and
        returns the cached result under ``name``.  On a miss nothing
        is emitted, and the caller plans the job.  ``on_event``
        overrides the constructor's event sink.
        """
        if fingerprint not in self.cache.results:
            return None
        hit = self.cache.results.get(fingerprint)
        if hit is None:          # evicted by another thread meanwhile
            return None
        emit = on_event if on_event is not None else self._emit
        emit(ProgressEvent("queued", name, dict(queued),
                           fingerprint=fingerprint))
        emit(_cached_event(name, hit, fingerprint))
        return replace(hit, cached=True, job=name)

    @staticmethod
    def _absorb_metrics(result: JobResult) -> None:
        """Fold a worker's per-job metrics snapshot into the parent
        registry (cross-process aggregation): after a batch the
        parent's counters are fleet-wide totals no matter which
        process -- or how many workers -- did the chasing.  In-process
        executions carry no snapshot (their counters landed here
        directly), so nothing double-counts.
        """
        if result.metrics:
            OBS.merge_snapshot(result.metrics)

    # ------------------------------------------------------------------
    def run_one(self, job: Union[ChaseJob, Plan],
                should_cancel: Optional[Callable[[], bool]] = None,
                on_event: Optional[EventCallback] = None) -> JobResult:
        """Serve a single job (or its :class:`Plan`) through the same
        plan/cache/execute path (the ``repro serve`` loop).  Worker
        processes persist across calls; :meth:`close` releases them."""
        return self.run_batch([job], should_cancel=should_cancel,
                              on_event=on_event)[0]

    def close(self) -> None:
        """Release the pool's persistent worker processes."""
        self.pool.close()

    def __enter__(self) -> "BatchScheduler":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
