"""Bounded LRU caches for job results, termination reports and
planned request specs.

The service cache has three compartments:

* **results** -- :class:`~repro.service.jobs.JobResult` objects keyed
  on :meth:`ChaseJob.fingerprint`.  Only *deterministic* outcomes are
  stored (``JobResult.cacheable``): a cached result replays exactly
  what execution would produce, so a warm hit legitimately skips the
  chase altogether.
* **reports** -- :class:`~repro.termination.report.TerminationReport`
  objects keyed on the set-level constraint fingerprint plus probe
  depth.  The scheduler consults this before every job to pick a
  strategy and a priority class; with a warm cache, scheduling a batch
  over one shared schema costs one analysis total.
* **specs** -- the serving session's spec memo
  (:class:`~repro.service.dispatch.ServiceSession`), keyed on the
  SHA-256 of a job request's exact bytes (an HTTP body or an NDJSON
  line).  Each entry holds what a warm reply needs of the planned
  job: its name, kind, fingerprint and ``queued`` event detail.  Equal
  bytes parse to equal jobs and plan alike, so a request whose bytes
  were planned before is answered from **results** with no parse,
  plan or fingerprint.  Sized like **results**: a disabled result
  cache disables the memo too.

Unlike the process-wide ``functools.lru_cache`` memo inside
:func:`repro.termination.report.analyze`, these caches are owned by a
service instance: bounded explicitly, shareable across batches, and
droppable without touching global state.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import replace
from typing import Any, Hashable, Iterable, Optional

from repro.lang.constraints import Constraint
from repro.obs.metrics import OBS
from repro.service.jobs import ChaseJob, JobResult
from repro.termination.report import (analyze, constraint_set_fingerprint,
                                      TerminationReport)


class LRUCache:
    """A bounded mapping with least-recently-used eviction.

    ``get`` promotes, ``put`` inserts/overwrites and evicts the
    coldest entries beyond ``maxsize``.  ``maxsize=0`` disables the
    cache entirely (every ``get`` misses, ``put`` is a no-op) --
    the switch behind ``repro batch --no-cache``.

    ``metric``, if given, mirrors the hit/miss/eviction counters into
    the observability registry under ``cache.<metric>.*`` (only while
    the registry is enabled).
    """

    def __init__(self, maxsize: int = 128,
                 metric: Optional[str] = None) -> None:
        if maxsize < 0:
            raise ValueError("maxsize must be non-negative")
        self.maxsize = maxsize
        self.metric = metric
        self._data: "OrderedDict[Hashable, Any]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def get(self, key: Hashable, default: Any = None) -> Any:
        try:
            value = self._data[key]
        except KeyError:
            self.misses += 1
            if self.metric is not None and OBS.enabled:
                OBS.inc(f"cache.{self.metric}.misses")
            return default
        self._data.move_to_end(key)
        self.hits += 1
        if self.metric is not None and OBS.enabled:
            OBS.inc(f"cache.{self.metric}.hits")
        return value

    def put(self, key: Hashable, value: Any) -> None:
        if self.maxsize == 0:
            return
        if key in self._data:
            self._data.move_to_end(key)
        self._data[key] = value
        while len(self._data) > self.maxsize:
            self._data.popitem(last=False)
            self.evictions += 1
            if self.metric is not None and OBS.enabled:
                OBS.inc(f"cache.{self.metric}.evictions")

    def __len__(self) -> int:
        return len(self._data)

    def __contains__(self, key: Hashable) -> bool:
        # Membership probes do not promote and are not counted.
        return key in self._data

    def clear(self) -> None:
        self._data.clear()

    def stats(self) -> dict:
        return {"size": len(self._data), "maxsize": self.maxsize,
                "hits": self.hits, "misses": self.misses,
                "evictions": self.evictions}

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"LRUCache({self.stats()})"


class ServiceCache:
    """The three-compartment cache a scheduler (or server) owns."""

    def __init__(self, result_size: int = 256,
                 report_size: int = 128) -> None:
        self.results = LRUCache(result_size, metric="results")
        self.reports = LRUCache(report_size, metric="reports")
        self.specs = LRUCache(result_size, metric="specs")

    # -- chase results --------------------------------------------------
    def lookup_result(self, job: ChaseJob) -> Optional[JobResult]:
        """A cached result for ``job``'s fingerprint, marked as such.

        The returned object is a fresh copy with ``cached=True`` and
        the *requesting* job's name, so callers can tell a warm hit
        from an execution without mutating the stored entry.
        """
        hit = self.results.get(job.fingerprint())
        if hit is None:
            return None
        return replace(hit, cached=True, job=job.name)

    def store_result(self, result: JobResult) -> bool:
        """Store ``result`` if its outcome is deterministic.

        Returns True if it was stored.  Timing-dependent outcomes
        (wall-clock aborts, kills, errors) are rejected: serving them
        for a later identical job would be unsound.
        """
        if not result.cacheable:
            return False
        # Metrics snapshots are stripped before caching: they describe
        # the *execution* that produced the result, and a warm replay
        # must not re-merge them into fleet-wide totals.
        self.results.put(result.fingerprint,
                         replace(result, cached=False, metrics=None))
        return True

    # -- termination reports --------------------------------------------
    def report_for(self, sigma: Iterable[Constraint],
                   max_k: int = 3) -> TerminationReport:
        """The termination report for ``sigma``, cached by content.

        Keyed on the *set-level* fingerprint (order- and label-
        insensitive), so jobs listing the same constraints in any
        order share one analysis.
        """
        sigma = list(sigma)
        key = (constraint_set_fingerprint(sigma), max_k)
        report = self.reports.get(key)
        if report is None:
            report = analyze(sigma, max_k=max_k)
            self.reports.put(key, report)
        return report

    def stats(self) -> dict:
        return {"results": self.results.stats(),
                "reports": self.reports.stats(),
                "specs": self.specs.stats()}

    def clear(self) -> None:
        self.results.clear()
        self.reports.clear()
        self.specs.clear()
