"""Bounded LRU caches for job results, termination reports and
planned request specs.

The service cache has three compartments:

* **results** -- :class:`~repro.service.jobs.JobResult` objects keyed
  on :meth:`ChaseJob.fingerprint`.  Only *deterministic* outcomes are
  stored (``JobResult.cacheable``): a cached result replays exactly
  what execution would produce, so a warm hit legitimately skips the
  chase altogether.  An entry holds the result's scalar fields and
  its facts or answers as the one JSON text the job encoded
  (``facts_json`` / ``answers_json``), with no per-fact objects: a
  1,000-fact result costs about its text's length.  The HTTP gateway
  splices that text into its replies; only dict consumers (the NDJSON
  reply, the CLI) decode it.
* **reports** -- :class:`~repro.termination.report.TerminationReport`
  objects keyed on the constraint multiset plus probe depth.
  Constraint equality ignores labels and hashes structurally (each
  constraint caches its hash), so the key costs no rendering or
  digest, and jobs listing the same constraints in any order share one
  analysis.  The scheduler consults this before every job to pick a
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

Each compartment is bounded by its entry count, **reports** by the
fixed :data:`REPORT_SIZE`, and reports the encoded size of what it
holds as ``bytes`` in :meth:`stats`: a result's reply text, a spec
entry's JSON, a report's rendered constraint set.

Unlike the process-wide ``functools.lru_cache`` memo inside
:func:`repro.termination.report.analyze`, these caches are owned by a
service instance: bounded explicitly, shareable across batches, and
droppable without touching global state.
"""

from __future__ import annotations

import json
from collections import Counter, OrderedDict
from dataclasses import replace
from typing import Any, Callable, Hashable, Iterable, Optional

from repro.lang.constraints import Constraint
from repro.lang.parser import _render_constraint_body
from repro.obs.metrics import OBS
from repro.service.jobs import ChaseJob, JobResult
from repro.termination.report import analyze, TerminationReport


class LRUCache:
    """A bounded mapping with least-recently-used eviction.

    ``get`` promotes, ``put`` inserts/overwrites and evicts the
    coldest entries beyond ``maxsize``.  ``maxsize=0`` disables the
    cache entirely (every ``get`` misses, ``put`` is a no-op) --
    the switch behind ``repro batch --no-cache``.

    ``metric``, if given, mirrors the hit/miss/eviction counters into
    the observability registry under ``cache.<metric>.*`` (only while
    the registry is enabled).  ``weigh``, if given, sizes each stored
    value in bytes, weighed once on ``put``; ``bytes`` is the total
    over the stored entries (0 without a weigher).
    """

    def __init__(self, maxsize: int = 128,
                 metric: Optional[str] = None,
                 weigh: Optional[Callable[[Any], int]] = None) -> None:
        if maxsize < 0:
            raise ValueError("maxsize must be non-negative")
        self.maxsize = maxsize
        self.metric = metric
        self.weigh = weigh
        self._data: "OrderedDict[Hashable, Any]" = OrderedDict()
        self._weights: dict = {}
        self.bytes = 0
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
        if self.weigh is not None:
            weight = self.weigh(value)
            self.bytes += weight - self._weights.get(key, 0)
            self._weights[key] = weight
        while len(self._data) > self.maxsize:
            evicted, _ = self._data.popitem(last=False)
            self.bytes -= self._weights.pop(evicted, 0)
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
        self._weights.clear()
        self.bytes = 0

    def stats(self) -> dict:
        return {"size": len(self._data), "bytes": self.bytes,
                "maxsize": self.maxsize, "hits": self.hits,
                "misses": self.misses, "evictions": self.evictions}

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"LRUCache({self.stats()})"


#: Termination reports a :class:`ServiceCache` keeps.
REPORT_SIZE = 128


class ServiceCache:
    """The three-compartment cache a scheduler (or server) owns."""

    def __init__(self, result_size: int = 256) -> None:
        self.results = LRUCache(result_size, metric="results",
                                weigh=_result_bytes)
        self.reports = LRUCache(REPORT_SIZE, metric="reports",
                                weigh=_report_bytes)
        self.specs = LRUCache(result_size, metric="specs",
                              weigh=_spec_bytes)

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

        Keyed on the constraint multiset (:func:`report_key`: order-
        and label-insensitive like the set fingerprint, whose sorted
        renderings count repeats too), so jobs listing the same
        constraints in any order share one analysis.  The key hashes
        each constraint's cached structural hash; nothing is rendered
        or digested.
        """
        sigma = list(sigma)
        key = report_key(sigma, max_k)
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


def report_key(sigma: Iterable[Constraint], max_k: int) -> Hashable:
    """The ``reports`` key of ``sigma`` analyzed to depth ``max_k``."""
    return frozenset(Counter(sigma).items()), max_k


def _result_bytes(result: JobResult) -> int:
    """A stored result's size: the length of its reply text."""
    return len(result.to_json())


def _report_bytes(report: TerminationReport) -> int:
    """A stored report's size: the length of its rendered set, labels
    left out (equal sets share a report whatever their labels)."""
    return len("\n".join(map(_render_constraint_body, report.sigma)))


def _spec_bytes(entry) -> int:
    """A spec memo entry's size: the length of its JSON."""
    return len(json.dumps(entry))
