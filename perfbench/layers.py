"""Layer spans recorded from outside the program.

:func:`install` wraps each layer's public entry point *where callers
look it up* (``repro.service.dispatch.job_from_dict``, not
``repro.service.jobs.job_from_dict``), so every call the request path
makes goes through a wrapper that records a span: name, start, end,
parent span, request id.  Spans stay in memory; :func:`summarize`
turns them into per-layer totals after the run.  Nothing here edits
the program's files.

A span's *self time* is its duration minus the time its child spans
cover.  Every span except the benchmark's own ``request`` root belongs
to a named layer (the part of its name before the first dot), so the
root's self time is exactly the request time no layer accounts for.
``ServiceSession.handle_line`` itself is deliberately not wrapped: the
root brackets it, and its own code (decoding the spec line, the kind
dispatch) shows as unattributed time.
"""

from __future__ import annotations

import gc
import importlib
import threading
import time
from typing import Callable, Dict, List, Optional, Tuple

#: span name -> (module, attribute path) of every wrapped entry point.
ENTRY_POINTS = (
    ("lang.parse", "repro.service.dispatch", "job_from_dict"),
    ("lang.parse", "repro.service.pool", "job_from_dict"),
    ("scheduler.plan", "repro.service.scheduler", "BatchScheduler.plan_job"),
    ("scheduler.batch", "repro.service.scheduler", "BatchScheduler.run_batch"),
    ("termination.analyze", "repro.service.cache", "analyze"),
    ("termination.analyze", "repro.termination.report", "analyze"),
    ("termination.strata", "repro.termination.stratification",
     "stratified_strategy"),
    ("cache.lookup", "repro.service.cache", "ServiceCache.lookup_result"),
    ("cache.store", "repro.service.cache", "ServiceCache.store_result"),
    ("cache.report", "repro.service.cache", "ServiceCache.report_for"),
    ("jobs.fingerprint", "repro.service.jobs", "ChaseJob.fingerprint"),
    ("jobs.fingerprint", "repro.service.query", "QueryJob.fingerprint"),
    ("pool.run", "repro.service.pool", "WorkerPool.run"),
    ("jobs.execute", "repro.service.pool", "execute_any"),
    ("chase.run", "repro.service.jobs", "chase"),
    ("storage.substitute", "repro.lang.instance", "Instance.substitute_term"),
    ("kb.optimize", "repro.service.query", "optimize_query"),
    ("kb.depth_bounded", "repro.service.query", "depth_bounded_chase"),
    ("cq.evaluate", "repro.cq.query", "ConjunctiveQuery.evaluate"),
    ("serialize.encode", "repro.service.jobs", "encode_facts"),
    ("serialize.encode", "repro.service.jobs", "JobResult.to_dict"),
)

#: Layers reported as ``share.<layer>`` (self time / request time).
LAYERS = ("lang", "jobs", "scheduler", "termination", "cache",
          "pool", "chase", "storage", "kb", "cq", "serialize")


class Recorder:
    """In-memory span store.  Spans are lists
    ``[name, start, end, parent, request, thread, extra, index]``;
    ``parent`` is the index of the enclosing span of the same thread
    (-1 for none), ``extra`` a per-layer count (chase steps, facts
    rewritten, whether a fingerprint was computed)."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.request: Optional[int] = None
        self._local = threading.local()
        self._lock = threading.Lock()
        #: ``(start, end, generation)`` of every collection watched.
        self.gc_events: List[tuple] = []
        self._gc_started = 0.0

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> list:
        stack = self._stack()
        with self._lock:
            span = [name, time.perf_counter(), 0.0,
                    stack[-1][7] if stack else -1, self.request,
                    threading.get_ident(), None, len(self.spans)]
            self.spans.append(span)
        stack.append(span)
        return span

    def close(self, span: list, extra=None) -> None:
        span[2] = time.perf_counter()
        span[6] = extra
        self._stack().pop()

    def wrap(self, name: str, func: Callable) -> Callable:
        recorder = self

        def wrapper(*args, **kwargs):
            span = recorder.open(name)
            extra = None
            try:
                if name == "jobs.fingerprint":
                    extra = "_fingerprint" not in args[0].__dict__
                result = func(*args, **kwargs)
                if name == "chase.run":
                    extra = result.length
                elif name == "storage.substitute":
                    extra = len(result)
                return result
            finally:
                recorder.close(span, extra)
        wrapper.__wrapped__ = func
        return wrapper

    # -- garbage collector pauses ----------------------------------------
    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_started = time.perf_counter()
        else:
            self.gc_events.append((self._gc_started, time.perf_counter(),
                                   info.get("generation")))

    def watch_gc(self) -> Callable[[], None]:
        gc.callbacks.append(self._on_gc)
        return lambda: gc.callbacks.remove(self._on_gc)

    def reset_after_fork(self) -> None:
        """Start a forked child with no spans and fresh thread state
        (the parent may have held the lock or had spans open)."""
        self.spans = []
        self.gc_events = []
        self.request = None
        self._local = threading.local()
        self._lock = threading.Lock()


def merge(dumps: List[Tuple[List[list], int]]) -> List[list]:
    """Concatenate the spans of several runs.  Each dump is ``(spans,
    request_offset)``: span and parent indices are re-based, integer
    request ids shifted by the offset and other ids (warm-up labels)
    prefixed with the dump's position, so ids stay distinct."""
    merged: List[list] = []
    for position, (spans, offset) in enumerate(dumps):
        base = len(merged)
        for span in spans:
            span = list(span)
            if span[3] >= 0:
                span[3] += base
            span[7] += base
            if isinstance(span[4], int):
                span[4] += offset
            elif span[4] is not None:
                span[4] = f"{position}:{span[4]}"
            merged.append(span)
    return merged


def gc_totals(events, start: float = float("-inf"),
              end: float = float("inf")) -> Tuple[float, int]:
    """Pause seconds and generation-2 collections inside a window."""
    inside = [e for e in events if e[0] >= start and e[1] <= end]
    return (sum(e[1] - e[0] for e in inside),
            sum(1 for e in inside if e[2] == 2))


def install(recorder: Recorder) -> None:
    """Wrap every entry point of :data:`ENTRY_POINTS` for the rest of
    this interpreter's life (each traced run has its own)."""
    for name, module_name, path in ENTRY_POINTS:
        owner = importlib.import_module(module_name)
        *parents, attribute = path.split(".")
        for parent in parents:
            owner = getattr(owner, parent)
        setattr(owner, attribute,
                recorder.wrap(name, owner.__dict__[attribute]))


def vm_hwm_mb(pid="self") -> float:
    """Peak resident set size of a process (``VmHWM``), in MiB."""
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for process {pid}")


def self_times(spans: List[list]) -> List[float]:
    """Self time of every span (duration minus its children's)."""
    own = [span[2] - span[1] for span in spans]
    for span in spans:
        if span[3] >= 0:
            own[span[3]] -= span[2] - span[1]
    return own


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100); 0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def summarize(spans: List[list],
              keep: Callable[[list], bool] = lambda span: True) -> dict:
    """Per-request and per-layer aggregates of the spans ``keep``
    selects (self times are computed over all of ``spans``).

    Returns ``per_request`` (request id -> {span name: self seconds}),
    ``calls`` (span name -> list of per-call self seconds),
    ``inclusive`` (span name -> total duration) and ``counts`` of
    computed fingerprints, plans, chase steps and rewritten facts.
    """
    own = self_times(spans)
    per_request: Dict[object, Dict[str, float]] = {}
    calls: Dict[str, List[float]] = {}
    inclusive: Dict[str, float] = {}
    counts = {"fingerprints": 0, "chase_steps": 0, "facts_rewritten": 0,
              "plans": 0}
    for span, self_time in zip(spans, own):
        if not keep(span):
            continue
        name = span[0]
        calls.setdefault(name, []).append(self_time)
        inclusive[name] = inclusive.get(name, 0.0) + span[2] - span[1]
        if name == "jobs.fingerprint":
            counts["fingerprints"] += bool(span[6])
        elif name == "chase.run":
            counts["chase_steps"] += span[6] or 0
        elif name == "storage.substitute":
            counts["facts_rewritten"] += span[6] or 0
        elif name == "scheduler.plan":
            counts["plans"] += 1
        if span[4] is None:
            continue
        bucket = per_request.setdefault(span[4], {})
        bucket[name] = bucket.get(name, 0.0) + self_time
    return {"per_request": per_request, "calls": calls,
            "inclusive": inclusive, "counts": counts}
