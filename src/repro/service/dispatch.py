"""Transport-neutral request dispatch for the serve front-ends.

Both serve transports -- the NDJSON stdin loop (``repro serve``) and
the asyncio HTTP gateway (``repro serve --http``,
:mod:`repro.service.http`) -- accept the same request payloads: job
spec dicts (chase or query) plus the ``{"kind": "stats"}``
introspection request.  This module is the single place those payloads
are interpreted, so the two transports cannot drift: a
:class:`ServiceSession` owns the scheduler, a **dispatch table** keyed
on the request kind, the per-request wall-clock budget clamp, and the
structured-error contract.

The error contract (regression-pinned in
``tests/service/test_dispatch.py``): *every* reply is a JSON-able
dict.  A request that fails -- unknown kind, missing required fields,
bad field types, or a handler blowing up after the dispatch-table
lookup succeeded -- comes back as::

    {"status": "error", "error": "<code>", "kind": "<kind-if-known>",
     "failure_reason": "<human-readable reason>"}

never as silence, a raised exception, or a traceback.  The ``kind``
echo matters operationally: a client batching mixed chase/query
requests over one connection can attribute a rejection without
correlating offsets.

Per-request budgets: a session constructed with ``request_wall_clock``
clamps every job's soft wall-clock budget to at most that many
seconds.  The clamp reuses the runner's ``EXCEEDED_WALL_CLOCK``
machinery -- an over-budget request comes back as a structured partial
result, not a dropped connection -- and is sound with respect to the
cache because the wall-clock budget is deliberately excluded from job
fingerprints (see :mod:`repro.service.jobs`).

Replies: a job reply carries the result's facts or answers, which the
session keeps as the JSON text the job encoded
(:class:`~repro.service.jobs.JobResult`).  The NDJSON loop replies
with a dict, so :meth:`ServiceSession.handle_line` decodes that text;
the HTTP gateway splices it into its bodies undecoded
(:meth:`ServiceSession.cached_result`, ``JobResult.to_json``).

Warm replies: the session owns the cache fast path of both transports.
It memoizes every job request it plans in the cache's ``specs``
compartment, keyed on the SHA-256 of the request's exact bytes (the
HTTP body, or the NDJSON line).  A request whose bytes are memoized
and whose planned fingerprint is still in the ``results`` compartment
is answered from the cache before its JSON is decoded: no parse, plan
or fingerprint.  This is sound without parsing because equal bytes
parse to equal jobs, a plan depends only on the job, the cached
termination report and the scheduler's fixed step cap, and the
fingerprint leaves out the wall-clock clamp.  Every other request is
parsed and planned, and its planned fingerprint is still looked up,
so a renamed or reformatted spec of a cached job is a hit too.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import replace
from typing import NamedTuple, Optional

from repro.lang.errors import ReproError
from repro.obs import metrics as _metrics
from repro.service.jobs import (EventCallback, JOB_KINDS, job_from_dict,
                                JobResult, spec_kind)
from repro.service.scheduler import BatchScheduler, Plan
from repro.service.serialize import WireError

__all__ = ["Admission", "RequestError", "ServiceSession", "SpecEntry",
           "error_payload", "request_kind"]


class RequestError(ReproError):
    """A structured request rejection any transport can map.

    ``code`` is a stable machine-readable discriminator (the
    ``error`` field of the reply payload), ``kind`` the request kind
    when the dispatch-table lookup got far enough to know it.  The
    HTTP transport answers every one with 400.
    """

    def __init__(self, reason: str, *, code: str = "bad_request",
                 kind: Optional[str] = None) -> None:
        super().__init__(reason)
        self.code = code
        self.kind = kind


def error_payload(reason: str, code: str = "bad_request",
                  kind: Optional[str] = None) -> dict:
    """The structured error reply shared by every transport."""
    payload = {"status": "error", "error": code,
               "failure_reason": reason}
    if kind is not None:
        payload["kind"] = kind
    return payload


def request_kind(request) -> str:
    """The dispatch key of a request payload.

    The job parser's own discriminator
    (:func:`repro.service.jobs.spec_kind`: explicit ``kind``; a
    ``query`` field implies a query job), so the table lookup and the
    job parser can never disagree about what a payload *is*.  Raises
    :class:`RequestError` for non-dict payloads and non-string kinds.
    """
    if not isinstance(request, dict):
        raise RequestError(
            f"request must be a JSON object, got {type(request).__name__}",
            code="invalid_request")
    kind = spec_kind(request)
    if not isinstance(kind, str):
        raise RequestError(f"request kind must be a string, got {kind!r}",
                           code="invalid_request")
    return kind


class SpecEntry(NamedTuple):
    """A spec memo entry: what a warm reply needs of a planned job
    request."""

    name: str
    kind: str
    fingerprint: str       # of the planned job
    queued: dict           # detail of the job's ``queued`` event


class Admission(NamedTuple):
    """A job request admitted by :meth:`ServiceSession.admit`.

    ``result`` is the cached result, under the requested name, when
    the planned fingerprint is warm: it is the reply.  Otherwise
    ``plan`` is the plan to run.  A request replayed from the spec
    memo was never planned, so its ``plan`` is None.
    """

    entry: SpecEntry
    plan: Optional[Plan]
    result: Optional[JobResult]


def _spec_key(raw: bytes) -> bytes:
    """The spec memo key of a request's exact bytes."""
    return hashlib.sha256(raw).digest()


def _ignore(event) -> None:
    """An event sink for replies that report no progress events."""


class ServiceSession:
    """One serving session: scheduler + dispatch table + budgets +
    spec memo.

    ``scheduler`` is owned by the caller (close it there);
    ``request_wall_clock`` is the per-request budget clamp in seconds
    (None = trust job budgets as-is).
    """

    def __init__(self, scheduler: BatchScheduler,
                 request_wall_clock: Optional[float] = None) -> None:
        self.scheduler = scheduler
        self.request_wall_clock = request_wall_clock
        #: kind -> handler(request, kind, on_event, key) -> reply
        #: payload; ``key`` is the request's spec memo key, if any.
        self.handlers: dict = {
            "chase": self._handle_job,
            "query": self._handle_job,
            "stats": self._handle_stats,
        }

    # -- request handling ----------------------------------------------
    def handle(self, request,
               on_event: Optional[EventCallback] = None,
               key: Optional[bytes] = None) -> dict:
        """Serve one request payload; always returns a reply dict.

        ``key`` is the spec memo key of the bytes ``request`` was
        decoded from; a job request planned under a key is memoized.

        The try/except *around the handler call* is the satellite fix
        pinned by ``test_dispatch.py``: a request whose kind resolves
        through the dispatch table but whose required fields are
        missing (or whose handler raises for any other reason) must
        still produce a structured error reply -- the table lookup
        succeeding is no promise the payload is complete.
        """
        try:
            kind = request_kind(request)
            handler = self.handlers.get(kind)
            if handler is None:
                raise RequestError(
                    f"unknown request kind {kind!r} (expected one of "
                    f"{sorted(self.handlers)})", code="unknown_kind")
        except RequestError as exc:
            return error_payload(str(exc), exc.code, exc.kind)
        try:
            return handler(request, kind, on_event, key)
        except RequestError as exc:
            return error_payload(str(exc), exc.code, exc.kind or kind)
        except Exception as exc:                      # noqa: BLE001
            return error_payload(f"{type(exc).__name__}: {exc}",
                                 code="internal", kind=kind)

    def handle_line(self, line: str,
                    on_event: Optional[EventCallback] = None
                    ) -> Optional[dict]:
        """The NDJSON transport: one input line -> one reply payload
        (None for blank lines).

        A memoized line with a warm fingerprint emits the ``queued``
        and ``cached`` events a planned warm job emits, and replies
        with the cached result, without decoding the line.
        """
        line = line.strip()
        if not line:
            return None
        key = _spec_key(line.encode("utf-8"))
        warm = self._replay(key, on_event)
        if warm is not None:
            return warm.result.to_dict()
        try:
            request = json.loads(line)
        except ValueError as exc:
            return error_payload(f"invalid JSON: {exc}",
                                 code="invalid_json")
        return self.handle(request, on_event=on_event, key=key)

    def admit(self, raw: bytes) -> Admission:
        """Admit one job request by its bytes (the HTTP ``POST /jobs``
        body) without running it.

        A memoized body with a warm fingerprint is replayed from the
        cache.  Any other body is decoded, parsed and planned, which
        memoizes it, and its planned fingerprint is looked up in the
        result cache.  A warm admission reports no progress events.
        Raises :class:`RequestError` for bodies that are not valid job
        requests; those are never memoized.
        """
        key = _spec_key(raw)
        warm = self._replay(key, _ignore)
        if warm is not None:
            return warm
        try:
            request = json.loads(raw.decode("utf-8"))
        except ValueError as exc:
            raise RequestError(f"invalid JSON: {exc}",
                               code="invalid_json") from None
        plan = self.parse_job(request)
        entry = self._memoize(key, plan)
        hit = None
        if entry.fingerprint in self.scheduler.cache.results:
            hit = self.scheduler.cache.lookup_result(plan.job)
        return Admission(entry, plan, hit)

    def _replay(self, key: bytes,
                on_event: Optional[EventCallback]) -> Optional[Admission]:
        """The warm admission of a memoized request, or None."""
        entry = self.scheduler.cache.specs.get(key)
        if entry is None:
            return None
        hit = self.scheduler.replay(entry.name, entry.fingerprint,
                                    entry.queued, on_event)
        if hit is None:
            return None
        return Admission(entry, None, hit)

    def _memoize(self, key: bytes, plan: Plan) -> SpecEntry:
        """Memoize a planned request under its bytes' key."""
        job = plan.job
        entry = SpecEntry(job.name, job.kind, job.fingerprint(),
                          plan.queued_detail())
        self.scheduler.cache.specs.put(key, entry)
        return entry

    # -- job plumbing --------------------------------------------------
    def parse_job(self, request, kind: Optional[str] = None) -> Plan:
        """Parse, budget-clamp and plan a job spec payload.

        Returns the scheduler's :class:`~repro.service.scheduler.Plan`:
        its *planned* job (strategy pinned, unknown-set step cap
        applied) has the fingerprint the cache and the results
        endpoint key on, and the scheduler runs the plan as is, so a
        request is planned once.  All parse/plan failures surface as
        :class:`RequestError`.
        """
        if kind is None:
            kind = request_kind(request)
        if kind not in JOB_KINDS:
            raise RequestError(f"not a job request kind: {kind!r}",
                               code="invalid_request", kind=kind)
        try:
            job = job_from_dict(request)
        except (WireError, ReproError) as exc:
            raise RequestError(f"{type(exc).__name__}: {exc}",
                               code="invalid_spec", kind=kind) from exc
        job = self.budgeted(job)
        try:
            return self.scheduler.plan_job(job)
        except Exception as exc:                      # noqa: BLE001
            raise RequestError(f"planning failed: {exc}",
                               code="invalid_spec", kind=kind) from exc

    def budgeted(self, job):
        """Clamp the job's soft wall-clock budget to the session's
        per-request budget (the tighter bound wins; a NaN budget, which
        compares False against everything, is replaced too).  Sound
        for the cache: wall_clock is excluded from fingerprints."""
        budget = self.request_wall_clock
        if budget is None:
            return job
        if job.wall_clock is None or not job.wall_clock <= budget:
            return job.with_updates(wall_clock=budget)
        return job

    def cached_result(self, fingerprint: str) -> Optional[str]:
        """The JSON text of a cached result by raw fingerprint (the
        HTTP ``GET /results/<fingerprint>`` endpoint, which sends it as
        is); None on a miss."""
        hit = self.scheduler.cache.results.get(fingerprint)
        if hit is None:
            return None
        return replace(hit, cached=True).to_json()

    def stats_payload(self) -> dict:
        """The introspection reply: live merged registry + cache."""
        return {"kind": "stats",
                "metrics": _metrics.snapshot(),
                "cache": self.scheduler.cache.stats()}

    # -- dispatch-table handlers ---------------------------------------
    def _handle_job(self, request, kind: str,
                    on_event: Optional[EventCallback],
                    key: Optional[bytes]) -> dict:
        plan = self.parse_job(request, kind)
        if key is not None:
            self._memoize(key, plan)
        result = self.scheduler.run_one(plan, on_event=on_event)
        return result.to_dict()

    def _handle_stats(self, request, kind: str,
                      on_event: Optional[EventCallback],
                      key: Optional[bytes]) -> dict:
        return self.stats_payload()
