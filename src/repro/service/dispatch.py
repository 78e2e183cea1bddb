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
"""

from __future__ import annotations

import json
from dataclasses import replace
from typing import Callable, Optional

from repro.lang.errors import ReproError
from repro.obs import metrics as _metrics
from repro.service.jobs import (EventCallback, JOB_KINDS, job_from_dict,
                                spec_kind)
from repro.service.scheduler import BatchScheduler
from repro.service.serialize import WireError

__all__ = ["RequestError", "ServiceSession", "error_payload",
           "request_kind"]


class RequestError(ReproError):
    """A structured request rejection any transport can map.

    ``code`` is a stable machine-readable discriminator (the
    ``error`` field of the reply payload), ``http_status`` the status
    the HTTP transport should use, ``kind`` the request kind when the
    dispatch-table lookup got far enough to know it.
    """

    def __init__(self, reason: str, *, code: str = "bad_request",
                 http_status: int = 400,
                 kind: Optional[str] = None) -> None:
        super().__init__(reason)
        self.code = code
        self.http_status = http_status
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


class ServiceSession:
    """One serving session: scheduler + dispatch table + budgets.

    ``scheduler`` is owned by the caller (close it there);
    ``request_wall_clock`` is the per-request budget clamp in seconds
    (None = trust job budgets as-is).
    """

    def __init__(self, scheduler: BatchScheduler,
                 request_wall_clock: Optional[float] = None) -> None:
        self.scheduler = scheduler
        self.request_wall_clock = request_wall_clock
        #: kind -> handler(request, kind, on_event) -> reply payload.
        self.handlers: dict = {
            "chase": self._handle_job,
            "query": self._handle_job,
            "stats": self._handle_stats,
        }

    # -- request handling ----------------------------------------------
    def handle(self, request,
               on_event: Optional[EventCallback] = None) -> dict:
        """Serve one request payload; always returns a reply dict.

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
            return handler(request, kind, on_event)
        except RequestError as exc:
            return error_payload(str(exc), exc.code, exc.kind or kind)
        except Exception as exc:                      # noqa: BLE001
            return error_payload(f"{type(exc).__name__}: {exc}",
                                 code="internal", kind=kind)

    def handle_line(self, line: str,
                    on_event: Optional[EventCallback] = None
                    ) -> Optional[dict]:
        """The NDJSON transport: one input line -> one reply payload
        (None for blank lines)."""
        line = line.strip()
        if not line:
            return None
        try:
            request = json.loads(line)
        except ValueError as exc:
            return error_payload(f"invalid JSON: {exc}",
                                 code="invalid_json")
        return self.handle(request, on_event=on_event)

    # -- job plumbing (shared with the HTTP gateway) -------------------
    def parse_job(self, request, kind: Optional[str] = None):
        """Parse, budget-clamp and plan a job spec payload.

        Returns the *planned* job (strategy pinned, unknown-set step
        cap applied), so its fingerprint is the one the cache and the
        results endpoint key on.  All parse/plan failures surface as
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
            job, _, _ = self.scheduler.plan_job(job)
        except Exception as exc:                      # noqa: BLE001
            raise RequestError(f"planning failed: {exc}",
                               code="invalid_spec", kind=kind) from exc
        return job

    def budgeted(self, job):
        """Clamp the job's soft wall-clock budget to the session's
        per-request budget (the tighter bound wins).  Sound for the
        cache: wall_clock is excluded from fingerprints."""
        budget = self.request_wall_clock
        if budget is None:
            return job
        if job.wall_clock is None or job.wall_clock > budget:
            return job.with_updates(wall_clock=budget)
        return job

    def cached_result(self, fingerprint: str) -> Optional[dict]:
        """A cached result payload by raw fingerprint (the HTTP
        ``GET /results/<fingerprint>`` endpoint); None on a miss."""
        hit = self.scheduler.cache.results.get(fingerprint)
        if hit is None:
            return None
        return replace(hit, cached=True).to_dict()

    def stats_payload(self) -> dict:
        """The introspection reply: live merged registry + cache."""
        return {"kind": "stats",
                "metrics": _metrics.snapshot(),
                "cache": self.scheduler.cache.stats()}

    # -- dispatch-table handlers ---------------------------------------
    def _handle_job(self, request, kind: str,
                    on_event: Optional[EventCallback]) -> dict:
        job = self.parse_job(request, kind)
        result = self.scheduler.run_one(job, on_event=on_event)
        return result.to_dict()

    def _handle_stats(self, request, kind: str,
                      on_event: Optional[EventCallback]) -> dict:
        return self.stats_payload()
