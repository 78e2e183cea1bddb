"""An asyncio HTTP/1.1 gateway over the batch service.

``repro serve --http`` promotes the NDJSON stdin loop to a network
front-end.  The transport is deliberately minimal -- a hand-rolled
HTTP/1.1 parser over ``asyncio`` streams, stdlib only -- because the
serving semantics all live below it: every request body is interpreted
by the same :class:`~repro.service.dispatch.ServiceSession` dispatch
table the NDJSON loop uses, jobs execute through the same
:class:`~repro.service.scheduler.BatchScheduler` /
:class:`~repro.service.pool.WorkerPool`, and results replay from the
same fingerprint cache.  The NDJSON loop remains the transport-free
reference implementation; ``tests/service/test_http_stress.py``
cross-validates the two byte-for-byte.

Endpoints
---------
``POST /jobs``
    Submit a chase or query job spec (JSON body).  Replies ``202``
    with ``{"id", "fingerprint", "status": "queued"}``; ``?wait=1``
    blocks until completion and replies ``200`` with the result
    inline.  A warm fingerprint is answered ``200`` immediately from
    the cache without occupying a queue slot.  The session
    (:meth:`ServiceSession.admit`) decides that: a body whose exact
    bytes it planned before is replayed from its spec memo with no
    parse, plan or fingerprint; any other body is parsed and planned,
    and its planned fingerprint is looked up.
``GET /jobs/<id>``
    Poll a submitted job: state (``queued`` / ``running`` / ``done``),
    fingerprint, event count, and the result payload once done.
``GET /jobs/<id>/events``
    Chunked NDJSON stream of the job's progress events (the pool's
    ``queued`` / ``started`` / ``progress`` / ``finished`` stream),
    terminated by one ``{"kind": "result", ...}`` record.
``GET /results/<fingerprint>``
    Fetch a cached result by content fingerprint (``404`` on a miss).
``GET /stats``
    The live merged observability registry plus cache and gateway
    state.  Content negotiation: ``?format=prometheus`` or an
    ``Accept`` header preferring ``text/plain`` gets Prometheus text
    exposition (:func:`repro.obs.metrics.render_prometheus`).
``GET /healthz``
    Liveness probe (``200 {"status": "ok"}``; ``503`` while draining).
``POST /shutdown``
    Graceful drain (only when the gateway was started with
    ``allow_shutdown=True`` / ``--shutdown-endpoint``; ``404``
    otherwise).

Operational guarantees
----------------------
* **Backpressure**: the pending queue is bounded (``queue_bound``);
  submits beyond it get ``429`` with a ``Retry-After`` header instead
  of unbounded memory growth.
* **Budgets**: the session's per-request wall-clock clamp reuses the
  runner's ``EXCEEDED_WALL_CLOCK`` machinery, so an over-budget
  request surfaces as a structured partial result.
* **Robustness**: oversized payloads get ``413``, truncated bodies
  and malformed chunked encodings get ``400``, unknown paths ``404``,
  wrong methods ``405`` with ``Allow`` -- always a structured JSON
  error body, never a traceback or a hang (fuzzed in
  ``tests/integration/test_http_adversarial.py``).
* **Graceful shutdown**: draining rejects new submits with ``503``,
  finishes every queued and in-flight job, lets event streams
  complete, then releases the worker processes.
* **Observability**: request/status counters, queue-depth gauge and
  per-request latency histograms under ``http.*`` (visible on
  ``/stats`` like every other subsystem); ``/stats`` also reports the
  job history's stored text -- result and event texts -- as
  ``gateway.records_bytes``.

Results are encoded once.  A finished job record holds its result as
the JSON text of ``JobResult.to_json``, which splices the facts or
answers text the job encoded; every reply that carries a result puts
that text into its body (:func:`repro.service.serialize.dumps`), so
no reply decodes or re-encodes facts, and each body is still byte for
byte ``json.dumps(payload, sort_keys=True)``.

Execution model: the asyncio loop never blocks on a chase.  A single
runner task drains the pending queue in micro-batches of up to the
scheduler's worker count and hands them to
:meth:`BatchScheduler.run_batch` on a one-thread executor -- so
parallelism comes from the worker *processes* (one fork per worker,
as everywhere else), while the event loop keeps accepting, polling
and streaming.  Progress events hop threads via
``call_soon_threadsafe`` and are routed to job records by content
fingerprint.
"""

from __future__ import annotations

import asyncio
import json
import re
import signal
import time
from collections import deque, OrderedDict
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Tuple
from urllib.parse import parse_qs, urlsplit

from repro.obs import metrics as _metrics
from repro.obs.metrics import OBS
from repro.service.dispatch import (error_payload, RequestError,
                                    ServiceSession)
from repro.service.jobs import JobResult, STATUS_ERROR
from repro.service.scheduler import Plan
from repro.service.serialize import dumps, raw

__all__ = ["HttpGateway", "HttpError", "serve_http"]

_PHRASES = {
    200: "OK", 202: "Accepted", 204: "No Content",
    400: "Bad Request", 404: "Not Found", 405: "Method Not Allowed",
    408: "Request Timeout", 411: "Length Required",
    413: "Payload Too Large", 429: "Too Many Requests",
    431: "Request Header Fields Too Large",
    500: "Internal Server Error", 501: "Not Implemented",
    503: "Service Unavailable",
}

#: StreamReader buffer limit: bounds request/header/chunk-size lines
#: (bodies are length-checked explicitly against ``max_body``).
_LINE_LIMIT = 64 * 1024
_MAX_HEADERS = 100


class HttpError(Exception):
    """A request rejection carrying its HTTP mapping.

    ``code`` feeds the structured JSON error body (same shape as the
    NDJSON loop's error payloads); ``close`` forces the connection
    shut afterwards (set when the stream state is unknown, e.g. after
    a malformed body).
    """

    def __init__(self, status: int, reason: str,
                 code: str = "bad_request",
                 retry_after: Optional[float] = None,
                 allow: Optional[str] = None,
                 close: bool = False) -> None:
        super().__init__(reason)
        self.status = status
        self.reason = reason
        self.code = code
        self.retry_after = retry_after
        self.allow = allow
        self.close = close


@dataclass
class _Request:
    method: str
    path: str
    query: dict
    headers: dict
    body: bytes
    keep_alive: bool


@dataclass
class _JobRecord:
    """Parent-side state of one submitted job."""

    id: str
    name: str
    kind: str
    fingerprint: str
    #: Made at submit time and run as is; None once finished, and on
    #: cache replies, so the history keeps no parsed jobs alive.
    plan: Optional[Plan] = None
    state: str = "queued"            # queued | running | done
    #: The finished result's JSON text (``JobResult.to_json``), made
    #: once and spliced into every reply that carries it.
    result: Optional[str] = None
    #: Each progress event as the JSON text its stream chunk carries,
    #: made once on the executor thread.
    events: List[str] = field(default_factory=list)
    wakeup: asyncio.Event = field(default_factory=asyncio.Event)
    finished: asyncio.Event = field(default_factory=asyncio.Event)
    submitted: float = field(default_factory=time.monotonic)

    def poll_payload(self) -> dict:
        return {"id": self.id, "job": self.name, "kind": self.kind,
                "fingerprint": self.fingerprint, "status": self.state,
                "events": len(self.events), "result": raw(self.result)}


def _truthy(values: Optional[list]) -> bool:
    if not values:
        return False
    return values[0].strip().lower() not in ("", "0", "false", "no")


class HttpGateway:
    """The asyncio HTTP front-end over one :class:`ServiceSession`.

    The gateway does not own the session's scheduler -- whoever built
    the scheduler closes it (after :meth:`shutdown` has drained).
    ``queue_bound`` bounds the pending queue (backpressure);
    ``max_body`` bounds request bodies; one executor round hands the
    scheduler at most as many queued jobs as the pool has workers;
    ``max_records`` bounds the completed-job history kept for polling.
    """

    def __init__(self, session: ServiceSession,
                 host: str = "127.0.0.1", port: int = 0,
                 queue_bound: int = 64,
                 max_body: int = 1024 * 1024,
                 header_timeout: float = 10.0,
                 max_records: int = 1024,
                 allow_shutdown: bool = False) -> None:
        if queue_bound < 1:
            raise ValueError("queue_bound must be at least 1")
        self.session = session
        self.host = host
        self.port = port
        self.queue_bound = queue_bound
        self.max_body = max_body
        self.header_timeout = header_timeout
        self.max_records = max_records
        self.allow_shutdown = allow_shutdown
        self.draining = False
        self._records: "OrderedDict[str, _JobRecord]" = OrderedDict()
        self._by_fp: dict = {}       # fingerprint -> [record ids]
        self._queue: deque = deque()
        self._queued = asyncio.Event()
        self._open_jobs = 0
        self._drained = asyncio.Event()
        self._drained.set()
        self._next_id = 0
        self._server: Optional[asyncio.AbstractServer] = None
        self._runner_task: Optional[asyncio.Task] = None
        self._terminated = asyncio.Event()
        self._conn_tasks: set = set()
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        # One executor thread: the scheduler (and its pool's pipe
        # polling) is single-threaded by design; parallelism comes
        # from the worker processes inside run_batch.
        self._executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-http-runner")
        self._routes: List[Tuple[str, re.Pattern, Callable]] = [
            ("POST", re.compile(r"^/jobs$"), self._post_job),
            ("GET", re.compile(r"^/jobs/([^/]+)$"), self._get_job),
            ("GET", re.compile(r"^/jobs/([^/]+)/events$"),
             self._get_events),
            ("GET", re.compile(r"^/results/([0-9a-f]{6,64})$"),
             self._get_result),
            ("GET", re.compile(r"^/stats$"), self._get_stats),
            ("GET", re.compile(r"^/healthz$"), self._get_health),
            ("POST", re.compile(r"^/shutdown$"), self._post_shutdown),
        ]

    # -- lifecycle ------------------------------------------------------
    async def start(self) -> "HttpGateway":
        self._loop = asyncio.get_running_loop()
        self._runner_task = asyncio.create_task(self._runner())
        self._server = await asyncio.start_server(
            self._on_connection, host=self.host, port=self.port,
            limit=_LINE_LIMIT)
        self.port = self._server.sockets[0].getsockname()[1]
        return self

    async def __aenter__(self) -> "HttpGateway":
        return await self.start()

    async def __aexit__(self, *exc_info) -> None:
        await self.shutdown()

    def request_shutdown(self) -> None:
        """Signal-handler / endpoint entry: start a graceful drain."""
        if self._loop is not None and not self._terminated.is_set():
            self._loop.create_task(self.shutdown())

    async def wait_terminated(self) -> None:
        await self._terminated.wait()

    async def shutdown(self, drain_timeout: Optional[float] = None
                       ) -> None:
        """Graceful drain: refuse new submits, finish every queued and
        in-flight job, then stop the server and the runner.  The
        session's scheduler (and its worker processes) is left to its
        owner to close."""
        if self._terminated.is_set():
            return
        self.draining = True
        if self._server is not None:
            self._server.close()
        try:
            await asyncio.wait_for(self._drained.wait(),
                                   timeout=drain_timeout)
        except asyncio.TimeoutError:     # pragma: no cover - defensive
            pass
        if self._runner_task is not None:
            self._runner_task.cancel()
            try:
                await self._runner_task
            except asyncio.CancelledError:
                pass
        if self._server is not None:
            await self._server.wait_closed()
        # Event streams have replayed their final record by now (all
        # jobs are done); anything still open is an idle keep-alive
        # connection parked on readline -- cut it.
        for task in list(self._conn_tasks):
            task.cancel()
        if self._conn_tasks:
            await asyncio.gather(*self._conn_tasks,
                                 return_exceptions=True)
        self._executor.shutdown(wait=True)
        self._terminated.set()

    # -- the runner -----------------------------------------------------
    async def _runner(self) -> None:
        workers = self.session.scheduler.pool.workers
        while True:
            await self._queued.wait()
            batch: List[_JobRecord] = []
            while self._queue and len(batch) < workers:
                batch.append(self._queue.popleft())
            if not self._queue:
                self._queued.clear()
            self._gauge_queue()
            if not batch:
                continue
            for record in batch:
                record.state = "running"
                record.wakeup.set()
            try:
                results = await self._loop.run_in_executor(
                    self._executor, self._execute,
                    [record.plan for record in batch])
            except Exception as exc:              # noqa: BLE001
                # The scheduler contract is "never raises"; this is
                # the transport's last-resort backstop so a submitted
                # job can never hang in "running" forever.
                results = [JobResult(
                    job=record.name, fingerprint=record.fingerprint,
                    status=STATUS_ERROR,
                    failure_reason=f"{type(exc).__name__}: {exc}")
                    for record in batch]
            for record, result in zip(batch, results):
                self._finish(record, result.to_json())

    def _execute(self, plans):
        """Executor-thread entry: one scheduler batch of the plans made
        at submit time, events routed back into the loop thread."""
        loop = self._loop

        def on_event(event) -> None:
            text = dumps({"kind": event.kind, "job": event.job,
                          "detail": event.detail, "ts": event.ts,
                          "fingerprint": event.fingerprint})
            loop.call_soon_threadsafe(self._apply_event, event.fingerprint,
                                      text)

        return self.session.scheduler.run_batch(plans, on_event=on_event)

    def _apply_event(self, fingerprint: str, text: str) -> None:
        for record_id in self._by_fp.get(fingerprint, ()):
            record = self._records.get(record_id)
            if record is not None and record.state != "done":
                record.events.append(text)
                record.wakeup.set()

    def _finish(self, record: _JobRecord, result: str) -> None:
        record.result = result
        record.state = "done"
        record.plan = None
        ids = self._by_fp.get(record.fingerprint)
        if ids is not None:
            try:
                ids.remove(record.id)
            except ValueError:               # pragma: no cover
                pass
            if not ids:
                del self._by_fp[record.fingerprint]
        record.wakeup.set()
        record.finished.set()
        self._open_jobs -= 1
        if self._open_jobs == 0:
            self._drained.set()
        if OBS.enabled:
            OBS.inc("http.jobs_completed")
            OBS.observe("http.job_turnaround_s",
                        time.monotonic() - record.submitted)

    def _enqueue(self, record: _JobRecord) -> None:
        self._records[record.id] = record
        self._by_fp.setdefault(record.fingerprint, []).append(record.id)
        self._queue.append(record)
        self._open_jobs += 1
        self._drained.clear()
        self._queued.set()
        self._gauge_queue()
        self._prune_records()

    def _remember(self, record: _JobRecord) -> None:
        """Track a record that never queues (cache fast path)."""
        self._records[record.id] = record
        self._prune_records()

    def _prune_records(self) -> None:
        """Drop the oldest finished records beyond ``max_records``.
        Unfinished records are skipped, not waited for, so one long
        job cannot hold the history above its bound."""
        excess = len(self._records) - self.max_records
        if excess <= 0:
            return
        finished = []
        for record_id, record in self._records.items():
            if record.state == "done":
                finished.append(record_id)
                if len(finished) == excess:
                    break
        for record_id in finished:
            del self._records[record_id]

    def _new_id(self) -> str:
        self._next_id += 1
        return f"j{self._next_id}"

    def _gauge_queue(self) -> None:
        if OBS.enabled:
            OBS.gauge("http.queue_depth", float(len(self._queue)))

    # -- connection handling -------------------------------------------
    async def _on_connection(self, reader: asyncio.StreamReader,
                             writer: asyncio.StreamWriter) -> None:
        task = asyncio.current_task()
        self._conn_tasks.add(task)
        try:
            await self._serve_connection(reader, writer)
        except asyncio.CancelledError:
            pass
        except (ConnectionError, asyncio.IncompleteReadError,
                asyncio.TimeoutError, OSError):
            pass
        finally:
            self._conn_tasks.discard(task)
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _serve_connection(self, reader, writer) -> None:
        while True:
            started = time.perf_counter()
            try:
                request = await self._read_request(reader)
            except HttpError as exc:
                await self._respond_error(writer, exc, started)
                return                       # parser state is unknown
            if request is None:
                return                       # clean EOF between requests
            keep_alive = request.keep_alive
            try:
                streamed = await self._route(request, writer, started)
            except HttpError as exc:
                await self._respond_error(writer, exc, started)
                if exc.close or not keep_alive:
                    return
                continue
            except Exception as exc:          # noqa: BLE001
                await self._respond_error(
                    writer, HttpError(500, f"{type(exc).__name__}: {exc}",
                                      code="internal"), started)
                if not keep_alive:
                    return
                continue
            if streamed or not keep_alive:
                return

    async def _read_request(self, reader) -> Optional[_Request]:
        try:
            line = await asyncio.wait_for(reader.readline(),
                                          timeout=self.header_timeout)
        except asyncio.TimeoutError:
            raise HttpError(408, "timed out waiting for a request",
                            code="timeout", close=True) from None
        except ValueError:
            raise HttpError(431, "request line too long",
                            code="oversized_header", close=True) from None
        if not line:
            return None
        parts = line.decode("latin-1").strip().split()
        if len(parts) != 3 or not parts[2].upper().startswith("HTTP/1."):
            raise HttpError(400, "malformed request line",
                            code="malformed_request", close=True)
        method, target, version = parts
        headers = await self._read_headers(reader)
        body = await self._read_body(reader, method, headers)
        split = urlsplit(target)
        keep_alive = headers.get("connection", "").lower() != "close" \
            and not version.upper().endswith("/1.0")
        return _Request(method=method.upper(), path=split.path,
                        query=parse_qs(split.query), headers=headers,
                        body=body, keep_alive=keep_alive)

    async def _read_headers(self, reader) -> dict:
        headers: dict = {}
        for _ in range(_MAX_HEADERS + 1):
            try:
                line = await asyncio.wait_for(reader.readline(),
                                              timeout=self.header_timeout)
            except asyncio.TimeoutError:
                raise HttpError(408, "timed out reading headers",
                                code="timeout", close=True) from None
            except ValueError:
                raise HttpError(431, "header line too long",
                                code="oversized_header",
                                close=True) from None
            if line in (b"\r\n", b"\n"):
                return headers
            if not line:
                raise HttpError(400, "connection closed inside headers",
                                code="truncated_request", close=True)
            name, sep, value = line.decode("latin-1").partition(":")
            if not sep:
                raise HttpError(400, f"malformed header {name.strip()!r}",
                                code="malformed_header", close=True)
            headers[name.strip().lower()] = value.strip()
        raise HttpError(431, f"more than {_MAX_HEADERS} headers",
                        code="oversized_header", close=True)

    async def _read_body(self, reader, method: str, headers: dict) -> bytes:
        encoding = headers.get("transfer-encoding", "").lower()
        if encoding:
            if encoding != "chunked":
                raise HttpError(501, f"unsupported transfer encoding "
                                f"{encoding!r}", code="bad_chunking",
                                close=True)
            return await self._read_chunked(reader)
        raw_length = headers.get("content-length")
        if raw_length is None:
            # No Content-Length and no Transfer-Encoding: the request
            # has no body (RFC 9112); endpoints that need one reply
            # with a structured 400 for the empty payload.
            return b""
        try:
            length = int(raw_length)
        except ValueError:
            raise HttpError(400, f"malformed Content-Length "
                            f"{raw_length!r}", code="malformed_request",
                            close=True) from None
        if length < 0:
            raise HttpError(400, "negative Content-Length",
                            code="malformed_request", close=True)
        if length > self.max_body:
            raise HttpError(413, f"body of {length} bytes exceeds the "
                            f"{self.max_body}-byte limit",
                            code="payload_too_large", close=True)
        try:
            return await asyncio.wait_for(reader.readexactly(length),
                                          timeout=self.header_timeout)
        except asyncio.IncompleteReadError:
            raise HttpError(400, "request body truncated",
                            code="truncated_body", close=True) from None
        except asyncio.TimeoutError:
            raise HttpError(408, "timed out reading the request body",
                            code="timeout", close=True) from None

    async def _read_chunked(self, reader) -> bytes:
        chunks: List[bytes] = []
        total = 0
        while True:
            try:
                line = await asyncio.wait_for(reader.readline(),
                                              timeout=self.header_timeout)
            except asyncio.TimeoutError:
                raise HttpError(408, "timed out reading chunks",
                                code="timeout", close=True) from None
            if not line.endswith(b"\n"):
                raise HttpError(400, "request body truncated inside "
                                "chunked encoding", code="truncated_body",
                                close=True)
            size_token = line.split(b";", 1)[0].strip()
            try:
                size = int(size_token, 16)
            except ValueError:
                raise HttpError(400, f"malformed chunk size "
                                f"{size_token[:32]!r}", code="bad_chunking",
                                close=True) from None
            if size < 0:
                raise HttpError(400, "negative chunk size",
                                code="bad_chunking", close=True)
            if size == 0:
                # Trailer section: lines until the blank terminator.
                for _ in range(_MAX_HEADERS):
                    trailer = await reader.readline()
                    if trailer in (b"\r\n", b"\n", b""):
                        return b"".join(chunks)
                raise HttpError(400, "unterminated chunk trailers",
                                code="bad_chunking", close=True)
            total += size
            if total > self.max_body:
                raise HttpError(413, f"chunked body exceeds the "
                                f"{self.max_body}-byte limit",
                                code="payload_too_large", close=True)
            try:
                data = await asyncio.wait_for(
                    reader.readexactly(size),
                    timeout=self.header_timeout)
                terminator = await asyncio.wait_for(
                    reader.readline(), timeout=self.header_timeout)
            except (asyncio.IncompleteReadError, asyncio.TimeoutError):
                raise HttpError(400, "request body truncated inside a "
                                "chunk", code="truncated_body",
                                close=True) from None
            if terminator not in (b"\r\n", b"\n"):
                raise HttpError(400, "chunk missing its CRLF terminator",
                                code="bad_chunking", close=True)
            chunks.append(data)

    # -- routing & responses -------------------------------------------
    async def _route(self, request: _Request, writer,
                     started: float) -> bool:
        """Dispatch one request; returns True if the handler streamed
        (connection must close its request/response cycle there)."""
        path_matched = []
        for method, pattern, handler in self._routes:
            match = pattern.match(request.path)
            if match is None:
                continue
            if method != request.method:
                path_matched.append(method)
                continue
            return await handler(request, writer, started,
                                 *match.groups())
        if path_matched:
            raise HttpError(405, f"{request.method} not allowed on "
                            f"{request.path}", code="method_not_allowed",
                            allow=", ".join(sorted(set(path_matched))))
        raise HttpError(404, f"no such endpoint: {request.path}",
                        code="not_found")

    async def _respond_json(self, writer, status: int, payload: dict,
                            started: float,
                            extra: Optional[dict] = None) -> None:
        body = (dumps(payload) + "\n").encode("utf-8")
        await self._respond_raw(writer, status, body, "application/json",
                                started, extra)

    async def _respond_raw(self, writer, status: int, body: bytes,
                           content_type: str, started: float,
                           extra: Optional[dict] = None) -> None:
        headers = {"Content-Type": content_type,
                   "Content-Length": str(len(body)),
                   "Connection": "keep-alive"}
        if extra:
            headers.update(extra)
        head = f"HTTP/1.1 {status} {_PHRASES.get(status, 'Unknown')}\r\n"
        head += "".join(f"{name}: {value}\r\n"
                        for name, value in headers.items())
        writer.write(head.encode("latin-1") + b"\r\n" + body)
        await writer.drain()
        self._account(status, started)

    async def _respond_error(self, writer, exc: HttpError,
                             started: float) -> None:
        extra = {}
        if exc.retry_after is not None:
            extra["Retry-After"] = f"{exc.retry_after:g}"
        if exc.allow is not None:
            extra["Allow"] = exc.allow
        if exc.close:
            extra["Connection"] = "close"
        try:
            await self._respond_json(writer, exc.status,
                                     error_payload(exc.reason, exc.code),
                                     started, extra)
        except (ConnectionError, OSError):   # client already gone
            self._account(exc.status, started)

    def _account(self, status: int, started: float) -> None:
        if OBS.enabled:
            OBS.inc("http.requests")
            OBS.inc(f"http.status.{status}")
            OBS.observe("http.request_latency_s",
                        time.perf_counter() - started)
            OBS.gauge("http.queue_depth", float(len(self._queue)))

    # -- endpoint handlers ---------------------------------------------
    async def _post_job(self, request: _Request, writer,
                        started: float) -> bool:
        if self.draining:
            raise HttpError(503, "gateway is draining", code="draining")
        try:
            admission = self.session.admit(request.body)
        except RequestError as exc:
            raise HttpError(400, str(exc), code=exc.code) from None
        name, kind, fingerprint, _ = admission.entry
        if admission.result is not None:
            record = _JobRecord(id=self._new_id(), name=name, kind=kind,
                                fingerprint=fingerprint, state="done",
                                result=admission.result.to_json())
            record.wakeup.set()
            record.finished.set()
            self._remember(record)
            if OBS.enabled:
                OBS.inc("http.cache_fastpath")
            await self._respond_json(writer, 200, record.poll_payload(),
                                     started)
            return False
        if len(self._queue) >= self.queue_bound:
            if OBS.enabled:
                OBS.inc("http.backpressure_429")
            raise HttpError(429, f"pending queue is full "
                            f"({self.queue_bound} jobs); retry shortly",
                            code="backpressure", retry_after=1.0)
        record = _JobRecord(id=self._new_id(), name=name, kind=kind,
                            fingerprint=fingerprint, plan=admission.plan)
        self._enqueue(record)
        if OBS.enabled:
            OBS.inc("http.jobs_submitted")
        if _truthy(request.query.get("wait")):
            await record.finished.wait()
            await self._respond_json(writer, 200, record.poll_payload(),
                                     started)
            return False
        await self._respond_json(
            writer, 202,
            {"id": record.id, "job": name, "kind": kind,
             "fingerprint": fingerprint, "status": "queued",
             "queue_depth": len(self._queue),
             "links": {"poll": f"/jobs/{record.id}",
                       "events": f"/jobs/{record.id}/events",
                       "result": f"/results/{fingerprint}"}},
            started)
        return False

    def _record_or_404(self, record_id: str) -> _JobRecord:
        record = self._records.get(record_id)
        if record is None:
            raise HttpError(404, f"no such job: {record_id}",
                            code="not_found")
        return record

    async def _get_job(self, request: _Request, writer, started: float,
                       record_id: str) -> bool:
        record = self._record_or_404(record_id)
        await self._respond_json(writer, 200, record.poll_payload(),
                                 started)
        return False

    async def _get_events(self, request: _Request, writer,
                          started: float, record_id: str) -> bool:
        record = self._record_or_404(record_id)
        head = (b"HTTP/1.1 200 OK\r\n"
                b"Content-Type: application/x-ndjson\r\n"
                b"Transfer-Encoding: chunked\r\n"
                b"Connection: close\r\n\r\n")
        writer.write(head)
        await writer.drain()
        if OBS.enabled:
            OBS.inc("http.event_streams")
        index = 0
        while True:
            while index < len(record.events):
                await self._write_chunk(writer, record.events[index])
                index += 1
            if record.state == "done":
                break
            record.wakeup.clear()
            await record.wakeup.wait()
        await self._write_chunk(writer, dumps({"kind": "result",
                                               "job": record.name,
                                               "id": record.id,
                                               "result": raw(record.result)}))
        writer.write(b"0\r\n\r\n")
        await writer.drain()
        self._account(200, started)
        return True

    @staticmethod
    async def _write_chunk(writer, text: str) -> None:
        data = (text + "\n").encode("utf-8")
        writer.write(f"{len(data):x}\r\n".encode("latin-1")
                     + data + b"\r\n")
        await writer.drain()

    async def _get_result(self, request: _Request, writer,
                          started: float, fingerprint: str) -> bool:
        text = self.session.cached_result(fingerprint)
        if text is None:
            raise HttpError(404, f"no cached result for fingerprint "
                            f"{fingerprint[:12]}...", code="not_found")
        await self._respond_raw(writer, 200, (text + "\n").encode("utf-8"),
                                "application/json", started)
        return False

    async def _get_stats(self, request: _Request, writer,
                         started: float) -> bool:
        accept = request.headers.get("accept", "")
        fmt = (request.query.get("format") or [""])[0].lower()
        wants_prometheus = (fmt == "prometheus"
                            or "openmetrics" in accept
                            or accept.startswith("text/plain"))
        snapshot = _metrics.snapshot()
        if wants_prometheus:
            body = _metrics.render_prometheus(snapshot).encode("utf-8")
            await self._respond_raw(writer, 200, body,
                                    "text/plain; version=0.0.4",
                                    started)
            return False
        payload = self.session.stats_payload()
        payload["gateway"] = {
            "queue_depth": len(self._queue),
            "queue_bound": self.queue_bound,
            "open_jobs": self._open_jobs,
            "records": len(self._records),
            "records_bytes": sum(len(record.result or "")
                                 + sum(map(len, record.events))
                                 for record in self._records.values()),
            "draining": self.draining,
            "workers_alive": self.session.scheduler.pool.alive_workers,
        }
        await self._respond_json(writer, 200, payload, started)
        return False

    async def _get_health(self, request: _Request, writer,
                          started: float) -> bool:
        status = 503 if self.draining else 200
        await self._respond_json(writer, status,
                                 {"status": "draining" if self.draining
                                  else "ok"}, started)
        return False

    async def _post_shutdown(self, request: _Request, writer,
                             started: float) -> bool:
        if not self.allow_shutdown:
            raise HttpError(404, "shutdown endpoint is not enabled "
                            "(--shutdown-endpoint)", code="not_found")
        await self._respond_json(writer, 202, {"status": "draining"},
                                 started)
        self.request_shutdown()
        return True


def serve_http(session: ServiceSession, host: str = "127.0.0.1",
               port: int = 8765, queue_bound: int = 64,
               max_body: int = 1024 * 1024,
               allow_shutdown: bool = False,
               announce=None) -> int:
    """Blocking entry point behind ``repro serve --http``.

    Prints one ``{"kind": "listening", ...}`` JSON line to stdout once
    the socket is bound (with ``--port 0`` this is how callers learn
    the ephemeral port), then serves until SIGINT/SIGTERM or a
    ``POST /shutdown`` triggers the graceful drain.
    """
    async def _main() -> None:
        gateway = HttpGateway(session, host=host, port=port,
                              queue_bound=queue_bound, max_body=max_body,
                              allow_shutdown=allow_shutdown)
        await gateway.start()
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(signum, gateway.request_shutdown)
            except (NotImplementedError, RuntimeError):
                pass                      # pragma: no cover - non-posix
        emit = announce or (lambda line: print(line, flush=True))
        emit(json.dumps({"kind": "listening", "host": gateway.host,
                         "port": gateway.port,
                         "queue_bound": gateway.queue_bound},
                        sort_keys=True))
        await gateway.wait_terminated()

    asyncio.run(_main())
    return 0
