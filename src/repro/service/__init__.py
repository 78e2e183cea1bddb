"""The batch chase service layer (above every other layer).

:mod:`repro.service` turns the single-run chase engine into a small
multi-request execution service -- the operational face of the paper's
termination guarantees: a request whose constraint set is provably
terminating can run unguarded, everything else runs behind explicit
step/fact/wall-clock budgets, and identical requests are answered from
a fingerprint-keyed cache without re-executing anything.

* :mod:`repro.service.serialize` -- stable wire encoding of terms,
  facts, instances and results (the only representation that crosses a
  process boundary);
* :mod:`repro.service.jobs` -- the declarative :class:`ChaseJob` spec
  (a chase request, or with a ``query`` a certain-answer request)
  with canonical content fingerprints over interned term/fact ids,
  plus in-process execution;
* :mod:`repro.service.query` -- the answering step of query jobs
  (Section 5 as a served workload: compiled CQ evaluation, Section 4
  semantic optimization, depth-bounded fallback);
* :mod:`repro.service.cache` -- bounded LRU caches for job results and
  termination reports;
* :mod:`repro.service.pool` -- a ``multiprocessing`` worker pool with
  per-job hard timeouts, cancellation and graceful degradation to
  in-process execution;
* :mod:`repro.service.scheduler` -- the batch scheduler: consults the
  cached :class:`~repro.termination.report.TerminationReport` to pick
  a strategy, runs guaranteed-terminating jobs ahead of budget-capped
  unknown ones, and streams progress events;
* :mod:`repro.service.dispatch` -- transport-neutral request dispatch
  (:class:`ServiceSession`): the kind-keyed dispatch table, structured
  error contract and per-request wall-clock clamp shared by the NDJSON
  loop and the HTTP gateway;
* :mod:`repro.service.http` -- the asyncio HTTP/1.1 front-end
  (``repro serve --http``): job submission, polling, chunked NDJSON
  event streams, fingerprint-keyed result fetches, ``/stats`` with
  Prometheus negotiation, bounded-queue backpressure and graceful
  drain.

CLI entry points: ``repro batch <dir>``, ``repro serve`` (NDJSON or
``--http``) and ``repro query``.
"""

from repro.service.cache import LRUCache, ServiceCache
from repro.service.dispatch import (error_payload, request_kind,
                                    RequestError, ServiceSession)
from repro.service.jobs import (ChaseJob, execute_any, execute_job,
                                instance_fingerprint, job_from_dict,
                                job_from_path, JobResult, ProgressEvent,
                                resolve_strategy, STATUS_ERROR,
                                STATUS_KILLED)
from repro.service.pool import WorkerPool
from repro.service.query import QueryJob
from repro.service.scheduler import BatchScheduler
from repro.service.serialize import (decode_atom, decode_instance,
                                     decode_result, encode_atom,
                                     encode_instance, encode_result)

__all__ = [
    "BatchScheduler", "ChaseJob", "error_payload", "execute_any",
    "execute_job", "instance_fingerprint",
    "job_from_dict", "job_from_path", "JobResult", "LRUCache",
    "ProgressEvent", "QueryJob", "request_kind", "RequestError",
    "resolve_strategy", "ServiceCache", "ServiceSession", "STATUS_ERROR",
    "STATUS_KILLED", "WorkerPool", "decode_atom", "decode_instance",
    "decode_result", "encode_atom", "encode_instance", "encode_result",
]
