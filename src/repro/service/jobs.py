"""Declarative jobs, content fingerprints and job execution.

A :class:`ChaseJob` is the unit of work of the batch service: a
constraint set, an input instance, a strategy spec and explicit
budgets -- plus, for a certain-answer request (Section 5), a
conjunctive query.  Jobs are plain declarative data -- they can be
written as JSON files (``repro batch``), streamed over stdin
(``repro serve``) or built programmatically -- and every job has a
canonical **content fingerprint**: a SHA-256 digest computed over the
interned term/fact ids of its instance (via a fresh
:class:`repro.storage.interning.TermTable` filled in canonical fact
order) together with the rendered constraint list, the rendered query
and every outcome-relevant knob.  Two jobs with equal fingerprints are
guaranteed to produce identical results, which is what makes the
fingerprint a sound cache key (:mod:`repro.service.cache`).

The **wall-clock budget is deliberately excluded** from the
fingerprint: it can only change the outcome into the timing-dependent
``EXCEEDED_WALL_CLOCK`` status, which is never cached, so a cached
deterministic result remains valid for any wall-clock setting (and is
always faster than re-running).

Execution (:func:`execute_job`) is deterministic per job: every run
uses a private :class:`~repro.lang.terms.NullFactory` starting at 1,
so the same job yields byte-identical encoded results no matter which
worker process -- or how many sibling jobs -- ran it.
"""

from __future__ import annotations

import hashlib
import json
import time
import traceback
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import Callable, List, Optional, Tuple

from repro.chase.result import ChaseStatus
from repro.chase.runner import chase, DEFAULT_MAX_STEPS
from repro.chase.strategies import (OrderedStrategy, RandomStrategy,
                                    RoundRobinStrategy, Strategy)
from repro.cq.query import ConjunctiveQuery
from repro.datadep.monitored_chase import monitored_chase
from repro.lang.constraints import Constraint
from repro.lang.errors import ReproError
from repro.lang.instance import Instance
from repro.lang.schema import Schema
from repro.lang.parser import (_render_constraint_body, parse_atoms,
                               parse_constraints, parse_query,
                               render_constraints, render_query)
from repro.lang.terms import NullFactory
from repro.obs import trace as _trace
from repro.service.serialize import (atom_sort_key, decode_atom,
                                     encode_facts, encode_instance,
                                     encode_term, WireError)
from repro.storage.interning import TermTable

#: Non-chase job outcomes (the pool synthesizes these).
STATUS_KILLED = "killed"
STATUS_ERROR = "error"

#: Chase statuses whose outcome is a pure function of the job spec --
#: the only ones the result cache may store.
_DETERMINISTIC_STATUSES = frozenset(
    s.value for s in ChaseStatus if s.is_deterministic)

_STRATEGY_NAMES = ("auto", "ordered", "round_robin", "random", "stratified")

#: The job kinds a spec may declare (see :func:`spec_kind`).
JOB_KINDS = ("chase", "query")


@dataclass(frozen=True)
class ProgressEvent:
    """One streaming event of a batch run (see the scheduler docs).

    ``ts`` is a monotonic timestamp taken at construction (workers
    construct events in their own process; on Linux ``CLOCK_MONOTONIC``
    is system-wide, so parent and worker timestamps interleave
    meaningfully).  ``fingerprint`` is the content fingerprint of the
    job the event belongs to -- with it, the interleaved event stream
    of a multi-worker batch can be attributed and timed per job even
    when two jobs share a name.
    """

    kind: str          # queued|started|progress|finished|cached|killed|...
    job: str           # job name
    detail: dict = field(default_factory=dict)
    ts: float = field(default_factory=time.monotonic)
    fingerprint: str = ""

    def render(self) -> str:
        extras = " ".join(f"{k}={v}" for k, v in sorted(self.detail.items()))
        tagged = f"[{self.kind}] {self.job}" + (f" {extras}" if extras else "")
        if self.fingerprint:
            tagged += f" fp={self.fingerprint[:12]}"
        return tagged + f" t={self.ts:.3f}"


def instance_fingerprint(instance: Instance) -> str:
    """Canonical content digest of an instance over interned ids.

    Facts are sorted canonically, their terms interned into a fresh
    :class:`TermTable` in first-occurrence order, and the digest is
    taken over both the id-level fact rows *and* the id -> term
    decoding table -- so the fingerprint depends on exactly the
    instance content, never on backend, insertion order or interning
    history of the live store.
    """
    table = TermTable()
    rows: List[list] = []
    for fact in sorted(instance, key=atom_sort_key):
        rows.append([fact.relation,
                     [table.intern(term) for term in fact.args]])
    terms = [encode_term(table.term(tid)) for tid in range(len(table))]
    payload = json.dumps({"terms": terms, "rows": rows},
                         sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def resolve_strategy(spec: Optional[str],
                     sigma: List[Constraint],
                     max_k: int = 3) -> Optional[Strategy]:
    """Build a strategy object from a declarative spec string.

    ``ordered`` / ``round_robin`` / ``random[:seed]`` / ``stratified``
    map to the corresponding :mod:`repro.chase.strategies` classes.
    ``auto`` (or None) consults the memoized termination report: for
    sets where every order terminates the default round-robin is kept
    (returns None); for merely stratified sets Theorem 2's stratum
    order is required and returned; otherwise no strategy can help and
    the default is kept (budgets must bound the run).
    """
    if spec is None or spec == "auto":
        from repro.termination.report import analyze
        return analyze(sigma, max_k=max_k).recommended_strategy()
    name, _, arg = spec.partition(":")
    if name == "ordered":
        return OrderedStrategy()
    if name == "round_robin":
        return RoundRobinStrategy()
    if name == "random":
        return RandomStrategy(seed=int(arg) if arg else 0)
    if name == "stratified":
        from repro.termination.stratification import stratified_strategy
        return stratified_strategy(sigma)
    raise ValueError(f"unknown strategy spec {spec!r} "
                     f"(expected one of {_STRATEGY_NAMES})")


def decode_spec_instance(raw_instance, backend: Optional[str]) -> Instance:
    """Decode a job spec's instance field: either instance text (bare
    identifiers are constants, ``?n7`` nulls) or the wire dict of
    :func:`repro.service.serialize.encode_instance`."""
    if isinstance(raw_instance, dict):
        return Instance((decode_atom(fact) for fact in raw_instance["facts"]),
                        backend=backend or raw_instance.get("backend"))
    return Instance(parse_atoms(raw_instance, instance_mode=True),
                    backend=backend)


def check_spec_schema(sigma, instance: Instance, *extra_atoms) -> None:
    """Reject specs whose relations are used at inconsistent arities.

    Constraints, instance facts and (for query jobs) query atoms must
    agree on every relation's arity; a spec writing ``R(a)`` next to
    ``R(a, b)`` raises :class:`~repro.lang.errors.SchemaError` here --
    a structured, catchable error -- instead of producing undefined
    matching behaviour deep inside the chase.
    """
    schema = instance.schema()
    for constraint in sigma:
        schema = schema.merged(constraint.schema())
    for atom in extra_atoms:
        schema = schema.merged(Schema.infer([atom]))


def spec_value(payload: dict, key: str, default, convert):
    """A knob from a job spec dict: explicit JSON ``null`` (or an
    absent key) means "use the default", anything else is converted."""
    value = payload.get(key)
    return default if value is None else convert(value)


def spec_budget(key: str, convert=int, minimum=0):
    """A validating numeric converter for :func:`spec_value`.

    Budgets from the wire must be numbers and non-negative (``max_k``
    at least 1): a negative or non-numeric budget in a hand-written or
    adversarial spec must surface as a structured :class:`WireError`
    -- which the serve loop and the CLI turn into an error payload --
    never as a traceback from deep inside the runner.
    """
    def converter(value):
        if isinstance(value, bool):
            raise WireError(f"{key} must be a number, got {value!r}")
        try:
            converted = convert(value)
        except (TypeError, ValueError):
            raise WireError(f"{key} must be a number, got {value!r}") \
                from None
        if converted < minimum:
            raise WireError(f"{key} must be >= {minimum}, "
                            f"got {converted!r}")
        return converted
    return converter


def spec_bool(key: str):
    """A strict boolean converter for :func:`spec_value`: JSON
    true/false only.  ``bool("false")`` is True, so coercing strings
    would silently invert a hand-written opt-out."""
    def convert(value):
        if not isinstance(value, bool):
            raise WireError(f"{key} must be true or false, "
                            f"got {value!r}")
        return value
    return convert


def spec_kind(payload: dict):
    """The kind a spec dict declares: its ``kind`` field, else
    ``query`` when it carries a ``query`` field (hand-written query
    files need no boilerplate), else ``chase``.

    The one discriminator behind :meth:`ChaseJob.from_dict` and
    :func:`repro.service.dispatch.request_kind`, so the job parser and
    the dispatch table can never disagree about what a payload is.
    An explicit ``kind`` is returned unvalidated, for each caller to
    judge.
    """
    kind = payload.get("kind")
    if kind is None:
        return "query" if "query" in payload else "chase"
    return kind


#: The scalar knobs of a job spec in wire order, as ``(field, spec
#: converter, digested)``.  This one table drives
#: :meth:`ChaseJob.from_dict`, :meth:`ChaseJob.to_dict` and
#: :meth:`ChaseJob.fingerprint`, so every knob is parsed, shipped and
#: digested alike; its default is the dataclass field's.  The
#: wall-clock budget is not digested (see the module docs), and the
#: last two knobs exist on query jobs only.
_KNOBS = (
    ("strategy", str, True),
    ("backend", lambda backend: backend, True),
    ("max_steps", spec_budget("max_steps"), True),
    ("max_facts", spec_budget("max_facts"), True),
    ("wall_clock", spec_budget("wall_clock", convert=float), False),
    ("cycle_limit", spec_budget("cycle_limit"), True),
    ("max_k", spec_budget("max_k"), True),
    ("optimize", spec_bool("optimize"), True),
    ("depth_limit", spec_budget("depth_limit"), True),
)
_CHASE_KNOBS = _KNOBS[:-2]


@dataclass(frozen=True)
class ChaseJob:
    """A declarative chase request -- or, with ``query`` set, a
    certain-answer request.

    ``strategy`` is a spec string (see :func:`resolve_strategy`);
    ``backend`` overrides the instance's fact-store backend;
    ``max_steps``/``max_facts``/``wall_clock`` are the budgets
    forwarded to the runner; ``cycle_limit`` > 0 arms the Section 4.2
    monitor; ``max_k`` bounds the termination probe used by ``auto``
    strategy resolution and by the scheduler.

    ``query`` asks for the certain answers of a conjunctive query over
    the knowledge base ``(instance, sigma)`` (Theorem 9): the chase
    runs exactly as for a chase job, then
    :func:`repro.service.query.answer_query` evaluates the query on
    its result.  ``optimize`` switches that step's Section 4
    rewriting; ``depth_limit`` overrides the query-sized default of
    its depth-bounded fallback (and of the optimizer's frozen-query
    chase).  Both are ignored -- neither shipped nor digested -- on
    chase jobs.
    """

    name: str
    sigma: Tuple[Constraint, ...]
    instance: Instance
    strategy: str = "auto"
    backend: Optional[str] = None
    max_steps: int = DEFAULT_MAX_STEPS
    max_facts: Optional[int] = None
    wall_clock: Optional[float] = None
    cycle_limit: int = 0
    max_k: int = 3
    query: Optional[ConjunctiveQuery] = None
    optimize: bool = True
    depth_limit: Optional[int] = None

    @property
    def kind(self) -> str:
        """Wire discriminator (see :func:`spec_kind`)."""
        return "chase" if self.query is None else "query"

    def _knobs(self) -> tuple:
        return _CHASE_KNOBS if self.query is None else _KNOBS

    # -- canonical content fingerprint ---------------------------------
    def fingerprint(self) -> str:
        """SHA-256 content fingerprint of every outcome-relevant field.

        Constraints are digested in *listed order* (strategies iterate
        them in order, so order changes the executed sequence), the
        instance through :func:`instance_fingerprint`, the rendered
        query, strategy, effective backend and the deterministic
        budgets.  The job name and the wall-clock budget (timing-only,
        see module docs) are excluded.

        The digest is memoized on the (frozen) job -- the scheduler,
        cache and pool all key on it, and the canonical sort +
        re-intern pass over a large instance is worth paying once.
        """
        memo = self.__dict__.get("_fingerprint")
        if memo is not None:
            return memo
        # Labels are rendered for humans but never affect execution
        # (constraint equality ignores them too), so the fingerprint
        # digests the label-free canonical bodies in listed order.
        payload = {
            "v": 1,
            "sigma": [_render_constraint_body(c) for c in self.sigma],
            "instance": instance_fingerprint(self.instance),
        }
        if self.query is not None:
            payload.update(kind="query", query=render_query(self.query))
        for key, _, digested in self._knobs():
            if digested:
                payload[key] = getattr(self, key)
        # Digest the backend that runs, however it was chosen.
        payload["backend"] = self.backend or self.instance.backend
        encoded = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        digest = hashlib.sha256(encoded.encode("utf-8")).hexdigest()
        object.__setattr__(self, "_fingerprint", digest)
        return digest

    # -- wire form ------------------------------------------------------
    def to_dict(self) -> dict:
        """A lossless JSON-able encoding (the pool's wire format)."""
        wire = {} if self.query is None else {"kind": "query"}
        wire.update(name=self.name,
                    constraints=render_constraints(self.sigma),
                    instance=encode_instance(self.instance))
        if self.query is not None:
            wire["query"] = render_query(self.query)
        for key, _, _ in self._knobs():
            wire[key] = getattr(self, key)
        return wire

    @classmethod
    def from_dict(cls, payload: dict, name: Optional[str] = None
                  ) -> "ChaseJob":
        """Build a job from a spec dict (job file, stdin line or wire).

        ``constraints`` is constraint text; ``instance`` is either
        instance text (bare identifiers are constants, ``?n7`` nulls)
        or the wire dict of :func:`repro.service.serialize.encode_instance`;
        a query job's ``query`` is query text (``ans(x) <- body``).
        The kind comes from :func:`spec_kind`.
        """
        if not isinstance(payload, dict):
            raise WireError(f"job spec must be an object, got {payload!r}")
        kind = spec_kind(payload)
        if kind not in JOB_KINDS:
            raise WireError(f"unknown job kind {kind!r} "
                            "(expected 'chase' or 'query')")
        is_query = kind == "query"
        try:
            constraints = payload["constraints"]
            raw_instance = payload["instance"]
            query_text = payload["query"] if is_query else None
        except KeyError as missing:
            raise WireError(f"{'query job' if is_query else 'job'} spec "
                            f"misses key {missing}") from None
        if isinstance(constraints, (list, tuple)):
            constraints = "\n".join(constraints)
        if is_query and not isinstance(query_text, str):
            raise WireError(f"query must be query text, got {query_text!r}")
        sigma = tuple(parse_constraints(constraints))
        instance = decode_spec_instance(raw_instance, payload.get("backend"))
        query = parse_query(query_text) if is_query else None
        check_spec_schema(sigma, instance, *(query.body if is_query else ()))
        knobs = {key: spec_value(payload, key, _DEFAULTS[key], convert)
                 for key, convert, _ in (_KNOBS if is_query
                                         else _CHASE_KNOBS)}
        return cls(name=payload.get("name") or name or
                   ("query" if is_query else "job"),
                   sigma=sigma, instance=instance, query=query, **knobs)

    @classmethod
    def from_path(cls, path) -> "ChaseJob":
        """Load a job from a JSON spec file (the name defaults to the
        file stem); invalid JSON raises :class:`WireError`."""
        path = Path(path)
        try:
            payload = json.loads(path.read_text())
        except json.JSONDecodeError as exc:
            raise WireError(f"{path}: invalid job JSON ({exc})") from exc
        return cls.from_dict(payload, name=path.stem)

    def with_updates(self, **changes) -> "ChaseJob":
        """A copy with the given fields replaced (scheduler rewrites)."""
        return replace(self, **changes)


#: Knob defaults, read from the dataclass so they are declared once.
_DEFAULTS = {f.name: f.default for f in fields(ChaseJob)}

#: The spec parsers under the names the pool, the dispatcher and the
#: CLI call them by.
job_from_dict = ChaseJob.from_dict
job_from_path = ChaseJob.from_path


@dataclass
class JobResult:
    """The outcome of one job, in wire-safe form.

    ``status`` is a :class:`ChaseStatus` value, ``"killed"`` (the pool
    enforced a hard timeout or a cancellation) or ``"error"`` (the job
    raised).  ``facts`` is the canonical encoding of the final
    instance (None for killed/error jobs).

    Query jobs (a :class:`ChaseJob` with a ``query``) share this
    result type: they carry their certain answers in ``answers``
    (sorted encoded term rows; None on chase jobs and on killed/error
    query jobs), the evaluated -- possibly semantically optimized --
    query text in ``query``, and ``truncated=True`` when the exact
    chase blew a budget and the answers come from the depth-bounded
    prefix.  ``facts`` stays None for query jobs: the answer relation,
    not the chased instance, is their deliverable.
    """

    job: str
    fingerprint: str
    status: str
    steps: int = 0
    new_nulls: int = 0
    facts: Optional[List[list]] = None
    failure_reason: Optional[str] = None
    elapsed: float = 0.0
    cached: bool = False
    worker: str = "inproc"
    answers: Optional[List[list]] = None
    query: Optional[str] = None
    truncated: bool = False
    #: Per-job observability snapshot recorded by a *worker process*
    #: (:func:`repro.obs.metrics.snapshot`); None for in-process
    #: executions (their counters land in the parent registry
    #: directly) and for cache replays.  The scheduler merges non-None
    #: snapshots into the parent registry -- fleet-wide totals.
    metrics: Optional[dict] = None

    @property
    def ok(self) -> bool:
        """Did the job complete a chase run (any chase status)?"""
        return self.status not in (STATUS_KILLED, STATUS_ERROR)

    @property
    def terminated(self) -> bool:
        return self.status == ChaseStatus.TERMINATED.value

    @property
    def cacheable(self) -> bool:
        """May this result be served for an equal fingerprint later?
        Only deterministic chase outcomes qualify -- wall-clock aborts,
        kills and errors depend on timing, not content."""
        return self.status in _DETERMINISTIC_STATUSES

    def instance(self) -> Optional[Instance]:
        """Decode the final instance (None for killed/error jobs)."""
        if self.facts is None:
            return None
        return Instance(decode_atom(fact) for fact in self.facts)

    def to_dict(self) -> dict:
        return {
            "job": self.job, "fingerprint": self.fingerprint,
            "status": self.status, "steps": self.steps,
            "new_nulls": self.new_nulls, "facts": self.facts,
            "failure_reason": self.failure_reason,
            "elapsed": self.elapsed, "cached": self.cached,
            "worker": self.worker, "answers": self.answers,
            "query": self.query, "truncated": self.truncated,
            "metrics": self.metrics,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "JobResult":
        return cls(**payload)

    def describe(self) -> str:
        origin = "cache" if self.cached else self.worker
        reason = f" ({self.failure_reason})" if self.failure_reason else ""
        if self.answers is not None:
            prefix = "truncated-prefix " if self.truncated else ""
            return (f"{self.job}: {self.status} after {self.steps} steps, "
                    f"{len(self.answers)} {prefix}answers, "
                    f"{self.elapsed:.3f}s [{origin}]{reason}")
        return (f"{self.job}: {self.status} after {self.steps} steps, "
                f"{len(self.facts or [])} facts, {self.elapsed:.3f}s "
                f"[{origin}]{reason}")


EventCallback = Callable[[ProgressEvent], None]


def run_declared_chase(job: ChaseJob,
                       on_event: Optional[EventCallback] = None,
                       progress_every: int = 0):
    """Run the chase a job spec declares; returns
    ``(result, instance, sigma)``.

    The one place the spec knobs become a chase run -- backend
    rebuild, strategy resolution, progress-observer wiring, private
    :class:`NullFactory`, Section 4.2 monitor arming, budget
    passthrough -- so both job kinds get identical runner semantics
    for identical knobs.
    """
    sigma = list(job.sigma)
    instance = job.instance
    if job.backend and instance.backend != job.backend:
        instance = Instance(instance, backend=job.backend)
    strategy = resolve_strategy(job.strategy, sigma, max_k=job.max_k)
    observers = []
    if on_event is not None and progress_every > 0:
        def progress(step, working):
            if (step.index + 1) % progress_every == 0:
                on_event(ProgressEvent(
                    "progress", job.name,
                    {"steps": step.index + 1, "facts": len(working)},
                    fingerprint=job.fingerprint()))
        observers.append(progress)
    nulls = NullFactory()
    if job.cycle_limit > 0:
        result = monitored_chase(
            instance, sigma, job.cycle_limit, strategy=strategy,
            max_steps=job.max_steps, observers=observers,
            max_facts=job.max_facts, wall_clock=job.wall_clock,
            nulls=nulls).result
    else:
        result = chase(instance, sigma, strategy=strategy,
                       max_steps=job.max_steps, observers=observers,
                       max_facts=job.max_facts,
                       wall_clock=job.wall_clock, nulls=nulls)
    return result, instance, sigma


def execute_job(job: ChaseJob,
                on_event: Optional[EventCallback] = None,
                progress_every: int = 0,
                worker: str = "inproc") -> JobResult:
    """Run ``job`` in this process and return its wire-safe result.

    A chase job reports its encoded final instance; a query job passes
    the chase result through Section 5's answering step
    (:func:`repro.service.query.answer_query`) and reports its answers
    instead.

    Deterministic by construction: a private null factory (labels
    restart at 1 per job) plus seeded strategies mean the encoded
    result depends only on the job content *within one process tree*
    -- iteration orders (and hence which trigger gets which null
    label) depend on the interpreter's string-hash seed, which is why
    the worker pool forks its workers (inheriting the seed) instead of
    spawning them.  Across different seeds, results for equal
    fingerprints are still equal up to null renaming.  This is the
    invariant behind both the fingerprint cache (in-memory, so never
    shared across seeds) and the parallel-vs-sequential
    cross-validation tests.  Exceptions never propagate; they surface
    as ``status="error"`` results so one bad job cannot take down a
    batch (or a worker pool's collection loop).
    """
    started = time.perf_counter()
    fingerprint = job.fingerprint()
    try:
        result, instance, sigma = run_declared_chase(
            job, on_event=on_event, progress_every=progress_every)
        if job.query is None:
            outcome = {"new_nulls": result.new_null_count(),
                       "facts": encode_facts(result.instance),
                       "failure_reason": result.failure_reason}
        else:
            # Imported here: repro.service.query imports this module.
            from repro.service.query import answer_query
            outcome = answer_query(job, result, instance, sigma)
        return JobResult(
            job=job.name, fingerprint=fingerprint,
            status=result.status.value, steps=result.length,
            elapsed=time.perf_counter() - started, worker=worker,
            **outcome)
    except ReproError as exc:
        reason = str(exc)
    except Exception:                                 # noqa: BLE001
        reason = traceback.format_exc(limit=8)
    return JobResult(job=job.name, fingerprint=fingerprint,
                     status=STATUS_ERROR, failure_reason=reason,
                     elapsed=time.perf_counter() - started, worker=worker)


def execute_any(job: ChaseJob, on_event: Optional[EventCallback] = None,
                progress_every: int = 0, worker: str = "inproc"
                ) -> JobResult:
    """:func:`execute_job` inside the job's trace.

    The pool's worker loop and its in-process path both run jobs
    through here.  With a tracer active, the job fingerprint is the
    trace id: every span of this execution -- chase, steps, searches
    -- groups under it, so a multi-worker batch's interleaved records
    attribute per job.
    """
    tracer = _trace.active()
    if tracer is None:
        return execute_job(job, on_event=on_event,
                           progress_every=progress_every, worker=worker)
    with tracer.trace_context(job.fingerprint()):
        span = tracer.start("job", job=job.name, kind=job.kind)
        result = execute_job(job, on_event=on_event,
                             progress_every=progress_every, worker=worker)
        tracer.finish(span, status=result.status, steps=result.steps)
    return result
