"""Command-line interface: ``python -m repro <command> ...``.

Commands
--------
``analyze FILE``
    Classify the constraints in FILE against every Figure 1 condition.
``chase FILE --instance FILE2``
    Chase an instance, with optional monitor guard and strategy.
``graph FILE --kind dep|prop|chase|cchase``
    Emit the corresponding graph as Graphviz DOT.
``optimize FILE --query 'ans(x) <- ...'``
    Run the Section 4 SQO pipeline on a query.
``batch DIR``
    Run every ``*.json`` job under DIR (chase *or* query specs)
    through the batch scheduler (parallel workers, fingerprint cache,
    budget caps).
``serve``
    Line-oriented service loop: one job JSON per stdin line, one
    result JSON per stdout line, with a warm cache across requests.
``query SPEC | query FILE --instance FILE2 --query '...'``
    Certain answers of a conjunctive query over a knowledge base
    (Section 5), served through the same scheduler/cache/pool: SPEC
    is a query-job JSON file (or a directory of them, see
    ``examples/queries/``), or pass a constraints file plus
    ``--instance``/``--query`` inline.
``fuzz --seed S --cases N``
    Adversarial metamorphic fuzzing (:mod:`repro.fuzz`): seeded random
    constraint sets/instances/queries checked against the Figure 1
    hierarchy, engine/service parity and answer invariance;
    failures are delta-debugged and written to ``examples/repros/`` as
    job specs replayable with ``repro batch``.
``stats FILE``
    Pretty-print a metrics snapshot (from ``--metrics-json`` or the
    serve loop's ``{"kind": "stats"}`` request); ``--prometheus``
    emits text exposition format instead.

``chase``, ``batch``, ``serve`` and ``query`` all accept
``--metrics`` (print fleet-wide counters to stderr on exit),
``--metrics-json FILE`` (write the final snapshot as JSON),
``--trace FILE`` (write NDJSON span records) and ``--trace-sample N``
(record step-level spans every Nth step); see :mod:`repro.obs`.

Constraint files use the library's text format (see
:mod:`repro.lang.parser`), e.g.::

    a1: S(x), E(x,y) -> E(y,x)
    a2: S(x), E(x,y) -> E(y,z), E(z,x)
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.chase import chase, ChaseStatus
from repro.cq import optimize
from repro.datadep import monitored_chase
from repro.lang.errors import NonTerminationBudget, ReproError
from repro.lang.parser import (parse_constraints, parse_instance,
                               parse_query)
from repro.termination import analyze
from repro import viz


def _load_constraints(path: str):
    return parse_constraints(Path(path).read_text())


class _Observability:
    """Per-invocation observability scope for the CLI commands.

    Enables the metrics registry when ``--metrics``/``--metrics-json``
    ask for it, installs an NDJSON file tracer for ``--trace``, and on
    exit writes/prints the final snapshot and restores global state
    (so ``main()`` stays re-entrant for tests).
    """

    def __init__(self, args) -> None:
        self.metrics_json = getattr(args, "metrics_json", None)
        self.print_metrics = bool(getattr(args, "metrics", False))
        self.want_metrics = self.print_metrics or bool(self.metrics_json)
        self.trace_path = getattr(args, "trace", None)
        self.sample = max(1, getattr(args, "trace_sample", 1) or 1)
        self._handle = None
        self._previous_tracer = None
        self._previous_enabled = None

    def __enter__(self) -> "_Observability":
        from repro.obs import metrics, trace
        self._previous_enabled = metrics.OBS.enabled
        if self.want_metrics:
            metrics.enable()
        if self.trace_path:
            self._handle = open(self.trace_path, "w")
            tracer = trace.Tracer(trace.ndjson_writer(self._handle),
                                  sample=self.sample)
            self._previous_tracer = trace.set_tracer(tracer)
        return self

    def __exit__(self, *exc_info) -> None:
        import json as _json
        from repro.obs import metrics, trace
        if self.trace_path:
            trace.set_tracer(self._previous_tracer)
            self._handle.close()
        if self.want_metrics:
            snap = metrics.snapshot()
            if self.metrics_json:
                Path(self.metrics_json).write_text(
                    _json.dumps(snap, sort_keys=True, indent=2) + "\n")
            if self.print_metrics:
                print(metrics.render_text(snap), file=sys.stderr)
        metrics.OBS.enabled = self._previous_enabled


def cmd_analyze(args) -> int:
    sigma = _load_constraints(args.constraints)
    report = analyze(sigma, max_k=args.max_k)
    print(report.render())
    return 0 if report.guarantees_some_sequence else 1


def cmd_chase(args) -> int:
    sigma = _load_constraints(args.constraints)
    instance = parse_instance(Path(args.instance).read_text())
    with _Observability(args):
        if args.cycle_limit:
            result = monitored_chase(instance, sigma, args.cycle_limit,
                                     max_steps=args.max_steps).result
        else:
            result = chase(instance, sigma, max_steps=args.max_steps)
        print(f"status: {result.status.value} "
              f"({len(result.sequence)} steps)")
        print(result.instance.render())
    return 0 if result.status is ChaseStatus.TERMINATED else 1


def _load_jobs(path: Path):
    from repro.service import job_from_path
    if path.is_dir():
        job_files = sorted(path.glob("*.json"))
        if not job_files:
            raise ReproError(f"no *.json job files under {path}")
    elif path.exists():
        job_files = [path]
    else:
        raise ReproError(f"no such job file or directory: {path}")
    return [job_from_path(job_file) for job_file in job_files]


def _make_scheduler(args, workers: int):
    from repro.service import BatchScheduler, ServiceCache
    on_event = None
    if getattr(args, "events", False):
        def on_event(event):
            print(event.render(), file=sys.stderr)
    cache = ServiceCache(result_size=0 if args.no_cache else 256)
    return BatchScheduler(workers=workers, cache=cache, on_event=on_event,
                          unknown_step_cap=args.step_cap,
                          default_hard_timeout=args.hard_timeout,
                          progress_every=args.progress_every)


def _run_jobs(args, jobs, command: str) -> int:
    """Run ``jobs`` through the scheduler and print their results --
    the one runner behind ``repro batch`` and ``repro query``.

    Text output is one line per job, plus the evaluated query and the
    answer rows of query jobs; ``--json`` prints one result JSON per
    line instead.  A summary goes to stderr.
    """
    import json as _json
    from repro.service.serialize import decode_term
    with _Observability(args):
        scheduler = _make_scheduler(args, workers=args.workers)
        try:
            results = scheduler.run_batch(jobs)
        finally:
            scheduler.close()
    for result in results:
        if args.json:
            print(_json.dumps(result.to_dict(), sort_keys=True))
            continue
        print(result.describe())
        if result.query:
            print(f"  evaluated: {result.query}")
        for row in result.answers or []:
            rendered = ", ".join(str(decode_term(term)) for term in row)
            print(f"  ({rendered})")
    completed = sum(1 for r in results if r.ok)
    cached = sum(1 for r in results if r.cached)
    terminated = sum(1 for r in results if r.terminated)
    print(f"{command}: {len(results)} jobs, {completed} completed "
          f"({terminated} terminated), {cached} from cache, "
          f"{len(results) - completed} killed/errored", file=sys.stderr)
    return 0 if completed == len(results) else 1


def cmd_batch(args) -> int:
    return _run_jobs(args, _load_jobs(Path(args.jobs)), "batch")


def cmd_serve(args) -> int:
    """Serve job requests over NDJSON stdin or HTTP (``--http``).

    Both transports interpret requests through the same
    :class:`~repro.service.dispatch.ServiceSession` dispatch table, so
    their semantics cannot drift; the NDJSON loop (one job JSON per
    input line -> one result JSON per output line, ``quit`` or EOF
    ends the session) is the transport-free reference.  Either way the
    session keeps a warm fingerprint cache for its whole lifetime, so
    repeated requests are answered without re-chasing.
    """
    import json as _json
    from repro.service.dispatch import ServiceSession
    with _Observability(args):
        scheduler = _make_scheduler(args, workers=args.workers)
        session = ServiceSession(
            scheduler, request_wall_clock=args.request_wall_clock)
        try:
            if getattr(args, "http", False):
                from repro.service.http import serve_http
                return serve_http(session, host=args.host,
                                  port=args.port,
                                  queue_bound=args.queue_bound,
                                  max_body=args.max_body,
                                  allow_shutdown=args.shutdown_endpoint)
            for line in sys.stdin:
                if line.strip() in ("quit", "exit"):
                    break
                payload = session.handle_line(line)
                if payload is None:          # blank line
                    continue
                print(_json.dumps(payload, sort_keys=True), flush=True)
        finally:
            scheduler.close()
    return 0


def cmd_query(args) -> int:
    """Serve certain-answer query jobs through the batch machinery.

    The positional argument is either a query-job JSON spec (or a
    directory of specs) or a constraints file combined with
    ``--instance`` and ``--query``.  Either way the jobs run through
    the scheduler -- termination-aware planning, fingerprint cache,
    worker pool -- exactly like ``repro batch``.
    """
    from repro.service import ChaseJob
    path = Path(args.spec)
    if path.is_dir() or path.suffix == ".json":
        jobs = _load_jobs(path)
        not_queries = [job.name for job in jobs if job.kind != "query"]
        if not_queries:
            raise ReproError("not query-job specs (no 'query' field): "
                             + ", ".join(not_queries))
    else:
        if not args.query or not args.instance:
            raise ReproError("--instance and --query are required when "
                             "the positional argument is a constraints "
                             "file (pass a .json spec otherwise)")
        instance = parse_instance(Path(args.instance).read_text())
        jobs = [ChaseJob(
            name=path.stem, sigma=tuple(_load_constraints(args.spec)),
            instance=instance, query=parse_query(args.query),
            max_steps=args.max_steps,
            cycle_limit=args.cycle_limit,
            optimize=not args.no_optimize, depth_limit=args.depth_limit)]
    return _run_jobs(args, jobs, "query")


def cmd_fuzz(args) -> int:
    """Run the adversarial metamorphic fuzzer (see :mod:`repro.fuzz`).

    Fully deterministic per ``(--seed, --cases)``: the corpus, every
    verdict, every skip and every minimized repro spec replay
    identically under any hash seed and at any machine speed.  Counts
    bound the work, never clocks: ``--max-steps`` bounds each chase
    and the precedence oracle's node budget each termination analysis.
    Violations are shrunk and written to ``--repro-dir`` as job specs
    replayable with ``repro batch``.
    """
    import json as _json
    from repro.fuzz import run_corpus
    on_case = None
    if args.events:
        def on_case(case):
            print(case.describe(), file=sys.stderr)
    report = run_corpus(
        args.seed, args.cases,
        max_steps=args.max_steps,
        deep_hierarchy_every=args.deep_every,
        pool_every=args.pool_every,
        repro_dir=args.repro_dir,
        shrink=not args.no_shrink,
        on_case=on_case)
    if args.json:
        print(_json.dumps(report.to_dict(), sort_keys=True))
    else:
        print(report.render())
    return 0 if report.ok else 1


def cmd_graph(args) -> int:
    sigma = _load_constraints(args.constraints)
    if args.kind == "dep":
        from repro.termination.dependency_graph import dependency_graph
        print(viz.position_graph_to_dot(dependency_graph(sigma), "dep"))
    elif args.kind == "prop":
        from repro.termination.safety import propagation_graph
        print(viz.position_graph_to_dot(propagation_graph(sigma), "prop"))
    elif args.kind == "chase":
        from repro.termination.chase_graph import chase_graph
        print(viz.constraint_graph_to_dot(chase_graph(sigma), "chase"))
    else:
        from repro.termination.chase_graph import c_chase_graph
        print(viz.constraint_graph_to_dot(c_chase_graph(sigma), "cchase"))
    return 0


def cmd_optimize(args) -> int:
    sigma = _load_constraints(args.constraints)
    query = parse_query(args.query)
    try:
        result = optimize(query, sigma, cycle_limit=args.cycle_limit)
    except NonTerminationBudget as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 1
    print(f"universal plan: {result.universal_plan}")
    for rewriting in result.minimal_rewritings():
        print(f"minimal rewriting: {rewriting}")
    return 0


def cmd_stats(args) -> int:
    """Pretty-print a metrics snapshot (``--metrics-json`` output or a
    ``{"kind": "stats"}`` reply from ``repro serve``).

    ``-`` reads stdin, so a serve session can be piped straight
    through::

        echo '{"kind": "stats"}' | repro serve | repro stats -
    """
    import json as _json
    from repro.obs import metrics as _metrics
    raw = sys.stdin.read() if args.snapshot == "-" \
        else Path(args.snapshot).read_text()
    raw = raw.strip()
    if not raw:
        raise ReproError("empty snapshot input")
    # A serve session emits one JSON object per line; take the first
    # line that parses as a stats payload (or bare snapshot).
    snap = None
    for line in raw.splitlines():
        line = line.strip()
        if not line:
            continue
        try:
            payload = _json.loads(line)
        except ValueError:
            continue
        if not isinstance(payload, dict):
            continue
        if payload.get("kind") == "stats":
            snap = payload.get("metrics", {})
            break
        if "counters" in payload or "gauges" in payload \
                or "histograms" in payload:
            snap = payload
            break
    if snap is None:
        # Multi-line pretty-printed snapshot (``--metrics-json``).
        try:
            payload = _json.loads(raw)
        except ValueError as exc:
            raise ReproError(f"not a metrics snapshot: {exc}")
        if isinstance(payload, dict) and payload.get("kind") == "stats":
            snap = payload.get("metrics", {})
        elif isinstance(payload, dict):
            snap = payload
        else:
            raise ReproError("not a metrics snapshot (expected a JSON "
                             "object)")
    renderer = _metrics.render_prometheus if args.prometheus \
        else _metrics.render_text
    print(renderer(snap))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Chase termination analysis "
                    "(Meier/Schmidt/Lausen, VLDB 2009)")
    sub = parser.add_subparsers(dest="command", required=True)

    def obs_options(p):
        p.add_argument("--metrics", action="store_true",
                       help="enable the metrics registry and dump the "
                            "final totals to stderr")
        p.add_argument("--metrics-json", metavar="FILE", default=None,
                       help="enable metrics and write the final "
                            "snapshot as JSON to FILE")
        p.add_argument("--trace", metavar="FILE", default=None,
                       help="write hierarchical spans as NDJSON to "
                            "FILE")
        p.add_argument("--trace-sample", type=int, default=1,
                       metavar="N",
                       help="with --trace: record only every Nth "
                            "step-granularity span (default 1 = all)")

    p = sub.add_parser("analyze", help="classify a constraint set")
    p.add_argument("constraints")
    p.add_argument("--max-k", type=int, default=3)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("chase", help="chase an instance")
    p.add_argument("constraints")
    p.add_argument("--instance", required=True)
    p.add_argument("--max-steps", type=int, default=10_000)
    p.add_argument("--cycle-limit", type=int, default=0,
                   help="arm the Section 4.2 monitor (0 = off)")
    obs_options(p)
    p.set_defaults(func=cmd_chase)

    p = sub.add_parser("fuzz",
                       help="adversarial metamorphic fuzzing of the "
                            "whole stack (the report is a function of "
                            "the seed; counts, not clocks, bound the "
                            "work)")
    p.add_argument("--seed", type=int, default=0,
                   help="corpus seed (same seed => same corpus, same "
                        "verdicts)")
    p.add_argument("--cases", type=int, default=200,
                   help="number of generated cases (default 200)")
    p.add_argument("--repro-dir", default="examples/repros",
                   help="where minimized failing cases are written as "
                        "replayable job specs (default examples/repros)")
    p.add_argument("--max-steps", type=int, default=250,
                   help="step budget per chase inside the oracles")
    p.add_argument("--deep-every", type=int, default=4, metavar="N",
                   help="probe the expensive hierarchy classes "
                        "(safely/inductively restricted, T[k]) every "
                        "Nth case (0 = never)")
    p.add_argument("--pool-every", type=int, default=25, metavar="N",
                   help="cross-check a real 2-worker pool every Nth "
                        "case (0 = never)")
    p.add_argument("--no-shrink", action="store_true",
                   help="write failing cases unminimized")
    p.add_argument("--events", action="store_true",
                   help="print each generated case to stderr")
    p.add_argument("--json", action="store_true",
                   help="emit the report as one JSON object")
    p.set_defaults(func=cmd_fuzz)

    p = sub.add_parser("graph", help="emit a graph as DOT")
    p.add_argument("constraints")
    p.add_argument("--kind", choices=["dep", "prop", "chase", "cchase"],
                   default="dep")
    p.set_defaults(func=cmd_graph)

    p = sub.add_parser("optimize", help="SQO pipeline for a query")
    p.add_argument("constraints")
    p.add_argument("--query", required=True)
    p.add_argument("--cycle-limit", type=int, default=3)
    p.set_defaults(func=cmd_optimize)

    def service_options(p):
        p.add_argument("--events", action="store_true",
                       help="stream progress events to stderr")
        p.add_argument("--progress-every", type=int, default=0,
                       metavar="N",
                       help="with --events: also emit a progress event "
                            "every N chase steps (0 = off)")
        p.add_argument("--no-cache", action="store_true",
                       help="disable the fingerprint result cache")
        p.add_argument("--step-cap", type=int, default=10_000,
                       help="step-budget cap for jobs whose termination "
                            "is unknown (default 10000)")
        p.add_argument("--hard-timeout", type=float, default=None,
                       help="kill deadline in seconds for jobs without "
                            "a wall_clock budget (default: never)")
        obs_options(p)

    p = sub.add_parser("batch",
                       help="run a directory of chase job files")
    p.add_argument("jobs", help="directory of *.json job files "
                                "(or a single job file)")
    p.add_argument("--workers", type=int, default=2)
    p.add_argument("--json", action="store_true",
                   help="emit one result JSON per line instead of text")
    service_options(p)
    p.set_defaults(func=cmd_batch)

    p = sub.add_parser("serve",
                       help="serve jobs from stdin (one JSON per line) "
                            "or over HTTP (--http)")
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--http", action="store_true",
                   help="serve over HTTP instead of NDJSON stdin")
    p.add_argument("--host", default="127.0.0.1",
                   help="bind address for --http (default 127.0.0.1)")
    p.add_argument("--port", type=int, default=8765,
                   help="bind port for --http (0 = ephemeral; the "
                        "bound port is announced on stdout as a "
                        '{"kind": "listening"} JSON line)')
    p.add_argument("--queue-bound", type=int, default=64,
                   help="pending-job queue bound for --http; submits "
                        "beyond it get 429 + Retry-After (default 64)")
    p.add_argument("--max-body", type=int, default=1024 * 1024,
                   help="request-body byte limit for --http; larger "
                        "payloads get 413 (default 1 MiB)")
    p.add_argument("--request-wall-clock", type=float, default=None,
                   metavar="SECONDS",
                   help="clamp every request's soft wall-clock budget "
                        "(both transports; over-budget requests come "
                        "back as structured partial results)")
    p.add_argument("--shutdown-endpoint", action="store_true",
                   help="with --http: enable POST /shutdown for a "
                        "graceful drain")
    service_options(p)
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser("query",
                       help="certain answers of a CQ over a knowledge "
                            "base (Section 5)")
    p.add_argument("spec", help="query-job JSON spec file or directory "
                                "(see examples/queries/), or a "
                                "constraints file with --instance/--query")
    p.add_argument("--instance", default=None,
                   help="instance file (with a constraints-file spec)")
    p.add_argument("--query", default=None,
                   help="query text, e.g. 'q(x) <- E(x, y)' "
                        "(with a constraints-file spec)")
    p.add_argument("--max-steps", type=int, default=10_000)
    p.add_argument("--cycle-limit", type=int, default=0,
                   help="arm the Section 4.2 monitor (0 = off)")
    p.add_argument("--no-optimize", action="store_true",
                   help="skip the Section 4 semantic optimization")
    p.add_argument("--depth-limit", type=int, default=None,
                   help="depth bound for the non-terminating fallback "
                        "(default: query-sized heuristic)")
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--json", action="store_true",
                   help="emit one result JSON per line instead of text")
    service_options(p)
    p.set_defaults(func=cmd_query)

    p = sub.add_parser("stats",
                       help="pretty-print a metrics snapshot "
                            "(--metrics-json file or a serve stats "
                            "reply; '-' reads stdin)")
    p.add_argument("snapshot", help="snapshot JSON file, or '-' for "
                                    "stdin")
    p.add_argument("--prometheus", action="store_true",
                   help="emit Prometheus text exposition instead of "
                        "the plain listing")
    p.set_defaults(func=cmd_stats)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ReproError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
