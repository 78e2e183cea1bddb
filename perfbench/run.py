#!/usr/bin/env python3
"""End-to-end benchmark of the chase service, attributed by layer.

Usage, from the repository root::

    python3 perfbench/run.py --workload exchange --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 35

Workloads (``workloads.py``): ``exchange`` and ``answer`` drive
``ServiceSession.handle_line``; ``gateway`` drives ``repro serve
--http --workers 2`` over two keep-alive connections.  A run sends its
timed sequence several times ("rounds"), each from a fresh set-up (a
fresh interpreter, or a fresh server).  Every timing is normalized to
a reference CPU speed (``speed.py``) and the rounds are summarized by
medians (see :func:`end_to_end`).  Every reply is checked against an
outcome computed independently of the program (``bibgen.py``).  The
last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics`` -- the end-to-end metrics
with ``--trace 0``, the per-layer metrics (``layers.py``) with
``--trace 1``.
``--workload all`` runs every workload in turn and prints each metric
by name with its unit.

The program is loaded from ``src/`` next to this directory; without
it the benchmark exits non-zero and prints no result.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

import bibgen as B           # noqa: E402
import speed                 # noqa: E402
import workloads as W        # noqa: E402
from layers import LAYERS, percentile, vm_hwm_mb  # noqa: E402

#: In-process rounds a traced run times, untraced and traced.
TRACED_ROUNDS = 3
#: A run that has not finished by then gives up (exit code non-zero).
RUN_DEADLINE_S = 175

END_TO_END = {"throughput_jobs_s": "1/s", "latency_p50_ms": "ms",
              "latency_tail_ms": "ms", "peak_rss_mb": "MiB", "setup_s": "s"}


def tail_percentile(count: int) -> int:
    """The highest of p99/p90/p50 with at least ten samples beyond."""
    for q in (99, 90):
        if count * (100 - q) / 100 >= 10:
            return q
    return 50


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


# ----------------------------------------------------------------------
# In-process workloads: one fresh interpreter per round
# ----------------------------------------------------------------------
def run_round(args) -> dict:
    """Body of a child interpreter: set up, run the timed sequence
    once, report raw measurements as JSON."""
    sys.path.insert(0, SRC)
    plan = W.BUILDERS[args.workload](args.seed, args.seconds)
    # Each round sends the sequence in its own order.  The collector's
    # full collections (40-150 ms on exchange, about one per ten
    # requests) land on requests fixed by the order, and with one order
    # for every round they, not the program's own work, set each seed's
    # p90.
    timed = list(plan.timed)
    B.rng_for("round", args.seed, args.round).shuffle(timed)
    if args.backend:
        timed = [W.Request(json.dumps(dict(json.loads(r.line),
                                           backend=args.backend),
                                      sort_keys=True), r.expected, r.label)
                 for r in timed]
    from repro.obs import metrics
    from repro.service.dispatch import ServiceSession
    from repro.service.scheduler import BatchScheduler
    import layers
    recorder = layers.Recorder() if args.trace else None
    if recorder is not None:
        layers.install(recorder)
        metrics.enable()
    failures = []

    def serve(index, request):
        if recorder is None:
            started = time.perf_counter()
            reply = session.handle_line(request.line)
            json.dumps(reply, sort_keys=True)
            latency = time.perf_counter() - started
        else:
            recorder.request = index
            root = recorder.open("request")
            reply = session.handle_line(request.line)
            encode = recorder.open("serialize.encode")
            json.dumps(reply, sort_keys=True)
            recorder.close(encode)
            recorder.close(root)
            latency = root[2] - root[1]
        problems = B.check_reply(reply, request.expected)
        if problems:
            failures.append({"request": index, "label": request.label,
                             "problems": problems[:3]})
        return latency

    speed.pin()
    gc.collect()
    setup = speed.Segments(speed.mixed_unit)
    scheduler = BatchScheduler(workers=1)
    session = ServiceSession(scheduler)
    setup.mark()
    for index, request in enumerate(plan.warmup):
        serve(f"warm:{request.label}:{index}", request)
        setup.mark()
    warmup_failed = len(failures)
    stats_before = session.handle_line('{"kind": "stats"}')
    gc.collect()
    unwatch = recorder.watch_gc() if recorder is not None else None
    # Each request is bracketed by reference-unit samples (speed.py).
    measured = []
    unit = speed.sample(speed.mixed_unit)
    for index, request in enumerate(timed):
        latency = serve(index, request)
        after = speed.sample(speed.mixed_unit)
        measured.append((latency, unit, after))
        unit = after
    if unwatch is not None:
        unwatch()
    stats_after = session.handle_line('{"kind": "stats"}')
    out = {"setup": setup.items, "warmup": len(plan.warmup),
           "warmup_failed": warmup_failed, "requests": measured,
           "failures": failures[warmup_failed:],
           "peak_rss_mb": vm_hwm_mb(), "stats": [stats_before, stats_after],
           "describe": plan.describe}
    if recorder is not None:
        pause, gen2 = layers.gc_totals(recorder.gc_events)
        out.update(spans=recorder.spans, gc_pause_s=pause, gc_gen2=gen2)
    scheduler.close()
    return out


def spawn_round(args, number: int, trace: int = 0,
                backend: str = "") -> dict:
    command = [sys.executable, os.path.abspath(__file__),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(trace),
               "--round", str(number)]
    if backend:
        command += ["--backend", backend]
    done = subprocess.run(command, cwd=ROOT, env=child_env(),
                          stdout=subprocess.PIPE)
    if done.returncode != 0:
        raise SystemExit(f"round {number} of {args.workload} exited with "
                         f"code {done.returncode}")
    run = json.loads(done.stdout.decode().splitlines()[-1])
    return timing(run, [(latency, speed.scale(before, after))
                        for latency, before, after in run["requests"]],
                  run["requests"])


def timing(run: dict, scaled, segments) -> dict:
    """Add a round's timings to ``run``: ``latencies`` and ``wall`` as
    measured, ``latencies_ref``, ``wall_ref`` and ``setup_s`` in
    seconds at the reference speed (``speed.py``), ``unit_s`` the
    median reference unit.  ``scaled`` pairs each latency with its
    factor; ``segments`` are the timed phase's ``(wall, unit before,
    unit after)``."""
    wall = sum(segment[0] for segment in segments)
    wall_ref = speed.normalized(segments)
    run["unit_s"] = statistics.median(segment[1] for segment in segments)
    run["latencies"] = [latency for latency, _ in scaled]
    run["latencies_ref"] = [latency * factor for latency, factor in scaled]
    run["wall"], run["wall_ref"] = wall, wall_ref
    run["setup_s"] = speed.normalized(run["setup"])
    run["setup_raw_s"] = sum(wall for wall, _, _ in run["setup"])
    return run


def inprocess(args) -> dict:
    """Every round in a fresh interpreter.  With ``--trace 1``, the
    first ``TRACED_ROUNDS`` rounds, then the same rounds with the layer
    wrappers, then round 0 replayed on the column backend."""
    numbers = range(W.ROUNDS[args.workload])
    if args.trace:
        numbers = range(min(TRACED_ROUNDS, len(numbers)))
    rounds = [spawn_round(args, number) for number in numbers]
    result = {"rounds": rounds, "describe": rounds[0]["describe"]}
    if args.trace:
        result["traced"] = [spawn_round(args, number, trace=1)
                            for number in numbers]
        result["replay"] = spawn_round(args, 0, trace=1, backend="column")
    return result


# ----------------------------------------------------------------------
# The gateway workload: the benchmark process is the HTTP client
# ----------------------------------------------------------------------
def gateway(args) -> dict:
    """Every round on a fresh server.  With ``--trace 1``, one round
    untraced and one on a server launched with the layer wrappers.
    The benchmark pins itself to one CPU first; the server and its
    workers inherit it."""
    import gateway as G
    import layers
    speed.pin()
    plan = W.gateway(args.seed, args.seconds)
    result = {"describe": plan.describe, "rounds": []}
    count = 1 if args.trace else W.ROUNDS["gateway"]
    for number in range(count + args.trace):
        traced = number == count
        with G.Gateway(ROOT, child_env(), traced=traced) as server:
            warm_failures = server.warm_up(plan)
            stats_before = server.stats() if traced else None
            records, blocks = server.drive(plan.timed, block=G.BLOCK)
            peak = server.peak_rss_mb()
            stats_after = server.stats() if traced else None
            server.stop()
            dump = server.spans() if traced else None
        run = {"records": records, "setup": server.setup,
               "peak_rss_mb": peak, "warmup_failed": len(warm_failures),
               "warmup": len(plan.warmup) + len(plan.spawn) + len(plan.fill),
               "failures": [
                   {"request": index, "label": request.label,
                    "problems": problems[:3]}
                   for index, (request, record)
                   in enumerate(zip(plan.timed, records))
                   for problems in [G.check_record(record, request.expected)]
                   if problems]}
        factors = [speed.scale(before, after) for _, before, after in blocks]
        timing(run, [(record["latency"], factors[record["block"]])
                     for record in records], blocks)
        if not traced:
            result["rounds"].append(run)
            continue
        pause, gen2 = layers.gc_totals(dump["gc_events"], *server.phase)
        run.update(spans=dump["spans"], phase=server.phase,
                   stats=[stats_before, stats_after], gc_pause_s=pause,
                   gc_gen2=gen2)
        result["traced"] = run
    return result


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
def round_metrics(run: dict, measured: bool = False) -> dict:
    """Throughput, median and tail latency of one round, at the
    reference speed (or as measured)."""
    latencies = run["latencies" if measured else "latencies_ref"]
    q = tail_percentile(len(latencies))
    return {"throughput_jobs_s": len(latencies)
            / run["wall" if measured else "wall_ref"],
            "latency_p50_ms": 1000 * statistics.median(latencies),
            "latency_tail_ms": 1000 * percentile(latencies, q)}


def end_to_end(raw: dict) -> dict:
    """The median over the rounds of every metric; throughput and
    latency at the reference speed (``speed.py``)."""
    per_round = [dict(round_metrics(run), peak_rss_mb=run["peak_rss_mb"],
                      setup_s=run["setup_s"]) for run in raw["rounds"]]
    return {name: statistics.median(figures[name] for figures in per_round)
            for name in END_TO_END}


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _stats_delta(pairs, read) -> float:
    """Sum over ``(before, after)`` stats replies of ``read(after) -
    read(before)``."""
    return sum(read(after or {}) - read(before or {})
               for before, after in pairs)


def _counter(name: str):
    return lambda reply: (reply.get("metrics", {}).get("counters", {})
                          .get(name, 0))


def _cache(field: str):
    return lambda reply: (reply.get("cache", {}).get("results", {})
                          .get(field, 0))


def _analysis(spans) -> dict:
    """Seconds in ``termination.analyze`` per warm-up mapping of one
    in-process round, and in total."""
    out = {mapping: 0.0 for mapping in B.MAPPINGS}
    out["total"] = 0.0
    for span in spans:
        if span[0] != "termination.analyze":
            continue
        out["total"] += span[2] - span[1]
        label = span[4].split(":")[1] if isinstance(span[4], str) else ""
        if label in B.MAPPINGS:
            out[label] += span[2] - span[1]
    return out


def _chase_self(summary: dict) -> float:
    """Chase and storage self time over the timed requests."""
    return sum(bucket.get("chase.run", 0.0)
               + bucket.get("storage.substitute", 0.0)
               for key, bucket in summary["per_request"].items()
               if isinstance(key, int))


def per_layer(workload: str, raw: dict) -> dict:
    import layers
    in_process = workload != "gateway"
    if in_process:
        rounds = raw["traced"]
        dumps, offset = [], 0
        for run in rounds:
            dumps.append((run["spans"], offset))
            offset += len(run["latencies"])
        spans = layers.merge(dumps)
        stats = [run["stats"] for run in rounds]
        gc_pause = sum(run["gc_pause_s"] for run in rounds)
        gc_gen2 = sum(run["gc_gen2"] for run in rounds)
        analysis = [_analysis(run["spans"]) for run in rounds]
        timed = layers.summarize(spans, lambda s: isinstance(s[4], int))
    else:
        traced = raw["traced"]
        rounds = [traced]
        spans = traced["spans"]
        stats = [traced["stats"]]
        gc_pause, gc_gen2 = traced["gc_pause_s"], traced["gc_gen2"]
        analysis = [{"total": sum(span[2] - span[1] for span in spans
                                  if span[0] == "termination.analyze")}]
        # Gateway spans come from several processes and threads and
        # carry no request id: keep those inside the timed phase.
        start, end = traced["phase"]
        timed = layers.summarize(spans,
                                 lambda s: s[1] >= start and s[2] <= end)
    latencies = [value for run in rounds for value in run["latencies"]]
    requests = len(latencies)

    def p50_ms(name):
        """In process: the median over requests that reach the layer
        of its self time per request.  Gateway: self time per request
        (total / requests), since its spans carry no request id."""
        if not in_process:
            return 1000 * sum(timed["calls"].get(name, ())) / requests
        values = [bucket[name] for bucket in timed["per_request"].values()
                  if name in bucket]
        return 1000 * statistics.median(values) if values else 0.0

    def layer_self(layer):
        return sum(sum(values) for name, values in timed["calls"].items()
                   if name.split(".")[0] == layer)

    total_latency = sum(latencies)
    counts = timed["counts"]
    hits = _stats_delta(stats, _cache("hits"))
    misses = _stats_delta(stats, _cache("misses"))
    order_hits = sum(_stats_delta(stats, _counter(f"plan.order_cache.{name}"))
                     for name in ("hits", "revalidated"))
    order_all = order_hits + sum(
        _stats_delta(stats, _counter(f"plan.order_cache.{name}"))
        for name in ("misses", "invalidations"))
    chase_s = timed["inclusive"].get("chase.run", 0.0)
    metrics = {
        "lang.parse_ms": p50_ms("lang.parse"),
        "jobs.fingerprint_ms": p50_ms("jobs.fingerprint"),
        "jobs.fingerprints_per_request": counts["fingerprints"] / requests,
        "termination.analyze_s": statistics.median(
            entry["total"] for entry in analysis),
        "scheduler.plan_ms": p50_ms("scheduler.plan"),
        "scheduler.plans_per_request": counts["plans"] / requests,
        "cache.result_hit_ratio": _ratio(hits, hits + misses),
        "cache.result_evictions": _stats_delta(stats, _cache("evictions")),
        "chase.run_s": chase_s,
        "chase.steps": counts["chase_steps"],
        "chase.steps_per_s": _ratio(counts["chase_steps"], chase_s),
        "triggers.fired_per_expanded": _ratio(
            _stats_delta(stats, _counter("chase.triggers_fired")),
            _stats_delta(stats, _counter("triggers.backlog_expanded"))),
        "storage.substitute_s": timed["inclusive"].get(
            "storage.substitute", 0.0),
        "storage.facts_rewritten": counts["facts_rewritten"],
        "storage.alt_backend_ratio": 0.0,
        "homomorphism.order_cache_hit_ratio": _ratio(order_hits, order_all),
        "kb.optimize_ms": p50_ms("kb.optimize"),
        "cq.evaluate_ms": p50_ms("cq.evaluate"),
        "kb.depth_bounded_ms": p50_ms("kb.depth_bounded"),
        "serialize.encode_ms": p50_ms("serialize.encode"),
        "pool.worker_share": 0.0,
        "pool.dispatch_wait_ms": 0.0,
        "http.overhead_ms": 0.0,
        "http.overhead_tail_ms": 0.0,
        "http.fastpath_ratio": 0.0,
        "runtime.gc_pause_s": gc_pause,
        "runtime.gc_gen2": gc_gen2,
    }
    for mapping in B.MAPPINGS:
        metrics[f"termination.analyze_s.{mapping}"] = statistics.median(
            entry.get(mapping, 0.0) for entry in analysis)
    covered = 0.0
    for layer in LAYERS:
        share = _ratio(layer_self(layer), total_latency)
        metrics[f"share.{layer}"] = share
        covered += share
    metrics["unattributed_share"] = max(0.0, 1.0 - covered)
    untraced = statistics.fmean(run["wall_ref"] for run in raw["rounds"])
    traced_wall = statistics.fmean(run["wall_ref"] for run in rounds)
    metrics["trace.overhead_ratio"] = traced_wall / untraced - 1.0
    metrics["host.unit_ms"] = 1000 * statistics.median(
        run["unit_s"] for run in rounds)
    if in_process:
        metrics["storage.alt_backend_ratio"] = _ratio(
            _chase_self(layers.summarize(raw["replay"]["spans"])),
            _chase_self(layers.summarize(rounds[0]["spans"])))
    else:
        import gateway as G
        metrics.update(G.layer_metrics(traced["records"], traced["stats"],
                                       tail_percentile(requests)))
    return metrics


def report(args, raw: dict) -> dict:
    runs = list(raw["rounds"])
    if args.trace:
        traced = raw["traced"]
        runs += traced if isinstance(traced, list) else [traced]
        runs += [raw["replay"]] if "replay" in raw else []
    failures = []
    attempted = 0
    for run in runs:
        attempted += len(run["latencies"]) + run["warmup"]
        failures += run["failures"]
    failed = len(failures) + sum(run.get("warmup_failed", 0)
                                 for run in runs)
    for failure in failures[:5]:
        print(f"reply check failed: {json.dumps(failure)}", file=sys.stderr)
    if args.trace:
        values = per_layer(args.workload, raw)
        units = LAYER_UNITS
    else:
        values = end_to_end(raw)
        units = END_TO_END
    count = len(raw["rounds"][0]["latencies"])
    print(f"{args.workload}: {len(raw['rounds'])} rounds of the same {count} "
          f"requests, tail percentile p{tail_percentile(count)}, "
          f"{json.dumps(raw['describe'])}", file=sys.stderr)
    for number, run in enumerate(raw["rounds"]):
        measured = round_metrics(run, measured=True)
        figures = ", ".join(
            f"{name} {value:.4g} (measured {measured[name]:.4g})"
            for name, value in round_metrics(run).items())
        print(f"  round {number}: {figures}, setup_s {run['setup_s']:.4g} "
              f"(measured {run['setup_raw_s']:.4g}), reference unit "
              f"{1000 * run['unit_s']:.3f} ms", file=sys.stderr)
    return {"correct": failed == 0, "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": values[name], "unit": units[name]}
                        for name in units}}


LAYER_UNITS = {
    "lang.parse_ms": "ms", "jobs.fingerprint_ms": "ms",
    "jobs.fingerprints_per_request": "count",
    "termination.analyze_s": "s",
    **{f"termination.analyze_s.{m}": "s" for m in B.MAPPINGS},
    "scheduler.plan_ms": "ms", "scheduler.plans_per_request": "count",
    "cache.result_hit_ratio": "ratio", "cache.result_evictions": "count",
    "chase.run_s": "s", "chase.steps": "count", "chase.steps_per_s": "1/s",
    "triggers.fired_per_expanded": "ratio", "storage.substitute_s": "s",
    "storage.facts_rewritten": "count", "storage.alt_backend_ratio": "ratio",
    "homomorphism.order_cache_hit_ratio": "ratio", "kb.optimize_ms": "ms",
    "cq.evaluate_ms": "ms", "kb.depth_bounded_ms": "ms",
    "serialize.encode_ms": "ms", "pool.worker_share": "ratio",
    "pool.dispatch_wait_ms": "ms", "http.overhead_ms": "ms",
    "http.overhead_tail_ms": "ms", "http.fastpath_ratio": "ratio",
    "runtime.gc_pause_s": "s", "runtime.gc_gen2": "count",
    **{f"share.{layer}": "ratio" for layer in LAYERS},
    "unattributed_share": "ratio", "trace.overhead_ratio": "ratio",
    "host.unit_ms": "ms",
}


def run_all(args) -> int:
    """Every workload in a fresh interpreter; a table of metrics."""
    ok = True
    for workload in W.BUILDERS:
        command = [sys.executable, os.path.abspath(__file__),
                   "--workload", workload, "--seed", str(args.seed),
                   "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
        done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE)
        lines = done.stdout.decode().splitlines()
        if done.returncode != 0 or not lines:
            print(f"{workload}: FAILED (exit code {done.returncode})")
            ok = False
            continue
        result = json.loads(lines[-1])
        ok = ok and result["correct"]
        print(f"{workload}: correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']}")
        for name, metric in result["metrics"].items():
            print(f"  {name:<38} {metric['value']:>14.4f} {metric['unit']}")
    return 0 if ok else 1


def _give_up(signum, frame) -> None:
    # Raised in the main thread: unwinding stops the gateway and kills
    # running children (subprocess.run kills on exceptions).
    raise TimeoutError(f"run exceeded {RUN_DEADLINE_S} s")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(W.BUILDERS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--round", type=int, help=argparse.SUPPRESS)
    parser.add_argument("--backend", default="", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    if args.round is not None:
        print(json.dumps(run_round(args)))
        return 0
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"no program sources under {SRC}", file=sys.stderr)
        return 2
    signal.signal(signal.SIGALRM, _give_up)
    signal.alarm(RUN_DEADLINE_S)
    raw = gateway(args) if args.workload == "gateway" else inprocess(args)
    print(json.dumps(report(args, raw)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
