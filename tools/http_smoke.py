#!/usr/bin/env python
"""End-to-end smoke of ``repro serve --http`` (the CI http-smoke step).

Starts a real gateway subprocess on an ephemeral port, fires a
16-request mixed burst at it from concurrent threads through the
stdlib ``urllib`` client -- unique chase submits, query jobs,
cache-hitting repeats, a stats probe and deliberately malformed specs
-- then sends one body twice in sequence, validates the ``/stats``
reply against the schema downstream consumers rely on (check_trace-
style field checks) and drains the gateway through ``POST /shutdown``.

Checks enforced:

* every burst request gets the expected status (200 for jobs and
  probes, 400 + structured error body for the malformed ones);
* served results are byte-identical across cache hits and repeats;
* a body sent again is answered from the cache, replayed from the
  session's spec memo: the reply says ``cached: true``, carries the
  cold reply's ``facts``, ``answers``, ``status`` and ``steps`` (the
  stored text spliced into the body), and the ``specs`` compartment
  counts one more hit -- checked for a chase and a query body;
* ``/stats`` is a JSON object with ``kind == "stats"``, a ``metrics``
  object holding ``counters``/``gauges``/``histograms`` keyed by
  dotted metric names, a ``cache`` object with the ``results``,
  ``reports`` and ``specs`` compartments, each reporting its stored
  ``bytes`` next to its ``size``, and a ``gateway`` object with the
  queue/backpressure fields and the job history's ``records_bytes``;
* ``/stats`` content-negotiates Prometheus text exposition;
* graceful shutdown: the drain endpoint answers 202 and the server
  process exits 0.

Usage::

    python tools/http_smoke.py [--requests N] [--workers N]

Exit status 1 on any violation, 0 otherwise.
"""

import argparse
import json
import subprocess
import sys
import threading
import urllib.error
import urllib.request

BURST = 16

TERMINATING = "a1: S(x) -> E(x, y)"

STATS_METRIC_SECTIONS = ("counters", "gauges", "histograms")
CACHE_COMPARTMENTS = ("results", "reports", "specs")
CACHE_FIELDS = frozenset(("size", "bytes", "maxsize", "hits", "misses",
                          "evictions"))
GATEWAY_FIELDS = frozenset(("queue_depth", "queue_bound", "open_jobs",
                            "records", "records_bytes", "draining",
                            "workers_alive"))
#: What a warm reply must repeat of the cold one.
REPLAYED_FIELDS = ("facts", "answers", "status", "steps")


def http(base, method, path, payload=None, headers=None, timeout=60):
    """-> (status, headers, body_bytes); error statuses don't raise."""
    body = None if payload is None else json.dumps(payload).encode()
    request = urllib.request.Request(base + path, data=body,
                                     method=method,
                                     headers=headers or {})
    try:
        with urllib.request.urlopen(request, timeout=timeout) as reply:
            return reply.status, dict(reply.headers), reply.read()
    except urllib.error.HTTPError as error:
        return error.code, dict(error.headers), error.read()


def burst_worker(base, index, outcomes, errors):
    try:
        unique = {"name": f"smoke-{index}", "constraints": TERMINATING,
                  "instance": f"S(a{index}). S(b{index})."}
        kind = index % 4
        if kind == 0:        # unique chase, blocking
            status, _, body = http(base, "POST", "/jobs?wait=1", unique)
            expect = 200
        elif kind == 1:      # query job, blocking
            status, _, body = http(base, "POST", "/jobs?wait=1", {
                "name": f"smokeq-{index}", "constraints": TERMINATING,
                "instance": f"E(a{index}, b). S(a{index}).",
                "query": "q(x) <- E(x, y)"})
            expect = 200
        elif kind == 2:      # shared spec: cache hit or dedup
            status, _, body = http(base, "POST", "/jobs?wait=1", {
                "name": "smoke-shared", "constraints": TERMINATING,
                "instance": "S(shared)."})
            expect = 200
        else:                # malformed: structured 400
            status, _, body = http(base, "POST", "/jobs",
                                   {"kind": "chase", "name": "broken"})
            expect = 400
        reply = json.loads(body)
        if status != expect:
            errors.append(f"request {index}: status {status}, "
                          f"expected {expect}: {reply}")
        elif expect == 400:
            if reply.get("status") != "error" or "error" not in reply:
                errors.append(f"request {index}: unstructured 400 "
                              f"body {reply}")
        else:
            result = reply["result"]
            if result["status"] != "terminated":
                errors.append(f"request {index}: job ended "
                              f"{result['status']!r}")
            outcomes[index] = result
    except Exception as exc:                          # noqa: BLE001
        errors.append(f"request {index}: {type(exc).__name__}: {exc}")


def stats_reply(base):
    status, _, body = http(base, "GET", "/stats")
    return status, json.loads(body) if status == 200 else None


def check_replay(base, errors, payload):
    """One body twice in sequence: the repeat is replayed from the
    spec memo as a cache reply carrying the cold reply's outcome."""
    label = payload["name"]
    first = http(base, "POST", "/jobs?wait=1", payload)
    _, before = stats_reply(base)
    second = http(base, "POST", "/jobs?wait=1", payload)
    _, after = stats_reply(base)
    for send, (status, _, body) in (("first", first), ("second", second)):
        if status != 200:
            errors.append(f"{label}: {send} send got status {status}")
            return
    cold, warm = (json.loads(reply[2])["result"] for reply in (first, second))
    if warm.get("cached") is not True:
        errors.append(f"{label}: the repeated body was not answered "
                      "from the cache")
    for field in REPLAYED_FIELDS:
        if warm.get(field) != cold.get(field):
            errors.append(f"{label}: the warm reply's {field!r} differs "
                          "from the cold reply's")
    try:
        hits = [reply["cache"]["specs"]["hits"] for reply in (before, after)]
    except (KeyError, TypeError):
        errors.append(f"{label}: /stats shows no cache.specs hits")
        return
    if hits[1] != hits[0] + 1:
        errors.append(f"{label}: cache.specs hits went {hits[0]} -> "
                      f"{hits[1]}, expected one more")


def check_stats(base, errors):
    status, stats = stats_reply(base)
    if status != 200:
        errors.append(f"/stats: status {status}")
        return
    if stats.get("kind") != "stats":
        errors.append(f"/stats: kind {stats.get('kind')!r}")
    metrics = stats.get("metrics")
    if not isinstance(metrics, dict):
        errors.append("/stats: 'metrics' must be an object")
    else:
        for section in STATS_METRIC_SECTIONS:
            table = metrics.get(section)
            if not isinstance(table, dict):
                errors.append(f"/stats: metrics[{section!r}] must be "
                              "an object")
            elif not all(isinstance(name, str) and name
                         for name in table):
                errors.append(f"/stats: metrics[{section!r}] keys "
                              "must be dotted metric names")
        counters = metrics.get("counters", {})
        if "http.requests" not in counters:
            errors.append("/stats: counter 'http.requests' missing "
                          "(gateway not instrumented?)")
    cache = stats.get("cache")
    if not isinstance(cache, dict):
        errors.append("/stats: 'cache' must be an object")
    else:
        for compartment in CACHE_COMPARTMENTS:
            table = cache.get(compartment)
            if not isinstance(table, dict):
                errors.append(f"/stats: cache[{compartment!r}] must be "
                              "an object")
            elif CACHE_FIELDS - set(table):
                errors.append(f"/stats: cache[{compartment!r}] misses "
                              f"{sorted(CACHE_FIELDS - set(table))}")
            elif not (isinstance(table["bytes"], int)
                      and (table["bytes"] > 0) == (table["size"] > 0)):
                errors.append(f"/stats: cache[{compartment!r}] holds "
                              f"{table['size']} entries in "
                              f"{table['bytes']!r} bytes")
    gw = stats.get("gateway")
    if not isinstance(gw, dict):
        errors.append("/stats: 'gateway' must be an object")
    else:
        missing = GATEWAY_FIELDS - set(gw)
        if missing:
            errors.append(f"/stats: gateway misses {sorted(missing)}")
        elif not (isinstance(gw["records_bytes"], int)
                  and gw["records_bytes"] > 0):
            errors.append(f"/stats: {gw['records']} job records in "
                          f"{gw['records_bytes']!r} bytes")
    status, headers, body = http(base, "GET", "/stats",
                                 headers={"Accept": "text/plain"})
    if status != 200 or not headers.get(
            "Content-Type", "").startswith("text/plain"):
        errors.append("/stats: Prometheus negotiation failed "
                      f"(status {status})")
    try:
        json.loads(body)
        errors.append("/stats: Accept: text/plain still returned JSON")
    except ValueError:
        pass                 # good: exposition text, not JSON


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--requests", type=int, default=BURST)
    parser.add_argument("--workers", type=int, default=2)
    args = parser.parse_args(argv)

    server = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--http", "--port", "0",
         "--workers", str(args.workers), "--metrics",
         "--shutdown-endpoint"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    errors = []
    try:
        listening = json.loads(server.stdout.readline())
        if listening.get("kind") != "listening":
            raise RuntimeError(f"unexpected announce line: {listening}")
        base = f"http://{listening['host']}:{listening['port']}"

        outcomes = {}
        threads = [threading.Thread(target=burst_worker,
                                    args=(base, index, outcomes, errors))
                   for index in range(args.requests)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)

        # Shared-spec requests must agree byte-for-byte.
        shared = {json.dumps({k: outcomes[i][k] for k in
                              ("status", "steps", "facts")},
                             sort_keys=True)
                  for i in outcomes if i % 4 == 2}
        if len(shared) > 1:
            errors.append("shared-spec results diverged across the "
                          "burst")

        check_replay(base, errors, {
            "name": "smoke-replay", "constraints": TERMINATING,
            "instance": "S(replay). S(again)."})
        check_replay(base, errors, {
            "name": "smoke-replay-query", "constraints": TERMINATING,
            "instance": "E(r, s). S(r).", "query": "q(x) <- E(x, y)"})
        check_stats(base, errors)

        status, _, _ = http(base, "POST", "/shutdown")
        if status != 202:
            errors.append(f"/shutdown: status {status}")
        if server.wait(timeout=60) != 0:
            errors.append(f"server exited {server.returncode}")
    except Exception as exc:                          # noqa: BLE001
        errors.append(f"{type(exc).__name__}: {exc}")
    finally:
        if server.poll() is None:
            server.kill()
            server.wait()
    for message in errors:
        print(f"http_smoke: {message}", file=sys.stderr)
    if errors:
        return 1
    print(f"http_smoke: OK ({args.requests}-request burst, "
          f"memo replay, stats schema valid, graceful drain)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
