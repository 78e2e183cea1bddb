"""Drive ``repro serve --http`` as a subprocess over keep-alive HTTP.

The gateway is launched with ``--port 0`` and ready once it prints its
``{"kind": "listening", ...}`` line (never by sleep-polling).  One
client process -- the benchmark itself -- sends ``POST /jobs?wait=1``
on two keep-alive connections in a closed loop: each connection sends
its next request only after the previous reply arrived.  The timed
sequence goes out in short blocks with the compute unit of ``speed.py``
timed between them, while the connections are idle; the server
inherits the benchmark's pinning to one CPU, so unit and server run on
the same one.  Request bytes are encoded before the clock
starts; replies are checked after it stops.
"""

from __future__ import annotations

import http.client
import json
import os
import select
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from typing import List, Optional

import bibgen as B
import layers
import speed

CONNECTIONS = 2
#: Connections of the burst that starts the pool workers (see
#: ``workloads.gateway``).
SPAWN_CONNECTIONS = 4
WORKERS = 2
#: Requests per block of the timed sequence (see :meth:`Gateway.drive`).
BLOCK = 8
READY_TIMEOUT = 60.0
REQUEST_TIMEOUT = 120.0
HERE = os.path.dirname(os.path.abspath(__file__))


class Gateway:
    """One gateway process, from launch to a graceful stop.

    ``setup`` holds the set-up's ``(wall, unit before, unit after)``
    segments, from the launch to the end of :meth:`warm_up`.
    With ``traced``, the server runs under ``serve_traced.py``, which
    records layer spans in the gateway and its workers and writes them
    out when they exit; :meth:`spans` collects them.
    """

    def __init__(self, root: str, env: dict, traced: bool) -> None:
        self.outdir: Optional[str] = None
        serve = ["serve", "--http", "--workers", str(WORKERS),
                 "--port", "0"]
        if traced:
            self.outdir = tempfile.mkdtemp(prefix=".perfbench-", dir=root)
            command = [sys.executable, os.path.join(HERE, "serve_traced.py"),
                       self.outdir] + serve + ["--metrics"]
        else:
            command = [sys.executable, "-m", "repro"] + serve
        unit = speed.sample(speed.compute_unit)
        launched = time.perf_counter()
        self.process = subprocess.Popen(command, cwd=root, env=env,
                                        stdout=subprocess.PIPE,
                                        stderr=subprocess.DEVNULL)
        self.port = self._await_listening()
        wall = time.perf_counter() - launched
        self.setup = [(wall, unit, speed.sample(speed.compute_unit))]

    def _await_listening(self) -> int:
        deadline = time.monotonic() + READY_TIMEOUT
        stream = self.process.stdout
        while time.monotonic() < deadline:
            ready, _, _ = select.select([stream], [], [],
                                        deadline - time.monotonic())
            if not ready:
                break
            line = stream.readline()
            if not line:
                break
            try:
                announced = json.loads(line)
            except ValueError:
                continue
            if announced.get("kind") == "listening":
                return int(announced["port"])
        self.__exit__(None, None, None)
        raise SystemExit("the gateway never announced that it listens")

    def __enter__(self) -> "Gateway":
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()
        if self.outdir is not None:
            shutil.rmtree(self.outdir, ignore_errors=True)

    # -- traffic ----------------------------------------------------------
    def drive(self, requests, connections: int = CONNECTIONS,
              block: int = 0) -> tuple:
        """Send ``requests`` in a closed loop on ``connections``
        keep-alive connections, ``block`` requests at a time (all at
        once by default).  Between blocks every connection is idle while
        the reference unit is timed (``speed.py``).  Returns the
        per-request records, each with its block's index, and
        ``(wall, unit before, unit after)`` per block."""
        bodies = [request.line.encode("utf-8") for request in requests]
        records: List[Optional[dict]] = [None] * len(bodies)
        lock = threading.Lock()
        conns = [http.client.HTTPConnection("127.0.0.1", self.port,
                                            timeout=REQUEST_TIMEOUT)
                 for _ in range(connections)]

        def client(conn, cursor, number) -> None:
            while True:
                with lock:
                    index = next(cursor, None)
                if index is None:
                    return
                started = time.perf_counter()
                try:
                    conn.request("POST", "/jobs?wait=1", bodies[index],
                                 {"Content-Type": "application/json"})
                    response = conn.getresponse()
                    body = response.read()
                    status = response.status
                except (OSError, http.client.HTTPException) as exc:
                    conn.close()
                    body, status = repr(exc).encode(), 0
                records[index] = {"latency": time.perf_counter() - started,
                                  "status": status, "body": body,
                                  "block": number}

        block = block or max(1, len(bodies))
        blocks = []
        unit = speed.sample(speed.compute_unit)
        first_started = time.perf_counter()
        try:
            for first in range(0, len(bodies), block):
                cursor = iter(range(first, min(first + block, len(bodies))))
                threads = [threading.Thread(target=client, daemon=True,
                                            args=(conn, cursor, len(blocks)))
                           for conn in conns]
                started = time.perf_counter()
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join()
                ended = time.perf_counter()
                after = speed.sample(speed.compute_unit)
                blocks.append((ended - started, unit, after))
                unit = after
        finally:
            for conn in conns:
                conn.close()
        self.phase = (first_started, time.perf_counter())
        return records, blocks

    def warm_up(self, plan) -> list:
        """The plan's warm-up one request at a time, its worker
        start-up burst, then its cache fill on the timed phase's
        connections; returns the failed replies.  ``setup`` holds the
        set-up's segments, from the launch on."""
        records, blocks = self.drive(plan.warmup, 1)
        spawned, spawn_blocks = self.drive(plan.spawn, SPAWN_CONNECTIONS)
        filled, fill_blocks = self.drive(plan.fill)
        self.setup += blocks + spawn_blocks + fill_blocks
        requests = plan.warmup + plan.spawn + plan.fill
        return [{"request": f"warm:{index}", "label": request.label,
                 "problems": problems[:3]}
                for index, (request, record)
                in enumerate(zip(requests, records + spawned + filled))
                for problems in [check_record(record, request.expected)]
                if problems]

    def stats(self) -> dict:
        conn = http.client.HTTPConnection("127.0.0.1", self.port,
                                          timeout=REQUEST_TIMEOUT)
        try:
            conn.request("GET", "/stats")
            return json.loads(conn.getresponse().read())
        finally:
            conn.close()

    # -- processes --------------------------------------------------------
    def pids(self) -> List[int]:
        """The gateway and its worker processes."""
        pids = [self.process.pid]
        task_dir = f"/proc/{self.process.pid}/task"
        for tid in os.listdir(task_dir):
            with open(os.path.join(task_dir, tid, "children")) as handle:
                pids += [int(pid) for pid in handle.read().split()]
        return pids

    def peak_rss_mb(self) -> float:
        """Sum of the peak resident sets (VmHWM) of the gateway and its
        workers."""
        return sum(layers.vm_hwm_mb(pid) for pid in self.pids())

    def stop(self) -> None:
        """Graceful drain on SIGTERM; kill if it does not end.  Workers
        that outlive a killed server (they ignore SIGTERM) are killed
        too, and waited for."""
        if self.process.poll() is None:
            workers = self.pids()[1:]
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
            for pid in workers:
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    continue
                deadline = time.monotonic() + 5
                while _running(pid) and time.monotonic() < deadline:
                    time.sleep(0.05)
        if self.process.stdout is not None:
            self.process.stdout.close()

    def spans(self) -> dict:
        """Spans and GC events written by the traced gateway and its
        workers, merged (parent indices re-based per process)."""
        dumps = []
        events: List[tuple] = []
        for name in sorted(os.listdir(self.outdir)):
            with open(os.path.join(self.outdir, name)) as handle:
                dump = json.load(handle)
            dumps.append((dump["spans"], 0))
            events += [tuple(event) for event in dump["gc_events"]]
        return {"spans": layers.merge(dumps), "gc_events": events}


def _running(pid: int) -> bool:
    """Does ``pid`` exist and is it not a zombie?"""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            return handle.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


def parse(record: dict) -> Optional[dict]:
    try:
        return json.loads(record["body"])
    except ValueError:
        return None


def check_record(record: Optional[dict], expected: B.Expected) -> list:
    if record is None:
        return ["no reply"]
    if record["status"] != 200:
        return [f"HTTP status {record['status']}"]
    payload = parse(record)
    if payload is None or payload.get("status") != "done":
        return ["reply is not a finished job"]
    return B.check_reply(payload.get("result") or {}, expected)


def layer_metrics(records: list, stats: list, tail: int) -> dict:
    """Gateway-only per-layer metrics: the HTTP split (client latency
    minus the execution time the reply reports) and ``/stats`` (the
    ``(before, after)`` replies around the timed phase)."""
    overheads = []
    in_workers = executed = 0
    for record in records:
        payload = parse(record) or {}
        result = payload.get("result") or {}
        cached = bool(result.get("cached"))
        execution = 0.0 if cached else float(result.get("elapsed") or 0.0)
        overheads.append(record["latency"] - execution)
        if not cached and result:
            executed += 1
            in_workers += str(result.get("worker", "")).startswith("pid-")
    before, after = (reply["metrics"] for reply in stats)

    def counter(name):
        return (after["counters"].get(name, 0)
                - before["counters"].get(name, 0))

    def histogram(name):
        empty = {"count": 0, "sum": 0.0}
        new = after["histograms"].get(name, empty)
        old = before["histograms"].get(name, empty)
        return new["count"] - old["count"], new["sum"] - old["sum"]

    waits, wait_sum = histogram("pool.dispatch_latency_s")
    return {
        "http.overhead_ms": 1000 * statistics.median(overheads),
        "http.overhead_tail_ms": 1000 * layers.percentile(overheads, tail),
        "http.fastpath_ratio": counter("http.cache_fastpath") / len(records),
        "pool.worker_share": in_workers / executed if executed else 0.0,
        "pool.dispatch_wait_ms": 1000 * wait_sum / waits if waits else 0.0,
    }
