"""Functional coverage of the asyncio HTTP gateway's endpoints.

Each test spins a real gateway on an ephemeral port inside
``asyncio.run`` and talks to it over real sockets through the
hand-rolled client in ``gateway_utils`` -- no mocked transports, the
parser and the framing are part of what is under test.
"""

import asyncio
import json
import threading

from gateway_utils import (DIVERGENT, encode_request, gateway,  # noqa: F401
                           parses, query_spec, read_response, request,
                           request_raw_body, spec)
from repro.service import BatchScheduler, ServiceCache
from repro.service.dispatch import ServiceSession
from repro.service.http import HttpGateway


def body_of(payload, **dumps):
    return json.dumps(payload, **dumps).encode("utf-8")


def test_submit_wait_returns_the_result_inline():
    async def main():
        async with gateway() as gw:
            status, _, reply = await request(
                gw.port, "POST", "/jobs?wait=1", body=spec("w1"))
            assert status == 200
            assert reply["status"] == "done"
            assert reply["result"]["status"] == "terminated"
            assert reply["fingerprint"] == reply["result"]["fingerprint"]
    asyncio.run(main())


def test_submit_poll_events_results_roundtrip():
    async def main():
        async with gateway() as gw:
            status, _, sub = await request(
                gw.port, "POST", "/jobs", body=spec("r1"))
            assert status == 202
            assert sub["status"] == "queued"
            assert sub["links"]["poll"] == f"/jobs/{sub['id']}"
            # Poll until done (bounded).
            for _ in range(200):
                status, _, poll = await request(
                    gw.port, "GET", f"/jobs/{sub['id']}")
                assert status == 200
                if poll["status"] == "done":
                    break
                await asyncio.sleep(0.02)
            assert poll["status"] == "done"
            assert poll["result"]["status"] == "terminated"
            # The events stream replays the full history and ends in
            # a result record.
            status, headers, body = await request_raw_body(
                gw.port, "GET", f"/jobs/{sub['id']}/events")
            assert status == 200
            assert headers["content-type"] == "application/x-ndjson"
            events = [json.loads(line)
                      for line in body.decode().splitlines()]
            kinds = [event["kind"] for event in events]
            assert kinds[0] == "queued"
            assert "finished" in kinds
            assert kinds[-1] == "result"
            assert events[-1]["result"]["status"] == "terminated"
            # The cached result is fetchable by fingerprint.
            status, _, cached = await request(
                gw.port, "GET", f"/results/{sub['fingerprint']}")
            assert status == 200
            assert cached["cached"] is True
            assert cached["status"] == "terminated"
    asyncio.run(main())


def test_a_submitted_job_is_planned_once():
    """The plan made at submit time is what the executor thread runs:
    one plan_job call for the cold request, and none for its warm
    repeat, which the session replays from its spec memo."""
    async def main():
        async with gateway() as gw:
            scheduler = gw.session.scheduler
            calls = []
            plan_job = scheduler.plan_job
            scheduler.plan_job = lambda job: calls.append(job) \
                or plan_job(job)
            status, _, cold = await request(
                gw.port, "POST", "/jobs?wait=1", body=spec("p1"))
            assert status == 200 and cold["result"]["status"] == "terminated"
            assert len(calls) == 1
            status, _, warm = await request(
                gw.port, "POST", "/jobs", body=spec("p1"))
            assert status == 200 and warm["result"]["cached"]
            assert len(calls) == 1
    asyncio.run(main())


def test_warm_fingerprint_is_answered_from_the_cache_fast_path():
    async def main():
        async with gateway() as gw:
            await request(gw.port, "POST", "/jobs?wait=1",
                          body=spec("c1"))
            status, _, reply = await request(
                gw.port, "POST", "/jobs", body=spec("c1"))
            # Not 202: the warm fingerprint short-circuits the queue.
            assert status == 200
            assert reply["status"] == "done"
            assert reply["result"]["cached"] is True
    asyncio.run(main())


def test_structured_errors_for_bad_requests():
    async def main():
        async with gateway() as gw:
            # Valid kind, missing fields.
            status, _, reply = await request(
                gw.port, "POST", "/jobs", body={"kind": "chase"})
            assert status == 400
            assert reply["status"] == "error"
            assert reply["error"] == "invalid_spec"
            # Non-job kind on the job endpoint.
            status, _, reply = await request(
                gw.port, "POST", "/jobs", body={"kind": "stats"})
            assert status == 400
            assert reply["error"] == "invalid_request"
            # Invalid JSON body.
            status, _, reply = await request(
                gw.port, "POST", "/jobs", body=b"{nope")
            assert status == 400
            assert reply["error"] == "invalid_json"
            # Unknown path / unknown job / unknown fingerprint.
            assert (await request(gw.port, "GET", "/nope"))[0] == 404
            assert (await request(gw.port, "GET", "/jobs/j999"))[0] == 404
            assert (await request(
                gw.port, "GET", f"/results/{'0' * 64}"))[0] == 404
            # Wrong method names the allowed one.
            status, headers, _ = await request(gw.port, "GET", "/jobs")
            assert status == 405
            assert headers["allow"] == "POST"
    asyncio.run(main())


def test_backpressure_429_only_above_the_queue_bound():
    async def main():
        async with gateway(queue_bound=1) as gw:
            # Occupy the runner with a slow job...
            _, _, first = await request(
                gw.port, "POST", "/jobs",
                body=spec("slow", constraints=DIVERGENT,
                          instance="S(a).", max_steps=9_000))
            for _ in range(200):
                _, _, poll = await request(
                    gw.port, "GET", f"/jobs/{first['id']}")
                if poll["status"] != "queued":
                    break
                await asyncio.sleep(0.01)
            # ...then fill the single queue slot...
            status, _, _ = await request(
                gw.port, "POST", "/jobs",
                body=spec("q1", instance="S(q1)."))
            assert status == 202
            # ...and the next submit bounces with Retry-After.
            status, headers, reply = await request(
                gw.port, "POST", "/jobs",
                body=spec("q2", instance="S(q2)."))
            assert status == 429
            assert reply["error"] == "backpressure"
            assert float(headers["retry-after"]) > 0
    asyncio.run(main())


def test_request_wall_clock_budget_truncates_structuredly():
    async def main():
        scheduler = BatchScheduler(workers=1,
                                   cache=ServiceCache(result_size=64))
        session = ServiceSession(scheduler, request_wall_clock=0.05)
        gw = HttpGateway(session, port=0)
        await gw.start()
        try:
            status, _, reply = await request(
                gw.port, "POST", "/jobs?wait=1",
                body=spec("over", constraints=DIVERGENT,
                          instance="S(a).", max_steps=50_000_000),
                timeout=60.0)
            assert status == 200
            assert reply["result"]["status"] == "exceeded_wall_clock"
        finally:
            await gw.shutdown()
            scheduler.close()
    asyncio.run(main())


def test_stats_json_and_prometheus_negotiation():
    async def main():
        async with gateway() as gw:
            await request(gw.port, "POST", "/jobs?wait=1",
                          body=spec("s1"))
            status, _, stats = await request(gw.port, "GET", "/stats")
            assert status == 200
            assert stats["kind"] == "stats"
            assert set(stats) >= {"metrics", "cache", "gateway"}
            assert stats["gateway"]["queue_bound"] == gw.queue_bound
            assert stats["gateway"]["draining"] is False
            # Content negotiation: ?format= and Accept both work.
            for path, headers in (("/stats?format=prometheus", None),
                                  ("/stats", {"Accept": "text/plain"})):
                status, resp_headers, body = await request_raw_body(
                    gw.port, "GET", path, headers=headers)
                assert status == 200
                assert resp_headers["content-type"].startswith(
                    "text/plain")
    asyncio.run(main())


def test_keep_alive_serves_multiple_requests_per_connection():
    async def main():
        async with gateway() as gw:
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", gw.port)
            try:
                for index in range(3):
                    writer.write(encode_request(
                        "GET", "/healthz", close=False))
                    await writer.drain()
                    status, _, body = await read_response(reader)
                    assert status == 200
                    assert json.loads(body)["status"] == "ok"
            finally:
                writer.close()
                await writer.wait_closed()
    asyncio.run(main())


def test_graceful_shutdown_drains_inflight_jobs():
    async def main():
        async with gateway(allow_shutdown=True) as gw:
            _, _, sub = await request(
                gw.port, "POST", "/jobs",
                body=spec("drain1", constraints=DIVERGENT,
                          instance="S(a).", max_steps=5_000))
            status, _, reply = await request(
                gw.port, "POST", "/shutdown")
            assert status == 202
            await asyncio.wait_for(gw.wait_terminated(), timeout=60)
            # The in-flight job finished (not dropped): its result is
            # in the record table, and its plan is released.
            record = gw._records[sub["id"]]
            assert record.state == "done"
            assert record.plan is None
            assert json.loads(record.result)["status"] in (
                "terminated", "exceeded_budget")
    asyncio.run(main())


def test_shutdown_endpoint_is_gated():
    async def main():
        async with gateway() as gw:        # allow_shutdown=False
            status, _, _ = await request(gw.port, "POST", "/shutdown")
            assert status == 404
            status, _, health = await request(gw.port, "GET", "/healthz")
            assert status == 200 and health["status"] == "ok"
    asyncio.run(main())


def test_finished_and_cached_records_hold_no_plan():
    async def main():
        async with gateway() as gw:
            _, _, cold = await request(gw.port, "POST", "/jobs?wait=1",
                                       body=spec("np"))
            _, _, warm = await request(gw.port, "POST", "/jobs",
                                       body=spec("np"))
            assert warm["result"]["cached"]
            for reply in (cold, warm):
                record = gw._records[reply["id"]]
                assert record.state == "done" and record.plan is None
    asyncio.run(main())


def test_history_pruning_skips_a_running_job():
    """One long job must not hold the job history above
    ``max_records``: the oldest finished records are dropped around
    it while it runs."""
    async def main():
        async with gateway(max_records=4) as gw:
            warm = spec("warm")
            await request(gw.port, "POST", "/jobs?wait=1", body=warm)
            # Hold the executor, so the long job is still unfinished
            # while the warm repeats arrive.
            gate = threading.Event()
            execute = gw._execute
            gw._execute = lambda plans: gate.wait(60) and execute(plans)
            try:
                _, _, slow = await request(
                    gw.port, "POST", "/jobs",
                    body=spec("slow", constraints=DIVERGENT,
                              instance="S(a).", max_steps=1_000))
                for _ in range(40):
                    status, _, reply = await request(
                        gw.port, "POST", "/jobs", body=warm)
                    assert status == 200 and reply["result"]["cached"]
                assert gw._records[slow["id"]].state != "done"
                assert len(gw._records) == gw.max_records
            finally:
                gate.set()
            record = gw._records[slow["id"]]
            await asyncio.wait_for(record.finished.wait(), timeout=60)
            assert json.loads(record.result)["status"] == "exceeded_budget"
    asyncio.run(main())


# ----------------------------------------------------------------------
# the session's spec memo behind POST /jobs
# ----------------------------------------------------------------------
def test_a_repeated_body_is_replayed_without_parsing(parses):
    async def main():
        async with gateway() as gw:
            body = body_of(spec("h1"))
            status, _, cold = await request(gw.port, "POST",
                                            "/jobs?wait=1", body=body)
            assert status == 200 and not cold["result"]["cached"]
            # Other bytes of the same spec: parsed, planned, and hit by
            # their planned fingerprint.
            status, _, parsed = await request(
                gw.port, "POST", "/jobs",
                body=body_of(spec("h1"), separators=(",", ":")))
            assert status == 200 and parsed["result"]["cached"]
            assert len(parses) == 2
            status, _, replayed = await request(gw.port, "POST", "/jobs",
                                                body=body)
            assert status == 200
            assert len(parses) == 2
            assert replayed.pop("id") != parsed.pop("id")
            assert replayed == parsed
            _, _, stats = await request(gw.port, "GET", "/stats")
            assert stats["cache"]["specs"]["hits"] == 1
    asyncio.run(main())


def test_an_evicted_result_is_parsed_and_run_again(parses):
    async def main():
        async with gateway(cache_size=2) as gw:
            body = body_of(spec("ev1"))
            _, _, first = await request(gw.port, "POST", "/jobs?wait=1",
                                        body=body)
            # Requests without bytes are not memoized: these two push
            # ev1's result, and only its result, out of the cache.
            gw.session.handle(spec("ev2", instance="S(c)."))
            gw.session.handle(spec("ev3", instance="S(d)."))
            assert first["fingerprint"] not in gw.session.scheduler.cache.results
            del parses[:]
            status, _, again = await request(gw.port, "POST",
                                             "/jobs?wait=1", body=body)
            assert status == 200 and len(parses) == 1
            assert not again["result"]["cached"]
            for reply in (first, again):
                del reply["id"], reply["result"]["elapsed"]
            assert again == first
    asyncio.run(main())


def test_rejected_bodies_are_never_memoized(parses):
    async def main():
        async with gateway() as gw:
            bodies = [b"{nope", b"\xff\xfe", b"[1, 2]",
                      body_of({"kind": "chase"}), body_of({"kind": "stats"}),
                      body_of(spec("bad", constraints="a1: S(x) ->"))]
            for _ in range(2):
                for body in bodies:
                    status, _, reply = await request(gw.port, "POST",
                                                     "/jobs", body=body)
                    assert status == 400 and reply["status"] == "error"
            assert len(gw.session.scheduler.cache.specs) == 0
            assert len(parses) == 2 * 2
    asyncio.run(main())


def test_result_size_zero_never_replays(parses):
    async def main():
        async with gateway(cache_size=0) as gw:
            body = body_of(spec("z1"))
            for _ in range(2):
                status, _, reply = await request(gw.port, "POST",
                                                 "/jobs?wait=1", body=body)
                assert status == 200 and not reply["result"]["cached"]
            assert len(parses) == 2
    asyncio.run(main())


def test_bodies_differing_only_in_name_keep_their_names():
    async def main():
        async with gateway() as gw:
            await request(gw.port, "POST", "/jobs?wait=1", body=spec("x"))
            for name in ("y", "x", "y"):
                _, _, reply = await request(gw.port, "POST", "/jobs",
                                            body=spec(name))
                assert reply["result"]["cached"]
                assert reply["job"] == reply["result"]["job"] == name
    asyncio.run(main())


def test_a_draining_gateway_refuses_a_known_body():
    async def main():
        async with gateway() as gw:
            await request(gw.port, "POST", "/jobs?wait=1", body=spec("d1"))
            gw.draining = True
            status, _, reply = await request(gw.port, "POST", "/jobs",
                                             body=spec("d1"))
            assert status == 503 and reply["error"] == "draining"
    asyncio.run(main())
