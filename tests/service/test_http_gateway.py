"""Functional coverage of the asyncio HTTP gateway's endpoints.

Each test spins a real gateway on an ephemeral port inside
``asyncio.run`` and talks to it over real sockets through the
hand-rolled client in ``gateway_utils`` -- no mocked transports, the
parser and the framing are part of what is under test.
"""

import asyncio
import json

from gateway_utils import (DIVERGENT, encode_request, gateway,
                           query_spec, read_response, request,
                           request_raw_body, spec)
from repro.service import BatchScheduler, ServiceCache
from repro.service.dispatch import ServiceSession
from repro.service.http import HttpGateway


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
    one plan_job call per request, on the cold path and the warm one."""
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
            assert len(calls) == 2
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
            # in the record table.
            record = gw._records[sub["id"]]
            assert record.state == "done"
            assert record.result["status"] in ("terminated",
                                               "exceeded_budget")
    asyncio.run(main())


def test_shutdown_endpoint_is_gated():
    async def main():
        async with gateway() as gw:        # allow_shutdown=False
            status, _, _ = await request(gw.port, "POST", "/shutdown")
            assert status == 404
            status, _, health = await request(gw.port, "GET", "/healthz")
            assert status == 200 and health["status"] == "ok"
    asyncio.run(main())
