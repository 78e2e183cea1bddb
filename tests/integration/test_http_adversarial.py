"""HTTP-level adversarial inputs against the gateway.

The transport-layer extension of ``test_adversarial_specs.py``: the
wire itself is now hostile.  Truncated bodies, oversized payloads, bad
chunked framing, garbage request lines, wrong methods, unknown paths
-- the gateway must answer every one with a *structured* 4xx JSON body
(``{"status": "error", "error": <code>, ...}``), never a traceback,
never a hang, and must keep serving well-formed requests on the very
next connection.

Self-contained on purpose (no helper imports across test packages):
the raw-socket control these cases need is the whole point.
"""

import asyncio
import contextlib
import json

import pytest

from repro.service import BatchScheduler, ServiceCache
from repro.service.dispatch import ServiceSession
from repro.service.http import HttpGateway

GOOD = {"constraints": "S(x) -> E(x, y)", "instance": "S(a)."}


def facts(*terms):
    """A wire instance of unary ``S`` facts over ``terms``."""
    return {"facts": [["S", [term]] for term in terms]}


#: Spec fields of the wrong shape (``test_adversarial_specs.py`` sends
#: the same through ``repro serve``): each is a 400 ``invalid_spec``.
MALFORMED_FIELDS = [
    {"instance": {}}, {"instance": 5}, {"instance": {"facts": 5}},
    {"constraints": 5}, {"constraints": ["S(x) -> T(x)", 5]},
    {"instance": facts(["n", "x"])}, {"instance": facts(["c", [1]])},
    {"instance": facts(["c", None])}, {"instance": facts(["n", True])},
    {"instance": facts(["c", float("nan")], ["c", float("nan")])},
    {"instance": {"facts": [[5, [["c", "a"]]]]}},
]


@contextlib.asynccontextmanager
async def gateway(**kw):
    scheduler = BatchScheduler(workers=1,
                               cache=ServiceCache(result_size=64))
    gw = HttpGateway(ServiceSession(scheduler), port=0,
                     header_timeout=kw.pop("header_timeout", 0.5), **kw)
    await gw.start()
    try:
        yield gw
    finally:
        await gw.shutdown()
        scheduler.close()


async def exchange(port, payload: bytes, timeout=10.0,
                   eof_after=True) -> bytes:
    """Send raw bytes, return whatever one framed response the server
    produces (empty bytes if it just closes)."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        writer.write(payload)
        await writer.drain()
        if eof_after:
            writer.write_eof()
        return await asyncio.wait_for(_read_one_response(reader),
                                      timeout=timeout)
    finally:
        writer.close()
        with contextlib.suppress(Exception):
            await writer.wait_closed()


async def _read_one_response(reader) -> bytes:
    head = b""
    while b"\r\n\r\n" not in head:
        block = await reader.read(4096)
        if not block:
            return head
        head += block
    header_bytes, _, rest = head.partition(b"\r\n\r\n")
    length = 0
    for line in header_bytes.split(b"\r\n"):
        if line.lower().startswith(b"content-length:"):
            length = int(line.split(b":", 1)[1])
    while len(rest) < length:
        block = await reader.read(4096)
        if not block:
            break
        rest += block
    return header_bytes + b"\r\n\r\n" + rest


def status_and_error(raw: bytes):
    """-> (http_status, error_payload_dict_or_None); asserts the body,
    when JSON, is the structured error contract without tracebacks."""
    assert raw, "server closed without responding"
    status = int(raw.split(b" ", 2)[1])
    body = raw.partition(b"\r\n\r\n")[2]
    payload = json.loads(body) if body else None
    if payload is not None and payload.get("status") == "error":
        assert isinstance(payload["error"], str)
        assert "Traceback" not in payload["failure_reason"]
    assert b"Traceback" not in raw
    return status, payload


def plain(method="POST", path="/jobs", body=b"", extra="") -> bytes:
    return (f"{method} {path} HTTP/1.1\r\nHost: t\r\n"
            f"Content-Length: {len(body)}\r\n{extra}"
            f"Connection: close\r\n\r\n").encode() + body


async def still_serving(port) -> None:
    """The gateway must answer a well-formed request after the abuse."""
    raw = await exchange(port, plain(
        body=json.dumps({**GOOD, "name": "sanity"}).encode(),
        path="/jobs?wait=1"), timeout=30.0, eof_after=False)
    status, payload = status_and_error(raw)
    assert status == 200
    assert payload["result"]["status"] == "terminated"


def test_truncated_body_is_a_structured_400():
    async def main():
        async with gateway() as gw:
            # Content-Length promises 500 bytes, the client sends 20
            # and shuts its write side: structured 400, no hang.
            head = (b"POST /jobs HTTP/1.1\r\nHost: t\r\n"
                    b"Content-Length: 500\r\n\r\n")
            raw = await exchange(gw.port, head + b'{"constraints": "x')
            status, payload = status_and_error(raw)
            assert status in (400, 408)
            assert payload["error"] in ("truncated_body", "timeout")
            await still_serving(gw.port)
    asyncio.run(main())


def test_truncated_headers_and_garbage_request_lines():
    async def main():
        async with gateway() as gw:
            for raw_bytes in (
                    b"POST /jobs HTTP/1.1\r\nContent-Len",   # cut header
                    b"\x00\xff\xfe garbage\r\n\r\n",         # binary junk
                    b"GET\r\n\r\n",                          # no target
                    b"GET / SPDY/3\r\n\r\n",                 # bad version
            ):
                raw = await exchange(gw.port, raw_bytes)
                if raw:                       # a response at all ->
                    status, _ = status_and_error(raw)    # structured 4xx
                    assert 400 <= status < 500
            await still_serving(gw.port)
    asyncio.run(main())


def test_oversized_payload_is_413_without_reading_it():
    async def main():
        async with gateway(max_body=1024) as gw:
            # The declared length alone triggers the rejection -- the
            # server must not buffer 100 MB to find out.
            head = (b"POST /jobs HTTP/1.1\r\nHost: t\r\n"
                    b"Content-Length: 104857600\r\n\r\n")
            raw = await exchange(gw.port, head + b"x" * 64,
                                 eof_after=False)
            status, payload = status_and_error(raw)
            assert status == 413
            assert payload["error"] == "payload_too_large"
            await still_serving(gw.port)
    asyncio.run(main())


def test_oversized_chunked_body_is_413():
    async def main():
        async with gateway(max_body=1024) as gw:
            head = (b"POST /jobs HTTP/1.1\r\nHost: t\r\n"
                    b"Transfer-Encoding: chunked\r\n\r\n")
            chunk = b"800\r\n" + b"y" * 0x800 + b"\r\n"
            raw = await exchange(gw.port, head + chunk + chunk,
                                 eof_after=False)
            status, payload = status_and_error(raw)
            assert status == 413
            assert payload["error"] == "payload_too_large"
            await still_serving(gw.port)
    asyncio.run(main())


@pytest.mark.parametrize("bad_chunks, expected_code", [
    (b"zz\r\nhello\r\n0\r\n\r\n", "bad_chunking"),     # non-hex size
    (b"5\r\nhelloXX0\r\n\r\n", "bad_chunking"),        # missing CRLF
    (b"5\r\nhel", "truncated_body"),                   # cut mid-chunk
])
def test_bad_chunked_framing_is_a_structured_400(bad_chunks,
                                                 expected_code):
    async def main():
        async with gateway() as gw:
            head = (b"POST /jobs HTTP/1.1\r\nHost: t\r\n"
                    b"Transfer-Encoding: chunked\r\n\r\n")
            raw = await exchange(gw.port, head + bad_chunks)
            status, payload = status_and_error(raw)
            assert status in (400, 408)
            assert payload["error"] in (expected_code, "timeout")
            await still_serving(gw.port)
    asyncio.run(main())


def test_wellformed_chunked_request_still_works():
    """The flip side of the chunking fuzz: correct chunked framing is
    accepted and served."""
    async def main():
        async with gateway() as gw:
            body = json.dumps({**GOOD, "name": "chunky"}).encode()
            half = len(body) // 2
            framed = (f"{half:x}\r\n".encode() + body[:half] + b"\r\n"
                      + f"{len(body) - half:x}\r\n".encode()
                      + body[half:] + b"\r\n0\r\n\r\n")
            raw = await exchange(
                gw.port,
                b"POST /jobs?wait=1 HTTP/1.1\r\nHost: t\r\n"
                b"Transfer-Encoding: chunked\r\nConnection: close\r\n"
                b"\r\n" + framed,
                timeout=30.0, eof_after=False)
            status, payload = status_and_error(raw)
            assert status == 200
            assert payload["result"]["status"] == "terminated"
    asyncio.run(main())


def test_unknown_paths_methods_and_bodies():
    async def main():
        async with gateway() as gw:
            cases = [
                (plain(path="/../../etc/passwd"), 404, None),
                (plain(method="DELETE", path="/jobs"), 405, None),
                (plain(method="PUT", path="/stats"), 405, None),
                (plain(body=b"\xde\xad\xbe\xef"), 400, None),   # binary
                (plain(body=b'"just a string"'), 400, None),  # non-object
                (plain(body=b"[1, 2, 3]"), 400, None),        # array
                (plain(body=json.dumps(
                    {**GOOD, "kind": "bogus"}).encode()), 400, None),
            ] + [(plain(body=json.dumps({**GOOD, **fields}).encode()), 400,
                  "invalid_spec") for fields in MALFORMED_FIELDS]
            for raw_bytes, expected, code in cases:
                raw = await exchange(gw.port, raw_bytes, eof_after=False)
                status, payload = status_and_error(raw)
                assert status == expected, raw_bytes[:40]
                if code is not None:
                    assert payload["error"] == code, raw_bytes
            await still_serving(gw.port)
    asyncio.run(main())


def test_header_flood_is_bounded():
    async def main():
        async with gateway() as gw:
            flood = b"GET /stats HTTP/1.1\r\nHost: t\r\n" + \
                b"".join(b"X-Flood-%d: y\r\n" % i for i in range(500))
            raw = await exchange(gw.port, flood + b"\r\n")
            status, payload = status_and_error(raw)
            assert status == 431
            assert payload["error"] == "oversized_header"
            await still_serving(gw.port)
    asyncio.run(main())


def test_slowloris_connection_times_out_without_blocking_others():
    async def main():
        async with gateway(header_timeout=0.3) as gw:
            # A client that sends half a request line and stalls gets
            # 408-and-closed; a concurrent honest client is served.
            async def stall():
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", gw.port)
                try:
                    writer.write(b"GET /sta")
                    await writer.drain()
                    return await asyncio.wait_for(reader.read(),
                                                  timeout=10.0)
                finally:
                    writer.close()
                    with contextlib.suppress(Exception):
                        await writer.wait_closed()

            stalled, _ = await asyncio.gather(stall(),
                                              still_serving(gw.port))
            if stalled:                      # the 408 reached the client
                status, payload = status_and_error(stalled)
                assert status == 408
                assert payload["error"] == "timeout"
    asyncio.run(main())
