"""Shared plumbing for the HTTP-gateway test suites.

A tiny stdlib HTTP/1.1 client over asyncio streams (we are testing a
hand-rolled server; testing it through a hand-rolled client keeps full
control over framing -- truncation, chunking, pipelining) plus gateway
lifecycle helpers and the ``parses`` fixture, which counts the specs
the serving session parses.  Tests drive everything through
``asyncio.run``: pytest-asyncio is deliberately not a dependency.

The client frames responses by Content-Length / chunked encoding and
never relies on read-to-EOF: the service forks worker processes while
connections are open, and a forked child holding a duplicate of the
socket fd delays the FIN past the server-side close (exactly like any
real preforking server) -- correct HTTP framing is immune to that.
"""

from __future__ import annotations

import asyncio
import contextlib
import json

import pytest

from repro.service import BatchScheduler, dispatch, ServiceCache
from repro.service.dispatch import ServiceSession
from repro.service.http import HttpGateway

TERMINATING = "a1: S(x) -> E(x, y)"
DIVERGENT = "a2: S(x) -> E(x, y), S(y)"


def spec(name, constraints=TERMINATING, instance="S(a). S(b).", **kw):
    payload = {"name": name, "constraints": constraints,
               "instance": instance}
    payload.update(kw)
    return payload


def query_spec(name, **kw):
    return spec(name, instance="E(a, b). S(a).",
                query="q(x) <- E(x, y)", **kw)


@pytest.fixture
def parses(monkeypatch):
    """The job specs the serving session parses, in order (a fixture:
    import it into a test module to use it there)."""
    calls = []
    parse = dispatch.job_from_dict
    monkeypatch.setattr(dispatch, "job_from_dict",
                        lambda payload: calls.append(payload)
                        or parse(payload))
    return calls


@contextlib.asynccontextmanager
async def gateway(workers=1, queue_bound=64, cache_size=256, **gw_kwargs):
    """A live gateway over a fresh scheduler; tears both down."""
    scheduler = BatchScheduler(
        workers=workers, cache=ServiceCache(result_size=cache_size))
    session = ServiceSession(scheduler)
    gw = HttpGateway(session, port=0, queue_bound=queue_bound,
                     **gw_kwargs)
    await gw.start()
    try:
        yield gw
    finally:
        await gw.shutdown()
        scheduler.close()


def encode_request(method, path, body=None, headers=None,
                   close=True) -> bytes:
    payload = b""
    if body is not None:
        payload = body if isinstance(body, bytes) \
            else json.dumps(body).encode("utf-8")
    lines = [f"{method} {path} HTTP/1.1", "Host: test"]
    if body is not None:
        lines.append(f"Content-Length: {len(payload)}")
    for name, value in (headers or {}).items():
        lines.append(f"{name}: {value}")
    if close:
        lines.append("Connection: close")
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") + payload


async def read_response(reader):
    """Read one properly-framed response -> (status, headers, body)."""
    status_line = await reader.readline()
    if not status_line:
        raise ConnectionError("server closed before responding")
    status = int(status_line.split()[1])
    headers = {}
    while True:
        line = await reader.readline()
        if line in (b"\r\n", b"\n"):
            break
        if not line:
            raise ConnectionError("server closed inside headers")
        name, _, value = line.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()
    if headers.get("transfer-encoding", "").lower() == "chunked":
        body = b""
        while True:
            size_line = await reader.readline()
            size = int(size_line.split(b";")[0], 16)
            if size == 0:
                await reader.readline()        # trailing blank line
                break
            body += await reader.readexactly(size)
            await reader.readexactly(2)        # the chunk's CRLF
        return status, headers, body
    length = int(headers.get("content-length", 0))
    return status, headers, await reader.readexactly(length)


def decode_body(headers, body):
    """JSON-decode a response body when it says it is JSON."""
    if body and headers.get("content-type",
                            "").startswith("application/"):
        return json.loads(body)
    return None


async def request(port, method, path, body=None, headers=None,
                  timeout=30.0):
    """One request on a fresh connection -> (status, headers,
    parsed_json_or_None)."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        writer.write(encode_request(method, path, body=body,
                                    headers=headers))
        await writer.drain()
        status, resp_headers, resp_body = await asyncio.wait_for(
            read_response(reader), timeout=timeout)
    finally:
        writer.close()
        with contextlib.suppress(Exception):
            await writer.wait_closed()
    return status, resp_headers, decode_body(resp_headers, resp_body)


async def request_raw_body(port, method, path, body=None, headers=None,
                           timeout=30.0):
    """Like :func:`request` but returns the body bytes unparsed (for
    NDJSON streams and Prometheus text)."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        writer.write(encode_request(method, path, body=body,
                                    headers=headers))
        await writer.drain()
        return await asyncio.wait_for(read_response(reader),
                                      timeout=timeout)
    finally:
        writer.close()
        with contextlib.suppress(Exception):
            await writer.wait_closed()


async def send_raw(port, data: bytes, timeout=30.0):
    """Write raw bytes, read one framed response (for malformed-input
    tests where the request is deliberately broken)."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        writer.write(data)
        await writer.drain()
        return await asyncio.wait_for(read_response(reader),
                                      timeout=timeout)
    finally:
        writer.close()
        with contextlib.suppress(Exception):
            await writer.wait_closed()
