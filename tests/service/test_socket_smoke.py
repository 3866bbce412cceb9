"""Loopback smoke tests: the tests that use a real TCP socket.

Everything else in this suite drives the HTTP layer through in-process
transport stubs; these tests close the loop by binding ``serve()`` on an
ephemeral loopback port and speaking actual bytes through
``asyncio.open_connection`` -- submit, poll, and stream a job exactly
as a curl client would.  The whole request/poll conversation happens
over **one persistent connection** (HTTP/1.1 keep-alive), reading each
response by its ``Content-Length`` frame; only the SSE stream takes a
second connection, which the server terminates after the final event.
A second test checks that a QoS admission never stalls the loop that
answers ``/healthz``.
"""

from __future__ import annotations

import asyncio
import json
import time

from repro.service.http import serve, sockname
from repro.service.sse import parse_stream

from .conftest import encode_request, parse_response, running_app


async def _read_framed(reader, timeout=30.0):
    """One keep-alive response off the wire: head + Content-Length body."""
    head = await asyncio.wait_for(reader.readuntil(b"\r\n\r\n"), timeout)
    length = 0
    for line in head.decode("latin-1").split("\r\n"):
        if line.lower().startswith("content-length:"):
            length = int(line.split(":", 1)[1])
    body = await asyncio.wait_for(reader.readexactly(length), timeout)
    return head + body


async def _request(reader, writer, request_bytes, timeout=30.0):
    writer.write(request_bytes)
    await writer.drain()
    return await _read_framed(reader, timeout)


def test_loopback_socket_serves_jobs():
    async def body():
        async with running_app(n_workers=1) as (app, _):
            server = await serve(app, host="127.0.0.1", port=0)
            host, port = sockname(server)
            reader, writer = await asyncio.open_connection(host, port)
            try:
                raw = await _request(
                    reader, writer, encode_request("GET", "/v1/healthz")
                )
                status, headers, payload = parse_response(raw)
                assert status == 200 and payload == {"ok": True}
                assert headers["connection"] == "keep-alive"

                body_bytes = json.dumps({
                    "kind": "analytic",
                    "params": {"n": 8, "r": 2, "p": 2},
                    "qos": {"error_budget": 0.5},
                }).encode()
                raw = await _request(reader, writer, encode_request(
                    "POST", "/v1/jobs", body_bytes,
                    {"X-Tenant": "socketeer"},
                ))
                status, _, accepted = parse_response(raw)
                assert status == 202
                assert accepted["admission"]["mode"] == "approximate"
                job_id = accepted["job_id"]

                # Poll the job over the same connection until terminal.
                for _ in range(200):
                    raw = await _request(reader, writer, encode_request(
                        "GET", f"/v1/jobs/{job_id}"
                    ))
                    status, _, record = parse_response(raw)
                    assert status == 200
                    if record["state"] in ("done", "failed"):
                        break
                    await asyncio.sleep(0.05)
                assert record["state"] == "done"
                assert record["result"]["error_rate"] == 0.1875
                assert record["tenant"] == "socketeer"
            finally:
                writer.close()
                await writer.wait_closed()

            # SSE takes its own connection and the server closes it
            # after the terminal event: read() to EOF terminates.
            sse_reader, sse_writer = await asyncio.open_connection(host, port)
            try:
                sse_writer.write(encode_request(
                    "GET", f"/v1/jobs/{job_id}/events"
                ))
                await sse_writer.drain()
                raw = await asyncio.wait_for(sse_reader.read(), 30.0)
                head, _, stream = raw.partition(b"\r\n\r\n")
                assert b"text/event-stream" in head
                events = parse_stream(stream)
                assert events[-1]["event"] == "completed"
            finally:
                sse_writer.close()
                await sse_writer.wait_closed()
            server.close()
            await server.wait_closed()

    asyncio.run(body())


def test_healthz_stays_responsive_during_a_wide_qos_admission():
    """A QoS POST for GeAr(24, 1, 0) is admitted on the event loop; the
    loop must still answer a liveness probe sent right behind it."""
    bound_s = 2.0

    async def body():
        async with running_app(n_workers=1) as (app, _):
            server = await serve(app, host="127.0.0.1", port=0)
            host, port = sockname(server)
            post_r, post_w = await asyncio.open_connection(host, port)
            probe_r, probe_w = await asyncio.open_connection(host, port)
            try:
                # Budget 0 sends the job to its exact single-block twin,
                # which runs in milliseconds.
                payload = json.dumps({
                    "kind": "analytic",
                    "params": {"n": 24, "r": 1, "p": 0},
                    "qos": {"error_budget": 0.0},
                }).encode()
                start = time.perf_counter()
                post_w.write(encode_request(
                    "POST", "/v1/jobs", payload, {"X-Tenant": "wide"}
                ))
                await post_w.drain()
                probe_w.write(encode_request("GET", "/healthz"))
                await probe_w.drain()
                status, _, health = parse_response(
                    await _read_framed(probe_r, bound_s)
                )
                probe_s = time.perf_counter() - start
                assert status == 200 and health == {"ok": True}
                status, _, accepted = parse_response(
                    await _read_framed(post_r, bound_s)
                )
                post_s = time.perf_counter() - start
                assert status == 202
                assert accepted["admission"]["mode"] == "exact_fallback"
                assert probe_s < bound_s and post_s < bound_s
                await asyncio.wait_for(
                    app.jobs[accepted["job_id"]].done.wait(), 30.0
                )
            finally:
                for writer in (post_w, probe_w):
                    writer.close()
                    await writer.wait_closed()
                server.close()
                await server.wait_closed()

    asyncio.run(body())
