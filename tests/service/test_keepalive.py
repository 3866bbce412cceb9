"""Keep-alive connection semantics of the HTTP layer.

One connection, many requests: these tests pin the negotiation rules
(HTTP/1.1 persistent by default, HTTP/1.0 opt-in), the framing-versus-
dispatch error split (parse errors poison the stream and close; route
errors keep it open), the per-connection request bound, and -- via a
hypothesis property -- that ``Content-Length`` framing survives
arbitrary pipelining and partial-read chunk boundaries.
"""

from __future__ import annotations

import asyncio
import json

from hypothesis import given, settings
from hypothesis import strategies as st

import repro.service.http as http
from repro.service.app import ServiceApp
from repro.service.http import MAX_BODY_BYTES, handle_connection

from .conftest import StubWriter, parse_response


def _req(method, path, body=None, headers=None, version="HTTP/1.1",
         content_length=True):
    head = [f"{method} {path} {version}", "Host: testserver"]
    for name, value in (headers or {}).items():
        head.append(f"{name}: {value}")
    if body and content_length:
        head.append(f"Content-Length: {len(body)}")
    return ("\r\n".join(head) + "\r\n\r\n").encode() + (body or b"")


async def _drive(app, chunks):
    """Feed byte chunks progressively into one connection; return buffer."""
    reader = asyncio.StreamReader()
    writer = StubWriter()

    async def feed():
        for chunk in chunks:
            reader.feed_data(chunk)
            await asyncio.sleep(0)
        reader.feed_eof()

    feeder = asyncio.ensure_future(feed())
    await handle_connection(app, reader, writer)
    await feeder
    assert writer.closed
    return bytes(writer.buffer)


def _split_responses(raw):
    """Split back-to-back framed responses; returns parse_response triples."""
    out = []
    while raw:
        head, sep, rest = raw.partition(b"\r\n\r\n")
        assert sep, f"truncated response head: {raw!r}"
        length = 0
        for line in head.decode("latin-1").split("\r\n"):
            if line.lower().startswith("content-length:"):
                length = int(line.split(":", 1)[1])
        assert len(rest) >= length, "body shorter than Content-Length"
        out.append(parse_response(head + sep + rest[:length]))
        raw = rest[length:]
    return out


class TestPersistentConnections:
    def test_two_requests_one_connection(self):
        async def body():
            app = ServiceApp()
            raw = await _drive(app, [
                _req("GET", "/v1/healthz") + _req("GET", "/v1/kinds"),
            ])
            first, second = _split_responses(raw)
            assert first[0] == 200 and first[2] == {"ok": True}
            assert first[1]["connection"] == "keep-alive"
            assert second[0] == 200 and "kinds" in second[2]

        asyncio.run(body())

    def test_connection_close_ends_the_conversation(self):
        async def body():
            app = ServiceApp()
            raw = await _drive(app, [
                _req("GET", "/v1/healthz",
                     headers={"Connection": "close"}),
                _req("GET", "/v1/healthz"),  # never read
            ])
            (only,) = _split_responses(raw)
            assert only[0] == 200
            assert only[1]["connection"] == "close"

        asyncio.run(body())

    def test_http10_defaults_to_close(self):
        async def body():
            app = ServiceApp()
            raw = await _drive(app, [
                _req("GET", "/v1/healthz", version="HTTP/1.0"),
                _req("GET", "/v1/healthz", version="HTTP/1.0"),
            ])
            (only,) = _split_responses(raw)
            assert only[1]["connection"] == "close"

        asyncio.run(body())

    def test_http10_keep_alive_opt_in(self):
        async def body():
            app = ServiceApp()
            raw = await _drive(app, [
                _req("GET", "/v1/healthz", version="HTTP/1.0",
                     headers={"Connection": "keep-alive"}),
                _req("GET", "/v1/healthz", version="HTTP/1.0",
                     headers={"Connection": "keep-alive"}),
            ])
            assert len(_split_responses(raw)) == 2

        asyncio.run(body())

    def test_submit_and_poll_over_one_connection(self, service_harness):
        async def body():
            async with service_harness(n_workers=1) as (app, client):
                payload = json.dumps({
                    "kind": "analytic", "params": {"n": 8, "r": 2, "p": 2},
                }).encode()
                raw = await _drive(app, [
                    _req("POST", "/v1/jobs", payload,
                         headers={"X-Tenant": "ka"}),
                ])
                (submitted,) = _split_responses(raw)
                assert submitted[0] == 202
                job_id = submitted[2]["job_id"]
                await client.wait_done(job_id)
                raw = await _drive(app, [
                    _req("GET", f"/v1/jobs/{job_id}")
                    + _req("GET", "/v1/stats"),
                ])
                record, stats = _split_responses(raw)
                assert record[2]["state"] == "done"

        asyncio.run(body())

    def test_dispatch_error_keeps_connection_alive(self):
        async def body():
            app = ServiceApp()
            raw = await _drive(app, [
                _req("GET", "/v1/nope") + _req("GET", "/v1/healthz"),
            ])
            missing, healthy = _split_responses(raw)
            assert missing[0] == 404
            assert missing[1]["connection"] == "keep-alive"
            assert healthy[0] == 200

        asyncio.run(body())

    def test_handler_crash_answers_500_and_closes(self):
        class _BoomApp:
            async def dispatch(self, request):
                raise RuntimeError("boom")

        async def body():
            raw = await _drive(_BoomApp(), [
                _req("GET", "/v1/healthz") + _req("GET", "/v1/healthz"),
            ])
            (only,) = _split_responses(raw)
            assert only[0] == 500
            assert only[1]["connection"] == "close"
            assert only[2]["error"] == "internal"

        asyncio.run(body())

    def test_max_requests_per_connection(self, monkeypatch):
        monkeypatch.setattr(http, "MAX_REQUESTS_PER_CONNECTION", 2)

        async def body():
            app = ServiceApp()
            raw = await _drive(app, [
                _req("GET", "/v1/healthz") * 3,
            ])
            responses = _split_responses(raw)
            assert len(responses) == 2
            assert responses[0][1]["connection"] == "keep-alive"
            assert responses[1][1]["connection"] == "close"

        asyncio.run(body())


class TestFramingErrors:
    """Parse-level rejections: structured status + Connection: close."""

    def _expect_single(self, chunks, status, error):
        async def body():
            app = ServiceApp()
            raw = await _drive(app, chunks)
            (only,) = _split_responses(raw)
            assert only[0] == status
            assert only[1]["connection"] == "close"
            assert only[2]["error"] == error

        asyncio.run(body())

    def test_post_without_content_length_is_411(self):
        # A trailing healthz shows the poisoned stream is NOT re-parsed.
        self._expect_single(
            [_req("POST", "/v1/jobs", b'{"kind": "analytic"}',
                  content_length=False) + _req("GET", "/v1/healthz")],
            411, "length_required",
        )

    def test_transfer_encoding_is_411(self):
        self._expect_single(
            [_req("POST", "/v1/jobs",
                  headers={"Transfer-Encoding": "chunked"})],
            411, "length_required",
        )

    def test_negative_content_length_is_400(self):
        self._expect_single(
            [_req("POST", "/v1/jobs",
                  headers={"Content-Length": "-5"})],
            400, "bad_request",
        )

    def test_oversized_body_is_413(self):
        self._expect_single(
            [_req("POST", "/v1/jobs",
                  headers={"Content-Length": str(MAX_BODY_BYTES + 1)})],
            413, "too_large",
        )

    def test_truncated_body_is_400(self):
        self._expect_single(
            [_req("POST", "/v1/jobs", b"{}")[:-1]],
            400, "bad_request",
        )

    def test_malformed_request_line_is_400(self):
        self._expect_single([b"NONSENSE\r\n\r\n"], 400, "bad_request")


class TestFramingProperty:
    """Framing survives arbitrary pipelining and chunk boundaries."""

    @settings(max_examples=40, deadline=None)
    @given(
        paths=st.lists(
            st.sampled_from(["/v1/healthz", "/v1/kinds", "/v1/stats"]),
            min_size=1, max_size=6,
        ),
        cuts=st.lists(st.integers(min_value=1, max_value=400),
                      max_size=8),
    )
    def test_pipelined_requests_with_partial_reads(self, paths, cuts):
        wire = b"".join(_req("GET", path) for path in paths)
        chunks, start = [], 0
        for cut in sorted(set(cuts)):
            if cut >= len(wire):
                break
            chunks.append(wire[start:cut])
            start = cut
        chunks.append(wire[start:])

        async def body():
            app = ServiceApp()
            return await _drive(app, chunks)

        responses = _split_responses(asyncio.run(body()))
        assert len(responses) == len(paths)
        for status, headers, payload in responses:
            assert status == 200
            assert isinstance(payload, dict)
            assert headers["connection"] == "keep-alive"
            assert int(headers["content-length"]) == len(
                json.dumps(payload, sort_keys=True).encode()
            )

    def test_sse_terminates_its_connection(self, service_harness):
        async def body():
            async with service_harness(n_workers=1) as (app, client):
                status, accepted = await client.post_job({
                    "kind": "analytic", "params": {"n": 8, "r": 2, "p": 2},
                })
                assert status == 202
                job_id = accepted["job_id"]
                await client.wait_done(job_id)
                # Trailing healthz after the SSE request must be ignored:
                # the stream owns the rest of the connection.
                raw = await _drive(app, [
                    _req("GET", f"/v1/jobs/{job_id}/events")
                    + _req("GET", "/v1/healthz"),
                ])
                head, _, stream = raw.partition(b"\r\n\r\n")
                assert b"text/event-stream" in head
                assert b"Connection: close" in head
                assert b"HTTP/1.1 200 OK" not in stream  # no healthz reply
                assert b"event: completed" in stream

        asyncio.run(body())
