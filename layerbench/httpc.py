"""A minimal asyncio HTTP/1.1 client for the served workloads.

Only what the load generator needs: keep-alive JSON requests framed by
``Content-Length`` and an SSE reader that stops at the terminal event.
It shares no code with the server, so a framing bug on either side
shows up as a failed operation.
"""

from __future__ import annotations

import asyncio
import json
from typing import Any, Dict, List, Optional, Tuple

TERMINAL_EVENTS = ("completed", "failed")


def post_bytes(payload: Dict[str, Any], tenant: str) -> bytes:
    body = json.dumps(payload, sort_keys=True).encode("utf-8")
    head = (
        "POST /v1/jobs HTTP/1.1\r\n"
        "Host: bench\r\n"
        f"X-Tenant: {tenant}\r\n"
        "Content-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\n\r\n"
    )
    return head.encode("ascii") + body


def get_bytes(path: str) -> bytes:
    return f"GET {path} HTTP/1.1\r\nHost: bench\r\n\r\n".encode("ascii")


async def read_head(reader: asyncio.StreamReader) -> Tuple[int, Dict[str, str]]:
    """Status code and lower-cased headers of one response."""
    head = await reader.readuntil(b"\r\n\r\n")
    lines = head.decode("latin-1").split("\r\n")
    status = int(lines[0].split(" ", 2)[1])
    headers: Dict[str, str] = {}
    for line in lines[1:]:
        if line:
            name, _, value = line.partition(":")
            headers[name.strip().lower()] = value.strip()
    return status, headers


async def read_response(
    reader: asyncio.StreamReader,
) -> Tuple[int, Dict[str, str], bytes]:
    """One ``Content-Length``-framed response."""
    status, headers = await read_head(reader)
    body = await reader.readexactly(int(headers.get("content-length", "0")))
    return status, headers, body


async def read_events(reader: asyncio.StreamReader) -> Tuple[int, List[Dict]]:
    """Status and events of an SSE response, up to the terminal event."""
    status, headers = await read_head(reader)
    if status != 200:
        await reader.readexactly(int(headers.get("content-length", "0")))
        return status, []
    events: List[Dict] = []
    while True:
        frame = await reader.readuntil(b"\n\n")
        event: Dict[str, Any] = {}
        for line in frame.decode("utf-8").splitlines():
            field, _, value = line.partition(":")
            value = value.strip()
            if field == "id":
                event["id"] = int(value)
            elif field == "event":
                event["event"] = value
            elif field == "data":
                event["data"] = json.loads(value)
        events.append(event)
        if event.get("event") in TERMINAL_EVENTS:
            return status, events


async def close(writer: Optional[asyncio.StreamWriter]) -> None:
    if writer is None:
        return
    writer.close()
    try:
        await writer.wait_closed()
    except (ConnectionError, OSError):
        pass


async def run_job(host: str, port: int, payload: Dict[str, Any],
                  tenant: str) -> Tuple[Dict[str, Any], Dict[str, Any]]:
    """Submit one job, follow it to its end, fetch its record.

    Returns ``(admission_record, job_record)``; raises ``RuntimeError``
    on any non-2xx answer or a stream that ends without ``completed``.
    """
    reader, writer = await asyncio.open_connection(host, port)
    try:
        writer.write(post_bytes(payload, tenant))
        status, _, body = await read_response(reader)
        if status not in (200, 202):
            raise RuntimeError(f"POST answered {status}: {body[:200]!r}")
        admitted = json.loads(body)
        path = f"/v1/jobs/{admitted['job_id']}"
        if status == 202:
            writer.write(get_bytes(path + "/events"))
            status, events = await read_events(reader)
            if status != 200 or events[-1].get("event") != "completed":
                raise RuntimeError(f"job {admitted['job_id']} did not complete")
            await close(writer)
            reader, writer = await asyncio.open_connection(host, port)
        writer.write(get_bytes(path))
        status, _, body = await read_response(reader)
        if status != 200:
            raise RuntimeError(f"GET {path} answered {status}")
        return admitted, json.loads(body)
    finally:
        await close(writer)
