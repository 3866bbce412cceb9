"""Chaos jobs without a ``timeout_s`` still run outside the server.

Every job executes on the warm pool's worker processes, whatever its
kind and whether or not it sets a timeout: a task that changes its
process's signal handling or kills its own process must do so to a
pool worker, never to the server.  The crash case runs against a real
``repro serve`` subprocess, so a regression kills that child, not the
test runner.
"""

from __future__ import annotations

import asyncio
import time

from .test_kill_restart import ServeProcess


def test_stubborn_job_without_timeout_completes(service_harness):
    async def body():
        async with service_harness(
            n_workers=1, allow_chaos=True
        ) as (app, client):
            status, accepted = await client.post_job({
                "kind": "chaos_stubborn", "params": {"sleep_s": 0.05},
            })
            assert status == 202
            record = await client.wait_done(accepted["job_id"], timeout=60.0)
            assert record["state"] == "done", record
            assert record["result"] == {"slept": True}

    asyncio.run(body())


def _wait_terminal(server: ServeProcess, job_id: str) -> dict:
    deadline = time.monotonic() + 60.0
    while time.monotonic() < deadline:
        status, record = server.request("GET", f"/v1/jobs/{job_id}")
        assert status == 200, record
        if record["state"] in ("done", "failed"):
            return record
        time.sleep(0.1)
    raise AssertionError(f"job {job_id} never finished")


def test_crash_job_without_timeout_fails_and_server_survives(tmp_path):
    server = ServeProcess(str(tmp_path / "state"), workers=1)
    try:
        server.await_ready()
        status, crash = server.request(
            "POST", "/v1/jobs", {"kind": "chaos_crash", "params": {}}
        )
        assert status == 202, crash
        record = _wait_terminal(server, crash["job_id"])
        assert record["state"] == "failed"
        assert record["failure"]["error"] == "task_failed"
        assert record["failure"]["attempts"][-1]["outcome"] == "crash"

        status, ok = server.request(
            "POST", "/v1/jobs", {"kind": "chaos_ok", "params": {"x": 3}}
        )
        assert status == 202, ok
        record = _wait_terminal(server, ok["job_id"])
        assert record["state"] == "done"
        assert record["result"]["value"] == 9
        assert server.proc.poll() is None
    finally:
        server.shutdown()
        server.proc.stderr.close()
