"""Tenant result-byte quotas and the draining shutdown path.

Two resource-governance behaviors added alongside the warm engine:

* a tenant whose stored results exceed its ``max_result_bytes`` budget
  gets further submissions answered with a structured 429
  ``quota_exceeded`` -- while cache hits (which add no bytes) and other
  tenants keep working;
* :meth:`WorkerPool.stop` drains: in-flight jobs get a bounded grace
  period to finish, and every job still queued or running afterwards is
  failed with a terminal ``shutdown`` event, so no SSE subscriber is
  ever left on a silent stream.
"""

from __future__ import annotations

import asyncio

from repro.service.app import ServiceApp, ServiceConfig
from repro.service.tenants import TenantConfig

from .conftest import InProcessClient


def _job(seed, n=8):
    return {"kind": "analytic", "params": {"n": n, "r": 2, "p": 2},
            "seed": seed}


class TestResultByteQuota:
    def test_over_quota_tenant_gets_structured_429(self, service_harness):
        async def body():
            async with service_harness(
                n_workers=1,
                tenants={"hog": TenantConfig(name="hog", max_result_bytes=8)},
            ) as (app, client):
                status, accepted = await client.post_job(
                    _job(1), tenant="hog"
                )
                assert status == 202
                await client.wait_done(accepted["job_id"])
                used = app.store.tenant_bytes("hog")
                assert used > 8  # one analytic record blows the tiny budget

                status, rejected = await client.post_job(
                    _job(2), tenant="hog"
                )
                assert status == 429
                assert rejected == {
                    "error": "quota_exceeded",
                    "tenant": "hog",
                    "used_bytes": used,
                    "max_result_bytes": 8,
                }

                # Cache hits add no bytes, so replays still answer 200.
                status, replay = await client.post_job(_job(1), tenant="hog")
                assert status == 200
                assert replay["served_from"] == "cache"

                # Other tenants are untouched by the hog's quota.
                status, other = await client.post_job(
                    _job(3), tenant="polite"
                )
                assert status == 202
                await client.wait_done(other["job_id"])

                stats = app.stats()
                assert stats["store"]["bytes_by_tenant"]["hog"] == used
                assert stats["store"]["bytes_by_tenant"]["polite"] > 0

        asyncio.run(body())

    def test_unlimited_tenant_is_never_quota_limited(self, service_harness):
        async def body():
            async with service_harness(n_workers=1) as (app, client):
                for seed in range(5):
                    status, accepted = await client.post_job(_job(seed))
                    assert status == 202
                    await client.wait_done(accepted["job_id"])
                assert app.store.tenant_bytes("public") > 0

        asyncio.run(body())


class TestRetention:
    def test_finished_job_ledgers_stay_bounded(self, service_harness):
        async def body():
            async with service_harness(
                n_workers=1, max_jobs_retained=10,
            ) as (app, client):
                job_ids = []
                for seed in range(15):
                    status, accepted = await client.post_job(_job(seed))
                    assert status == 202
                    await client.wait_done(accepted["job_id"])
                    job_ids.append(accepted["job_id"])
                assert len(app.completion_order) == 10
                assert list(app.completion_order) == job_ids[-10:]
                assert len(app.jobs) == 10

        asyncio.run(body())


class TestDrainingShutdown:
    def test_in_flight_job_finishes_within_grace(self):
        async def body():
            app = ServiceApp(ServiceConfig(
                n_workers=1, allow_chaos=True, shutdown_grace_s=10.0,
            ))
            await app.start()
            client = InProcessClient(app)
            status, accepted = await client.post_job({
                "kind": "chaos_hang", "params": {"sleep_s": 0.3},
                "timeout_s": 10.0,
            })
            assert status == 202
            job = app.jobs[accepted["job_id"]]
            # Let the worker pop the job so it is genuinely in flight.
            while job.state != "running":
                await asyncio.sleep(0.01)
            await app.stop()
            assert job.state == "done"
            assert job.result == {"slept": True}

        asyncio.run(body())

    def test_queued_and_overdue_jobs_fail_with_terminal_shutdown(self):
        async def body():
            app = ServiceApp(ServiceConfig(
                n_workers=1, allow_chaos=True, shutdown_grace_s=0.2,
            ))
            await app.start()
            client = InProcessClient(app)
            status, wedged = await client.post_job({
                "kind": "chaos_hang", "params": {"sleep_s": 60.0},
                "timeout_s": 2.0,
            })
            assert status == 202
            stuck = app.jobs[wedged["job_id"]]
            while stuck.state != "running":
                await asyncio.sleep(0.01)
            queued = []
            for seed in range(3):
                status, accepted = await client.post_job(_job(seed))
                assert status == 202
                queued.append(app.jobs[accepted["job_id"]])

            await app.stop()

            # Still-queued jobs: terminal shutdown failure + accounting.
            for job in queued:
                assert job.state == "failed"
                assert job.failure["error"] == "shutdown"
                assert "before the job ran" in job.failure["message"]
                assert job.job_id in app.completion_order
                events = await client.sse_events(job.job_id, timeout=5.0)
                assert events[-1]["event"] == "failed"

            # The wedged in-flight job outlived the grace period: its
            # stream still terminates instead of dangling.
            assert stuck.state == "failed"
            assert stuck.failure["error"] == "shutdown"
            assert "during execution" in stuck.failure["message"]
            events = await client.sse_events(stuck.job_id, timeout=5.0)
            assert events[-1]["event"] == "failed"

        asyncio.run(body())

    @staticmethod
    async def _two_wedged_jobs(app):
        client = InProcessClient(app)
        wedged = []
        for seed in range(2):
            status, accepted = await client.post_job({
                "kind": "chaos_hang", "params": {"sleep_s": 60.0},
                "seed": seed, "timeout_s": 30.0,
            })
            assert status == 202
            wedged.append(app.jobs[accepted["job_id"]])
        while any(job.state != "running" for job in wedged):
            await asyncio.sleep(0.01)
        return client, wedged

    def test_stop_forks_no_replacement_workers(self):
        """Leases cancelled by the shutdown kill their workers; the pool
        closes in the same step, so none forks a replacement."""
        async def body():
            app = ServiceApp(ServiceConfig(
                n_workers=2, allow_chaos=True, shutdown_grace_s=0.0,
            ))
            await app.start()
            client, wedged = await self._two_wedged_jobs(app)
            await app.stop()
            assert app.pool.warm.n_spawned == 2
            for job in wedged:
                assert job.state == "failed"
                assert job.failure["error"] == "shutdown"
                events = await client.sse_events(job.job_id, timeout=5.0)
                assert events[-1]["event"] == "failed"

        asyncio.run(body())

    def test_abandon_forks_no_replacement_workers(self):
        async def body():
            app = ServiceApp(ServiceConfig(n_workers=2, allow_chaos=True))
            await app.start()
            await self._two_wedged_jobs(app)
            await app.abandon()
            assert app.pool.warm.n_spawned == 2

        asyncio.run(body())

    def test_stop_is_idempotent(self):
        async def body():
            app = ServiceApp(ServiceConfig(n_workers=1))
            await app.start()
            await app.stop()
            await app.stop()

        asyncio.run(body())
