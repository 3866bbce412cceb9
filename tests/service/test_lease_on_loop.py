"""The service's warm-pool lease runs on the event loop.

A healthy job is one pipe round-trip awaited by the loop itself: no
executor thread, and so no cross-thread wake-up or GIL hand-over, sits
on its path.  Only recycles (kill + respawn) leave the loop.
"""

from __future__ import annotations

import asyncio


def test_healthy_jobs_make_no_executor_hop(service_harness):
    async def body():
        async with service_harness(n_workers=2) as (app, client):
            loop = asyncio.get_running_loop()
            hops = []
            run_in_executor = loop.run_in_executor

            def counting(*args, **kwargs):
                hops.append(args)
                return run_in_executor(*args, **kwargs)

            loop.run_in_executor = counting
            try:
                job_ids = []
                for seed in range(20):
                    status, accepted = await client.post_job({
                        "kind": "analytic",
                        "params": {"n": 8, "r": 2, "p": 2},
                        "seed": seed,
                    })
                    assert status == 202
                    job_ids.append(accepted["job_id"])
                records = await asyncio.gather(*(
                    client.wait_done(job_id) for job_id in job_ids
                ))
            finally:
                del loop.run_in_executor
            assert [r["state"] for r in records] == ["done"] * 20
            assert app.pool.n_campaign_executions == 20
            assert hops == []

    asyncio.run(body())
