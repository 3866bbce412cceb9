"""Chaos tests for the warm persistent worker-pool execution engine.

The warm pool runs every isolated campaign with long-lived pre-forked
workers, so its failure modes are those of a shared worker: a hung
task wedges it, a SIGKILLed task takes it down, and both must be
answered by recycling (kill + respawn) without disturbing sibling
tasks streaming through the other workers.  These tests pin that
behavior -- and pin the contract that pool results and failure
records are bit-identical to the serial in-process path's.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.campaign import CampaignTask, WarmPool, run_campaign


def _ok(x):
    return CampaignTask("chaos_ok", {"x": x})


def _analytic(seed, n=8):
    return CampaignTask("analytic", {"n": n, "r": 2, "p": 2}, seed=seed)


def _records_without_elapsed(result):
    """Failure records by task index (the pool quarantines out of order)."""
    records = {}
    for failure in result.failures:
        record = failure.to_record()
        for attempt in record["attempts"]:
            attempt.pop("elapsed_s")  # wall-clock differs between runs
        records[failure.index] = record
    return records


class TestBitIdentity:
    def test_warm_matches_process_engine_bit_for_bit(self):
        """The reference is the serial in-process path."""
        tasks = [_analytic(s) for s in range(6)] + \
            [_analytic(s, n=12) for s in range(3)] + \
            [_ok(i) for i in range(3)]
        serial = run_campaign(tasks)
        warm = run_campaign(tasks, n_workers=2, timeout_s=30.0)
        assert serial.ok and warm.ok
        assert serial.results == warm.results

    def test_warm_failure_records_match_process_schema(self):
        """Pool records equal the serial in-process path's, field by
        field, an exception with an empty message included."""
        tasks = [
            CampaignTask("chaos_error", {}),
            CampaignTask("chaos_error", {"message": ""}),
            _ok(2),
        ]
        serial = run_campaign(tasks, max_attempts=2, backoff_base_s=0.01)
        warm = run_campaign(
            tasks, timeout_s=10.0, max_attempts=2, backoff_base_s=0.01,
        )
        records = _records_without_elapsed(warm)
        assert records == _records_without_elapsed(serial)
        assert records[1]["attempts"][0]["message"] == "ValueError"
        assert warm.stats.n_retries == serial.stats.n_retries == 2


class TestRecycling:
    def test_hung_worker_recycled_while_siblings_complete(self):
        pool = WarmPool(n_workers=2).start()
        try:
            tasks = [CampaignTask("chaos_hang", {"sleep_s": 60.0})] + \
                [_ok(i) for i in range(4)]
            result = run_campaign(
                tasks, n_workers=2, timeout_s=0.5, warm_pool=pool
            )
            assert result.results[1:] == [
                {"value": i * i, "seed": 0} for i in range(4)
            ]
            (failure,) = result.failures
            assert failure.kind == "chaos_hang"
            assert failure.attempts[-1].outcome == "timeout"
            assert "timeout_s=0.5" in failure.attempts[-1].message
            assert result.stats.n_timeouts == 1
            assert pool.n_recycled >= 1
            # The respawned worker serves follow-up work on the same pool.
            again = run_campaign([_ok(9)], timeout_s=5.0, warm_pool=pool)
            assert again.results == [{"value": 81, "seed": 0}]
        finally:
            pool.close()

    def test_sigkilled_worker_is_respawned(self):
        pool = WarmPool(n_workers=2).start()
        try:
            result = run_campaign(
                [_ok(1), CampaignTask("chaos_crash", {}), _ok(3)],
                n_workers=2, timeout_s=10.0, warm_pool=pool,
            )
            assert result.results[0] == {"value": 1, "seed": 0}
            assert result.results[2] == {"value": 9, "seed": 0}
            (failure,) = result.failures
            assert failure.attempts[-1].outcome == "crash"
            assert "exit code -9" in failure.attempts[-1].message
            assert result.stats.n_crashes == 1
            assert pool.n_recycled >= 1
            assert pool.n_spawned >= 3  # 2 initial + >=1 respawn
        finally:
            pool.close()

    def test_tasks_batched_behind_a_hung_head_are_not_charged(self):
        """One worker gets all four tasks in one batch; the hung head is
        charged its timeout, the three behind it rerun uncharged."""
        with WarmPool(n_workers=1) as pool:
            tasks = [CampaignTask("chaos_hang", {"sleep_s": 60.0})] + \
                [_ok(i) for i in range(3)]
            result = run_campaign(tasks, timeout_s=0.5, warm_pool=pool)
            assert result.results[1:] == [
                {"value": i * i, "seed": 0} for i in range(3)
            ]
            (failure,) = result.failures
            assert [a.outcome for a in failure.attempts] == ["timeout"]
            assert result.stats.n_retries == 0
            assert pool.n_recycled == 1

    def test_stubborn_worker_escalates_to_sigkill(self):
        """A worker ignoring SIGTERM must still be recycled at deadline."""
        pool = WarmPool(n_workers=1).start()
        try:
            result = run_campaign(
                [CampaignTask("chaos_stubborn", {"sleep_s": 60.0})],
                timeout_s=0.5, warm_pool=pool,
            )
            (failure,) = result.failures
            assert failure.attempts[-1].outcome == "timeout"
            assert pool.n_recycled == 1
            follow_up = run_campaign([_ok(2)], timeout_s=5.0, warm_pool=pool)
            assert follow_up.results == [{"value": 4, "seed": 0}]
        finally:
            pool.close()

    def test_completed_but_overdue_attempt_is_a_timeout(self):
        # A result that lands in the pipe after its deadline is a
        # timeout, not a win: the verdict follows the worker's clock.
        result = run_campaign([_ok(3)], timeout_s=1e-9)
        assert result.results == [None]
        (failure,) = result.failures
        assert failure.attempts[-1].outcome == "timeout"
        assert "timeout_s=1e-09" in failure.attempts[-1].message
        assert result.stats.n_timeouts == 1


class TestRetries:
    def test_flaky_succeeds_after_retries_on_warm_pool(self, tmp_path):
        task = CampaignTask(
            "chaos_flaky",
            {"scratch_dir": str(tmp_path / "flaky"), "fail_times": 2, "x": 6},
        )
        result = run_campaign(
            [task], n_workers=2, timeout_s=10.0,
            max_attempts=3, backoff_base_s=0.01,
        )
        assert result.ok
        assert result.results[0]["value"] == 6
        assert result.results[0]["attempts"] == 3
        assert result.stats.n_retries == 2


class TestPoolReuse:
    def test_shared_pool_spawns_no_extra_workers(self):
        with WarmPool(n_workers=2) as pool:
            for round_ in range(3):
                result = run_campaign(
                    [_analytic(100 * round_ + i) for i in range(4)],
                    n_workers=2, timeout_s=30.0, warm_pool=pool,
                )
                assert result.ok
            assert pool.n_spawned == 2
            assert pool.n_recycled == 0
            assert pool.n_tasks_done == 12

    @pytest.mark.parametrize("bound", [1, 3])
    def test_campaign_honours_max_tasks_per_worker(self, bound):
        # 9 tasks: a bound of 3 caps each batch of 4 at 3, so three
        # workers reach it (an uncapped batch would recycle only two).
        tasks = [_ok(i) for i in range(9)]
        with WarmPool(n_workers=1, max_tasks_per_worker=bound) as pool:
            result = run_campaign(tasks, warm_pool=pool)
            # A fresh worker per `bound` tasks, plus the replacement
            # forked when the last one is released.
            assert pool.n_spawned == 1 + 9 // bound
            assert pool.n_recycled == 9 // bound
        assert result.results == run_campaign(tasks).results

    def test_execute_front_end(self):
        with WarmPool(n_workers=1) as pool:
            result, failure = asyncio.run(pool.execute(_ok(5), timeout_s=5.0))
            assert failure is None
            assert result == {"value": 25, "seed": 0}
            result, failure = asyncio.run(pool.execute(
                CampaignTask("chaos_hang", {"sleep_s": 60.0}),
                timeout_s=0.3, max_attempts=2, backoff_base_s=0.01,
            ))
            assert result is None
            assert failure.index == 0
            assert failure.attempts[-1].outcome == "timeout"
            assert len(failure.attempts) == 2
            assert pool.n_recycled == 2

    def test_closed_pool_refuses_work(self):
        pool = WarmPool(n_workers=1).start()
        pool.close()
        with pytest.raises(RuntimeError, match="closed"):
            run_campaign([_ok(1)], warm_pool=pool)


class TestAsyncLease:
    """The service's lease: a coroutine that waits for replies on the
    loop and recycles workers on a thread."""

    def test_cancelled_lease_releases_a_fresh_worker(self):
        async def body(pool):
            doomed = asyncio.ensure_future(pool.execute(
                CampaignTask("chaos_hang", {"sleep_s": 0.5}), timeout_s=5.0,
            ))
            await asyncio.sleep(0.2)
            doomed.cancel()
            with pytest.raises(asyncio.CancelledError):
                await doomed
            # The hung task's late reply must not answer this lease.
            return await asyncio.wait_for(pool.execute(_ok(7)), 2.0)

        with WarmPool(n_workers=1) as pool:
            result, failure = asyncio.run(body(pool))
            assert failure is None
            assert result == {"value": 49, "seed": 0}
            assert pool.n_recycled == 1
            # The pool kept its one worker: more work forks nothing.
            assert run_campaign([_ok(1), _ok(2)], warm_pool=pool).ok
            assert pool.n_spawned == 2

    def test_recycle_runs_off_the_loop(self):
        """A SIGTERM-deaf worker takes the kill grace period to reap;
        the loop keeps ticking meanwhile."""
        async def body(pool):
            loop = asyncio.get_running_loop()
            lateness = []
            done = asyncio.Event()

            async def heartbeat():
                while not done.is_set():
                    due = loop.time() + 0.001
                    await asyncio.sleep(0.001)
                    lateness.append(loop.time() - due)

            beat = asyncio.ensure_future(heartbeat())
            outcome = await pool.execute(
                CampaignTask("chaos_stubborn", {"sleep_s": 60.0}),
                timeout_s=0.2,
            )
            done.set()
            await beat
            return outcome, max(lateness)

        with WarmPool(n_workers=1) as pool:
            (result, failure), worst = asyncio.run(body(pool))
            assert result is None
            assert failure.attempts[-1].outcome == "timeout"
            assert pool.n_recycled == 1
            assert worst < 0.1, f"heartbeat {worst * 1e3:.0f} ms late"

    def test_leases_wait_for_a_busy_worker(self):
        async def body(pool):
            return await asyncio.wait_for(
                asyncio.gather(*(pool.execute(_ok(i)) for i in range(4))),
                10.0,
            )

        with WarmPool(n_workers=1) as pool:
            outcomes = asyncio.run(body(pool))
            assert outcomes == [
                ({"value": i * i, "seed": 0}, None) for i in range(4)
            ]
            assert pool.n_spawned == 1

    def test_close_fails_a_waiting_lease(self):
        async def body(pool):
            busy = asyncio.ensure_future(
                pool.execute(CampaignTask("chaos_hang", {"sleep_s": 0.3}))
            )
            await asyncio.sleep(0.05)
            waiting = asyncio.ensure_future(pool.execute(_ok(3)))
            await asyncio.sleep(0.05)
            pool.close()
            return await asyncio.wait_for(
                asyncio.gather(busy, waiting), 5.0
            )

        pool = WarmPool(n_workers=1).start()
        (slept, _), (result, failure) = asyncio.run(body(pool))
        assert slept == {"slept": True}
        assert result is None
        assert failure.attempts[0].message == (
            "warm pool closed during execution"
        )
        # No idle worker is left to serve, and none is forked.
        _, failure = asyncio.run(pool.execute(_ok(4)))
        assert failure.attempts[0].message == (
            "warm pool closed during execution"
        )
        assert pool.n_spawned == 1
