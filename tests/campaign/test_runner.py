"""Tests for the campaign runner: caching, resume, worker invariance."""

import asyncio

import pytest

from repro.campaign import (
    CampaignTask,
    ResultCache,
    register,
    run_campaign,
    task_kinds,
)


@register("test_square")
def _test_square(params, seed):
    """Test-only kind: deterministic function of params and seed."""
    return {"value": params["x"] * params["x"], "seed": seed}


def _tasks(n):
    return [CampaignTask("test_square", {"x": i}, seed=100 + i)
            for i in range(n)]


class TestSerialRunner:
    def test_results_in_task_order(self):
        result = run_campaign(_tasks(5))
        assert [r["value"] for r in result.results] == [0, 1, 4, 9, 16]

    def test_seed_reaches_task(self):
        result = run_campaign(_tasks(2))
        assert [r["seed"] for r in result.results] == [100, 101]

    def test_stats_counts(self):
        stats = run_campaign(_tasks(4)).stats
        assert stats.n_tasks == 4
        assert stats.n_unique == 4
        assert stats.n_executed == 4
        assert stats.n_cache_hits == 0
        assert stats.wall_s > 0

    def test_duplicate_tasks_executed_once(self):
        tasks = _tasks(3) + _tasks(3)
        result = run_campaign(tasks)
        assert result.stats.n_executed == 3
        assert result.results[:3] == result.results[3:]

    def test_unknown_kind_fails_fast(self):
        with pytest.raises(KeyError, match="unknown task kind"):
            run_campaign([CampaignTask("no_such_kind", {})])

    def test_progress_callback_streams(self):
        seen = []
        run_campaign(_tasks(3), progress=lambda done, total: seen.append((done, total)))
        assert seen[0] == (0, 3)
        assert seen[-1] == (3, 3)
        assert [d for d, _ in seen] == sorted(d for d, _ in seen)

    def test_builtin_kinds_registered(self):
        expected = {"gear_dse_row", "analytic", "ripple_adder",
                    "gear_adder", "multiplier", "sad_quality", "filter_ssim"}
        assert expected <= set(task_kinds())
        assert "gear_mc_chunk" not in task_kinds()


class TestCaching:
    def test_cold_then_warm(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        cold = run_campaign(_tasks(4), cache_dir=cache_dir)
        assert cold.stats.n_executed == 4
        warm = run_campaign(_tasks(4), cache_dir=cache_dir)
        assert warm.stats.n_executed == 0
        assert warm.stats.n_cache_hits == 4
        assert warm.results == cold.results

    def test_partial_cache_recomputes_only_missing(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        tasks = _tasks(6)
        run_campaign(tasks, cache_dir=cache_dir)
        cache = ResultCache(cache_dir)
        evicted = [tasks[1].key, tasks[4].key]
        for key in evicted:
            assert cache.evict(key)
        resumed = run_campaign(tasks, cache_dir=cache_dir)
        assert resumed.stats.n_executed == len(evicted)
        assert resumed.stats.n_cache_hits == len(tasks) - len(evicted)
        assert [r["value"] for r in resumed.results] == [
            i * i for i in range(6)
        ]

    def test_param_change_misses(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        run_campaign(_tasks(1), cache_dir=cache_dir)
        changed = [CampaignTask("test_square", {"x": 0}, seed=999)]
        result = run_campaign(changed, cache_dir=cache_dir)
        assert result.stats.n_executed == 1

    def test_no_cache_dir_always_executes(self):
        first = run_campaign(_tasks(2))
        second = run_campaign(_tasks(2))
        assert first.stats.n_executed == second.stats.n_executed == 2


class TestParallelRunner:
    def test_worker_count_invariance(self, tmp_path):
        tasks = [
            CampaignTask("gear_dse_row",
                         {"n": 8, "r": 2, "p": 2, "model": "monte_carlo",
                          "n_samples": 2000},
                         seed=s)
            for s in range(8)
        ]
        serial = run_campaign(tasks, n_workers=1)
        two = run_campaign(tasks, n_workers=2)
        four = run_campaign(tasks, n_workers=4)
        assert serial.results == two.results == four.results

    def test_parallel_writes_cache(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        tasks = _tasks(5)
        cold = run_campaign(tasks, n_workers=3, cache_dir=cache_dir)
        assert cold.stats.n_executed == 5
        warm = run_campaign(tasks, n_workers=3, cache_dir=cache_dir)
        assert warm.stats.n_executed == 0
        assert warm.results == cold.results

    def test_parallel_matches_serial_cache_content(self, tmp_path):
        serial_dir = str(tmp_path / "serial")
        parallel_dir = str(tmp_path / "parallel")
        tasks = _tasks(6)
        serial = run_campaign(tasks, cache_dir=serial_dir)
        parallel = run_campaign(tasks, n_workers=4, cache_dir=parallel_dir)
        assert serial.results == parallel.results
        assert set(ResultCache(serial_dir).keys()) == set(
            ResultCache(parallel_dir).keys()
        )

    def test_pool_campaign_from_inside_an_event_loop(self):
        """A coroutine (a notebook cell, say) can run a pool campaign."""
        async def body():
            return run_campaign(_tasks(3), n_workers=2)

        result = asyncio.run(body())
        assert [r["value"] for r in result.results] == [0, 1, 4]

    def test_stats_worker_utilization_bounded(self):
        stats = run_campaign(_tasks(6), n_workers=2).stats
        assert 0.0 <= stats.worker_utilization <= 1.0
        assert "workers" in stats.summary()
