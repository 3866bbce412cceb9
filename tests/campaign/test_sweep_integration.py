"""Campaign-engine integration with the real characterization sweeps."""

import pytest

from repro.accelerators.sad import characterize_sad_family
from repro.adders.characterize import characterize_ripple_family
from repro.adders.gear import GeArConfig
from repro.adders.gear_error import (
    monte_carlo_error_rate_sharded,
)
from repro.campaign import CampaignTask
from repro.campaign.registry import execute_task
from repro.dse.explorer import explore_gear_space_campaign
from repro.multipliers.characterize import fig6_multiplier_family


class TestTableIVCampaign:
    def test_warm_cache_rerun_recomputes_nothing(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        kwargs = dict(model="monte_carlo", n_samples=10_000, seed=3,
                      cache_dir=cache_dir)
        cold = explore_gear_space_campaign(11, **kwargs)
        assert cold.stats.n_executed == len(cold.results) == 17
        warm = explore_gear_space_campaign(11, **kwargs)
        assert warm.stats.n_executed == 0
        assert warm.stats.n_cache_hits == 17
        assert warm.results == cold.results

    def test_worker_invariance_through_cacheless_runs(self):
        kwargs = dict(model="monte_carlo", n_samples=10_000, seed=3)
        serial = explore_gear_space_campaign(11, **kwargs)
        parallel = explore_gear_space_campaign(11, n_workers=4, **kwargs)
        assert serial.results == parallel.results

    def test_stats_report_shape(self, tmp_path):
        result = explore_gear_space_campaign(
            8, model="exact", cache_dir=str(tmp_path / "c")
        )
        summary = result.stats.summary()
        assert "executed" in summary and "cache hits" in summary


class TestFamilySweepsThroughEngine:
    def test_ripple_family_worker_invariance(self):
        kwargs = dict(approx_lsb_counts=(0, 2), fa_names=["ApxFA1"],
                      n_samples=2000, seed=1)
        serial = characterize_ripple_family(8, **kwargs)
        parallel = characterize_ripple_family(8, n_workers=2, **kwargs)
        assert serial == parallel
        assert [r.name for r in serial] == ["RCA8[ApxFA1x0]",
                                            "RCA8[ApxFA1x2]"]

    def test_fig6_family_cache_roundtrip(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        kwargs = dict(widths=(2, 4), n_samples=2000)
        cold = fig6_multiplier_family(cache_dir=cache_dir, **kwargs)
        warm = fig6_multiplier_family(cache_dir=cache_dir, **kwargs)
        assert cold == warm
        # 3 x 2x2 specs + 4 recursive variants at width 4.
        assert len(cold) == 7

    def test_sad_family_matches_legacy_record_shape(self):
        records = characterize_sad_family(n_pixels=16, lsb_counts=(2,),
                                          n_samples=200, n_workers=2)
        assert records[0]["name"] == "AccuSAD"
        assert records[0]["mean_error_distance"] == 0.0
        assert {"name", "fa", "approx_lsbs", "mean_error_distance",
                "mean_relative_error", "energy_fj"} <= set(records[0])
        assert len(records) == 1 + 5  # AccuSAD + one row per ApxFA cell

    def test_filter_ssim_task_at_small_size(self):
        """Any size the 11x11 SSIM window accepts, including those where
        ``size // 8 <= 2`` (11 to 23 pixels)."""
        task = CampaignTask(
            "filter_ssim",
            {"image": "edges", "fa": "ApxFA2", "approx_lsbs": 4, "size": 16},
            seed=3,
        )
        record = execute_task(task)
        assert record["image"] == "edges"
        assert 0.0 < record["ssim"] <= 1.0

    def test_filter_ssim_unknown_image_rejected(self):
        task = CampaignTask("filter_ssim", {"image": "lena"}, seed=0)
        with pytest.raises(KeyError, match="unknown standard image 'lena'"):
            execute_task(task)


class TestShardedMonteCarlo:
    def test_worker_and_chunking_invariance(self):
        config = GeArConfig(8, 2, 2)
        kwargs = dict(n_samples=30_000, seed=9, chunk_samples=8_192)
        serial = monte_carlo_error_rate_sharded(config, **kwargs)
        parallel = monte_carlo_error_rate_sharded(config, n_workers=3,
                                                  **kwargs)
        assert serial == parallel

    def test_close_to_exact_probability(self):
        from repro.adders.gear_error import exact_error_probability

        config = GeArConfig(8, 2, 2)
        estimate = monte_carlo_error_rate_sharded(config, n_samples=120_000,
                                                  seed=0)
        assert estimate == pytest.approx(exact_error_probability(config),
                                         abs=0.01)

    def test_resume_from_partial_shards(self, tmp_path):
        from repro.campaign import ResultCache

        cache_dir = str(tmp_path / "cache")
        config = GeArConfig(8, 2, 2)
        kwargs = dict(n_samples=40_000, seed=2, chunk_samples=10_000)
        full = monte_carlo_error_rate_sharded(config, cache_dir=cache_dir,
                                              **kwargs)
        cache = ResultCache(cache_dir)
        assert len(cache) == 4
        dropped = next(iter(cache.keys()))
        cache.evict(dropped)
        resumed = monte_carlo_error_rate_sharded(config, cache_dir=cache_dir,
                                                 **kwargs)
        assert resumed == full

    def test_rejects_bad_sample_counts(self):
        config = GeArConfig(8, 2, 2)
        with pytest.raises(ValueError, match="n_samples"):
            monte_carlo_error_rate_sharded(config, n_samples=0)
        with pytest.raises(ValueError, match="chunk_samples"):
            monte_carlo_error_rate_sharded(config, chunk_samples=0)
