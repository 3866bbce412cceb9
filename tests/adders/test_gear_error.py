"""Tests for the GeAr error-probability models (paper vs. exact vs. sim)."""

import numpy as np
import pytest

from repro.adders.gear import GeArConfig
from repro.adders.gear_error import (
    accuracy_percent,
    error_events,
    exhaustive_error_rate,
    monte_carlo_error_rate,
    paper_error_probability,
)
from repro.errors.analytic import analytic_error_rate


class TestErrorEvents:
    def test_event_count_is_r_times_k_minus_1(self):
        cfg = GeArConfig(12, 4, 4)
        assert len(error_events(cfg)) == cfg.r * (cfg.k - 1)

    def test_event_probability_formula(self):
        cfg = GeArConfig(12, 4, 4)
        events = error_events(cfg)
        # Event with generate right below the window: 1/4 * (1/2)**P.
        nearest = min(events, key=lambda e: len(e.propagate_bits))
        assert nearest.probability == pytest.approx(0.25 * 0.5**cfg.p)

    def test_events_reference_valid_bits(self):
        cfg = GeArConfig(16, 2, 2)
        for event in error_events(cfg):
            assert 0 <= event.generate_bit < cfg.n
            assert all(0 <= b < cfg.n for b in event.propagate_bits)


class TestModelAgreement:
    @pytest.mark.parametrize(
        "cfg",
        [(6, 1, 1), (6, 2, 2), (8, 2, 2), (8, 1, 3), (12, 3, 3), (10, 2, 4),
         (8, 2, 4), (9, 3, 3)],
    )
    def test_exact_dp_matches_exhaustive(self, cfg):
        config = GeArConfig(*cfg)
        dp = analytic_error_rate(config)
        exhaustive = exhaustive_error_rate(config)
        assert dp == pytest.approx(exhaustive, abs=1e-12)

    @pytest.mark.parametrize("cfg", [(12, 4, 4), (16, 4, 4), (16, 2, 2)])
    def test_exact_dp_matches_monte_carlo(self, cfg):
        config = GeArConfig(*cfg)
        dp = analytic_error_rate(config)
        mc = monte_carlo_error_rate(config, n_samples=400_000, seed=0)
        assert mc == pytest.approx(dp, abs=0.004)

    @pytest.mark.parametrize("cfg", [(8, 2, 2), (12, 4, 4), (8, 1, 3)])
    def test_paper_model_close_to_exact(self, cfg):
        """The inclusion-exclusion model tracks ground truth closely.

        It may slightly underestimate (far carries are not modelled) but
        must stay within one percentage point on these configurations.
        """
        config = GeArConfig(*cfg)
        paper = paper_error_probability(config)
        exact = analytic_error_rate(config)
        assert paper <= exact + 1e-12
        assert paper == pytest.approx(exact, abs=0.01)

    def test_single_subadder_has_zero_error(self):
        config = GeArConfig(8, 4, 4)
        assert analytic_error_rate(config) == 0.0
        assert paper_error_probability(config) == 0.0


class TestProbabilityBehaviour:
    def test_probability_decreases_with_p(self):
        # Same R, increasing P: more prediction bits -> fewer errors.
        p_errs = [
            analytic_error_rate(GeArConfig(11, 1, p))
            for p in range(1, 10)
        ]
        assert all(a > b for a, b in zip(p_errs, p_errs[1:]))

    def test_probability_in_unit_interval(self):
        for config in GeArConfig.all_valid(11):
            p = analytic_error_rate(config)
            assert 0.0 <= p <= 1.0

    def test_paper_model_in_unit_interval(self):
        for config in GeArConfig.all_valid(11):
            p = paper_error_probability(config)
            assert 0.0 <= p <= 1.0

    def test_intractable_event_count_guarded(self):
        config = GeArConfig(32, 1, 1)  # 31 events
        with pytest.raises(ValueError, match="max_order"):
            paper_error_probability(config)

    def test_truncated_inclusion_exclusion(self):
        config = GeArConfig(32, 1, 1)
        first_order = paper_error_probability(config, max_order=1)
        second_order = paper_error_probability(config, max_order=2)
        exact = analytic_error_rate(config)
        # First order over-counts (union bound); second subtracts.
        assert first_order >= exact - 1e-12
        assert second_order <= first_order


class TestAccuracyPercent:
    def test_models_agree_on_accuracy(self):
        config = GeArConfig(12, 4, 4)
        exact = accuracy_percent(config, model="exact")
        paper = accuracy_percent(config, model="paper")
        assert exact == pytest.approx(paper, abs=1.0)

    def test_unknown_model_rejected(self):
        with pytest.raises(ValueError, match="model"):
            accuracy_percent(GeArConfig(12, 4, 4), model="vibes")

    def test_max_accuracy_config_for_n11(self):
        """Paper: GeAr(R=1, P=9) is the most accurate N=11 configuration."""
        best = max(
            GeArConfig.all_valid(11),
            key=lambda c: accuracy_percent(c, model="exact"),
        )
        assert (best.r, best.p) == (1, 9)

    def test_exhaustive_guard(self):
        with pytest.raises(ValueError, match="too many"):
            exhaustive_error_rate(GeArConfig(16, 2, 2))


class TestMonteCarlo:
    @pytest.mark.parametrize("n_samples", [0, -5])
    def test_rejects_non_positive_sample_counts(self, n_samples):
        with pytest.raises(ValueError, match="n_samples"):
            monte_carlo_error_rate(GeArConfig(8, 2, 2), n_samples=n_samples)
