"""Tests for adder characterization."""

import numpy as np
import pytest

from repro.adders.characterize import (
    adder_energy_per_op_fj,
    characterize_adder,
    characterize_gear,
    characterize_ripple_family,
)
from repro.adders.gear import GeArAdder, GeArConfig
from repro.adders.ripple import ApproximateRippleAdder
from repro.errors.analytic import analytic_error_rate


class TestCharacterizeAdder:
    def test_exact_adder_perfect_metrics(self):
        record = characterize_adder(ApproximateRippleAdder(8))
        assert record.metrics.error_rate == 0.0
        assert record.metrics.max_error_distance == 0.0
        assert record.metrics.accuracy_percent == 100.0

    def test_exhaustive_sample_count(self):
        record = characterize_adder(ApproximateRippleAdder(6))
        assert record.metrics.n_samples == (1 << 6) ** 2

    def test_sampled_above_width_limit(self):
        record = characterize_adder(
            ApproximateRippleAdder(16), n_samples=5000
        )
        assert record.metrics.n_samples == 5000

    def test_approximate_adder_has_errors(self):
        record = characterize_adder(
            ApproximateRippleAdder(8, approx_fa="ApxFA5", num_approx_lsbs=4)
        )
        assert record.metrics.error_rate > 0.0
        assert 0 < record.metrics.max_error_distance < (1 << 6)

    def test_record_roundtrip_row(self):
        record = characterize_adder(ApproximateRippleAdder(8))
        row = record.as_row()
        assert row["width"] == 8
        assert "error_rate" in row

    def test_name_override(self):
        record = characterize_adder(ApproximateRippleAdder(8), name="custom")
        assert record.name == "custom"


class TestCharacterizeGear:
    def test_gear_error_rate_matches_analytic_model(self):
        cfg = GeArConfig(10, 2, 2)
        record = characterize_gear(cfg)  # exhaustive at width 10
        assert record.metrics.error_rate == pytest.approx(
            analytic_error_rate(cfg), abs=1e-12
        )

    def test_gear_lut_count_propagates(self):
        cfg = GeArConfig(10, 2, 2)
        assert characterize_gear(cfg).lut_count == GeArAdder(cfg).lut_count


class TestRippleFamily:
    def test_family_size(self):
        records = characterize_ripple_family(
            8, approx_lsb_counts=(2, 4), fa_names=("ApxFA1", "ApxFA2")
        )
        assert len(records) == 4

    def test_default_family_excludes_accurate_cell(self):
        records = characterize_ripple_family(8, approx_lsb_counts=(2,))
        assert all("AccuFA" not in r.name.split("[")[1] for r in records)

    def test_quality_monotone_in_lsbs_for_fixed_cell(self):
        records = characterize_ripple_family(
            8, approx_lsb_counts=(0, 2, 4, 6), fa_names=("ApxFA5",)
        )
        meds = [r.metrics.mean_error_distance for r in records]
        assert meds == sorted(meds)


class TestEnergyModel:
    def test_approximation_reduces_energy(self):
        exact = adder_energy_per_op_fj(ApproximateRippleAdder(8))
        approx = adder_energy_per_op_fj(
            ApproximateRippleAdder(8, approx_fa="ApxFA3", num_approx_lsbs=4)
        )
        assert approx < exact

    def test_gear_energy_scales_with_subadders(self):
        small = adder_energy_per_op_fj(GeArAdder(GeArConfig(16, 4, 4)))
        large = adder_energy_per_op_fj(GeArAdder(GeArConfig(16, 2, 2)))
        assert large > small  # more overlapping sub-adder bits

    def test_unknown_type_rejected(self):
        with pytest.raises(TypeError, match="energy"):
            adder_energy_per_op_fj(object())
