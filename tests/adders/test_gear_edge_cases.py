"""Edge-case coverage for the GeAr model (P=0 blocks, extremes)."""

import numpy as np
import pytest

from repro.adders.gear import GeArAdder, GeArConfig
from repro.adders.gear_error import (
    exhaustive_error_rate,
    paper_error_probability,
)
from repro.errors.analytic import analytic_error_rate


class TestZeroPrediction:
    """P = 0 degenerates to plain block-partitioned (ETA-like) adders."""

    def test_config_valid(self):
        cfg = GeArConfig(8, 4, 0)
        assert cfg.k == 2
        assert cfg.l == 4

    def test_blocks_are_independent(self):
        adder = GeArAdder(GeArConfig(8, 4, 0))
        # Any carry from the low block is dropped.
        assert int(adder.add(0x0F, 0x01)) == 0x00
        assert int(adder.add(0xF0, 0x10)) == 0x100

    def test_error_rate_is_carry_probability(self):
        # P(error) = P(carry out of low 4-bit block) for uniform inputs.
        cfg = GeArConfig(8, 4, 0)
        expected = exhaustive_error_rate(cfg)
        assert analytic_error_rate(cfg) == pytest.approx(expected)
        # Carry-out of a 4-bit add of uniform operands:
        # P(a+b >= 16) over 16x16 pairs = 120/256.
        assert expected == pytest.approx(120 / 256)

    def test_paper_model_handles_p0(self):
        cfg = GeArConfig(8, 4, 0)
        assert paper_error_probability(cfg) == pytest.approx(
            analytic_error_rate(cfg)
        )

    def test_correction_exact_for_p0(self, rng):
        adder = GeArAdder(GeArConfig(12, 4, 0))
        a = rng.integers(0, 4096, 2000)
        b = rng.integers(0, 4096, 2000)
        result, _ = adder.add_with_correction(a, b)
        assert np.array_equal(result, a + b)

    def test_detection_fires_on_any_block_carry(self):
        adder = GeArAdder(GeArConfig(8, 4, 0))
        flags = adder.detect_errors(0x0F, 0x01)
        assert bool(flags[..., 0])


class TestExtremes:
    def test_all_ones_operands(self):
        for cfg in ((8, 2, 2), (12, 4, 4), (16, 1, 3)):
            adder = GeArAdder(GeArConfig(*cfg))
            n = cfg[0]
            hi = (1 << n) - 1
            # All-propagate operands: a = 0 pattern keeps carries dead.
            assert int(adder.add(hi, 0)) == hi
            result, _ = adder.add_with_correction(hi, hi)
            assert int(result) == 2 * hi

    def test_zero_plus_zero(self):
        adder = GeArAdder(GeArConfig(8, 2, 2))
        assert int(adder.add(0, 0)) == 0

    def test_maximal_ripple_chain(self):
        """The worst carry chain (0xFF..F + 1) loses exactly the carries
        at every sub-adder boundary."""
        cfg = GeArConfig(12, 4, 4)
        adder = GeArAdder(cfg)
        raw = int(adder.add(0xFFF, 0x001))
        assert raw != 0x1000
        corrected, iters = adder.add_with_correction(0xFFF, 0x001)
        assert int(corrected) == 0x1000
        assert int(iters) >= 1

    def test_broadcasting_scalar_array(self, rng):
        adder = GeArAdder(GeArConfig(8, 2, 2))
        b = rng.integers(0, 256, 100)
        out = adder.add(7, b)
        assert out.shape == (100,)

    def test_2d_operands(self, rng):
        adder = GeArAdder(GeArConfig(8, 2, 2))
        a = rng.integers(0, 256, (5, 7))
        b = rng.integers(0, 256, (5, 7))
        result, _ = adder.add_with_correction(a, b)
        assert result.shape == (5, 7)
        assert np.array_equal(result, a + b)


class TestErrorModelEdges:
    def test_probability_of_trivial_config(self):
        # k = 2, P = N - R - ... smallest error surface.
        cfg = GeArConfig(4, 1, 2)
        assert analytic_error_rate(cfg) == pytest.approx(
            exhaustive_error_rate(cfg)
        )

    def test_wide_p0_etaii_like(self):
        cfg = GeArConfig(16, 4, 0)
        dp = analytic_error_rate(cfg)
        mc = exhaustive_error_rate(GeArConfig(12, 4, 0))
        assert 0 < dp < 1
        # More blocks -> strictly more error than the 12-bit version.
        assert dp > analytic_error_rate(GeArConfig(12, 4, 0)) - 1e-12
