"""Tests for the GeAr adder behavioural model and error correction."""

import numpy as np
import pytest

from repro.adders.gear import GeArAdder, GeArConfig


class TestConfigValidity:
    def test_paper_example(self):
        cfg = GeArConfig(n=12, r=4, p=4)
        assert cfg.l == 8
        assert cfg.k == 2
        assert cfg.sub_adder_windows() == [(0, 8), (4, 8)]

    def test_k_formula(self):
        cfg = GeArConfig(n=16, r=2, p=2)
        assert cfg.k == (16 - 4) // 2 + 1

    def test_indivisible_configuration_rejected(self):
        with pytest.raises(ValueError, match="divide"):
            GeArConfig(n=16, r=4, p=2)  # (16-6) % 4 != 0

    def test_window_wider_than_operand_rejected(self):
        with pytest.raises(ValueError, match="exceeds"):
            GeArConfig(n=4, r=3, p=3)

    @pytest.mark.parametrize("bad", [dict(n=0, r=1, p=1), dict(n=8, r=0, p=1),
                                     dict(n=8, r=1, p=-1)])
    def test_bad_parameters_rejected(self, bad):
        with pytest.raises(ValueError):
            GeArConfig(**bad)

    def test_degenerate_single_subadder_is_exact(self):
        cfg = GeArConfig(n=8, r=4, p=4)
        assert cfg.k == 1
        assert cfg.is_exact

    def test_all_valid_enumerates_only_valid(self):
        for cfg in GeArConfig.all_valid(11):
            assert (cfg.n - cfg.l) % cfg.r == 0
            assert cfg.k >= 2
            assert cfg.p >= 1

    def test_all_valid_count_n11(self):
        # 17 genuinely approximate (R, P) pairs exist for N = 11.
        assert len(GeArConfig.all_valid(11)) == 17

    def test_name(self):
        assert GeArConfig(12, 4, 4).name == "GeAr(N=12,R=4,P=4)"


class TestApproximateAddition:
    def test_takes_no_eval_mode(self):
        with pytest.raises(TypeError):
            GeArAdder(GeArConfig(12, 4, 4), eval_mode="window")

    def test_no_carry_cases_are_exact(self):
        adder = GeArAdder(GeArConfig(12, 4, 4))
        # Operands without inter-window carries add exactly.
        assert int(adder.add(0x111, 0x222)) == 0x333

    def test_missed_carry_example(self):
        adder = GeArAdder(GeArConfig(12, 4, 4))
        # 0x0FF + 0x001 generates a carry at bit 8 that the second
        # sub-adder's prediction window (bits 4..7, all propagating)
        # should carry into bit 8 -- the approximate adder misses it.
        assert int(adder.add(0x0FF, 0x001)) == 0x0FF + 0x001 - 0x100

    def test_single_subadder_config_is_exact(self, rng):
        adder = GeArAdder(GeArConfig(8, 4, 4))
        a = rng.integers(0, 256, 500)
        b = rng.integers(0, 256, 500)
        assert np.array_equal(adder.add(a, b), a + b)

    @pytest.mark.parametrize("cfg", [(8, 2, 2), (8, 1, 3), (12, 4, 4),
                                     (16, 4, 4), (16, 2, 2)])
    def test_result_never_exceeds_exact_bound(self, cfg, rng):
        config = GeArConfig(*cfg)
        adder = GeArAdder(config)
        hi = 1 << config.n
        a = rng.integers(0, hi, 2000)
        b = rng.integers(0, hi, 2000)
        result = adder.add(a, b)
        assert np.all(result >= 0)
        assert np.all(result < (1 << (config.n + 1)))

    @pytest.mark.parametrize("cfg", [(8, 2, 2), (8, 1, 3), (12, 4, 4)])
    def test_errors_only_lose_carries(self, cfg, rng):
        """GeAr can only *miss* carries, so approx <= exact always."""
        config = GeArConfig(*cfg)
        adder = GeArAdder(config)
        hi = 1 << config.n
        a = rng.integers(0, hi, 5000)
        b = rng.integers(0, hi, 5000)
        assert np.all(adder.add(a, b) <= a + b)

    def test_final_carry_bit_present(self):
        adder = GeArAdder(GeArConfig(8, 2, 2))
        assert int(adder.add(0xFF, 0xFF)) >> 8 == 1


class TestErrorDetection:
    def test_flags_shape(self, rng):
        cfg = GeArConfig(12, 4, 4)
        adder = GeArAdder(cfg)
        a = rng.integers(0, 4096, 100)
        b = rng.integers(0, 4096, 100)
        flags = adder.detect_errors(a, b)
        assert flags.shape == (100, cfg.k - 1)

    def test_flag_raised_on_missed_carry(self):
        adder = GeArAdder(GeArConfig(12, 4, 4))
        flags = adder.detect_errors(0x0FF, 0x001)
        assert bool(flags[..., 0])

    def test_no_flag_without_carry(self):
        adder = GeArAdder(GeArConfig(12, 4, 4))
        flags = adder.detect_errors(0x111, 0x222)
        assert not np.any(flags)


class TestErrorCorrection:
    @pytest.mark.parametrize(
        "cfg", [(8, 1, 1), (8, 2, 2), (8, 1, 3), (12, 4, 4), (16, 2, 2),
                (16, 1, 3), (20, 4, 4)]
    )
    def test_full_correction_is_exact(self, cfg, rng):
        config = GeArConfig(*cfg)
        adder = GeArAdder(config)
        hi = 1 << config.n
        a = rng.integers(0, hi, 3000)
        b = rng.integers(0, hi, 3000)
        result, _ = adder.add_with_correction(a, b)
        assert np.array_equal(result, a + b)

    def test_correction_exhaustive_small(self):
        config = GeArConfig(6, 1, 1)
        adder = GeArAdder(config)
        values = np.arange(64)
        a = np.repeat(values, 64)
        b = np.tile(values, 64)
        result, _ = adder.add_with_correction(a, b)
        assert np.array_equal(result, a + b)

    def test_zero_iterations_when_no_error(self):
        adder = GeArAdder(GeArConfig(12, 4, 4))
        result, iters = adder.add_with_correction(0x111, 0x222)
        assert int(iters) == 0
        assert int(result) == 0x333

    def test_limited_iterations_partial_correction(self, rng):
        """With max_iterations=1 the result is at least as good as raw."""
        config = GeArConfig(16, 2, 2)
        adder = GeArAdder(config)
        a = rng.integers(0, 1 << 16, 3000)
        b = rng.integers(0, 1 << 16, 3000)
        raw_errors = np.abs(adder.add(a, b) - (a + b)).sum()
        one_round, _ = adder.add_with_correction(a, b, max_iterations=1)
        one_round_errors = np.abs(one_round - (a + b)).sum()
        assert one_round_errors <= raw_errors

    def test_iterations_bounded_by_k(self, rng):
        config = GeArConfig(16, 1, 1)
        adder = GeArAdder(config)
        a = rng.integers(0, 1 << 16, 1000)
        b = rng.integers(0, 1 << 16, 1000)
        _, iters = adder.add_with_correction(a, b)
        assert int(iters.max()) <= config.k

    def test_all_propagate_cascade_needs_k_minus_1_rounds(self):
        """Regression: 0xFF + 0x01 on GeAr(8,1,1) cascades one missed
        carry through every sub-adder boundary.  Round-start detection
        (Fig. 3) resolves one boundary per round, so the fixpoint takes
        exactly k - 1 = 6 rounds.  An earlier revision applied
        injections sequentially within a round and reported 1."""
        config = GeArConfig(8, 1, 1)
        adder = GeArAdder(config)
        result, iters = adder.add_with_correction(0xFF, 0x01)
        assert int(result) == 0x100
        assert int(iters) == config.k - 1

    def test_capped_cascade_is_genuinely_partial(self):
        """With the cascade above, a one-round cap must NOT be exact --
        pre-fix it silently was, collapsing every intermediate accuracy
        mode of the configurable adder."""
        adder = GeArAdder(GeArConfig(8, 1, 1))
        result, iters = adder.add_with_correction(
            0xFF, 0x01, max_iterations=1
        )
        assert int(iters) == 1
        assert int(result) != 0x100

    def test_capped_correction_converges_without_overshoot(self, rng):
        """Each extra round fixes more elements and never overshoots.

        Note the *magnitude* of the residual error is deliberately not
        asserted monotone: a mid-cascade round can wrap a block's kept
        bits (e.g. 111 -> 000 with a carry-out) before the next round
        injects that carry downstream, transiently growing ``|err|``.
        The per-element *count* of inexact results does shrink, and the
        corrected sum never exceeds the exact one."""
        config = GeArConfig(12, 1, 2)
        adder = GeArAdder(config)
        a = rng.integers(0, 1 << 12, 2000)
        b = rng.integers(0, 1 << 12, 2000)
        exact = a + b
        previous = None
        for cap in range(config.k):
            result, _ = adder.add_with_correction(a, b, max_iterations=cap)
            assert np.all(result <= exact)
            inexact = int((result != exact).sum())
            if previous is not None:
                assert inexact <= previous
            previous = inexact
        full, _ = adder.add_with_correction(a, b)
        assert np.array_equal(full, exact)


class TestPhysicalModels:
    def test_lut_count_model(self):
        adder = GeArAdder(GeArConfig(11, 3, 5))
        assert adder.lut_count == 2 * 8

    def test_delay_below_full_ripple(self):
        gear = GeArAdder(GeArConfig(16, 4, 4))
        from repro.adders.ripple import ApproximateRippleAdder

        assert gear.delay_ps < ApproximateRippleAdder(16).delay_ps

    def test_area_exceeds_plain_ripple(self):
        """Overlapping sub-adders cost more area than one N-bit RCA."""
        gear = GeArAdder(GeArConfig(16, 4, 4))
        from repro.adders.ripple import ApproximateRippleAdder

        assert gear.area_ge > ApproximateRippleAdder(16).area_ge
