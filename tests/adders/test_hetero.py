"""Tests for the heterogeneous GeAr adder model."""

import numpy as np
import pytest

from repro.adders import GeArAdder, GeArConfig, HeteroGeArAdder, HeteroGeArConfig


class TestConfigValidation:
    def test_basic_geometry(self):
        cfg = HeteroGeArConfig(((4, 0), (2, 2), (2, 1)))
        assert cfg.n == 8
        assert cfg.k == 3
        assert cfg.segment_starts() == (0, 4, 6)
        assert cfg.sub_adder_windows() == [(0, 4), (2, 4), (5, 3)]

    def test_zero_width_segment_rejected(self):
        with pytest.raises(ValueError, match="r must be"):
            HeteroGeArConfig(((4, 0), (0, 1)))

    def test_negative_p_rejected(self):
        with pytest.raises(ValueError, match="p must be"):
            HeteroGeArConfig(((4, 0), (2, -1)))

    def test_segment0_prediction_rejected(self):
        with pytest.raises(ValueError, match="p_0"):
            HeteroGeArConfig(((4, 1), (4, 2)))

    def test_prediction_below_bit0_rejected(self):
        with pytest.raises(ValueError, match="below bit 0"):
            HeteroGeArConfig(((2, 0), (2, 3)))

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            HeteroGeArConfig(())

    def test_single_segment_is_exact(self):
        assert HeteroGeArConfig(((8, 0),)).is_exact

    def test_from_string_round_trip(self):
        cfg = HeteroGeArConfig.from_string("4:0,2:2,2:1")
        assert cfg.segments == ((4, 0), (2, 2), (2, 1))
        assert HeteroGeArConfig.from_string("8") == HeteroGeArConfig(((8, 0),))

    def test_from_string_bad_spec_rejected(self):
        with pytest.raises(ValueError, match="bad segment"):
            HeteroGeArConfig.from_string("4:x,2:2")

    def test_never_overestimates(self):
        # Homogeneous embeddings always satisfy the monotone condition.
        assert HeteroGeArConfig.from_gear_params(8, 2, 2).never_overestimates
        # Prediction jumping past the previous window does not.
        assert not HeteroGeArConfig(((2, 0), (1, 1), (2, 3))).never_overestimates


class TestGeArEquivalence:
    """The homogeneous embedding must be bit-identical to GeArAdder."""

    @pytest.mark.parametrize("n,r,p", [(8, 2, 2), (11, 1, 5), (11, 3, 2),
                                       (12, 4, 4), (16, 1, 7)])
    def test_matches_gear_on_random_vectors(self, n, r, p, rng):
        gear = GeArAdder(GeArConfig(n, r, p))
        hetero = HeteroGeArAdder(HeteroGeArConfig.from_gear(GeArConfig(n, r, p)))
        a = rng.integers(0, 1 << n, 2000)
        b = rng.integers(0, 1 << n, 2000)
        np.testing.assert_array_equal(hetero.add(a, b), gear.add(a, b))

    def test_matches_gear_exhaustively_small(self):
        cfg = GeArConfig(6, 2, 2)
        gear = GeArAdder(cfg)
        hetero = HeteroGeArAdder(HeteroGeArConfig.from_gear(cfg))
        a, b = np.meshgrid(np.arange(64), np.arange(64))
        np.testing.assert_array_equal(hetero.add(a, b), gear.add(a, b))

    def test_physical_models_match_gear(self):
        cfg = GeArConfig(12, 4, 4)
        gear = GeArAdder(cfg)
        hetero = HeteroGeArAdder(HeteroGeArConfig.from_gear(cfg))
        assert hetero.lut_count == gear.lut_count
        assert hetero.area_ge == gear.area_ge
        assert hetero.delay_ps == gear.delay_ps


class TestBehaviour:
    def test_carry_free_addition_is_exact(self, rng):
        adder = HeteroGeArAdder(HeteroGeArConfig(((3, 0), (3, 1), (2, 2))))
        a = rng.integers(0, 256, 500)
        b = (~a) & 0xFF  # a + b = 255: no carries anywhere
        np.testing.assert_array_equal(adder.add(a, b), a + b)

    def test_block0_always_exact(self, rng):
        cfg = HeteroGeArConfig(((4, 0), (2, 1), (2, 2)))
        adder = HeteroGeArAdder(cfg)
        a = rng.integers(0, 256, 1000)
        b = rng.integers(0, 256, 1000)
        approx = adder.add(a, b)
        exact = a + b
        np.testing.assert_array_equal(approx & 0xF, exact & 0xF)

    def test_missed_carry_example(self):
        adder = HeteroGeArAdder(HeteroGeArConfig(((4, 0), (2, 2), (2, 2))))
        assert int(adder.add(0x0F, 0x01)) == 0
        assert int(adder.add(0x05, 0x02)) == 7

    def test_final_carry_bit(self):
        adder = HeteroGeArAdder(HeteroGeArConfig(((4, 0), (4, 4))))
        # 0xF0 + 0xF0: the last window [0, 8) sums to 0x1E0 -> carry out.
        assert int(adder.add(0xF0, 0xF0)) == 0x1E0

    def test_takes_no_eval_mode(self):
        with pytest.raises(TypeError):
            HeteroGeArAdder(
                HeteroGeArConfig(((4, 0), (4, 2))), eval_mode="partsim"
            )

    def test_negative_operands_rejected(self):
        adder = HeteroGeArAdder(HeteroGeArConfig(((4, 0), (4, 2))))
        with pytest.raises(ValueError, match="non-negative"):
            adder.add(-1, 3)

    def test_overestimate_witness(self):
        # p_2 > p_1 + r_1: an uncompensated wrap overestimates the sum.
        adder = HeteroGeArAdder(HeteroGeArConfig(((2, 0), (1, 1), (2, 3))))
        assert int(adder.add(7, 1)) - 8 == 4


class TestEnumeration:
    def test_all_valid_counts_and_validity(self):
        configs = HeteroGeArConfig.all_valid(6, max_segments=3, max_p=2)
        assert configs, "enumeration must be non-empty"
        assert len({c.segments for c in configs}) == len(configs)
        for cfg in configs:
            assert cfg.n == 6
            assert 2 <= cfg.k <= 3
            assert all(p <= 2 for _, p in cfg.segments)

    def test_all_valid_contains_homogeneous_embedding(self):
        configs = HeteroGeArConfig.all_valid(8, max_segments=3, max_p=4)
        target = HeteroGeArConfig.from_gear_params(8, 2, 2)
        # k=3 with caps (max_segments=3, max_p=4) covers GeAr(8,2,2).
        assert target in configs

    def test_min_p_filters(self):
        configs = HeteroGeArConfig.all_valid(6, max_segments=2, max_p=3, min_p=1)
        assert all(p >= 1 for cfg in configs for _, p in cfg.segments[1:])
