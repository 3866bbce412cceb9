"""Tests for the SAD accelerator and its ApxSAD variants."""

import numpy as np
import pytest

from repro.accelerators.sad import (
    SAD_VARIANT_CELLS,
    SADAccelerator,
    make_sad_variants,
)
from repro.adders.fulladder import FULL_ADDERS
from repro.adders.ripple import ApproximateRippleAdder


class TestExactSAD:
    def test_matches_reference(self, rng):
        acc = SADAccelerator(n_pixels=64)
        a = rng.integers(0, 256, (50, 64))
        b = rng.integers(0, 256, (50, 64))
        assert np.array_equal(acc.sad(a, b), np.abs(a - b).sum(axis=-1))

    def test_identical_blocks_give_zero(self):
        acc = SADAccelerator(n_pixels=16)
        block = np.arange(16)
        assert int(acc.sad(block, block)) == 0

    def test_single_pixel(self):
        acc = SADAccelerator(n_pixels=1)
        assert int(acc.sad([7], [250])) == 243

    def test_odd_pixel_count(self, rng):
        acc = SADAccelerator(n_pixels=9)
        a = rng.integers(0, 256, (10, 9))
        b = rng.integers(0, 256, (10, 9))
        assert np.array_equal(acc.sad(a, b), np.abs(a - b).sum(axis=-1))

    def test_maximal_inputs(self):
        acc = SADAccelerator(n_pixels=64)
        a = np.full(64, 255)
        b = np.zeros(64, dtype=int)
        assert int(acc.sad(a, b)) == 64 * 255

    def test_wrong_pixel_count_rejected(self):
        acc = SADAccelerator(n_pixels=64)
        with pytest.raises(ValueError, match="64"):
            acc.sad(np.zeros((2, 32)), np.zeros((2, 32)))

    def test_invalid_construction(self):
        with pytest.raises(ValueError, match="n_pixels"):
            SADAccelerator(n_pixels=0)
        with pytest.raises(ValueError, match="approx_lsbs"):
            SADAccelerator(approx_lsbs=-1)

    @pytest.mark.parametrize("mode", ["lut", "partsim"])
    def test_invalid_eval_mode_rejected(self, mode):
        with pytest.raises(ValueError, match="eval_mode"):
            SADAccelerator(eval_mode=mode)


class TestApproximateSAD:
    @pytest.mark.parametrize("fa", ["ApxFA1", "ApxFA2", "ApxFA3", "ApxFA4", "ApxFA5"])
    def test_errors_bounded(self, fa, rng):
        acc = SADAccelerator(n_pixels=64, fa=fa, approx_lsbs=4)
        a = rng.integers(0, 256, (100, 64))
        b = rng.integers(0, 256, (100, 64))
        exact = np.abs(a - b).sum(axis=-1)
        errors = np.abs(acc.sad(a, b) - exact)
        # Error budget: 64 subtractor errors + tree-node errors, each
        # bounded by ~2**(approx_lsbs+1).
        assert errors.max() < 127 * (1 << 5)

    def test_zero_lsbs_is_exact(self, rng):
        acc = SADAccelerator(n_pixels=16, fa="ApxFA5", approx_lsbs=0)
        a = rng.integers(0, 256, (20, 16))
        b = rng.integers(0, 256, (20, 16))
        assert np.array_equal(acc.sad(a, b), np.abs(a - b).sum(axis=-1))

    def test_error_grows_with_lsbs(self, rng):
        a = rng.integers(0, 256, (400, 64))
        b = rng.integers(0, 256, (400, 64))
        exact = np.abs(a - b).sum(axis=-1)
        meds = []
        for k in (0, 2, 4, 6):
            acc = SADAccelerator(n_pixels=64, fa="ApxFA2", approx_lsbs=k)
            meds.append(float(np.abs(acc.sad(a, b) - exact).mean()))
        assert meds[0] == 0.0
        assert meds[1] < meds[2] < meds[3]


class TestVariants:
    def test_all_variants_present(self):
        variants = make_sad_variants()
        assert set(variants) == set(SAD_VARIANT_CELLS)

    def test_exclude_accurate(self):
        variants = make_sad_variants(include_accurate=False)
        assert "AccuSAD" not in variants

    def test_variant_cells(self):
        variants = make_sad_variants(approx_lsbs=4)
        assert variants["ApxSAD3"].fa == "ApxFA3"
        assert variants["AccuSAD"].approx_lsbs == 0

    def test_names(self):
        acc = SADAccelerator(n_pixels=64, fa="ApxFA2", approx_lsbs=4)
        assert acc.name == "ApxSAD2(lsbs=4)"


class TestPhysical:
    def test_area_positive(self):
        assert SADAccelerator(n_pixels=64).area_ge > 0

    def test_approximation_reduces_area_and_energy(self):
        exact = SADAccelerator(n_pixels=64)
        approx = SADAccelerator(n_pixels=64, fa="ApxFA3", approx_lsbs=4)
        assert approx.area_ge < exact.area_ge
        assert approx.energy_per_op_fj < exact.energy_per_op_fj

    def test_four_lsbs_cheaper_than_two(self):
        """Fig. 9 claim: 4-bit approximation always saves more power
        than 2-bit, for every cell type."""
        for cell in ("ApxFA1", "ApxFA2", "ApxFA3", "ApxFA4", "ApxFA5"):
            two = SADAccelerator(n_pixels=64, fa=cell, approx_lsbs=2)
            four = SADAccelerator(n_pixels=64, fa=cell, approx_lsbs=4)
            assert four.energy_per_op_fj < two.energy_per_op_fj

    def test_power_scales_with_throughput(self):
        acc = SADAccelerator(n_pixels=64)
        assert acc.power_nw(2e6) == pytest.approx(2 * acc.power_nw(1e6))


class TestTreeReduction:
    """Satellite audit: non-power-of-two reductions and the wired-through
    odd element (which bypasses the adder of its level)."""

    @pytest.mark.parametrize("n_pixels", [3, 5, 7, 64])
    def test_accurate_matches_numpy_sum(self, n_pixels, rng):
        acc = SADAccelerator(n_pixels=n_pixels)
        a = rng.integers(0, 256, (40, n_pixels))
        b = rng.integers(0, 256, (40, n_pixels))
        assert np.array_equal(acc.sad(a, b), np.sum(np.abs(a - b), axis=-1))

    @pytest.mark.parametrize("n_pixels", [3, 5, 7, 64])
    def test_legacy_loop_engine_matches_numpy_sum(self, n_pixels, rng):
        acc = SADAccelerator(n_pixels=n_pixels, eval_mode="loop")
        a = rng.integers(0, 256, (40, n_pixels))
        b = rng.integers(0, 256, (40, n_pixels))
        assert np.array_equal(acc.sad(a, b), np.sum(np.abs(a - b), axis=-1))

    @pytest.mark.parametrize("n_pixels", [3, 5, 7, 13, 64])
    @pytest.mark.parametrize("fa", ["ApxFA1", "ApxFA5"])
    def test_fast_and_loop_engines_agree(self, n_pixels, fa, rng):
        fast = SADAccelerator(n_pixels=n_pixels, fa=fa, approx_lsbs=4)
        loop = SADAccelerator(
            n_pixels=n_pixels, fa=fa, approx_lsbs=4, eval_mode="loop"
        )
        a = rng.integers(0, 256, (40, n_pixels))
        b = rng.integers(0, 256, (40, n_pixels))
        assert np.array_equal(fast.sad(a, b), loop.sad(a, b))

    def test_tree_widths_cover_worst_case_operands(self):
        """Maximal |a-b| (= 2**pixel_bits through the approximate
        subtractor) survives every level without truncation."""
        for n_pixels in (3, 5, 7, 9, 64):
            acc = SADAccelerator(n_pixels=n_pixels)
            a = np.full(n_pixels, 255)
            b = np.zeros(n_pixels, dtype=int)
            assert int(acc.sad(a, b)) == 255 * n_pixels


def _rippled_table(fa: str, width: int, s: int) -> np.ndarray:
    """A tree level's fused table filled the direct way: one ripple add
    per ``(x, y < 2**s)`` entry over the level's whole domain."""
    adder = ApproximateRippleAdder(width, approx_fa=fa, num_approx_lsbs=s)
    return adder.add(
        np.repeat(np.arange(1 << width, dtype=np.int64), 1 << s),
        np.tile(np.arange(1 << s, dtype=np.int64), 1 << width),
    )


class TestFusedTreeTables:
    """The broadcast-built tree tables against per-entry ripple adds.

    With 4-bit pixels the levels are 5 to 10 bits wide, so the larger
    ``approx_lsbs`` reach ``s == w``, where the low-segment block is the
    whole table.
    """

    @pytest.mark.parametrize("pixel_bits", [4, 8])
    @pytest.mark.parametrize("n_pixels", [4, 7, 64])
    @pytest.mark.parametrize("fa", sorted(FULL_ADDERS))
    def test_tables_match_rippled_construction(self, fa, n_pixels, pixel_bits):
        n_tables = 0
        for approx_lsbs in range(1, 11):
            acc = SADAccelerator(n_pixels, pixel_bits, fa, approx_lsbs)
            for adder, table in zip(acc._tree, acc._tree_fused):
                if not isinstance(table, np.ndarray):
                    continue
                expected = _rippled_table(
                    fa, adder.width, adder.num_approx_lsbs
                )
                assert table.dtype == np.int64
                assert not table.flags.writeable
                assert np.array_equal(table, expected), (
                    approx_lsbs, adder.width
                )
                n_tables += 1
        assert n_tables > 0

    def test_build_adds_only_the_low_segment_block(self, monkeypatch):
        """Each level ripples at most ``2**(2s)`` pairs, not ``2**(w+s)``."""
        calls = []
        real_add = ApproximateRippleAdder.add

        def counting_add(self, a, b, cin=0):
            out = real_add(self, a, b, cin)
            if self.width > 8:  # a tree adder, not the 8-bit subtractor
                calls.append((self.width, self.num_approx_lsbs, np.size(out)))
            return out

        monkeypatch.setattr(ApproximateRippleAdder, "add", counting_add)
        SADAccelerator(64, fa="ApxFA1", approx_lsbs=6)
        assert len(calls) == 6  # levels of width 9..14
        for width, s, n_pairs in calls:
            assert s == 6
            assert n_pairs <= 1 << (2 * s), (width, n_pairs)
