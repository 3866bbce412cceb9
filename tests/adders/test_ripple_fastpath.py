"""Exhaustive fast-path vs legacy-loop equivalence for the ripple adder.

The segment/LUT engine must be *bit-identical* to the reference cell
loop for every Table III cell, every width <= 8, every LSB split, and
every ``(a, b, cin)`` combination -- plus randomized spot checks at
widths 16 and 32 where exhaustion is infeasible.
"""

import numpy as np
import pytest

from repro.adders.fastpath import (
    AUTO_LUT_MAX_BITS,
    LUT_MAX_BITS,
    approx_segment_lut,
)
from repro.adders.fulladder import FULL_ADDER_NAMES, FULL_ADDERS
from repro.adders.ripple import ApproximateRippleAdder, ExactAdder


def _all_pairs(width):
    n = 1 << width
    return (
        np.repeat(np.arange(n, dtype=np.int64), n),
        np.tile(np.arange(n, dtype=np.int64), n),
    )


class TestExhaustiveEquivalence:
    @pytest.mark.parametrize("fa", FULL_ADDER_NAMES)
    @pytest.mark.parametrize("width", [1, 2, 3, 4, 5, 6, 7, 8])
    def test_all_inputs_all_splits(self, fa, width):
        a, b = _all_pairs(width)
        for lsbs in range(width + 1):
            fast = ApproximateRippleAdder(
                width, approx_fa=fa, num_approx_lsbs=lsbs
            )
            loop = ApproximateRippleAdder(
                width, approx_fa=fa, num_approx_lsbs=lsbs, eval_mode="loop"
            )
            for cin in (0, 1):
                assert np.array_equal(
                    fast.add(a, b, cin), loop.add(a, b, cin)
                ), f"{fa} width={width} lsbs={lsbs} cin={cin}"

    @pytest.mark.parametrize("fa", FULL_ADDER_NAMES)
    def test_sub_equivalence_width8(self, fa):
        a, b = _all_pairs(8)
        fast = ApproximateRippleAdder(8, approx_fa=fa, num_approx_lsbs=4)
        loop = ApproximateRippleAdder(
            8, approx_fa=fa, num_approx_lsbs=4, eval_mode="loop"
        )
        assert np.array_equal(fast.sub(a, b), loop.sub(a, b))

    def test_non_accufa_msb_segment_falls_back(self, rng):
        """An approximate *accurate* cell disables the native MSB add."""
        kwargs = dict(approx_fa="ApxFA1", num_approx_lsbs=3, accurate_fa="ApxFA2")
        fast = ApproximateRippleAdder(8, **kwargs)
        loop = ApproximateRippleAdder(8, eval_mode="loop", **kwargs)
        a = rng.integers(0, 256, 3000)
        b = rng.integers(0, 256, 3000)
        for cin in (0, 1):
            assert np.array_equal(fast.add(a, b, cin), loop.add(a, b, cin))


class TestWideSpotChecks:
    @pytest.mark.parametrize("fa", ["ApxFA1", "ApxFA3", "ApxFA5"])
    @pytest.mark.parametrize("width,lsbs", [(16, 6), (16, 12), (32, 8), (32, 14)])
    def test_random_batches(self, fa, width, lsbs, rng):
        fast = ApproximateRippleAdder(width, approx_fa=fa, num_approx_lsbs=lsbs)
        loop = ApproximateRippleAdder(
            width, approx_fa=fa, num_approx_lsbs=lsbs, eval_mode="loop"
        )
        hi = 1 << width
        a = rng.integers(0, hi, 4000)
        b = rng.integers(0, hi, 4000)
        for cin in (0, 1):
            assert np.array_equal(fast.add(a, b, cin), loop.add(a, b, cin))
        assert np.array_equal(fast.sub(a, b), loop.sub(a, b))

    def test_segment_wider_than_auto_limit_still_fast_and_equal(self, rng):
        lsbs = AUTO_LUT_MAX_BITS + 2
        fast = ApproximateRippleAdder(32, approx_fa="ApxFA4", num_approx_lsbs=lsbs)
        loop = ApproximateRippleAdder(
            32, approx_fa="ApxFA4", num_approx_lsbs=lsbs, eval_mode="loop"
        )
        assert fast.uses_fast_path and fast._seg_lut is None
        a = rng.integers(0, 1 << 32, 2000)
        b = rng.integers(0, 1 << 32, 2000)
        assert np.array_equal(fast.add(a, b), loop.add(a, b))


class TestEngineSelection:
    @pytest.mark.parametrize("mode", ["vectorized", "lut", "partsim"])
    def test_invalid_eval_mode_rejected(self, mode):
        with pytest.raises(ValueError, match="eval_mode"):
            ApproximateRippleAdder(8, eval_mode=mode)

    def test_uses_fast_path_flag(self):
        assert ApproximateRippleAdder(8).uses_fast_path
        assert not ApproximateRippleAdder(8, eval_mode="loop").uses_fast_path

    def test_luts_shared_across_adders(self):
        one = ApproximateRippleAdder(8, approx_fa="ApxFA2", num_approx_lsbs=4)
        two = ApproximateRippleAdder(12, approx_fa="ApxFA2", num_approx_lsbs=4)
        assert one._seg_lut is two._seg_lut

    def test_segment_lut_bounds(self):
        with pytest.raises(ValueError, match="seg_bits"):
            approx_segment_lut(FULL_ADDERS["ApxFA1"], 0)
        with pytest.raises(ValueError, match="seg_bits"):
            approx_segment_lut(FULL_ADDERS["ApxFA1"], LUT_MAX_BITS + 1)

    def test_scalar_result_shape_matches_legacy(self):
        fast = ApproximateRippleAdder(8, approx_fa="ApxFA1", num_approx_lsbs=2)
        loop = ApproximateRippleAdder(
            8, approx_fa="ApxFA1", num_approx_lsbs=2, eval_mode="loop"
        )
        assert fast.add(3, 5).shape == loop.add(3, 5).shape == ()


class TestCarryInValidation:
    """cin is a single carry wire: anything outside {0, 1} is a bug."""

    @pytest.mark.parametrize("mode", ["auto", "loop"])
    def test_ripple_rejects_bad_cin(self, mode):
        adder = ApproximateRippleAdder(8, eval_mode=mode)
        with pytest.raises(ValueError, match="cin"):
            adder.add(1, 2, cin=2)
        with pytest.raises(ValueError, match="cin"):
            adder.add(1, 2, cin=-1)

    def test_exact_adder_rejects_bad_cin(self):
        with pytest.raises(ValueError, match="cin"):
            ExactAdder(8).add(1, 2, cin=3)


class TestPackedSegmentDtype:
    """Regression for the uint16 packing overflow (satellite fix).

    A packed LUT entry ``(carry << seg_bits) | sum_lo`` needs
    ``seg_bits + 1`` bits; the table build used to hard-code uint16,
    which would silently wrap the carry for any future bump of
    ``LUT_MAX_BITS`` past 15.  The dtype is now selected per width.
    """

    @pytest.mark.parametrize(
        "seg_bits, dtype",
        [(1, np.uint16), (12, np.uint16), (15, np.uint16),
         (16, np.uint32), (24, np.uint32), (31, np.uint32)],
    )
    def test_dtype_holds_carry_and_sum(self, seg_bits, dtype):
        from repro.adders.fastpath import packed_segment_dtype

        assert packed_segment_dtype(seg_bits) is dtype
        # The selected dtype really holds the widest packed entry.
        widest = (1 << (seg_bits + 1)) - 1
        assert int(np.asarray(widest).astype(dtype)) == widest

    @pytest.mark.parametrize("seg_bits", [32, 40, 64])
    def test_unpackable_widths_rejected(self, seg_bits):
        from repro.adders.fastpath import packed_segment_dtype

        with pytest.raises(ValueError, match="cannot be packed"):
            packed_segment_dtype(seg_bits)

    def test_current_lut_cap_stays_within_uint16(self):
        """Every width the cap allows today packs losslessly: exhaust
        the widest cached table and check carry and sum round-trip."""
        from repro.adders.fastpath import (
            pack_segment_index,
            unpack_segment_result,
        )

        seg_bits = 6
        lut = approx_segment_lut(FULL_ADDERS["AccuFA"], seg_bits)
        hi = 1 << seg_bits
        a = np.repeat(np.arange(hi, dtype=np.int64), hi)
        b = np.tile(np.arange(hi, dtype=np.int64), hi)
        for cin in (0, 1):
            packed = lut[pack_segment_index(a, b, cin, seg_bits)]
            sum_lo, carry = unpack_segment_result(packed, seg_bits)
            total = a + b + cin
            assert np.array_equal(sum_lo, total & (hi - 1))
            assert np.array_equal(carry, total >> seg_bits)
