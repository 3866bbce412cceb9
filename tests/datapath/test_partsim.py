"""Partitioned-SIMD evaluator: layout, packed |a - b|, SAD surface.

The packed primitives are checked against plain integer arithmetic,
the SAD surface against the accelerator's batch ``sad``, and the
multiplier's ``eval_mode="partsim"`` against its default engine (see
``tests/properties/test_partsim_properties.py`` for the registry
cross-path sweeps).
"""

import numpy as np
import pytest

from repro.adders.ripple import (
    MAX_WIDTH,
    ApproximateRippleAdder,
    ExactAdder,
)
from repro.accelerators.sad import SADAccelerator
from repro.datapath.partsim import (
    PartitionLayout,
    packed_absdiff,
    sad_surface,
    sad_surface_reference,
)
from repro.multipliers.recursive import RecursiveMultiplier


class TestPartitionLayout:
    @pytest.mark.parametrize(
        "field_bits, slot_bits", [(1, 8), (7, 8), (8, 16), (14, 16),
                                  (15, 16), (16, 32), (31, 32), (32, 64),
                                  (63, 64)]
    )
    def test_slot_sizing(self, field_bits, slot_bits):
        layout = PartitionLayout(field_bits)
        assert layout.slot_bits == slot_bits
        assert layout.fields_per_word == 64 // slot_bits

    @pytest.mark.parametrize("bad", [0, -3])
    def test_bad_field_bits_rejected(self, bad):
        with pytest.raises(ValueError, match="field_bits"):
            PartitionLayout(bad)

    def test_field_plus_guard_beyond_word_rejected(self):
        with pytest.raises(ValueError, match="64-bit word"):
            PartitionLayout(64)
        with pytest.raises(ValueError, match="64-bit word"):
            PartitionLayout(60, guard_bits=5)

    def test_base_mask_has_one_bit_per_slot(self):
        layout = PartitionLayout(10)  # slot 16, 4 fields
        assert int(layout.base) == 0x0001_0001_0001_0001

    def test_spread_replicates_value(self):
        layout = PartitionLayout(10)
        assert int(layout.spread(0x7F)) == 0x007F_007F_007F_007F

    def test_spread_rejects_oversized_value(self):
        layout = PartitionLayout(10)
        with pytest.raises(ValueError, match="slot bits"):
            layout.spread(1 << 16)

    @pytest.mark.parametrize("field_bits", [5, 10, 20, 40])
    @pytest.mark.parametrize("count", [1, 3, 8, 17])
    def test_pack_unpack_roundtrip(self, field_bits, count, rng):
        layout = PartitionLayout(field_bits)
        values = rng.integers(0, 1 << field_bits, (4, count))
        words = layout.pack(values)
        assert words.dtype == np.uint64
        assert np.array_equal(layout.unpack(words, count), values)

    def test_pack_accepts_fortran_ordered_input(self, rng):
        """Regression: fancy indexing can hand ``pack`` a Fortran-ordered
        array; the slot view must still see word slots adjacent."""
        layout = PartitionLayout(10)
        values = rng.integers(0, 1 << 10, (100, 2))
        permuted = values[..., np.asarray([0, 1])]
        assert not permuted.flags["C_CONTIGUOUS"]
        words = layout.pack(permuted)
        assert np.array_equal(layout.unpack(words, 2), values)

    def test_unpack_keeps_guard_bit(self):
        """Results that legitimately use the guard position survive."""
        layout = PartitionLayout(8)  # slot 16
        words = layout.pack(np.asarray([200, 200]))
        total = words + words  # per-field 400 > 2**8
        assert np.array_equal(layout.unpack(total, 2), [400, 400])


class TestPackedAbsdiff:
    def test_exhaustive_u8_pairs(self):
        layout = PartitionLayout(9)
        a = np.repeat(np.arange(256), 256)
        b = np.tile(np.arange(256), 256)
        diff = packed_absdiff(layout, layout.pack(a), layout.pack(b))
        assert np.array_equal(layout.unpack(diff, a.size), np.abs(a - b))

    def test_broadcasts_across_leading_axes(self, rng):
        layout = PartitionLayout(9)
        a = rng.integers(0, 256, (1, 5, 8))
        b = rng.integers(0, 256, (7, 5, 8))
        diff = packed_absdiff(layout, layout.pack(a), layout.pack(b))
        assert np.array_equal(
            layout.unpack(diff, 8), np.abs(a - b)
        )

    def test_full_slot_range(self):
        """No headroom requirement: payloads may use every slot value."""
        layout = PartitionLayout(15)  # slot 16
        hi = (1 << 16) - 1
        a = np.asarray([hi, 0, hi, 12345])
        b = np.asarray([0, hi, hi, 54321])
        diff = packed_absdiff(layout, layout.pack(a), layout.pack(b))
        assert np.array_equal(layout.unpack(diff, 4), np.abs(a - b))


class TestEvalModeWiring:
    """`eval_mode="partsim"` is bit-identical to the default engine."""

    @pytest.mark.parametrize("width", [4, 8, 16])
    def test_recursive_multiplier(self, width, rng):
        ref = RecursiveMultiplier(width, leaf_mul="ApxMulOur")
        ps = RecursiveMultiplier(
            width, leaf_mul="ApxMulOur", eval_mode="partsim"
        )
        a = rng.integers(0, 1 << width, 5000)
        b = rng.integers(0, 1 << width, 5000)
        assert np.array_equal(ref.multiply(a, b), ps.multiply(a, b))

    def test_recursive_multiplier_approx_adders(self, rng):
        ref = RecursiveMultiplier(
            16, leaf_mul="ApxMulSoA", leaf_policy="low_half",
            adder_fa="ApxFA1", adder_approx_lsbs=3,
        )
        ps = RecursiveMultiplier(
            16, leaf_mul="ApxMulSoA", leaf_policy="low_half",
            adder_fa="ApxFA1", adder_approx_lsbs=3, eval_mode="partsim",
        )
        a = rng.integers(0, 1 << 16, 5000)
        b = rng.integers(0, 1 << 16, 5000)
        assert np.array_equal(ref.multiply(a, b), ps.multiply(a, b))


class TestWidthBounds:
    """Satellite fix: int64 reference arithmetic caps adder widths.

    The legacy bit-loop accumulates ``carry << width`` into an int64;
    at width 63 that lands on the sign bit and at 64 it is undefined --
    both used to wrap silently.  Widths beyond :data:`MAX_WIDTH` are now
    rejected at construction.
    """

    def test_max_width_is_62(self):
        assert MAX_WIDTH == 62

    @pytest.mark.parametrize("cls", [ExactAdder, ApproximateRippleAdder])
    @pytest.mark.parametrize("width", [63, 64, 100, 0, -1])
    def test_out_of_range_widths_rejected(self, cls, width):
        with pytest.raises(ValueError, match="width"):
            cls(width)

    @pytest.mark.parametrize("mode", ["auto", "loop"])
    def test_boundary_width_carry_is_exact(self, mode):
        """At width 62 the final carry occupies bit 62 of a 63-bit
        result -- the last width where int64 holds it."""
        adder = ApproximateRippleAdder(MAX_WIDTH, eval_mode=mode)
        top = (1 << MAX_WIDTH) - 1
        got = adder.add(np.asarray([top, top, 1]), np.asarray([top, 1, 1]))
        assert got.tolist() == [2 * top, top + 1, 2]

    def test_recursive_multiplier_width_32_rejected(self):
        """A 32x32 multiplier needs a 64-bit summation adder (and 64-bit
        products), which int64 arithmetic cannot represent."""
        with pytest.raises(ValueError, match="summation adder"):
            RecursiveMultiplier(32)


class TestSadSurface:
    @pytest.mark.parametrize(
        "shape, bs, stride, search",
        [((48, 40), 8, 8, 4), ((40, 40), 4, 4, 2), ((64, 48), 8, 4, 3),
         ((36, 36), 2, 2, 1)],
    )
    def test_matches_batch_reference(self, shape, bs, stride, search, rng):
        cur = rng.integers(0, 256, shape)
        ref = rng.integers(0, 256, shape)
        got = sad_surface(
            SADAccelerator(n_pixels=bs * bs),
            cur, ref, block_size=bs, block_stride=stride, search=search,
        )
        want = sad_surface_reference(
            SADAccelerator(n_pixels=bs * bs),
            cur, ref, block_size=bs, block_stride=stride, search=search,
        )
        assert np.array_equal(got, want)

    def test_matches_loop_engine(self, rng):
        cur = rng.integers(0, 256, (32, 32))
        ref = rng.integers(0, 256, (32, 32))
        got = sad_surface(
            SADAccelerator(n_pixels=16), cur, ref, block_size=4, search=2
        )
        want = sad_surface_reference(
            SADAccelerator(n_pixels=16, eval_mode="loop"),
            cur, ref, block_size=4, search=2,
        )
        assert np.array_equal(got, want)

    def test_identical_frames_zero_at_center(self, rng):
        frame = rng.integers(0, 256, (40, 40))
        surface = sad_surface(SADAccelerator(64), frame, frame, search=2)
        center = 2 * (2 * 2 + 1) + 2  # displacement (0, 0)
        assert np.all(surface[center] == 0)
        assert np.all(surface >= 0)

    def test_out_of_range_pixel_masked_like_the_accelerator(self, rng):
        """Pixels are masked to ``pixel_bits`` as ``sad`` masks them."""
        cur = rng.integers(0, 256, (32, 32))
        ref = rng.integers(0, 256, (32, 32))
        cur[12, 9] = 300
        acc = SADAccelerator(64)
        assert np.array_equal(
            sad_surface(acc, cur, ref, search=2),
            sad_surface_reference(acc, cur, ref, search=2),
        )

    def test_negative_pixel_rejected_like_the_accelerator(self, rng):
        cur = rng.integers(0, 256, (32, 32))
        ref = rng.integers(0, 256, (32, 32))
        ref[20, 3] = -5
        acc = SADAccelerator(64)
        for surface in (sad_surface, sad_surface_reference):
            with pytest.raises(ValueError, match="non-negative"):
                surface(acc, cur, ref, search=2)

    def test_approx_accelerator_rejected(self):
        acc = SADAccelerator(64, fa="ApxFA2", approx_lsbs=4)
        with pytest.raises(ValueError, match="exact-cell"):
            sad_surface(acc, np.zeros((32, 32), int), np.zeros((32, 32), int))

    def test_pixel_count_mismatch_rejected(self):
        with pytest.raises(ValueError, match="block_size"):
            sad_surface(
                SADAccelerator(16), np.zeros((32, 32), int),
                np.zeros((32, 32), int), block_size=8,
            )

    def test_non_2d_frames_rejected(self):
        with pytest.raises(ValueError, match="2-D"):
            sad_surface(
                SADAccelerator(64), np.zeros(64, int), np.zeros(64, int)
            )

    def test_too_small_frame_rejected(self):
        with pytest.raises(ValueError, match="too small"):
            sad_surface(
                SADAccelerator(64), np.zeros((12, 12), int),
                np.zeros((12, 12), int), search=4,
            )
