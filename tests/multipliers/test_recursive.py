"""Tests for the recursive multi-bit multiplier."""

import numpy as np
import pytest

from repro.multipliers.recursive import LEAF_POLICIES, RecursiveMultiplier


class TestConstruction:
    @pytest.mark.parametrize("width", [3, 6, 0, 1])
    def test_non_power_of_two_rejected(self, width):
        with pytest.raises(ValueError, match="power of two"):
            RecursiveMultiplier(width)

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError, match="policy"):
            RecursiveMultiplier(4, leaf_policy="everything")

    def test_callable_policy_accepted(self):
        mul = RecursiveMultiplier(4, leaf_policy=lambda a, b, w: a == 0)
        assert mul.leaf_policy_name == "<lambda>"

    def test_name_mentions_configuration(self):
        mul = RecursiveMultiplier(8, leaf_mul="ApxMulSoA", leaf_policy="low_half")
        assert "ApxMulSoA" in mul.name and "low_half" in mul.name


class TestExactness:
    @pytest.mark.parametrize("width", [2, 4, 8, 16])
    def test_accurate_leaves_give_exact_products(self, width, rng):
        mul = RecursiveMultiplier(width, leaf_policy="none")
        hi = 1 << width
        a = rng.integers(0, hi, 400)
        b = rng.integers(0, hi, 400)
        assert np.array_equal(mul.multiply(a, b), a * b)

    def test_exhaustive_4x4_accurate(self):
        mul = RecursiveMultiplier(4, leaf_policy="none")
        values = np.arange(16)
        a = np.repeat(values, 16)
        b = np.tile(values, 16)
        assert np.array_equal(mul.multiply(a, b), a * b)

    def test_operands_masked_to_width(self):
        mul = RecursiveMultiplier(4, leaf_policy="none")
        assert int(mul.multiply(0x1F, 2)) == (0x1F & 0xF) * 2


class TestApproximation:
    def test_width2_all_policy_is_the_2x2_table(self):
        from repro.multipliers.mul2x2 import multiplier_2x2

        mul = RecursiveMultiplier(2, leaf_mul="ApxMulOur", leaf_policy="all")
        a = np.repeat(np.arange(4), 4)
        b = np.tile(np.arange(4), 4)
        assert np.array_equal(
            mul.multiply(a, b), multiplier_2x2("ApxMulOur").multiply(a, b)
        )

    def test_low_half_policy_protects_msb_leaves(self):
        mul = RecursiveMultiplier(8, leaf_policy="low_half")
        counts = mul.leaf_counts()
        assert counts.get("AccMul", 0) > 0
        assert counts.get(mul.leaf_mul.name, 0) > 0

    def test_all_policy_uses_only_approximate_leaves(self):
        mul = RecursiveMultiplier(8, leaf_mul="ApxMulSoA", leaf_policy="all")
        assert set(mul.leaf_counts()) == {"ApxMulSoA"}

    def test_leaf_count_total(self):
        mul = RecursiveMultiplier(8, leaf_policy="low_half")
        assert sum(mul.leaf_counts().values()) == (8 // 2) ** 2

    def test_low_half_more_accurate_than_all(self, rng):
        hi = 1 << 8
        a = rng.integers(0, hi, 4000)
        b = rng.integers(0, hi, 4000)
        exact = a * b
        med_all = np.abs(
            RecursiveMultiplier(8, leaf_policy="all").multiply(a, b) - exact
        ).mean()
        med_low = np.abs(
            RecursiveMultiplier(8, leaf_policy="low_half").multiply(a, b) - exact
        ).mean()
        assert med_low < med_all

    def test_approximate_adders_add_error(self, rng):
        hi = 1 << 8
        a = rng.integers(0, hi, 4000)
        b = rng.integers(0, hi, 4000)
        clean = RecursiveMultiplier(8, leaf_policy="none")
        noisy = RecursiveMultiplier(
            8, leaf_policy="none", adder_fa="ApxFA5", adder_approx_lsbs=4
        )
        assert np.abs(noisy.multiply(a, b) - a * b).mean() > np.abs(
            clean.multiply(a, b) - a * b
        ).mean()

    def test_relative_error_bounded_for_our_leaves(self, rng):
        """ApxMulOur leaves with exact adders keep errors moderate."""
        mul = RecursiveMultiplier(8, leaf_mul="ApxMulOur", leaf_policy="all")
        hi = 1 << 8
        a = rng.integers(1, hi, 4000)
        b = rng.integers(1, hi, 4000)
        exact = a * b
        rel = np.abs(mul.multiply(a, b) - exact) / exact
        assert float(np.median(rel)) < 0.2


class TestStructure:
    def test_adder_widths(self):
        mul = RecursiveMultiplier(4)
        # One 4-bit + two 8-bit adders at the top; leaves have none.
        assert mul.adder_widths() == [4, 8, 8]

    def test_adder_widths_8(self):
        mul = RecursiveMultiplier(8)
        widths = mul.adder_widths()
        # Top level: one 8-bit mid adder + two 16-bit combiners; each of
        # the four 4x4 subtrees: one 4-bit + two 8-bit adders.
        assert widths.count(16) == 2
        assert widths.count(8) == 1 + 4 * 2
        assert widths.count(4) == 4

    def test_area_positive_and_monotone_in_width(self):
        areas = [RecursiveMultiplier(w).area_ge for w in (2, 4, 8, 16)]
        assert all(a > 0 for a in areas)
        assert areas == sorted(areas)

    def test_approx_leaves_reduce_area(self):
        exact = RecursiveMultiplier(8, leaf_policy="none")
        approx = RecursiveMultiplier(8, leaf_mul="ApxMulSoA", leaf_policy="all")
        assert approx.area_ge < exact.area_ge

    def test_delay_grows_with_width(self):
        assert (
            RecursiveMultiplier(16).delay_ps
            > RecursiveMultiplier(8).delay_ps
            > RecursiveMultiplier(4).delay_ps
        )


class TestFastPathEquivalence:
    """Product-LUT / fast-adder engine vs the legacy cell-level recursion."""

    @pytest.mark.parametrize("leaf_mul", ["ApxMulSoA", "ApxMulOur"])
    @pytest.mark.parametrize("leaf_policy", ["all", "none", "low_half"])
    def test_width4_exhaustive(self, leaf_mul, leaf_policy):
        fast = RecursiveMultiplier(4, leaf_mul=leaf_mul, leaf_policy=leaf_policy)
        loop = RecursiveMultiplier(
            4, leaf_mul=leaf_mul, leaf_policy=leaf_policy, eval_mode="loop"
        )
        a = np.repeat(np.arange(16), 16)
        b = np.tile(np.arange(16), 16)
        assert np.array_equal(fast.multiply(a, b), loop.multiply(a, b))

    @pytest.mark.parametrize("adder_fa,adder_lsbs", [("AccuFA", 0), ("ApxFA2", 3)])
    def test_width8_uses_product_lut(self, adder_fa, adder_lsbs, rng):
        fast = RecursiveMultiplier(
            8, adder_fa=adder_fa, adder_approx_lsbs=adder_lsbs
        )
        loop = RecursiveMultiplier(
            8, adder_fa=adder_fa, adder_approx_lsbs=adder_lsbs, eval_mode="loop"
        )
        a = rng.integers(0, 256, 4000)
        b = rng.integers(0, 256, 4000)
        got = fast.multiply(a, b)
        assert fast._product_lut is not None  # LUT engaged at width 8
        assert np.array_equal(got, loop.multiply(a, b))

    def test_width16_no_product_lut_but_fast_adders(self, rng):
        fast = RecursiveMultiplier(16, adder_fa="ApxFA1", adder_approx_lsbs=4)
        loop = RecursiveMultiplier(
            16, adder_fa="ApxFA1", adder_approx_lsbs=4, eval_mode="loop"
        )
        a = rng.integers(0, 1 << 16, 500)
        b = rng.integers(0, 1 << 16, 500)
        got = fast.multiply(a, b)
        assert fast._product_lut is None  # above PRODUCT_LUT_MAX_WIDTH
        assert np.array_equal(got, loop.multiply(a, b))

    @pytest.mark.parametrize("mode", ["turbo", "lut"])
    def test_invalid_eval_mode_rejected(self, mode):
        with pytest.raises(ValueError, match="eval_mode"):
            RecursiveMultiplier(8, eval_mode=mode)
