"""Multi-bit multipliers built recursively from 2x2 blocks (paper Sec. 5).

An ``N x N`` multiplier is decomposed as in lpACLib: with ``h = N/2``,

    a * b = (ah * bh) << N  +  (ah*bl + al*bh) << h  +  al * bl

where the four half-width products recurse down to 2x2 elementary
multipliers, and the partial products are summed with (possibly
approximate) multi-bit adders.  Three orthogonal approximation knobs --
the ones the paper sweeps for Fig. 6 -- are exposed:

* which 2x2 *leaf* blocks are approximate (``leaf_policy``),
* which approximate 2x2 design is used (``leaf_mul``),
* the adder cell and number of approximated LSBs in the partial-product
  summation adders (``adder_fa``, ``adder_approx_lsbs``).

``eval_mode`` picks one of three bit-identical engines: ``"auto"``
(one product table up to 8x8), ``"partsim"`` (an 8x8 sub-product table
per quadrant of wider multipliers) and the ``"loop"`` reference.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Tuple

import numpy as np

from ..adders.ripple import ApproximateRippleAdder
from .mul2x2 import Mul2x2Spec, multiplier_2x2

__all__ = ["RecursiveMultiplier", "LEAF_POLICIES", "PRODUCT_LUT_MAX_WIDTH"]

#: Widest multiplier whose full product table is compiled in
#: ``eval_mode="auto"``/``"partsim"``: a width-8 table has ``2**16`` entries
#: (one 512 KiB int64 array), built lazily with a single vectorized
#: sweep of the reference recursion.
PRODUCT_LUT_MAX_WIDTH = 8

#: Named leaf policies: decide whether the 2x2 leaf at operand offsets
#: ``(a_off, b_off)`` of a ``width``-bit multiplier is approximate.
LEAF_POLICIES: Dict[str, Callable[[int, int, int], bool]] = {
    "all": lambda a_off, b_off, width: True,
    "none": lambda a_off, b_off, width: False,
    # Approximate only leaves whose product significance falls entirely
    # in the lower half of the final product (lpACLib's "Lit" variants).
    "low_half": lambda a_off, b_off, width: (a_off + b_off + 3) < width,
}


def _is_power_of_two(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


class RecursiveMultiplier:
    """Behavioural + physical model of a recursive NxN multiplier.

    Args:
        width: Operand width; a power of two >= 2.
        leaf_mul: Name of the approximate 2x2 design used where the
            policy selects approximation (``"ApxMulSoA"``/``"ApxMulOur"``).
        leaf_policy: ``"all"``, ``"none"``, ``"low_half"``, or a callable
            ``(a_off, b_off, width) -> bool``.
        adder_fa: Full-adder cell used in the *approximated LSBs* of the
            partial-product summation adders (a Table III name).
        adder_approx_lsbs: Number of approximated LSBs in each summation
            adder (clamped to the adder's width).
        eval_mode: Evaluation engine.  ``"auto"`` (default) runs the
            summation adders through the segment/LUT fast path and
            additionally collapses multipliers up to
            ``PRODUCT_LUT_MAX_WIDTH`` bits into one lazily-built product
            table; ``"partsim"`` additionally collapses every
            half-width-8 *quadrant* of a wider multiplier into its own
            sub-product table (keyed by operand offsets, so each table
            bakes in that quadrant's exact leaf-policy mix), replacing
            the bottom three recursion levels with four gathers per
            16-bit node; ``"loop"`` is the legacy cell-level reference.
            All modes are bit-identical.

    Example:
        >>> mul = RecursiveMultiplier(8, leaf_mul="ApxMulOur")
        >>> int(mul.multiply(255, 255)) <= 255 * 255
        True
        >>> exact = RecursiveMultiplier(8, leaf_policy="none")
        >>> int(exact.multiply(255, 255))
        65025
    """

    def __init__(
        self,
        width: int,
        leaf_mul: str = "ApxMulOur",
        leaf_policy: str | Callable[[int, int, int], bool] = "all",
        adder_fa: str = "AccuFA",
        adder_approx_lsbs: int = 0,
        eval_mode: str = "auto",
    ) -> None:
        if not _is_power_of_two(width) or width < 2:
            raise ValueError(f"width must be a power of two >= 2, got {width}")
        from ..adders.ripple import MAX_WIDTH

        if 2 * width > MAX_WIDTH:
            # The final summation adder is 2*width bits wide and the
            # whole datapath runs on int64 reference arithmetic, so a
            # 32x32 multiplier (64-bit products) was never representable
            # -- reject it instead of silently wrapping.
            raise ValueError(
                f"width {width} needs a {2 * width}-bit summation adder, "
                f"beyond the int64-backed maximum of {MAX_WIDTH} bits"
            )

        modes = ("auto", "loop", "partsim")
        if eval_mode not in modes:
            raise ValueError(
                f"eval_mode must be one of {modes}, got {eval_mode!r}"
            )
        self.eval_mode = eval_mode
        self._product_lut: np.ndarray | None = None
        self._quad_luts: Dict[Tuple[int, int], np.ndarray] = {}
        self.width = width
        self.leaf_mul = multiplier_2x2(leaf_mul)
        self.accurate_mul = multiplier_2x2("AccMul")
        if isinstance(leaf_policy, str):
            try:
                self.leaf_policy = LEAF_POLICIES[leaf_policy]
            except KeyError:
                known = ", ".join(LEAF_POLICIES)
                raise ValueError(
                    f"unknown leaf policy {leaf_policy!r}; known: {known}"
                ) from None
            self.leaf_policy_name = leaf_policy
        else:
            self.leaf_policy = leaf_policy
            self.leaf_policy_name = getattr(leaf_policy, "__name__", "custom")
        self.adder_fa = adder_fa
        self.adder_approx_lsbs = adder_approx_lsbs
        self._adders: Dict[int, ApproximateRippleAdder] = {}

    @property
    def name(self) -> str:
        return (
            f"RecMul{self.width}x{self.width}"
            f"[{self.leaf_mul.name}/{self.leaf_policy_name},"
            f"{self.adder_fa}x{self.adder_approx_lsbs}]"
        )

    # ------------------------------------------------------------------
    # datapath
    # ------------------------------------------------------------------
    def _adder(self, width: int) -> ApproximateRippleAdder:
        """Summation adder of the given width (cached per width)."""
        if width not in self._adders:
            # The adders have no packed path: inside the partsim
            # multiplier they run their production "auto" engine.
            mode = "auto" if self.eval_mode == "partsim" else self.eval_mode
            self._adders[width] = ApproximateRippleAdder(
                width,
                approx_fa=self.adder_fa,
                num_approx_lsbs=min(self.adder_approx_lsbs, width),
                eval_mode=mode,
            )
        return self._adders[width]

    def _leaf(self, a_off: int, b_off: int) -> Mul2x2Spec:
        if self.leaf_policy(a_off, b_off, self.width):
            return self.leaf_mul
        return self.accurate_mul

    def _multiply_rec(
        self, a: np.ndarray, b: np.ndarray, w: int, a_off: int, b_off: int
    ) -> np.ndarray:
        if w == 2:
            return self._leaf(a_off, b_off).multiply(a, b)
        h = w // 2
        mask = (1 << h) - 1
        al, ah = a & mask, (a >> h) & mask
        bl, bh = b & mask, (b >> h) & mask
        p_ll = self._multiply_rec(al, bl, h, a_off, b_off)
        p_lh = self._multiply_rec(al, bh, h, a_off, b_off + h)
        p_hl = self._multiply_rec(ah, bl, h, a_off + h, b_off)
        p_hh = self._multiply_rec(ah, bh, h, a_off + h, b_off + h)
        mid = self._adder(w).add(p_lh, p_hl)  # w+1 bits
        acc = self._adder(2 * w).add(p_hh << h, mid)  # aligned at << h
        return self._adder(2 * w).add(acc << h, p_ll)

    def _build_product_lut(self) -> np.ndarray:
        """Full product table, entry ``(a << width) | b``.

        Built by one vectorized sweep of the reference recursion over
        every operand pair, so it is bit-identical to the recursion by
        construction.
        """
        n = 1 << self.width
        a = np.repeat(np.arange(n, dtype=np.int64), n)
        b = np.tile(np.arange(n, dtype=np.int64), n)
        lut = self._multiply_rec(a, b, self.width, 0, 0)
        lut.setflags(write=False)
        return lut

    def _quad_lut(self, a_off: int, b_off: int) -> np.ndarray:
        """Sub-product table of the 8x8 quadrant at ``(a_off, b_off)``.

        Entry ``(a << 8) | b`` holds the quadrant's 16-bit sub-product.
        Built by one vectorized sweep of the reference recursion *at
        those offsets*, so each table is bit-identical to the recursion
        it replaces -- including the per-offset leaf-policy decisions.
        """
        key = (a_off, b_off)
        if key not in self._quad_luts:
            n = 1 << 8
            a = np.repeat(np.arange(n, dtype=np.int64), n)
            b = np.tile(np.arange(n, dtype=np.int64), n)
            lut = self._multiply_rec(a, b, 8, a_off, b_off)
            lut.setflags(write=False)
            self._quad_luts[key] = lut
        return self._quad_luts[key]

    def _multiply_partsim(
        self, a: np.ndarray, b: np.ndarray, w: int, a_off: int, b_off: int
    ) -> np.ndarray:
        """Recursion with 16-bit nodes evaluated as four quadrant gathers."""
        h = w // 2
        mask = (1 << h) - 1
        al, ah = a & mask, (a >> h) & mask
        bl, bh = b & mask, (b >> h) & mask
        if h == 8:
            p_ll = self._quad_lut(a_off, b_off)[(al << 8) | bl]
            p_lh = self._quad_lut(a_off, b_off + h)[(al << 8) | bh]
            p_hl = self._quad_lut(a_off + h, b_off)[(ah << 8) | bl]
            p_hh = self._quad_lut(a_off + h, b_off + h)[(ah << 8) | bh]
        else:
            p_ll = self._multiply_partsim(al, bl, h, a_off, b_off)
            p_lh = self._multiply_partsim(al, bh, h, a_off, b_off + h)
            p_hl = self._multiply_partsim(ah, bl, h, a_off + h, b_off)
            p_hh = self._multiply_partsim(ah, bh, h, a_off + h, b_off + h)
        mid = self._adder(w).add(p_lh, p_hl)  # w+1 bits
        acc = self._adder(2 * w).add(p_hh << h, mid)  # aligned at << h
        return self._adder(2 * w).add(acc << h, p_ll)

    def multiply(self, a, b) -> np.ndarray:
        """Approximate product of two ``width``-bit unsigned operands."""
        mask = (1 << self.width) - 1
        a = np.asarray(a, dtype=np.int64) & mask
        b = np.asarray(b, dtype=np.int64) & mask
        if self.eval_mode != "loop" and self.width <= PRODUCT_LUT_MAX_WIDTH:
            if self._product_lut is None:
                self._product_lut = self._build_product_lut()
            return np.asarray(
                self._product_lut[(a << self.width) | b], dtype=np.int64
            )
        if self.eval_mode == "partsim":
            return self._multiply_partsim(a, b, self.width, 0, 0)
        return self._multiply_rec(a, b, self.width, 0, 0)

    # ------------------------------------------------------------------
    # structural roll-ups
    # ------------------------------------------------------------------
    def leaf_counts(self) -> Dict[str, int]:
        """Number of 2x2 leaves per design name."""
        counts: Dict[str, int] = {}

        def rec(w: int, a_off: int, b_off: int) -> None:
            if w == 2:
                name = self._leaf(a_off, b_off).name
                counts[name] = counts.get(name, 0) + 1
                return
            h = w // 2
            rec(h, a_off, b_off)
            rec(h, a_off, b_off + h)
            rec(h, a_off + h, b_off)
            rec(h, a_off + h, b_off + h)

        rec(self.width, 0, 0)
        return counts

    def adder_widths(self) -> List[int]:
        """Widths of every summation adder instance in the tree."""
        widths: List[int] = []

        def rec(w: int) -> None:
            if w == 2:
                return
            widths.extend([w, 2 * w, 2 * w])
            for _ in range(4):
                rec(w // 2)

        rec(self.width)
        return sorted(widths)

    @property
    def area_ge(self) -> float:
        """Total area: 2x2 leaf netlists + summation-adder cells."""
        from .mul2x2 import MULTIPLIERS_2X2

        total = 0.0
        for name, count in self.leaf_counts().items():
            total += MULTIPLIERS_2X2[name].area_ge * count
        for w in self.adder_widths():
            total += self._adder(w).area_ge
        return total

    @property
    def delay_ps(self) -> float:
        """Critical path: one leaf plus the adder chain of each level."""
        delay = max(self.leaf_mul.delay_ps, self.accurate_mul.delay_ps)
        w = self.width
        while w > 2:
            delay += self._adder(w).delay_ps + 2 * self._adder(2 * w).delay_ps
            w //= 2
        return delay

    def __repr__(self) -> str:
        return f"RecursiveMultiplier({self.name})"
