"""Multi-bit ripple-carry adders built from 1-bit (approximate) cells.

This is the lpACLib-style construction used throughout the paper: an
N-bit ripple-carry adder whose ``num_approx_lsbs`` least-significant bit
positions use one of the approximate full adders of Table III while the
remaining (most-significant) positions use the accurate cell.  The same
structure doubles as a two's-complement subtractor (for the SAD
accelerator's ``|a - b|`` datapath).

Two bit-identical evaluation engines are provided (``eval_mode``):

* ``"loop"`` -- the reference: a Python loop over every bit position
  with per-cell truth-table lookups;
* ``"auto"`` -- the production fast path of :mod:`.fastpath`: the
  approximate LSB segment is collapsed into one precomputed lookup
  table and the accurate MSB segment into a native integer add, so a
  whole batched ``add`` costs two NumPy gathers and one vector add.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .fastpath import AUTO_LUT_MAX_BITS, approx_segment_lut, pack_segment_index
from .fulladder import FULL_ADDERS, FullAdderSpec, full_adder

__all__ = ["ApproximateRippleAdder", "ExactAdder", "EVAL_MODES", "MAX_WIDTH"]

#: Recognized evaluation engines for :class:`ApproximateRippleAdder`.
EVAL_MODES = ("auto", "loop")

#: Widest supported adder.  Every engine accumulates into signed int64
#: (the scalar reference contract), whose 63 value bits must hold the
#: ``width + 1``-bit result: the legacy bit-loop's ``carry << width``
#: lands on the sign bit at width 63 and overflows outright at 64, and
#: the exact reference ``a + b`` wraps the same way.  Wider adders are
#: rejected at construction instead of silently corrupting sums.
MAX_WIDTH = 62


def _as_int_array(x) -> np.ndarray:
    arr = np.asarray(x, dtype=np.int64)
    if np.any(arr < 0):
        raise ValueError("operands must be non-negative integers")
    return arr


def _as_carry_in(cin) -> int:
    cin = int(cin)
    if cin not in (0, 1):
        raise ValueError(f"cin must be 0 or 1, got {cin}")
    return cin


@dataclass(frozen=True)
class ExactAdder:
    """Reference integer adder with the same interface as the approximate one.

    Attributes:
        width: Operand width in bits; the result carries ``width + 1``
            bits (the final carry is kept).
    """

    width: int

    def __post_init__(self) -> None:
        if not 1 <= self.width <= MAX_WIDTH:
            raise ValueError(
                f"width must be in [1, {MAX_WIDTH}] (int64 reference "
                f"arithmetic), got {self.width}"
            )

    def add(self, a, b, cin: int = 0) -> np.ndarray:
        """Exact ``a + b + cin`` (inputs truncated to ``width`` bits)."""
        mask = (1 << self.width) - 1
        return (_as_int_array(a) & mask) + (_as_int_array(b) & mask) + _as_carry_in(cin)

    def sub(self, a, b) -> np.ndarray:
        """Exact ``a - b`` as a signed integer."""
        mask = (1 << self.width) - 1
        return (_as_int_array(a) & mask) - (_as_int_array(b) & mask)

    @property
    def name(self) -> str:
        return f"Exact{self.width}"

    @property
    def num_approx_lsbs(self) -> int:
        return 0

    @property
    def area_ge(self) -> float:
        return FULL_ADDERS["AccuFA"].area_ge * self.width

    @property
    def delay_ps(self) -> float:
        return FULL_ADDERS["AccuFA"].delay_ps * self.width


class ApproximateRippleAdder:
    """N-bit ripple-carry adder with approximate LSB cells.

    The ``num_approx_lsbs`` least-significant positions instantiate
    ``approx_fa``; the rest instantiate ``accurate_fa``.  Evaluation is
    bit-true and vectorized: operands are NumPy integer arrays.

    Args:
        width: Operand width in bits.
        approx_fa: Table III cell (name or spec) for the LSB segment.
        num_approx_lsbs: Number of approximated LSB positions.
        accurate_fa: Cell for the remaining MSB positions.
        eval_mode: Evaluation engine -- ``"auto"`` (default) uses the
            segment/LUT fast path, compiling a LUT for approximate
            segments up to ``AUTO_LUT_MAX_BITS`` bits and bit-looping
            only over wider segments; ``"loop"`` is the full bit-loop
            reference.  Both produce bit-identical results.

    Example:
        >>> adder = ApproximateRippleAdder(8, approx_fa="ApxFA1",
        ...                                num_approx_lsbs=4)
        >>> int(adder.add(100, 27))  # inexact in the low 4 bits
        128
    """

    def __init__(
        self,
        width: int,
        approx_fa: str | FullAdderSpec = "ApxFA1",
        num_approx_lsbs: int = 0,
        accurate_fa: str | FullAdderSpec = "AccuFA",
        eval_mode: str = "auto",
    ) -> None:
        if not 1 <= width <= MAX_WIDTH:
            raise ValueError(
                f"width must be in [1, {MAX_WIDTH}] (int64 reference "
                f"arithmetic), got {width}"
            )
        if not 0 <= num_approx_lsbs <= width:
            raise ValueError(
                f"num_approx_lsbs must be in [0, {width}], got {num_approx_lsbs}"
            )
        if eval_mode not in EVAL_MODES:
            raise ValueError(
                f"eval_mode must be one of {EVAL_MODES}, got {eval_mode!r}"
            )
        self.width = width
        self.num_approx_lsbs = num_approx_lsbs
        self.approx_fa = (
            full_adder(approx_fa) if isinstance(approx_fa, str) else approx_fa
        )
        self.accurate_fa = (
            full_adder(accurate_fa)
            if isinstance(accurate_fa, str)
            else accurate_fa
        )
        self.eval_mode = eval_mode
        # The MSB segment reduces to a native integer add only when the
        # accurate cell really is the exact full adder.
        self._msb_native = (
            tuple(self.accurate_fa.table) == tuple(FULL_ADDERS["AccuFA"].table)
        )
        self._seg_lut: np.ndarray | None = None
        if eval_mode == "auto" and 0 < num_approx_lsbs <= AUTO_LUT_MAX_BITS:
            self._seg_lut = approx_segment_lut(self.approx_fa, num_approx_lsbs)

    @property
    def name(self) -> str:
        return (
            f"RCA{self.width}[{self.approx_fa.name}"
            f"x{self.num_approx_lsbs}]"
        )

    @property
    def uses_fast_path(self) -> bool:
        """True when ``add``/``sub`` run the segment/LUT engine."""
        return self.eval_mode != "loop"

    def cell_at(self, position: int) -> FullAdderSpec:
        """The full-adder spec used at bit ``position`` (0 = LSB)."""
        if not 0 <= position < self.width:
            raise ValueError(f"bit position {position} out of range")
        if position < self.num_approx_lsbs:
            return self.approx_fa
        return self.accurate_fa

    # ------------------------------------------------------------------
    # arithmetic
    # ------------------------------------------------------------------
    def add(self, a, b, cin: int = 0) -> np.ndarray:
        """Approximate ``a + b + cin``; result has ``width + 1`` bits."""
        a = _as_int_array(a)
        b = _as_int_array(b)
        cin = _as_carry_in(cin)
        if self.eval_mode == "loop":
            return self._add_loop(a, b, cin)
        return self._add_fast(a, b, cin)

    def _add_loop(self, a: np.ndarray, b: np.ndarray, cin: int) -> np.ndarray:
        """Reference: per-cell ripple over every bit position."""
        carry = np.broadcast_to(
            np.asarray(cin, dtype=np.int64), np.broadcast_shapes(a.shape, b.shape)
        ).copy()
        total = np.zeros_like(carry)
        for bit in range(self.width):
            spec = self.cell_at(bit)
            abit = (a >> bit) & 1
            bbit = (b >> bit) & 1
            s, carry_u8 = spec.evaluate(abit, bbit, carry)
            total |= s.astype(np.int64) << bit
            carry = carry_u8.astype(np.int64)
        total |= carry << self.width
        return total

    def _ripple_segment(
        self, a: np.ndarray, b: np.ndarray, carry, start: int, stop: int
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Bit-loop over positions ``[start, stop)`` only.

        Returns the segment's partial sum (aligned at bit ``start``) and
        carry-out; used by the fast path for pieces it cannot collapse.
        """
        carry = np.broadcast_to(
            np.asarray(carry, dtype=np.int64),
            np.broadcast_shapes(a.shape, b.shape),
        ).copy()
        total = np.zeros_like(carry)
        for bit in range(start, stop):
            spec = self.cell_at(bit)
            abit = (a >> bit) & 1
            bbit = (b >> bit) & 1
            s, carry_u8 = spec.evaluate(abit, bbit, carry)
            total |= s.astype(np.int64) << bit
            carry = carry_u8.astype(np.int64)
        return total, carry

    def _add_fast(self, a: np.ndarray, b: np.ndarray, cin: int) -> np.ndarray:
        """Segment-split evaluation: LUT over the approximate LSBs plus a
        native integer add over the accurate MSBs.

        The LUT value is kept *packed* as ``(carry << s) | sum_lo``: with
        an exact MSB segment the total is simply
        ``((a_hi + b_hi) << s) + packed`` -- the carry lands on bit ``s``
        by construction -- so no unpack step is needed on the hot path.
        """
        s = self.num_approx_lsbs
        w = self.width
        if s == 0:
            if self._msb_native:
                mask = (1 << w) - 1
                total = (a & mask) + (b & mask) + cin
            else:
                hi, carry = self._ripple_segment(a, b, cin, 0, w)
                total = hi | (carry << w)
            return np.asarray(total, dtype=np.int64)
        if self._seg_lut is not None:
            mask_lo = (1 << s) - 1
            idx = pack_segment_index(a & mask_lo, b & mask_lo, cin, s)
            packed = self._seg_lut[idx]
            if packed.dtype != np.int64:  # only the very largest tables
                packed = packed.astype(np.int64)
            if s == w:
                # packed == (carry << w) | sum is already the result.
                return np.asarray(packed, dtype=np.int64)
            if self._msb_native:
                mask_hi = (1 << (w - s)) - 1
                hi = ((a >> s) & mask_hi) + ((b >> s) & mask_hi)
                return np.asarray((hi << s) + packed, dtype=np.int64)
            sum_lo = packed & mask_lo
            hi, carry = self._ripple_segment(a, b, packed >> s, s, w)
            return np.asarray(hi | sum_lo | (carry << w), dtype=np.int64)
        # Approximate segment too wide for a LUT: bit-loop it alone.
        sum_lo, carry = self._ripple_segment(a, b, cin, 0, s)
        if s == w:
            total = sum_lo | (carry << w)
        elif self._msb_native:
            mask_hi = (1 << (w - s)) - 1
            hi = ((a >> s) & mask_hi) + ((b >> s) & mask_hi) + carry
            total = (hi << s) | sum_lo
        else:
            hi, carry = self._ripple_segment(a, b, carry, s, w)
            total = hi | sum_lo | (carry << w)
        return np.asarray(total, dtype=np.int64)

    def add_modular(self, a, b, cin: int = 0) -> np.ndarray:
        """Approximate addition truncated to ``width`` bits (carry dropped)."""
        return self.add(a, b, cin) & ((1 << self.width) - 1)

    def sub(self, a, b) -> np.ndarray:
        """Approximate ``a - b`` via two's complement through this adder.

        ``b`` is inverted bitwise and added with a carry-in of 1, exactly
        as an adder/subtractor datapath would do.  The raw result
        ``a + ~b + 1`` carries ``width + 1`` bits and equals
        ``a - b + 2**width`` for an exact adder, so subtracting the bias
        recovers the signed difference over the full range
        ``[-(2**width - 1), 2**width - 1]``.
        """
        a = _as_int_array(a)
        b = _as_int_array(b)
        mask = (1 << self.width) - 1
        raw = self.add(a & mask, (~b) & mask, cin=1)
        return raw - (1 << self.width)

    # ------------------------------------------------------------------
    # physical roll-ups
    # ------------------------------------------------------------------
    @property
    def area_ge(self) -> float:
        """Total cell area (sum of the per-bit synthesized FA areas)."""
        return float(
            sum(self.cell_at(i).area_ge for i in range(self.width))
        )

    @property
    def delay_ps(self) -> float:
        """Critical-path delay: the full carry ripple through all cells."""
        return float(
            sum(self.cell_at(i).delay_ps for i in range(self.width))
        )

    def __repr__(self) -> str:
        return (
            f"ApproximateRippleAdder(width={self.width}, "
            f"approx_fa={self.approx_fa.name!r}, "
            f"num_approx_lsbs={self.num_approx_lsbs})"
        )
