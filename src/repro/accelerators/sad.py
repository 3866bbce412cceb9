"""SAD (sum of absolute differences) accelerator (paper Sec. 6, Fig. 8/9).

The SAD accelerator is the paper's running case study: the motion
estimation of an HEVC-like encoder computes, for every candidate block,

    SAD(A, B) = sum_i |a_i - b_i|

through a datapath of subtractors, absolute-value stages, and an adder
tree.  Approximation enters through the full-adder cell used in the
subtractors/adders and the number of approximated LSBs -- giving the
``ApxSAD1 .. ApxSAD5`` variants of Fig. 8 (one per Table III cell).
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from ..adders.characterize import adder_energy_per_op_fj
from ..adders.ripple import ApproximateRippleAdder, _as_int_array

__all__ = [
    "SADAccelerator",
    "make_sad_variants",
    "characterize_sad_family",
    "sad_family_tasks",
    "SAD_VARIANT_CELLS",
]

#: Pixel widths up to this get a full pairwise ``|a - b|`` table
#: (``2**(2*bits)`` int64 entries -- 512 KiB at 8-bit video pixels).
_ABSDIFF_LUT_MAX_PIXEL_BITS = 8

#: A tree level is fused into one value-folded table only while
#: ``2**(width + approx_lsbs)`` entries stay reasonable (8 MiB of int64
#: at the cap); wider levels fall back to the adder's own fast path.
_FUSED_ADD_LUT_MAX_BITS = 20


def _fused_add_lut(adder: ApproximateRippleAdder):
    """Collapse one tree adder into a value-folded table (or a marker).

    Tree operands are *trusted*: ``_check_tree_widths`` guarantees both
    inputs fit in ``adder.width`` bits and the tree always adds with
    ``cin = 0``.  Under those conditions ``adder.add(a, b)`` depends
    only on ``a`` (all of it) and the low ``s = num_approx_lsbs`` bits
    of ``b`` -- b's accurate MSBs contribute the exact value
    ``b - b_lo`` -- so one table covers the whole add:

        T[(x << s) | y] = adder.add(x, y)          (y < 2**s)
        adder.add(a, b) = T[(a << s) | (b & lo)] + (b - (b & lo))

    The same conditions let the table itself be built without rippling
    every entry: x's accurate MSBs pass through exactly too, so

        adder.add(x, y) = ((x >> s) << s) + adder.add(x & lo, y)

    and only the ``2**s x 2**s`` block of low-segment sums goes through
    the adder; the ``2**(w+s)`` entries are that block broadcast over
    every MSB prefix ``x >> s`` (``T`` is row-major in ``x``).

    Returns ``"native"`` for exact levels (``s == 0``: the trusted add
    is literally ``a + b``), the table for fusable levels, or ``None``
    when the table would be too large or the accurate cell is not the
    exact ``AccuFA`` (callers then fall back to ``adder.add``).
    """
    if not adder._msb_native:
        return None
    s = adder.num_approx_lsbs
    if s == 0:
        return "native"
    if adder.width + s > _FUSED_ADD_LUT_MAX_BITS:
        return None
    block = adder.add(
        np.repeat(np.arange(1 << s, dtype=np.int64), 1 << s),
        np.tile(np.arange(1 << s, dtype=np.int64), 1 << s),
    )
    prefixes = np.arange(1 << (adder.width - s), dtype=np.int64) << s
    table = (prefixes[:, None] + block[None, :]).ravel()
    table.setflags(write=False)
    return table


#: Approximate cell behind each published SAD variant name.
SAD_VARIANT_CELLS: Dict[str, str] = {
    "AccuSAD": "AccuFA",
    "ApxSAD1": "ApxFA1",
    "ApxSAD2": "ApxFA2",
    "ApxSAD3": "ApxFA3",
    "ApxSAD4": "ApxFA4",
    "ApxSAD5": "ApxFA5",
}


class SADAccelerator:
    """Sum-of-absolute-differences datapath with approximate arithmetic.

    Args:
        n_pixels: Number of pixel pairs reduced per SAD (e.g. 64 for an
            8x8 block).
        pixel_bits: Pixel bit-width (8 for video).
        fa: Table III full-adder cell used in the approximated LSBs of
            every subtractor and tree adder.
        approx_lsbs: Number of approximated LSBs in each arithmetic
            stage (0 = fully accurate accelerator).
        eval_mode: Evaluation engine for every subtractor and tree adder
            (``"auto"``/``"lut"`` = segment/LUT fast path, ``"loop"`` =
            legacy cell-level reference; bit-identical results).
            ``"partsim"`` runs the whole reduction tree on the
            partitioned-SIMD evaluator: pixels are loaded in
            bit-reversed order so every tree level becomes one
            word-half fold over packed partition words, with
            approximate LSBs rippled by
            :func:`repro.datapath.partsim.packed_cell_ripple` on all
            packed blocks at once.  Requires a power-of-two
            ``n_pixels`` and ``pixel_bits <= 8``; bit-identical to the
            other engines.

    Example:
        >>> acc = SADAccelerator(n_pixels=4)
        >>> int(acc.sad([1, 2, 3, 4], [4, 3, 2, 1]))
        8
    """

    def __init__(
        self,
        n_pixels: int = 64,
        pixel_bits: int = 8,
        fa: str = "AccuFA",
        approx_lsbs: int = 0,
        eval_mode: str = "auto",
    ) -> None:
        if n_pixels < 1:
            raise ValueError(f"n_pixels must be >= 1, got {n_pixels}")
        if approx_lsbs < 0:
            raise ValueError(f"approx_lsbs must be >= 0, got {approx_lsbs}")
        self.n_pixels = n_pixels
        self.pixel_bits = pixel_bits
        self.fa = fa
        self.approx_lsbs = approx_lsbs
        self.eval_mode = eval_mode
        self._partsim_layout = None
        if eval_mode == "partsim":
            if n_pixels & (n_pixels - 1):
                raise ValueError(
                    "partsim SAD needs a power-of-two n_pixels (the tree "
                    f"folds word halves), got {n_pixels}"
                )
            if pixel_bits > _ABSDIFF_LUT_MAX_PIXEL_BITS:
                raise ValueError(
                    "partsim SAD needs the pairwise |a-b| table, so "
                    f"pixel_bits <= {_ABSDIFF_LUT_MAX_PIXEL_BITS} "
                    f"(got {pixel_bits})"
                )
        # The packed tree evaluates the per-stage cells itself; the
        # member adders only provide truth tables / fused LUTs and run
        # in "auto" for table construction.
        inner_mode = "auto" if eval_mode == "partsim" else eval_mode
        self._sub = ApproximateRippleAdder(
            pixel_bits,
            approx_fa=fa,
            num_approx_lsbs=min(approx_lsbs, pixel_bits),
            eval_mode=inner_mode,
        )
        # Tree adders: one width per reduction level.  For n_pixels that
        # are not powers of two the odd element of a level is *wired*
        # through to the next level (no adder), so a value entering the
        # level-i adder may originate several levels up; the level
        # widths below must therefore be checked against the widest
        # value any earlier level can emit, not just the direct
        # predecessor (see _check_tree_widths).
        self._tree: List[ApproximateRippleAdder] = []
        width = pixel_bits
        remaining = n_pixels
        while remaining > 1:
            width += 1
            self._tree.append(
                ApproximateRippleAdder(
                    width,
                    approx_fa=fa,
                    num_approx_lsbs=min(approx_lsbs, width),
                    eval_mode=inner_mode,
                )
            )
            remaining = (remaining + 1) // 2
        self._check_tree_widths()
        # Fused-LUT datapath (fast engines only): the per-pixel |a - b|
        # stage and each tree-level add each collapse into a single
        # int64 gather.  Bit-identical by construction -- every table is
        # filled by evaluating the corresponding ripple-adder stage (the
        # tree tables over their approximate low segment only, see
        # _fused_add_lut).
        self._absdiff_lut: np.ndarray | None = None
        self._tree_fused: list = []
        if eval_mode != "loop":
            if pixel_bits <= _ABSDIFF_LUT_MAX_PIXEL_BITS:
                n_vals = 1 << pixel_bits
                lut = np.abs(
                    self._sub.sub(
                        np.repeat(np.arange(n_vals, dtype=np.int64), n_vals),
                        np.tile(np.arange(n_vals, dtype=np.int64), n_vals),
                    )
                )
                lut.setflags(write=False)
                self._absdiff_lut = lut
            self._tree_fused = [_fused_add_lut(adder) for adder in self._tree]

    def _check_tree_widths(self) -> None:
        """Verify every reduction level is wide enough for its operands.

        A level-i adder of width ``w`` truncates operand bits >= ``w``,
        so a carried (wired-through) odd element must still fit.  The
        widest value at a level is ``pixel_bits + 1 + i`` bits (the
        approximate subtractor can emit ``|a-b| = 2**pixel_bits``, and
        each adder level appends one carry bit); wired-through elements
        are always *narrower* than the level's pair sums, so the direct
        bound suffices.  This guards the invariant the odd-element
        bypass relies on.
        """
        max_bits = self.pixel_bits + 1  # |a - b| can reach 2**pixel_bits
        for level, adder in enumerate(self._tree):
            if adder.width < max_bits:
                raise AssertionError(
                    f"tree level {level} adder width {adder.width} cannot "
                    f"hold {max_bits}-bit operands"
                )
            max_bits = adder.width + 1  # add() emits width+1 bits

    @property
    def name(self) -> str:
        for variant, cell in SAD_VARIANT_CELLS.items():
            if cell == self.fa:
                return f"{variant}(lsbs={self.approx_lsbs})"
        return f"SAD[{self.fa}x{self.approx_lsbs}]"

    # ------------------------------------------------------------------
    # datapath
    # ------------------------------------------------------------------
    def absolute_differences(self, a, b) -> np.ndarray:
        """Per-pixel ``|a - b|`` through the approximate subtractor.

        With a fast engine and video-width pixels the whole subtract +
        absolute-value stage is one gather from a precomputed pairwise
        table; the table itself was filled through ``self._sub.sub``, so
        the result is bit-identical to the explicit datapath.
        """
        a = _as_int_array(a)
        b = _as_int_array(b)
        if self._absdiff_lut is not None:
            mask = (1 << self.pixel_bits) - 1
            return self._absdiff_lut[
                ((a & mask) << self.pixel_bits) | (b & mask)
            ]
        diff = self._sub.sub(a, b)
        return np.abs(diff)

    def _tree_add(self, level: int, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """One reduction-level add on *trusted* operands.

        Operands here are prior-stage outputs already proven to fit the
        level's width (``_check_tree_widths``), so fused levels skip the
        adder's validation/masking and cost one gather plus one add.
        """
        adder = self._tree[level]
        fused = self._tree_fused[level] if self._tree_fused else None
        if fused is None:
            return adder.add(a, b)
        if isinstance(fused, str):  # "native": exact level
            return a + b
        b_lo = b & ((1 << adder.num_approx_lsbs) - 1)
        return fused[(a << adder.num_approx_lsbs) | b_lo] + (b - b_lo)

    def _packed_tree_add(
        self, level: int, layout, wa: np.ndarray, wb: np.ndarray
    ) -> np.ndarray:
        """One reduction level on packed partition words.

        Same trusted-operand contract as :meth:`_tree_add`, evaluated
        on every packed field at once: the approximated LSBs ripple the
        level's cell truth table via ``packed_cell_ripple`` and the
        accurate MSBs are a native word add (guard bits absorb the
        per-field carries).
        """
        from ..datapath.partsim import packed_cell_ripple

        adder = self._tree[level]
        s = adder.num_approx_lsbs
        if s == 0:
            return wa + wb
        sum_lo, carry = packed_cell_ripple(
            layout, wa, wb, np.uint64(0), adder.approx_fa.table, 0, s
        )
        mask_hi = layout.spread((1 << (adder.width - s)) - 1)
        hi = ((wa >> s) & mask_hi) + ((wb >> s) & mask_hi) + carry
        return (hi << s) | sum_lo

    def _sad_partsim(self, values: np.ndarray) -> np.ndarray:
        """Packed reduction of per-pixel ``|a - b|`` values.

        Loading the leaves in bit-reversed order turns the adjacent
        even/odd pairing of :meth:`sad` into "add the first half to the
        second half" at *every* level, with the even operand always in
        the first half -- so while more than one word remains, a level
        is one word-half fold.  The in-word tail (the last
        ``fields_per_word`` partial sums) finishes through the scalar
        trusted-path :meth:`_tree_add`, keeping cell order and operand
        roles bit-identical to the reference tree.
        """
        from ..datapath.partsim import (
            PartitionLayout,
            bit_reverse_permutation,
        )

        if not self._tree:
            return values[..., 0]
        if self._partsim_layout is None:
            self._partsim_layout = PartitionLayout(self._tree[-1].width + 1)
        layout = self._partsim_layout
        words = layout.pack(values[..., bit_reverse_permutation(self.n_pixels)])
        level = 0
        while words.shape[-1] > 1:
            half = words.shape[-1] // 2
            words = self._packed_tree_add(
                level, layout, words[..., :half], words[..., half:]
            )
            level += 1
        vals = layout.unpack(words, min(self.n_pixels, layout.fields_per_word))
        while vals.shape[-1] > 1:
            half = vals.shape[-1] // 2
            vals = self._tree_add(level, vals[..., :half], vals[..., half:])
            level += 1
        return vals[..., 0]

    def sad(self, a, b) -> np.ndarray:
        """SAD over the last axis (must have length ``n_pixels``).

        Inputs may carry arbitrary leading batch dimensions; one SAD is
        produced per batch element.
        """
        a = np.asarray(a, dtype=np.int64)
        b = np.asarray(b, dtype=np.int64)
        if a.shape[-1] != self.n_pixels or b.shape[-1] != self.n_pixels:
            raise ValueError(
                f"last axis must have {self.n_pixels} pixels, got "
                f"{a.shape[-1]} and {b.shape[-1]}"
            )
        values = self.absolute_differences(a, b)
        if self.eval_mode == "partsim":
            return self._sad_partsim(values)
        level = 0
        while values.shape[-1] > 1:
            n = values.shape[-1]
            even = values[..., 0 : n - (n % 2) : 2]
            odd = values[..., 1 : n : 2]
            summed = self._tree_add(level, even, odd)
            if n % 2:
                # Non-power-of-two reduction: the odd element is wired
                # through to the next level unchanged (no adder cell
                # touches it).  This is safe because level widths grow
                # monotonically -- a wired-through value is always
                # narrower than the receiving adder (_check_tree_widths)
                # -- and it matches the physical datapath, where an
                # unpaired bus is registered, not re-added.
                summed = np.concatenate(
                    [summed, values[..., -1:]], axis=-1
                )
            values = summed
            level += 1
        return values[..., 0]

    # ------------------------------------------------------------------
    # physical roll-ups
    # ------------------------------------------------------------------
    @property
    def area_ge(self) -> float:
        """Subtractors (one per pixel) + the full adder tree."""
        total = self._sub.area_ge * self.n_pixels
        remaining = self.n_pixels
        for adder in self._tree:
            pairs = remaining // 2
            total += adder.area_ge * pairs
            remaining = (remaining + 1) // 2
        return total

    @property
    def energy_per_op_fj(self) -> float:
        """Switching energy of one full SAD evaluation."""
        total = adder_energy_per_op_fj(self._sub) * self.n_pixels
        remaining = self.n_pixels
        for adder in self._tree:
            pairs = remaining // 2
            total += adder_energy_per_op_fj(adder) * pairs
            remaining = (remaining + 1) // 2
        return total

    def power_nw(self, ops_per_second: float = 1e6) -> float:
        """Average power at a given SAD throughput."""
        # fJ/op * ops/s = 1e-15 W; report nW.
        return self.energy_per_op_fj * ops_per_second * 1e-15 * 1e9

    def __repr__(self) -> str:
        return (
            f"SADAccelerator(n_pixels={self.n_pixels}, fa={self.fa!r}, "
            f"approx_lsbs={self.approx_lsbs})"
        )


def sad_family_tasks(
    n_pixels: int = 64,
    lsb_counts: tuple = (2, 4, 6),
    n_samples: int = 3000,
    seed: int = 0,
) -> list:
    """Campaign tasks for the (cell, LSB-count) SAD family sweep.

    All tasks share the sweep seed, so every variant is measured on the
    same random blocks -- the fan-out reproduces the serial sweep bit
    for bit.
    """
    from ..campaign import CampaignTask

    tasks = [
        CampaignTask(
            kind="sad_quality",
            params={
                "n_pixels": n_pixels,
                "fa": "AccuFA",
                "approx_lsbs": 0,
                "n_samples": n_samples,
                "name": "AccuSAD",
            },
            seed=seed,
        )
    ]
    for variant, cell in SAD_VARIANT_CELLS.items():
        if variant == "AccuSAD":
            continue
        for lsbs in lsb_counts:
            tasks.append(
                CampaignTask(
                    kind="sad_quality",
                    params={
                        "n_pixels": n_pixels,
                        "fa": cell,
                        "approx_lsbs": int(lsbs),
                        "n_samples": n_samples,
                        "name": f"{variant}/{lsbs}",
                    },
                    seed=seed,
                )
            )
    return tasks


def characterize_sad_family(
    n_pixels: int = 64,
    lsb_counts: tuple = (2, 4, 6),
    n_samples: int = 3000,
    seed: int = 0,
    n_workers: int = 1,
    cache_dir: str | None = None,
) -> list:
    """Quality/energy records for every (cell, LSB-count) SAD variant.

    Quality is measured against the exact SAD on uniform random blocks;
    energy from the per-cell switching model.  The records feed the
    approximation manager and the CLI.  The sweep runs as a campaign
    (:func:`repro.campaign.run_campaign`): ``n_workers`` fans the
    variants out over processes, ``cache_dir`` reuses / checkpoints
    finished records, and results are bit-identical for any worker
    count.

    Returns:
        List of dicts with ``name``, ``fa``, ``approx_lsbs``,
        ``mean_error_distance``, ``mean_relative_error`` and
        ``energy_fj``.
    """
    from ..campaign import run_campaign

    tasks = sad_family_tasks(
        n_pixels, lsb_counts=lsb_counts, n_samples=n_samples, seed=seed
    )
    return list(
        run_campaign(tasks, n_workers=n_workers, cache_dir=cache_dir).results
    )


def make_sad_variants(
    n_pixels: int = 64,
    approx_lsbs: int = 4,
    include_accurate: bool = True,
    eval_mode: str = "auto",
) -> Dict[str, SADAccelerator]:
    """The accelerator variants of Fig. 8: one per Table III cell.

    Args:
        n_pixels: Pixels per SAD block.
        approx_lsbs: Approximated LSBs in each variant's arithmetic.
        include_accurate: Also return the exact ``AccuSAD`` reference.
        eval_mode: Evaluation engine for every variant's arithmetic.
    """
    variants: Dict[str, SADAccelerator] = {}
    for name, cell in SAD_VARIANT_CELLS.items():
        if name == "AccuSAD":
            if include_accurate:
                variants[name] = SADAccelerator(
                    n_pixels, fa="AccuFA", eval_mode=eval_mode
                )
            continue
        variants[name] = SADAccelerator(
            n_pixels, fa=cell, approx_lsbs=approx_lsbs, eval_mode=eval_mode
        )
    return variants
