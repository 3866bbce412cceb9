"""Partitioned-SIMD evaluation of the paper's word-level datapaths.

The bit-parallel netlist engine (:mod:`repro.logic.bitsim`) packs 64
*stimuli* per machine word but still walks one gate at a time.  This
module packs whole *operations*: several independent absolute
differences and adder-tree sums ride side by side in one ``uint64``
NumPy lane, separated by guard bits so their carries cannot interact --
the ieee754fpu ``part_mul_add`` idiom, where a datapath is cut by
*partition points* rather than evaluated by per-element Python loops.

Layout
------
A :class:`PartitionLayout` slices the 64-bit word into power-of-two
*slots* (8/16/32/64 bits), each holding one ``field_bits``-wide payload
plus at least one guard bit.  Because a slot is a power of two, packing
is a single dtype pass: ``x.astype(uint16).view(uint64)`` lands four
consecutive values in the four slots of one word (little-endian), so no
shift/or assembly loop is ever needed.

Evaluation primitives
---------------------
* word addition -- two packed operands whose payloads are masked to
  ``field_bits`` add without any cross-slot carry (the guard bit absorbs
  each field's carry-out), so a plain ``+`` performs ``fields_per_word``
  independent additions;
* :func:`packed_absdiff` -- the classic SWAR ``|a - b|`` for exact
  subtractor stages (guard-biased subtract, then conditional negate).

Consumers
---------
:func:`sad_surface` is the end-to-end Fig. 8 motion-estimation kernel
that the partitioned layer accelerates wholesale, and
``RecursiveMultiplier(eval_mode="partsim")`` collapses the 8x8
quadrants of wide multipliers into sub-product tables.  Both are checked
bit for bit against their references: :func:`sad_surface_reference`
(the accelerator's own batch ``sad``) and the multiplier's ``auto`` and
``loop`` paths in the :mod:`repro.verify` oracle registry.  The adders
and the SAD accelerator's batch ``sad`` have no packed path: measured
against their default fast paths, packed batch adds and packed SAD
trees mostly lost (``docs/PERFORMANCE.md`` has the grid).
"""

from __future__ import annotations

import sys
from typing import Tuple

import numpy as np

from ..adders.ripple import _as_int_array

__all__ = [
    "PartitionLayout",
    "packed_absdiff",
    "sad_surface",
    "sad_surface_reference",
]

#: Slot widths that pack with one dtype view (power-of-two lanes).
_SLOT_DTYPES = {8: np.uint8, 16: np.uint16, 32: np.uint32, 64: np.uint64}


def _require_little_endian() -> None:
    # The astype/view packing identifies slot k of a word with byte
    # lanes k -- true only on little-endian hosts (every platform this
    # repo targets).  Fail loudly rather than mis-pack on exotic hosts.
    if sys.byteorder != "little":
        raise RuntimeError(
            "partitioned-SIMD packing requires a little-endian host"
        )


class PartitionLayout:
    """Partition of a 64-bit word into independent payload fields.

    Args:
        field_bits: Payload width of one field (the datapath's operand
            or result width, including any carry-out bit the consumer
            wants to keep).
        guard_bits: Minimum spacer above each payload; at least one
            guard bit is required so a field's carry-out cannot reach
            its neighbour's LSB.

    The slot width is the smallest power of two (8/16/32/64) holding
    ``field_bits + guard_bits``; ``fields_per_word = 64 // slot_bits``.

    Example:
        >>> layout = PartitionLayout(9)    # 8-bit add + carry-out
        >>> layout.slot_bits, layout.fields_per_word
        (16, 4)
    """

    def __init__(self, field_bits: int, guard_bits: int = 1) -> None:
        if field_bits < 1:
            raise ValueError(f"field_bits must be >= 1, got {field_bits}")
        if guard_bits < 1:
            raise ValueError(f"guard_bits must be >= 1, got {guard_bits}")
        need = field_bits + guard_bits
        if need > 64:
            raise ValueError(
                f"field_bits + guard_bits = {need} exceeds the 64-bit word"
            )
        _require_little_endian()
        slot = 8
        while slot < need:
            slot *= 2
        self.field_bits = field_bits
        self.slot_bits = slot
        self.slot_dtype = _SLOT_DTYPES[slot]
        self.fields_per_word = 64 // slot
        # Bit 0 of every slot -- the generator of all partition masks.
        base = 0
        for k in range(self.fields_per_word):
            base |= 1 << (slot * k)
        self.base = np.uint64(base)
        self.field_mask = self.spread((1 << field_bits) - 1)

    def spread(self, value: int) -> np.uint64:
        """``value`` replicated at every slot base (a partition mask).

        ``value`` must fit in one slot; adjacent replicas then cannot
        overlap, so the replication is an exact multiplication by
        :attr:`base`.
        """
        if not 0 <= value < (1 << self.slot_bits):
            raise ValueError(
                f"value needs more than {self.slot_bits} slot bits: {value}"
            )
        return np.uint64(int(self.base) * value)

    # ------------------------------------------------------------------
    # packing
    # ------------------------------------------------------------------
    def pack(self, values: np.ndarray) -> np.ndarray:
        """Pack integer payloads along the last axis into uint64 words.

        ``values[..., i]`` lands in slot ``i % fields_per_word`` of word
        ``i // fields_per_word``; the tail word is zero-padded.  Values
        are truncated to the slot width (callers pass payloads already
        masked to ``field_bits``).
        """
        arr = np.asarray(values, dtype=np.int64)
        count = arr.shape[-1]
        pad = (-count) % self.fields_per_word
        if pad:
            widths = [(0, 0)] * (arr.ndim - 1) + [(0, pad)]
            arr = np.pad(arr, widths)
        # order="C": the uint64 view below needs the slots of one word
        # adjacent in memory, but astype's default order="K" preserves
        # e.g. the Fortran order a fancy-indexed input may carry.
        return arr.astype(self.slot_dtype, order="C").view(np.uint64)

    def unpack(self, words: np.ndarray, count: int) -> np.ndarray:
        """Inverse of :meth:`pack`: the first ``count`` slot payloads.

        Slots are returned verbatim (no field masking), so results that
        legitimately use the guard position -- e.g. a kept carry-out --
        survive the round trip.
        """
        words = np.ascontiguousarray(words)
        return words.view(self.slot_dtype).astype(np.int64)[..., :count]


# ----------------------------------------------------------------------
# packed primitives
# ----------------------------------------------------------------------

def packed_absdiff(
    layout: PartitionLayout, wa: np.ndarray, wb: np.ndarray
) -> np.ndarray:
    """Exact ``|a - b|`` on every packed field (lane absolute difference).

    Computed as ``max(a, b) - min(a, b)`` on the slot-dtype lane view of
    the words: three vectorized passes over the slots, valid for the
    full slot value range, and the output lands back in the same
    partition layout.  Matches the exact subtractor + abs stage of the
    SAD datapath bit for bit.
    """
    lanes_a = np.ascontiguousarray(wa).view(layout.slot_dtype)
    lanes_b = np.ascontiguousarray(wb).view(layout.slot_dtype)
    out = np.maximum(lanes_a, lanes_b)
    out -= np.minimum(lanes_a, lanes_b)
    return out.view(np.uint64)


# ----------------------------------------------------------------------
# Fig. 8 motion-estimation surface
# ----------------------------------------------------------------------

def _block_offsets(block_size: int) -> list:
    return [(r, c) for r in range(block_size) for c in range(block_size)]


def _packed_block_positions(
    frame: np.ndarray, block_size: int, layout: PartitionLayout
) -> np.ndarray:
    """Every ``block_size``-square block of ``frame``, packed.

    Returns a ``(n_posy * n_posx, n_words)`` uint64 array: row
    ``y * n_posx + x`` holds the block whose top-left corner is
    ``(y, x)``, its pixels laid row-major into consecutive slots.  Built
    as one sliding-window view over the slot-dtype frame plus a single
    contiguous copy -- one pass regardless of frame size.
    """
    h, w = frame.shape
    n_posy, n_posx = h - block_size + 1, w - block_size + 1
    n_pixels = block_size * block_size
    src = frame.astype(layout.slot_dtype)
    windows = np.lib.stride_tricks.sliding_window_view(
        src, (block_size, block_size)
    )
    blocks = np.ascontiguousarray(windows)
    return blocks.reshape(n_posy * n_posx, n_pixels).view(np.uint64)


def _surface_geometry(
    frame_shape: Tuple[int, int],
    block_size: int,
    block_stride: int,
    search: int,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Block origins and displacement offsets of the SAD surface."""
    h, w = frame_shape
    oy = np.arange(search, h - block_size - search + 1, block_stride)
    ox = np.arange(search, w - block_size - search + 1, block_stride)
    if oy.size == 0 or ox.size == 0:
        raise ValueError(
            f"frame {h}x{w} too small for block_size={block_size}, "
            f"search={search}"
        )
    disp = np.arange(-search, search + 1)
    dy = np.repeat(disp, disp.size)
    dx = np.tile(disp, disp.size)
    gy, gx = np.meshgrid(oy, ox, indexing="ij")
    return gy.ravel(), gx.ravel(), dy, dx


def sad_surface(
    accel,
    cur: np.ndarray,
    ref: np.ndarray,
    block_size: int = 8,
    block_stride: int | None = None,
    search: int = 4,
) -> np.ndarray:
    """Full-search SAD surface of a frame pair through the packed layer.

    For every current-frame block (origins on a ``block_stride`` grid)
    and every displacement in ``[-search, search]^2``, computes the
    accelerator's SAD against the displaced reference block -- the bulk
    kernel behind the paper's Fig. 8 motion-estimation study.  The
    whole surface stays in the partitioned word domain: the reference
    frame is packed once per block position, candidates are gathered as
    words, and the absolute-difference + adder-tree datapath runs as a
    handful of word operations over all (block, displacement) pairs at
    once.

    Only exact-cell accelerators are supported (``approx_lsbs == 0``):
    their subtract/abs stage is the SWAR :func:`packed_absdiff` and
    every tree level is a guarded word addition.  Approximate variants
    evaluate through the accelerator's batch path instead
    (``SADAccelerator.sad``, which :func:`sad_surface_reference` calls).
    Pixels are checked and masked to ``accel.pixel_bits`` as
    ``SADAccelerator.absolute_differences`` does: a negative pixel
    raises ``ValueError`` and bits above the pixel width are dropped.

    Args:
        accel: A :class:`~repro.accelerators.sad.SADAccelerator` with
            ``approx_lsbs == 0`` and ``n_pixels == block_size ** 2``.
        cur: Current frame, ``(H, W)`` non-negative integers.
        ref: Reference frame, same shape.
        block_size: Square block edge; ``block_size ** 2`` must equal
            ``accel.n_pixels``.
        block_stride: Grid step between block origins (default:
            ``block_size``, i.e. non-overlapping blocks).
        search: Displacement radius.

    Returns:
        ``(n_displacements, n_blocks)`` int64 SAD values;
        displacement ``(dy, dx)`` is row
        ``(dy + search) * (2 * search + 1) + (dx + search)`` and blocks
        are row-major over the origin grid.
    """
    if accel.approx_lsbs != 0:
        raise ValueError(
            "sad_surface runs the SWAR datapath and supports exact-cell "
            "accelerators only (approx_lsbs == 0); use "
            "SADAccelerator.sad for approximate variants"
        )
    n_pixels = block_size * block_size
    if accel.n_pixels != n_pixels:
        raise ValueError(
            f"accelerator reduces {accel.n_pixels} pixels but "
            f"block_size={block_size} gives {n_pixels}"
        )
    pixel_mask = (1 << accel.pixel_bits) - 1
    cur = _as_int_array(cur) & pixel_mask
    ref = _as_int_array(ref) & pixel_mask
    if cur.shape != ref.shape or cur.ndim != 2:
        raise ValueError("cur and ref must be 2-D frames of equal shape")
    if block_stride is None:
        block_stride = block_size
    # Field capacity: the largest value in the datapath is the final
    # SAD, n_pixels * (2**pixel_bits - 1); the layout's guard bit above
    # it keeps every tree-level word addition carry-isolated.
    total_bits = (n_pixels * ((1 << accel.pixel_bits) - 1)).bit_length()
    layout = PartitionLayout(max(total_bits, accel.pixel_bits + 1))

    oy, ox, dy, dx = _surface_geometry(
        cur.shape, block_size, block_stride, search
    )
    n_posx = cur.shape[1] - block_size + 1

    # Current blocks: one strided slice per in-block offset on the
    # origin grid only.
    cur_src = cur.astype(layout.slot_dtype)
    cur_blocks = np.empty((oy.size, n_pixels), dtype=layout.slot_dtype)
    for i, (r, c) in enumerate(_block_offsets(block_size)):
        cur_blocks[:, i] = cur_src[oy + r, ox + c]
    cur_words = cur_blocks.view(np.uint64)

    # Reference candidates: every block position packed once, then each
    # (displacement, block) pair is one word-row gather.
    ref_words = _packed_block_positions(ref, block_size, layout)
    pos = (oy[None, :] + dy[:, None]) * n_posx + (ox[None, :] + dx[:, None])
    cand = ref_words[pos]  # (n_disp, n_blocks, n_words)

    diff = packed_absdiff(layout, cur_words[None, :, :], cand)
    # Adder tree: fold word halves (exact levels are plain guarded word
    # adds), then collapse the surviving word's slots.
    while diff.shape[-1] > 1:
        half = diff.shape[-1] // 2
        diff = diff[..., :half] + diff[..., half:]
    word = diff[..., 0]
    slot = layout.slot_bits
    span = 64
    while span > slot:
        span //= 2
        word = (word + (word >> span)) & np.uint64((1 << span) - 1)
    return word.astype(np.int64)


def sad_surface_reference(
    accel,
    cur: np.ndarray,
    ref: np.ndarray,
    block_size: int = 8,
    block_stride: int | None = None,
    search: int = 4,
) -> np.ndarray:
    """The same surface through the accelerator's batch ``sad`` API.

    Gathers every (block, displacement) operand pair into int64 pixel
    arrays and performs one bulk ``accel.sad`` call -- the pre-existing
    fast-path formulation of the Fig. 8 kernel, and the baseline the
    partitioned path is benchmarked and cross-checked against.
    """
    cur = np.asarray(cur, dtype=np.int64)
    ref = np.asarray(ref, dtype=np.int64)
    if block_stride is None:
        block_stride = block_size
    oy, ox, dy, dx = _surface_geometry(
        cur.shape, block_size, block_stride, search
    )
    offs = _block_offsets(block_size)
    rr = np.asarray([r for r, _ in offs])
    cc = np.asarray([c for _, c in offs])
    cur_blocks = cur[oy[:, None] + rr[None, :], ox[:, None] + cc[None, :]]
    ref_rows = (oy[None, :, None] + dy[:, None, None]) + rr[None, None, :]
    ref_cols = (ox[None, :, None] + dx[:, None, None]) + cc[None, None, :]
    ref_blocks = ref[ref_rows, ref_cols]
    cur_batch = np.broadcast_to(cur_blocks[None], ref_blocks.shape)
    return accel.sad(cur_batch, ref_blocks)
