"""Heterogeneous GeAr: per-segment block sizes and carry predictions.

The homogeneous ``GeAr(N, R, P)`` model (paper Sec. 4.2) forces every
sub-adder to contribute the same ``R`` result bits with the same ``P``
prediction bits.  Farahmand et al. (arXiv 2106.08800) generalize this to
*heterogeneous* blocks: segment ``i`` contributes ``r_i`` result bits and
speculates its carry from the ``p_i`` bits immediately below its base.
Spending prediction bits where carries actually matter (the high
segments) buys better accuracy at equal area than any homogeneous split.

A configuration is a sequence of ``(r_i, p_i)`` segments.  With
``t_i = r_0 + ... + r_{i-1}`` the base of segment ``i``, sub-adder ``i``
sums the operand window ``[t_i - p_i, t_i + r_i)`` with carry-in 0 and
keeps its top ``r_i`` bits; the final carry (bit N) is the last window's
overflow.  Segment 0 has ``p_0 = 0`` and is always exact.  The
homogeneous ``GeAr(N, R, P)`` is the special case
``[(R+P, 0), (R, P), ..., (R, P)]`` (see :meth:`HeteroGeArConfig.from_gear`).

Segment ``i`` errs exactly when the true carry into bit ``t_i`` is 1 and
all ``p_i`` prediction positions propagate -- the same event structure as
GeAr, which is what lets ``repro.errors.analytic`` compute the exact
error PMF for both families with one DP.

:class:`HeteroGeArAdder` has one engine, the vectorized window
equation; the verifier's reference is an independent scalar
re-implementation.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import List, Tuple

import numpy as np

__all__ = ["HeteroGeArConfig", "HeteroGeArAdder"]


def _as_int_array(x) -> np.ndarray:
    arr = np.asarray(x, dtype=np.int64)
    if np.any(arr < 0):
        raise ValueError("operands must be non-negative integers")
    return arr


def _compositions(n: int, k: int) -> List[Tuple[int, ...]]:
    """All ordered ways to write ``n`` as ``k`` positive parts."""
    if k == 1:
        return [(n,)]
    out: List[Tuple[int, ...]] = []
    for first in range(1, n - k + 2):
        for rest in _compositions(n - first, k - 1):
            out.append((first,) + rest)
    return out


@dataclass(frozen=True)
class HeteroGeArConfig:
    """Architectural parameters of a heterogeneous GeAr adder.

    Attributes:
        segments: ``(r_i, p_i)`` per sub-adder, low to high.  Segment 0
            must have ``p_0 = 0``; every ``p_i`` must fit below the
            segment base (``p_i <= t_i``).  The operand width ``N`` is
            the sum of the ``r_i``.

    Example:
        >>> cfg = HeteroGeArConfig(((4, 0), (2, 2), (2, 2)))
        >>> cfg.n, cfg.k
        (8, 3)
        >>> cfg == HeteroGeArConfig.from_gear_params(8, 2, 2)
        True
    """

    segments: Tuple[Tuple[int, int], ...]

    def __post_init__(self) -> None:
        segs = tuple((int(r), int(p)) for r, p in self.segments)
        object.__setattr__(self, "segments", segs)
        if not segs:
            raise ValueError("need at least one segment")
        base = 0
        for i, (r, p) in enumerate(segs):
            if r < 1:
                raise ValueError(f"segment {i}: r must be >= 1, got {r}")
            if p < 0:
                raise ValueError(f"segment {i}: p must be >= 0, got {p}")
            if i == 0 and p != 0:
                raise ValueError(
                    f"segment 0 has no lower bits to predict from; "
                    f"p_0 must be 0, got {p}"
                )
            if p > base:
                raise ValueError(
                    f"segment {i}: p={p} reaches below bit 0 "
                    f"(segment base is bit {base})"
                )
            base += r

    # ------------------------------------------------------------------
    # derived geometry
    # ------------------------------------------------------------------
    @property
    def n(self) -> int:
        """Operand width ``N = sum(r_i)``."""
        return sum(r for r, _ in self.segments)

    @property
    def k(self) -> int:
        """Number of sub-adders."""
        return len(self.segments)

    @property
    def is_exact(self) -> bool:
        """True when the configuration degenerates to a single full adder."""
        return self.k == 1

    def segment_starts(self) -> Tuple[int, ...]:
        """Result-bit base ``t_i`` of each segment."""
        starts, base = [], 0
        for r, _ in self.segments:
            starts.append(base)
            base += r
        return tuple(starts)

    def sub_adder_windows(self) -> List[Tuple[int, int]]:
        """``(start_bit, width)`` of each sub-adder's operand window."""
        return [
            (t - p, p + r)
            for (r, p), t in zip(self.segments, self.segment_starts())
        ]

    @property
    def never_overestimates(self) -> bool:
        """True when every error is non-positive (approx <= exact).

        A missed carry at segment ``i`` subtracts ``2**t_i`` unless the
        propagate run extends through the whole segment, in which case
        the result wraps to all-ones and temporarily *overshoots*; the
        overshoot is always cancelled by the next segment's own missed
        carry provided that segment can still see the run, i.e.
        ``p_{i+1} <= p_i + r_i``.  Homogeneous GeAr configurations
        satisfy this for every pair (``P <= P + R``); heterogeneous
        ones that concentrate prediction high may not, and can then
        genuinely overestimate the sum.
        """
        segs = self.segments
        return all(
            segs[i + 1][1] <= segs[i][1] + segs[i][0]
            for i in range(len(segs) - 1)
        )

    @property
    def name(self) -> str:
        """Canonical display name, e.g. ``HeteroGeAr(N=8,4:0,2:2,2:2)``."""
        body = ",".join(f"{r}:{p}" for r, p in self.segments)
        return f"HeteroGeAr(N={self.n},{body})"

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_gear(cls, config) -> "HeteroGeArConfig":
        """Embed a homogeneous :class:`~repro.adders.GeArConfig`.

        The resulting heterogeneous adder is bit-identical to the GeAr
        adder: segment 0 is the first full sub-adder (width ``L = R+P``,
        no prediction), and each later segment keeps ``R`` bits with
        ``P`` prediction bits.
        """
        return cls.from_gear_params(config.n, config.r, config.p)

    @classmethod
    def from_gear_params(cls, n: int, r: int, p: int) -> "HeteroGeArConfig":
        """Embed ``GeAr(n, r, p)`` given as raw parameters."""
        from .gear import GeArConfig

        cfg = GeArConfig(n, r, p)  # validates divisibility
        return cls(((cfg.l, 0),) + ((r, p),) * (cfg.k - 1))

    @classmethod
    def from_string(cls, text: str) -> "HeteroGeArConfig":
        """Parse a ``"r:p,r:p,..."`` spec (low segment first).

        Example:
            >>> HeteroGeArConfig.from_string("4:0,2:2,2:2").n
            8
        """
        segments = []
        for part in text.split(","):
            r, sep, p = part.partition(":")
            try:
                segments.append((int(r), int(p) if sep else 0))
            except ValueError:
                raise ValueError(
                    f"bad segment {part!r}; expected 'r:p' with integers"
                ) from None
        return cls(tuple(segments))

    @classmethod
    def all_valid(
        cls,
        n: int,
        max_segments: int = 3,
        max_p: int | None = None,
        min_p: int = 0,
    ) -> List["HeteroGeArConfig"]:
        """Enumerate approximate configurations for width ``n``.

        Every composition of ``n`` into ``2..max_segments`` positive
        result widths is combined with every per-segment prediction
        ``p_i`` in ``[min_p, min(t_i, max_p)]`` (``p_0`` is always 0).
        Only genuinely approximate configurations (``k >= 2``) are
        returned; the caps keep the space tractable -- it grows fast.
        """
        if max_p is None:
            max_p = n
        configs: List[HeteroGeArConfig] = []
        for k in range(2, max_segments + 1):
            for widths in _compositions(n, k):
                starts = [sum(widths[:i]) for i in range(k)]
                choices = [
                    range(min_p, min(t, max_p) + 1) for t in starts[1:]
                ]
                for ps in product(*choices):
                    configs.append(
                        cls(
                            ((widths[0], 0),)
                            + tuple(zip(widths[1:], ps))
                        )
                    )
        return configs


class HeteroGeArAdder:
    """Behavioural model of a heterogeneous GeAr adder (vectorized).

    Example:
        >>> adder = HeteroGeArAdder(HeteroGeArConfig(((4, 0), (2, 2), (2, 2))))
        >>> int(adder.add(0x0F, 0x01))    # the bit-4 carry is missed
        0
        >>> int(adder.add(0x05, 0x02))    # carry-free addition is exact
        7
    """

    def __init__(self, config: HeteroGeArConfig) -> None:
        self.config = config

    @property
    def name(self) -> str:
        """Display name of the underlying configuration."""
        return self.config.name

    @property
    def width(self) -> int:
        """Operand width in bits."""
        return self.config.n

    def _operands(self, a, b) -> Tuple[np.ndarray, np.ndarray]:
        """Validated operands, masked to the architectural N bits."""
        mask = (1 << self.config.n) - 1
        return _as_int_array(a) & mask, _as_int_array(b) & mask

    def add(self, a, b) -> np.ndarray:
        """Approximate ``a + b``; result has ``N + 1`` bits.

        Each sub-adder sums its operand window with carry-in 0; only its
        top ``r_i`` bits land in the result, and the final carry (bit N)
        is the last window's overflow.  Operands must be non-negative
        and are masked to ``N`` bits.
        """
        a, b = self._operands(a, b)
        cfg = self.config
        result = np.zeros(np.broadcast_shapes(a.shape, b.shape), np.int64)
        last_sum, last_width = None, 0
        for (r, p), (start, width) in zip(
            cfg.segments, cfg.sub_adder_windows()
        ):
            mask_w = (1 << width) - 1
            window_sum = ((a >> start) & mask_w) + ((b >> start) & mask_w)
            mask_r = (1 << r) - 1
            result = result | (((window_sum >> p) & mask_r) << (start + p))
            last_sum, last_width = window_sum, width
        result = result | (((last_sum >> last_width) & 1) << cfg.n)
        return result

    # ------------------------------------------------------------------
    # physical models
    # ------------------------------------------------------------------
    @property
    def lut_count(self) -> int:
        """FPGA resource model: one 6-LUT + carry per sub-adder bit.

        The same Virtex-6 proxy as :class:`~repro.adders.GeArAdder`:
        total LUTs equal the summed window widths ``sum(p_i + r_i)``.
        """
        return sum(p + r for r, p in self.config.segments)

    @property
    def area_ge(self) -> float:
        """ASIC area model: one accurate full adder per sub-adder bit."""
        from .fulladder import FULL_ADDERS

        return FULL_ADDERS["AccuFA"].area_ge * self.lut_count

    @property
    def delay_ps(self) -> float:
        """Critical path: the widest window's ripple (blocks run in
        parallel)."""
        from .fulladder import FULL_ADDERS

        widest = max(p + r for r, p in self.config.segments)
        return FULL_ADDERS["AccuFA"].delay_ps * widest

    def __repr__(self) -> str:
        return f"HeteroGeArAdder({self.config.name})"
