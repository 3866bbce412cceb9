"""Low-pass image-filter accelerator (paper Sec. 6.2, Fig. 10).

The paper's data-dependent-resilience study applies accurate and
approximate variants of a low-pass filter to a set of images and
compares SSIM.  This module implements a 3x3 binomial (Gaussian) filter

    kernel = 1/16 * [[1, 2, 1],
                     [2, 4, 2],
                     [1, 2, 1]]

as a shift-and-add datapath: the power-of-two weights are realized as
left shifts and the 8 partial terms are reduced with a (possibly
approximate) adder tree, followed by the ``>> 4`` normalization.  The
only arithmetic error source is therefore the approximate adder cell --
matching the paper's "same adder and kernel" setup where quality varies
with image content only.  The tree adders run the ``"auto"`` fast path
or the ``"loop"`` reference (``eval_mode``).
"""

from __future__ import annotations

from typing import List

import numpy as np

from ..adders.ripple import ApproximateRippleAdder

__all__ = ["LowPassFilterAccelerator", "gaussian3x3_exact"]

#: 3x3 binomial kernel weights (row-major), summing to 16.
_KERNEL = np.array([[1, 2, 1], [2, 4, 2], [1, 2, 1]], dtype=np.int64)


def gaussian3x3_exact(image: np.ndarray) -> np.ndarray:
    """Exact reference 3x3 binomial filter with edge replication."""
    img = np.asarray(image, dtype=np.int64)
    padded = np.pad(img, 1, mode="edge")
    out = np.zeros_like(img)
    for dy in range(3):
        for dx in range(3):
            out += _KERNEL[dy, dx] * padded[
                dy : dy + img.shape[0], dx : dx + img.shape[1]
            ]
    return out >> 4


class LowPassFilterAccelerator:
    """3x3 binomial low-pass filter with an approximate adder tree.

    Args:
        fa: Table III full-adder cell for the approximated LSBs.
        approx_lsbs: Number of approximated LSBs in each tree adder.
        pixel_bits: Input pixel width (8 for grayscale images).
        eval_mode: Evaluation engine forwarded to every tree adder
            (``"auto"`` or ``"loop"``, see
            :class:`~repro.adders.ripple.ApproximateRippleAdder`); both
            are bit-identical, which ``repro verify`` checks.

    Example:
        >>> acc = LowPassFilterAccelerator(fa="ApxFA1", approx_lsbs=0)
        >>> img = np.full((4, 4), 100)
        >>> bool(np.all(acc.apply(img) == 100))
        True
    """

    def __init__(
        self,
        fa: str = "AccuFA",
        approx_lsbs: int = 0,
        pixel_bits: int = 8,
        eval_mode: str = "auto",
    ) -> None:
        self.fa = fa
        self.approx_lsbs = approx_lsbs
        self.pixel_bits = pixel_bits
        self.eval_mode = eval_mode
        # Weighted terms reach pixel_bits + 2 (x4); the tree then grows
        # one bit per level for 3 levels (9 terms -> 5 -> 3 -> 2 -> 1).
        self._tree: List[ApproximateRippleAdder] = []
        width = pixel_bits + 2
        remaining = 9
        while remaining > 1:
            width += 1
            self._tree.append(
                ApproximateRippleAdder(
                    width,
                    approx_fa=fa,
                    num_approx_lsbs=min(approx_lsbs, width),
                    eval_mode=eval_mode,
                )
            )
            remaining = (remaining + 1) // 2

    @property
    def name(self) -> str:
        return f"LowPass[{self.fa}x{self.approx_lsbs}]"

    def apply(self, image: np.ndarray) -> np.ndarray:
        """Filter a 2-D image; returns pixels clipped to the input range.

        Args:
            image: 2-D array of unsigned pixels (``pixel_bits`` wide).
        """
        img = np.asarray(image, dtype=np.int64)
        if img.ndim != 2:
            raise ValueError(f"expected a 2-D image, got shape {img.shape}")
        padded = np.pad(img, 1, mode="edge")
        terms = []
        for dy in range(3):
            for dx in range(3):
                window = padded[dy : dy + img.shape[0], dx : dx + img.shape[1]]
                shift = int(_KERNEL[dy, dx]).bit_length() - 1
                terms.append(window << shift)
        values = np.stack(terms, axis=-1)
        level = 0
        while values.shape[-1] > 1:
            n = values.shape[-1]
            even = values[..., 0 : n - (n % 2) : 2]
            odd = values[..., 1 : n : 2]
            summed = self._tree[level].add(even, odd)
            if n % 2:
                summed = np.concatenate([summed, values[..., -1:]], axis=-1)
            values = summed
            level += 1
        result = values[..., 0] >> 4
        return np.clip(result, 0, (1 << self.pixel_bits) - 1)

    @property
    def area_ge(self) -> float:
        """Adder-tree area (shifts are wiring)."""
        total = 0.0
        remaining = 9
        for adder in self._tree:
            total += adder.area_ge * (remaining // 2)
            remaining = (remaining + 1) // 2
        return total

    def __repr__(self) -> str:
        return (
            f"LowPassFilterAccelerator(fa={self.fa!r}, "
            f"approx_lsbs={self.approx_lsbs})"
        )
