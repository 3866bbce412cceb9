"""Multi-scale SSIM (Wang, Simoncelli & Bovik, 2003).

Fig. 10's psycho-visual argument benefits from a scale-aware metric:
errors confined to the LSBs of a filter datapath are high-frequency and
penalized differently at different viewing scales.  MS-SSIM evaluates
contrast/structure at several dyadic scales (average-pool downsampling)
and luminance only at the coarsest, combining them with the standard
exponents.
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np

from .ssim import _filter2_valid, gaussian_window

__all__ = ["ms_ssim"]

#: Standard per-scale weights from the original MS-SSIM paper.
DEFAULT_WEIGHTS: Tuple[float, ...] = (0.0448, 0.2856, 0.3001, 0.2363, 0.1333)


def _luminance_cs(
    x: np.ndarray, y: np.ndarray, dynamic_range: float,
    window_size: int, sigma: float,
) -> Tuple[float, float]:
    """Mean luminance and contrast-structure terms of one scale."""
    window = gaussian_window(window_size, sigma)
    c1 = (0.01 * dynamic_range) ** 2
    c2 = (0.03 * dynamic_range) ** 2
    mu_x, mu_y, e_xx, e_yy, e_xy = _filter2_valid(
        np.stack([x, y, x * x, y * y, x * y]), window
    )
    sigma_xx = e_xx - mu_x * mu_x
    sigma_yy = e_yy - mu_y * mu_y
    sigma_xy = e_xy - mu_x * mu_y
    luminance = (2 * mu_x * mu_y + c1) / (mu_x**2 + mu_y**2 + c1)
    cs = (2 * sigma_xy + c2) / (sigma_xx + sigma_yy + c2)
    return float(np.mean(luminance)), float(np.mean(cs))


def _downsample(image: np.ndarray) -> np.ndarray:
    """2x average pooling (truncating odd edges)."""
    h, w = image.shape
    h2, w2 = h - h % 2, w - w % 2
    view = image[:h2, :w2]
    return (
        view[0::2, 0::2] + view[1::2, 0::2]
        + view[0::2, 1::2] + view[1::2, 1::2]
    ) / 4.0


def ms_ssim(
    reference: np.ndarray,
    distorted: np.ndarray,
    dynamic_range: float = 255.0,
    weights: Sequence[float] | None = None,
    window_size: int = 11,
    sigma: float = 1.5,
) -> float:
    """Multi-scale SSIM between two images.

    The number of scales adapts to the image: scales stop before the
    downsampled image would be smaller than the analysis window, and the
    weight vector is truncated and renormalized accordingly.

    Args:
        reference: Reference image (2-D).
        distorted: Distorted image (same shape).
        dynamic_range: Pixel dynamic range ``L``.
        weights: Per-scale exponents (defaults to the published five).
        window_size: Gaussian window size per scale.
        sigma: Gaussian sigma per scale.

    Returns:
        MS-SSIM score (1.0 = identical).
    """
    x = np.asarray(reference, dtype=np.float64)
    y = np.asarray(distorted, dtype=np.float64)
    if x.shape != y.shape:
        raise ValueError(f"shape mismatch: {x.shape} vs {y.shape}")
    if x.ndim != 2:
        raise ValueError(f"expected 2-D images, got shape {x.shape}")
    if min(x.shape) < window_size:
        raise ValueError(
            f"image {x.shape} smaller than the {window_size}x{window_size} window"
        )
    full_weights = tuple(weights) if weights is not None else DEFAULT_WEIGHTS
    if not full_weights:
        raise ValueError("need at least one scale weight")

    # Determine usable scale count.
    n_scales = 0
    h, w = x.shape
    while n_scales < len(full_weights) and min(h, w) >= window_size:
        n_scales += 1
        h, w = h // 2, w // 2
    used = np.asarray(full_weights[:n_scales], dtype=float)
    used = used / used.sum()

    score = 1.0
    for scale in range(n_scales):
        luminance, cs = _luminance_cs(x, y, dynamic_range, window_size, sigma)
        if scale == n_scales - 1:
            score *= max(luminance * cs, 1e-12) ** used[scale]
        else:
            score *= max(cs, 1e-12) ** used[scale]
            x, y = _downsample(x), _downsample(y)
    return float(score)
