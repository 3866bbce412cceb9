"""SSIM: the Structural Similarity Index Measure (Wang et al., 2004).

The paper uses SSIM [36] as the psycho-visual quality metric of its
data-dependent-resilience study (Fig. 10).  This is a from-scratch
implementation of the standard formulation: local means, variances and
covariance over a Gaussian-weighted 11x11 window (sigma = 1.5), combined
as

    SSIM(x, y) = ((2 mu_x mu_y + C1)(2 sigma_xy + C2))
                 / ((mu_x^2 + mu_y^2 + C1)(sigma_x^2 + sigma_y^2 + C2))

with the usual constants ``C1 = (0.01 L)^2`` and ``C2 = (0.03 L)^2`` for
dynamic range ``L``.
"""

from __future__ import annotations

import numpy as np

__all__ = ["ssim", "ssim_map", "gaussian_window"]


def gaussian_window(size: int = 11, sigma: float = 1.5) -> np.ndarray:
    """Normalized 2-D Gaussian window used by the SSIM reference code."""
    if size < 1 or size % 2 == 0:
        raise ValueError(f"window size must be odd and >= 1, got {size}")
    half = size // 2
    coords = np.arange(-half, half + 1, dtype=np.float64)
    one_d = np.exp(-(coords**2) / (2.0 * sigma * sigma))
    window = np.outer(one_d, one_d)
    return window / window.sum()


def _filter2_valid(image: np.ndarray, window: np.ndarray) -> np.ndarray:
    """2-D correlation with 'valid' boundary handling (no padding bias).

    Filters over the last two axes, so a stack of planes (any leading
    axes) is filtered in one pass; every output element still sees the
    same tap-by-tap multiply/add sequence, so each plane of the result
    is bit-identical to filtering that plane alone.
    """
    wh, ww = window.shape
    ih, iw = image.shape[-2:]
    if ih < wh or iw < ww:
        raise ValueError(
            f"image {image.shape} smaller than window {window.shape}"
        )
    oh, ow = ih - wh + 1, iw - ww + 1
    out = np.zeros(image.shape[:-2] + (oh, ow), dtype=np.float64)
    for dy in range(wh):
        for dx in range(ww):
            out += window[dy, dx] * image[..., dy : dy + oh, dx : dx + ow]
    return out


def ssim_map(
    reference: np.ndarray,
    distorted: np.ndarray,
    dynamic_range: float = 255.0,
    window_size: int = 11,
    sigma: float = 1.5,
) -> np.ndarray:
    """Local SSIM map over valid window positions.

    Args:
        reference: Reference image (2-D).
        distorted: Distorted image (same shape).
        dynamic_range: Pixel dynamic range ``L`` (255 for uint8).
        window_size: Gaussian window edge length (odd).
        sigma: Gaussian window sigma.

    Returns:
        2-D array of local SSIM values.
    """
    x = np.asarray(reference, dtype=np.float64)
    y = np.asarray(distorted, dtype=np.float64)
    if x.shape != y.shape:
        raise ValueError(f"shape mismatch: {x.shape} vs {y.shape}")
    if x.ndim != 2:
        raise ValueError(f"expected 2-D images, got shape {x.shape}")
    window = gaussian_window(window_size, sigma)
    c1 = (0.01 * dynamic_range) ** 2
    c2 = (0.03 * dynamic_range) ** 2

    mu_x, mu_y, e_xx, e_yy, e_xy = _filter2_valid(
        np.stack([x, y, x * x, y * y, x * y]), window
    )
    mu_xx = mu_x * mu_x
    mu_yy = mu_y * mu_y
    mu_xy = mu_x * mu_y
    # E[x^2] - E[x]^2 can come out a hair negative on flat regions from
    # floating-point cancellation; true variances are non-negative, so
    # clamp at 0 exactly as the reference SSIM implementation does.
    sigma_xx = np.maximum(e_xx - mu_xx, 0.0)
    sigma_yy = np.maximum(e_yy - mu_yy, 0.0)
    sigma_xy = e_xy - mu_xy

    numerator = (2.0 * mu_xy + c1) * (2.0 * sigma_xy + c2)
    denominator = (mu_xx + mu_yy + c1) * (sigma_xx + sigma_yy + c2)
    return numerator / denominator


def ssim(
    reference: np.ndarray,
    distorted: np.ndarray,
    dynamic_range: float = 255.0,
    window_size: int = 11,
    sigma: float = 1.5,
) -> float:
    """Mean SSIM between two images (1.0 = identical).

    Example:
        >>> img = np.tile(np.arange(32, dtype=float), (32, 1))
        >>> round(ssim(img, img), 6)
        1.0
    """
    return float(
        np.mean(ssim_map(reference, distorted, dynamic_range, window_size, sigma))
    )
