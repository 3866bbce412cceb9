"""Synthetic media generation and psycho-visual quality metrics."""

from .msssim import ms_ssim
from .ssim import gaussian_window, ssim, ssim_map
from .synthetic import (
    blobs_image,
    checkerboard_image,
    edges_image,
    flat_noisy_image,
    gradient_image,
    moving_sequence,
    sinusoid_image,
    standard_image,
    standard_images,
    value_noise_image,
)

__all__ = [
    "ms_ssim",
    "gaussian_window",
    "ssim",
    "ssim_map",
    "blobs_image",
    "checkerboard_image",
    "edges_image",
    "flat_noisy_image",
    "gradient_image",
    "moving_sequence",
    "sinusoid_image",
    "standard_image",
    "standard_images",
    "value_noise_image",
]
