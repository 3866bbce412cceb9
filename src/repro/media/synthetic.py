"""Deterministic synthetic images and video sequences.

The paper evaluates on real images ("a random set of input images",
Fig. 10) and video sequences (HEVC case study, Fig. 8/9).  Neither is
redistributable, so this module generates synthetic content spanning the
*content classes* the experiments depend on -- smoothness, texture
frequency, edge density, noise -- which is what drives both motion-
estimation behaviour and the data-dependent resilience spread of
Fig. 10.  All generators are deterministic given a seed.
"""

from __future__ import annotations

from typing import Callable, Dict, List

import numpy as np

__all__ = [
    "gradient_image",
    "checkerboard_image",
    "sinusoid_image",
    "blobs_image",
    "edges_image",
    "value_noise_image",
    "flat_noisy_image",
    "standard_image",
    "standard_images",
    "moving_sequence",
]


def _as_uint8(values: np.ndarray) -> np.ndarray:
    return np.clip(np.rint(values), 0, 255).astype(np.uint8)


def gradient_image(size: int = 64) -> np.ndarray:
    """Smooth diagonal gradient (maximally resilient content)."""
    y, x = np.mgrid[0:size, 0:size]
    return _as_uint8(255.0 * (x + y) / (2 * (size - 1)))


def checkerboard_image(size: int = 64, period: int = 8) -> np.ndarray:
    """High-contrast checkerboard (hard content for low-pass filters)."""
    y, x = np.mgrid[0:size, 0:size]
    return _as_uint8(255.0 * (((x // period) + (y // period)) % 2))


def sinusoid_image(size: int = 64, cycles: float = 6.0) -> np.ndarray:
    """Mid-frequency 2-D sinusoidal texture."""
    y, x = np.mgrid[0:size, 0:size]
    wave = np.sin(2 * np.pi * cycles * x / size) * np.cos(
        2 * np.pi * cycles * y / size
    )
    return _as_uint8(127.5 + 110.0 * wave)


def blobs_image(size: int = 64, n_blobs: int = 6, seed: int = 7) -> np.ndarray:
    """Soft Gaussian blobs on a mid-gray background (natural-ish)."""
    rng = np.random.default_rng(seed)
    y, x = np.mgrid[0:size, 0:size]
    img = np.full((size, size), 96.0)
    for _ in range(n_blobs):
        cx, cy = rng.uniform(0, size, 2)
        sigma = rng.uniform(size / 16, size / 5)
        amp = rng.uniform(-80, 140)
        img += amp * np.exp(-((x - cx) ** 2 + (y - cy) ** 2) / (2 * sigma**2))
    return _as_uint8(img)


def edges_image(size: int = 64, n_bars: int = 5, seed: int = 3) -> np.ndarray:
    """Sharp vertical/horizontal bars (edge-dominated content)."""
    rng = np.random.default_rng(seed)
    img = np.full((size, size), 40.0)
    for _ in range(n_bars):
        pos = int(rng.integers(0, size - size // 8))
        width = int(rng.integers(2, max(3, size // 8)))
        level = float(rng.uniform(120, 255))
        if rng.random() < 0.5:
            img[:, pos : pos + width] = level
        else:
            img[pos : pos + width, :] = level
    return _as_uint8(img)


def value_noise_image(size: int = 64, grid: int = 8, seed: int = 11) -> np.ndarray:
    """Smoothed value noise (cloud-like natural texture)."""
    rng = np.random.default_rng(seed)
    coarse = rng.uniform(0, 255, size=(grid + 1, grid + 1))
    ys = np.linspace(0, grid, size)
    xs = np.linspace(0, grid, size)
    y0 = np.floor(ys).astype(int).clip(0, grid - 1)
    x0 = np.floor(xs).astype(int).clip(0, grid - 1)
    fy = (ys - y0)[:, None]
    fx = (xs - x0)[None, :]
    sy = fy * fy * (3 - 2 * fy)
    sx = fx * fx * (3 - 2 * fx)
    c00 = coarse[np.ix_(y0, x0)]
    c01 = coarse[np.ix_(y0, x0 + 1)]
    c10 = coarse[np.ix_(y0 + 1, x0)]
    c11 = coarse[np.ix_(y0 + 1, x0 + 1)]
    top = c00 * (1 - sx) + c01 * sx
    bottom = c10 * (1 - sx) + c11 * sx
    return _as_uint8(top * (1 - sy) + bottom * sy)


def flat_noisy_image(size: int = 64, sigma: float = 18.0, seed: int = 5) -> np.ndarray:
    """Flat field with additive Gaussian sensor noise."""
    rng = np.random.default_rng(seed)
    return _as_uint8(128.0 + rng.normal(0, sigma, size=(size, size)))


#: Generator of each standard image, given ``(size, seed)``; the seeded
#: classes offset the set's seed so each image draws its own stream.
_STANDARD_IMAGES: Dict[str, Callable[[int, int], np.ndarray]] = {
    "gradient": lambda size, seed: gradient_image(size),
    "checkerboard": lambda size, seed: checkerboard_image(size),
    "sinusoid": lambda size, seed: sinusoid_image(size),
    "blobs": lambda size, seed: blobs_image(size, seed=seed + 7),
    "edges": lambda size, seed: edges_image(size, seed=seed + 3),
    "value_noise": lambda size, seed: value_noise_image(size, seed=seed + 11),
    "flat_noisy": lambda size, seed: flat_noisy_image(size, seed=seed + 5),
}


def standard_image(name: str, size: int = 64, seed: int = 0) -> np.ndarray:
    """One image of the :func:`standard_images` set, built alone.

    Equal to ``standard_images(size, seed)[name]`` without synthesizing
    the other six.

    Raises:
        KeyError: ``name`` is not one of the seven standard images.
    """
    try:
        generate = _STANDARD_IMAGES[name]
    except KeyError:
        known = ", ".join(sorted(_STANDARD_IMAGES))
        raise KeyError(
            f"unknown standard image {name!r}; known: {known}"
        ) from None
    return generate(size, seed)


def standard_images(size: int = 64, seed: int = 0) -> Dict[str, np.ndarray]:
    """The 7-image evaluation set used for the Fig. 10 reproduction.

    Seven content classes with deliberately different spectral makeup,
    mirroring the spread of "a random set of input images".
    """
    return {name: standard_image(name, size, seed) for name in _STANDARD_IMAGES}


def moving_sequence(
    n_frames: int = 4,
    size: int = 64,
    seed: int = 0,
    motion: tuple[int, int] = (2, 1),
    noise_sigma: float = 2.0,
) -> List[np.ndarray]:
    """Synthetic video: textured background panning plus a moving object.

    The background is value noise translated by ``motion`` per frame and
    a bright blob moves independently -- exactly the structure block
    motion estimation is built to exploit, so approximate-SAD effects on
    motion vectors and residual bits are observable.

    Args:
        n_frames: Number of frames.
        size: Frame edge length in pixels.
        seed: Seed for textures and noise.
        motion: Global (dx, dy) background pan per frame.
        noise_sigma: Per-frame sensor-noise sigma.

    Returns:
        List of uint8 frames.
    """
    rng = np.random.default_rng(seed)
    big = value_noise_image(size * 2, grid=10, seed=seed + 1).astype(np.float64)
    frames: List[np.ndarray] = []
    y, x = np.mgrid[0:size, 0:size]
    for t in range(n_frames):
        ox = (t * motion[0]) % size
        oy = (t * motion[1]) % size
        frame = big[oy : oy + size, ox : ox + size].copy()
        # Independent moving object.
        cx = (size // 4 + 3 * t) % size
        cy = (size // 3 + 2 * t) % size
        frame += 120.0 * np.exp(
            -((x - cx) ** 2 + (y - cy) ** 2) / (2 * (size / 12) ** 2)
        )
        frame += rng.normal(0, noise_sigma, size=frame.shape)
        frames.append(_as_uint8(frame))
    return frames
