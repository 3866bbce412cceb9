"""Tests for synthetic media generation."""

import numpy as np
import pytest

from repro.media.synthetic import (
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

GENERATORS = [
    gradient_image,
    checkerboard_image,
    sinusoid_image,
    blobs_image,
    edges_image,
    value_noise_image,
    flat_noisy_image,
]


class TestImages:
    @pytest.mark.parametrize("gen", GENERATORS)
    def test_shape_and_dtype(self, gen):
        img = gen(32)
        assert img.shape == (32, 32)
        assert img.dtype == np.uint8

    @pytest.mark.parametrize("gen", GENERATORS)
    def test_deterministic(self, gen):
        assert np.array_equal(gen(32), gen(32))

    def test_gradient_monotone_along_diagonal(self):
        img = gradient_image(32).astype(int)
        diag = np.diagonal(img)
        assert all(a <= b for a, b in zip(diag, diag[1:]))

    def test_checkerboard_two_levels(self):
        assert set(np.unique(checkerboard_image(32))) == {0, 255}

    def test_flat_noisy_centered(self):
        img = flat_noisy_image(64)
        assert 100 < img.mean() < 156

    def test_standard_set_has_seven_distinct_images(self):
        images = standard_images(32)
        assert len(images) == 7
        flat = [img.tobytes() for img in images.values()]
        assert len(set(flat)) == 7

    def test_content_classes_span_smoothness(self):
        """The set must include both smooth and high-frequency content
        (what drives the Fig. 10 spread)."""
        images = standard_images(64)

        def roughness(img):
            d = np.abs(np.diff(img.astype(int), axis=1))
            return float(d.mean())

        values = {name: roughness(img) for name, img in images.items()}
        assert values["checkerboard"] > 10 * values["gradient"]


class TestStandardImage:
    @pytest.mark.parametrize("seed", [0, 1, 7, 2**31 - 100])
    @pytest.mark.parametrize("size", [32, 64])
    def test_matches_the_standard_set(self, size, seed):
        images = standard_images(size, seed)
        assert len(images) == 7
        for name, image in images.items():
            single = standard_image(name, size, seed)
            assert single.dtype == image.dtype
            assert np.array_equal(single, image), name

    def test_unknown_name_lists_known_images(self):
        with pytest.raises(KeyError, match="unknown standard image") as info:
            standard_image("lena")
        for name in standard_images(32):
            assert name in str(info.value)

    @pytest.mark.parametrize("size", [11, 16, 23])
    def test_edges_image_at_small_sizes(self, size):
        image = edges_image(size)
        assert image.shape == (size, size)
        assert image.dtype == np.uint8
        assert len(standard_images(size)) == 7


class TestMovingSequence:
    def test_frame_count_and_shape(self):
        frames = moving_sequence(n_frames=3, size=32)
        assert len(frames) == 3
        assert all(f.shape == (32, 32) for f in frames)

    def test_deterministic(self):
        f1 = moving_sequence(n_frames=2, size=32, seed=9)
        f2 = moving_sequence(n_frames=2, size=32, seed=9)
        assert all(np.array_equal(a, b) for a, b in zip(f1, f2))

    def test_consecutive_frames_differ_but_correlate(self):
        frames = moving_sequence(n_frames=2, size=64, noise_sigma=0.0)
        a, b = frames[0].astype(float), frames[1].astype(float)
        assert not np.array_equal(a, b)
        corr = np.corrcoef(a.ravel(), b.ravel())[0, 1]
        assert corr > 0.5

    def test_background_motion_recoverable(self):
        """The commanded global pan must be the best block match."""
        from repro.accelerators.sad import SADAccelerator
        from repro.video.motion import full_search

        frames = moving_sequence(
            n_frames=2, size=64, motion=(2, 1), noise_sigma=0.0
        )
        acc = SADAccelerator(n_pixels=64)
        # Pick a background block away from the moving blob.
        mv = full_search(frames[1], frames[0], (48, 48), 8, 4, acc)
        assert (mv.dx, mv.dy) == (2, 1)
