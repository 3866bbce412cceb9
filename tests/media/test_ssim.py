"""Tests for the SSIM implementation."""

import numpy as np
import pytest

from repro.media.ssim import _filter2_valid, gaussian_window, ssim, ssim_map
from repro.media.synthetic import standard_images


class TestGaussianWindow:
    def test_normalized(self):
        assert gaussian_window().sum() == pytest.approx(1.0)

    def test_symmetric(self):
        w = gaussian_window(11, 1.5)
        assert np.allclose(w, w.T)
        assert np.allclose(w, w[::-1, ::-1])

    def test_peak_at_center(self):
        w = gaussian_window(11, 1.5)
        assert w[5, 5] == w.max()

    def test_even_size_rejected(self):
        with pytest.raises(ValueError, match="odd"):
            gaussian_window(10)


class TestStackedFilter:
    """One pass over a stack of planes equals filtering each plane alone,
    bit for bit -- ``ssim_map`` relies on it for its local statistics."""

    @pytest.mark.parametrize("size,sigma", [(11, 1.5), (7, 1.0), (1, 1.5)])
    def test_stack_matches_per_plane(self, rng, size, sigma):
        window = gaussian_window(size, sigma)
        x = rng.integers(0, 256, (29, 37)).astype(float)
        y = np.clip(x + rng.normal(0, 9, x.shape), 0, 255)
        planes = [x, y, x * x, y * y, x * y]
        stacked = _filter2_valid(np.stack(planes), window)
        assert stacked.shape == (5, 30 - size, 38 - size)
        for i, plane in enumerate(planes):
            assert np.array_equal(stacked[i], _filter2_valid(plane, window))

    def test_stack_smaller_than_window_rejected(self):
        with pytest.raises(ValueError, match="smaller"):
            _filter2_valid(np.zeros((5, 8, 8)), gaussian_window())


class TestSsim:
    def test_identical_images_score_one(self, rng):
        img = rng.integers(0, 256, (32, 32)).astype(float)
        assert ssim(img, img) == pytest.approx(1.0)

    def test_severe_distortion_scores_low(self, rng):
        img = rng.integers(0, 256, (32, 32)).astype(float)
        inverted = 255.0 - img
        assert ssim(img, inverted) < 0.2

    def test_monotone_in_noise_level(self, rng):
        img = standard_images(64)["blobs"].astype(float)
        scores = []
        for sigma in (2, 8, 32):
            noisy = img + rng.normal(0, sigma, img.shape)
            scores.append(ssim(img, np.clip(noisy, 0, 255)))
        assert scores[0] > scores[1] > scores[2]

    def test_luminance_shift_penalized_gently(self):
        img = np.tile(np.arange(64, dtype=float), (64, 1)) * 2
        shifted = img + 5
        assert 0.9 < ssim(img, shifted) < 1.0

    def test_symmetry(self, rng):
        a = rng.integers(0, 256, (32, 32)).astype(float)
        b = np.clip(a + rng.normal(0, 10, a.shape), 0, 255)
        assert ssim(a, b) == pytest.approx(ssim(b, a), abs=1e-9)

    def test_bounded_above_by_one(self, rng):
        a = rng.integers(0, 256, (32, 32)).astype(float)
        b = np.clip(a + rng.normal(0, 3, a.shape), 0, 255)
        assert ssim(a, b) <= 1.0

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="mismatch"):
            ssim(np.zeros((16, 16)), np.zeros((16, 8)))

    def test_requires_2d(self):
        with pytest.raises(ValueError, match="2-D"):
            ssim(np.zeros(100), np.zeros(100))

    def test_window_larger_than_image_rejected(self):
        with pytest.raises(ValueError, match="smaller"):
            ssim(np.zeros((4, 4)), np.zeros((4, 4)))


class TestSsimMap:
    def test_valid_output_shape(self):
        img = np.zeros((32, 32))
        out = ssim_map(img, img)
        assert out.shape == (22, 22)  # 32 - 11 + 1

    def test_local_distortion_localized(self, rng):
        img = rng.integers(0, 256, (48, 48)).astype(float)
        distorted = img.copy()
        distorted[:16, :16] = rng.integers(0, 256, (16, 16))
        smap = ssim_map(img, distorted)
        corrupted_zone = smap[:6, :6].mean()
        clean_zone = smap[-6:, -6:].mean()
        assert clean_zone > corrupted_zone


class TestVarianceClamp:
    """Regression: flat regions must not produce negative variances.

    ``E[x^2] - E[x]^2`` can cancel to a tiny negative number on constant
    patches, which skewed the Fig. 10 resilience curves; the reference
    implementation clamps at 0.
    """

    def test_constant_image_ssim_is_one(self):
        # The clamp keeps the tiny E[x^2] - mu^2 cancellation error from
        # turning into a negative variance; the unclamped covariance may
        # still carry +/- 1 ulp, hence approx rather than exact equality.
        for value in (63.0, 77.0, 137.0, 200.0):
            img = np.full((32, 32), value)
            assert ssim(img, img) == pytest.approx(1.0, abs=1e-12)
            assert ssim(img, img) <= 1.0

    def test_constant_image_map_near_one_everywhere(self):
        img = np.full((24, 24), 200.0)
        smap = ssim_map(img, img)
        assert np.all(smap <= 1.0)
        assert np.all(smap == pytest.approx(1.0, abs=1e-12))

    def test_flat_plus_speck_never_exceeds_one(self):
        img = np.full((32, 32), 63.0)
        distorted = img.copy()
        distorted[16, 16] += 1.0
        smap = ssim_map(img, distorted)
        assert np.all(smap <= 1.0)
        assert ssim(img, img) >= ssim(img, distorted)

    def test_identical_images_ssim_one_any_content(self, rng):
        img = rng.integers(0, 256, (40, 40)).astype(float)
        assert ssim(img, img) == pytest.approx(1.0, abs=1e-12)
