"""Tests for the low-pass filter accelerator."""

import numpy as np
import pytest

from repro.accelerators.filters import (
    LowPassFilterAccelerator,
    gaussian3x3_exact,
)
from repro.media.synthetic import standard_images


class TestExactReference:
    def test_flat_image_unchanged(self):
        img = np.full((8, 8), 77)
        assert np.array_equal(gaussian3x3_exact(img), img)

    def test_smooths_impulse(self):
        img = np.zeros((9, 9), dtype=np.int64)
        img[4, 4] = 160
        out = gaussian3x3_exact(img)
        assert out[4, 4] == 160 * 4 // 16
        assert out[4, 3] == 160 * 2 // 16
        assert out[3, 3] == 160 * 1 // 16

    def test_preserves_mean_roughly(self, rng):
        img = rng.integers(0, 256, (32, 32))
        out = gaussian3x3_exact(img)
        assert abs(float(out.mean()) - float(img.mean())) < 4.0


class TestAccelerator:
    def test_exact_configuration_matches_reference(self, rng):
        acc = LowPassFilterAccelerator()
        img = rng.integers(0, 256, (24, 24))
        expected = np.clip(gaussian3x3_exact(img), 0, 255)
        assert np.array_equal(acc.apply(img), expected)

    def test_output_in_pixel_range(self, rng):
        acc = LowPassFilterAccelerator(fa="ApxFA5", approx_lsbs=6)
        img = rng.integers(0, 256, (16, 16))
        out = acc.apply(img)
        assert out.min() >= 0 and out.max() <= 255

    def test_approximate_filter_differs(self, rng):
        img = rng.integers(0, 256, (16, 16))
        exact = LowPassFilterAccelerator().apply(img)
        approx = LowPassFilterAccelerator(fa="ApxFA5", approx_lsbs=6).apply(img)
        assert not np.array_equal(exact, approx)

    def test_error_grows_with_lsbs(self, rng):
        img = rng.integers(0, 256, (32, 32))
        reference = LowPassFilterAccelerator().apply(img)
        errs = []
        for k in (2, 4, 6):
            out = LowPassFilterAccelerator(fa="ApxFA2", approx_lsbs=k).apply(img)
            errs.append(float(np.abs(out.astype(int) - reference).mean()))
        assert errs[0] <= errs[1] <= errs[2]
        assert errs[2] > 0

    def test_requires_2d(self):
        acc = LowPassFilterAccelerator()
        with pytest.raises(ValueError, match="2-D"):
            acc.apply(np.zeros(10))

    def test_area_reduced_by_approximation(self):
        exact = LowPassFilterAccelerator()
        approx = LowPassFilterAccelerator(fa="ApxFA3", approx_lsbs=6)
        assert approx.area_ge < exact.area_ge

    def test_name(self):
        assert "ApxFA1" in LowPassFilterAccelerator(fa="ApxFA1").name

    @pytest.mark.parametrize("mode", ["lut", "partsim"])
    def test_invalid_eval_mode_rejected(self, mode):
        with pytest.raises(ValueError, match="eval_mode"):
            LowPassFilterAccelerator(eval_mode=mode)


class TestDataDependentResilience:
    def test_quality_varies_across_content(self):
        """Fig. 10: the same approximate filter yields different SSIM on
        different image content."""
        from repro.media.ssim import ssim

        acc = LowPassFilterAccelerator(fa="ApxFA1", approx_lsbs=5)
        exact = LowPassFilterAccelerator()
        scores = []
        for img in standard_images(64).values():
            scores.append(ssim(exact.apply(img), acc.apply(img)))
        assert max(scores) - min(scores) > 0.001
        assert all(0.0 < s <= 1.0 for s in scores)
