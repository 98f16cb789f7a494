import numpy as np
import pytest

from latentskip.core import SeededRng, stats
from latentskip.norm_fusion import normalize_fuse


class TestNormalizeFuse:
    def test_hand_example(self):
        out = normalize_fuse(np.array([10.0, 20.0]), np.array([1.0, 3.0]))
        assert np.array_equal(out, np.array([20.0, 40.0]))

    def test_identity_when_stats_already_match(self):
        z_img = SeededRng(1).normal(64)
        si = stats(z_img)
        z_p = SeededRng(2).normal(64)
        sp = stats(z_p)
        z_p = (z_p - sp.mean) / sp.std * si.std + si.mean
        out = normalize_fuse(z_img, z_p)
        assert np.allclose(out, z_p + z_img, atol=1e-12)

    def test_aligned_stream_matches_image_stats(self):
        z_img = SeededRng(1).normal(128) * 4 - 2
        z_p = SeededRng(2).normal(128) * 0.1 + 9
        aligned = normalize_fuse(z_img, z_p) - z_img
        si, sa = stats(z_img), stats(aligned)
        assert abs(si.mean - sa.mean) < 1e-9
        assert abs(si.std - sa.std) < 1e-9

    def test_affine_invariance(self):
        rng = SeededRng(7)
        for _ in range(100):
            z_img, z_p = rng.normal(32), rng.normal(32)
            a = abs(rng.normal(1)[0]) + 0.1
            b = rng.normal(1)[0] * 5
            base = normalize_fuse(z_img, z_p)
            scaled = normalize_fuse(z_img, a * z_p + b)
            assert np.allclose(base, scaled, atol=1e-9)

    def test_alignment_is_idempotent(self):
        z_img, z_p = SeededRng(1).normal(64), SeededRng(2).normal(64) * 3 + 1
        once = normalize_fuse(z_img, z_p) - z_img
        twice = normalize_fuse(z_img, once) - z_img
        assert np.allclose(once, twice, atol=1e-9)

    def test_constant_portrait_stream_degenerates(self):
        z_img = SeededRng(1).normal(16)
        si = stats(z_img)
        out = normalize_fuse(z_img, np.full(16, 3.0))
        assert np.all(np.isfinite(out))
        assert np.allclose(out - z_img, si.mean)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            normalize_fuse(np.zeros(3), np.zeros(4))

    def test_ablation_modes(self):
        z_img, z_p = SeededRng(1).normal(64) * 2 + 5, SeededRng(2).normal(64) * 3 - 1
        mu_p, sd_p = z_p.mean(), z_p.std()
        mu_i, sd_i = z_img.mean(), z_img.std()
        assert np.allclose(normalize_fuse(z_img, z_p, "baseline-add"), z_p + z_img)
        assert np.allclose(normalize_fuse(z_img, z_p, "pure-norm"),
                           (z_p - mu_p) / sd_p + z_img)
        assert np.allclose(normalize_fuse(z_img, z_p, "centralization"),
                           (z_p - mu_p) / sd_p + (z_img - mu_i) / sd_i)
        with pytest.raises(ValueError):
            normalize_fuse(z_img, z_p, "nope")
