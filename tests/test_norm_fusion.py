import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from latentskip.core import EPS, SeededRng, stats
from latentskip.norm_fusion import FUSION_MODES, fuse_kernel, image_moments, normalize_fuse, normalize_portrait


def reference_fuse(z_img, z_p, mode):
    """normalize_fuse written as one expression per mode, moments from NumPy."""
    if mode == "baseline-add":
        return z_p + z_img
    mp, sp, mi, si = z_p.mean(), z_p.std(), z_img.mean(), z_img.std()
    if mode == "ours":
        return (z_p - mp) / max(sp, EPS) * si + mi + z_img
    if mode == "pure-norm":
        return (z_p - mp) / max(sp, EPS) + z_img
    return (z_p - mp) / max(sp, EPS) + (z_img - mi) / max(si, EPS)


@st.composite
def stream_pairs(draw):
    """Two same-shape float64 streams; either may be constant, so the EPS guard fires."""
    shape = draw(hnp.array_shapes(min_dims=1, max_dims=3, min_side=1, max_side=7))
    streams = []
    for _ in range(2):
        if draw(st.booleans()):
            streams.append(np.full(shape, draw(st.floats(-1e3, 1e3))))
        else:
            scale = 10.0 ** draw(st.integers(-6, 6))
            streams.append(SeededRng(draw(st.integers(0, 2**32))).normal(shape) * scale + draw(st.floats(-50, 50)))
    return streams


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

    def test_halves_reject_unknown_mode(self):
        # The wording of flow_model.MODEL_RULES, which holds the same rule.
        message = re.escape(f"fusion_mode: must be one of {FUSION_MODES}, got 'nope'")
        with pytest.raises(ValueError, match=message):
            normalize_portrait(np.ones(3), "nope")
        with pytest.raises(ValueError, match=message):
            image_moments(np.ones(3), "nope")
        with pytest.raises(ValueError, match=message):
            normalize_fuse(np.ones(3), np.ones(3), "nope")
        with pytest.raises(ValueError, match="shape mismatch"):
            normalize_fuse(np.zeros(3), np.zeros(4), "ours")

    def test_image_half_uses_the_image_stream_alone(self):
        z_img = SeededRng(1).normal(64) * 2 + 5
        assert image_moments(z_img, "ours") == image_moments(z_img, "centralization") == stats(z_img)
        assert image_moments(z_img, "pure-norm") is None and image_moments(z_img, "baseline-add") is None

    def test_portrait_half_uses_the_portrait_stream_alone(self):
        z_p = SeededRng(2).normal(64) * 3 - 1
        assert normalize_portrait(z_p, "baseline-add") is z_p
        for mode in ("ours", "pure-norm", "centralization"):
            p = stats(normalize_portrait(z_p, mode))
            assert abs(p.mean) < 1e-12 and abs(p.std - 1.0) < 1e-12


@settings(max_examples=150, deadline=None)
@given(streams=stream_pairs(), mode=st.sampled_from(FUSION_MODES))
def test_fuse_bitwise_equals_reference(streams, mode):
    z_img, z_p = streams
    before = [z_img.copy(), z_p.copy()]
    reference = reference_fuse(z_img, z_p, mode)
    assert np.array_equal(normalize_fuse(z_img, z_p, mode), reference)
    # The model takes both streams' moments once, and its step loop runs the kernel alone
    # on streams its Conditioning checked once.
    si, p = image_moments(z_img, mode), normalize_portrait(z_p, mode)
    p_before = p.copy()
    assert np.array_equal(fuse_kernel(z_img, si, p, mode), reference)
    assert np.array_equal(p, p_before)  # reused at the next step, so never written to
    assert np.array_equal(z_img, before[0]) and np.array_equal(z_p, before[1])  # inputs not written to
