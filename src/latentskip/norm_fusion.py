"""Statistics-aligned feature fusion of two conditioning streams.

``normalize_fuse`` rescales the portrait stream to the image stream's global
mean/std before the residual add, so the two feature distributions share a
center. It composes two public halves, split where the paper's Normalized
Facial Expression Block splits: ``normalize_portrait`` standardises the
portrait stream by its own moments, and ``image_moments`` takes the image
stream's moments for the modes in ``READS_IMAGE_MOMENTS``. ``fuse_kernel``,
internal and unchecked, aligns the normalized portrait stream to those
moments and adds the image stream. No denoising step changes either stream,
so the model takes both streams' moments once per window, checks them once
(``flow_model.Conditioning``) and runs only the kernel at every layer of
every step. The other modes are the ablation baselines.
"""

from __future__ import annotations

import numpy as np

from .core import EPS, FeatureStats, check_rule, stats

FUSION_MODES = ("baseline-add", "pure-norm", "centralization", "ours")
# The modes whose fusion reads the image stream's moments; the others add the image stream as is.
READS_IMAGE_MOMENTS = ("ours", "centralization")
# The fusion-mode rule, (holds, requirement): check_mode and flow_model.MODEL_RULES both apply it.
MODE_RULE = (lambda mode: mode in FUSION_MODES, f"must be one of {FUSION_MODES}")


def check_mode(mode: str) -> None:
    check_rule(MODE_RULE, mode, "fusion_mode")


def normalize_portrait(z_p: np.ndarray, mode: str = "ours") -> np.ndarray:
    """The portrait half of the fusion: (z_p - mean_p) / max(std_p, EPS), a fresh array.

    Mode "baseline-add" uses no statistics and returns z_p unchanged.
    """
    check_mode(mode)
    z_p = np.asarray(z_p, dtype=np.float64)
    if mode == "baseline-add":
        return z_p
    sp = stats(z_p)
    out = z_p - sp.mean
    out /= max(sp.std, EPS)
    return out


def image_moments(z_img: np.ndarray, mode: str = "ours") -> FeatureStats | None:
    """The image half of the fusion: ``stats(z_img)`` for the modes in ``READS_IMAGE_MOMENTS``, else None."""
    check_mode(mode)
    return stats(z_img) if mode in READS_IMAGE_MOMENTS else None


def fuse_kernel(z_img: np.ndarray, si: FeatureStats | None, p: np.ndarray, mode: str) -> np.ndarray:
    """Fuse ``p = normalize_portrait(z_p, mode)`` into ``z_img`` given ``si = image_moments(z_img, mode)``.

    Checks nothing: the caller guarantees a known mode, float64 streams of
    one shape, and ``si`` present exactly for the modes in
    ``READS_IMAGE_MOMENTS``. A stream of another shape would broadcast
    silently. Neither stream is written to.
    """
    # Each result is one fresh array updated in place, in the order of the
    # expression it stands for, so it is bitwise equal to that expression.
    if mode not in READS_IMAGE_MOMENTS:  # baseline-add: z_p + z_img; pure-norm: p + z_img
        return p + z_img
    if mode == "ours":  # (z_p - mean_p) / std_p * std_img + mean_img + z_img
        out = p * si.std
        out += si.mean
        out += z_img
        return out
    # centralization: (z_p - mean_p) / std_p + (z_img - mean_img) / std_img
    img = z_img - si.mean
    img /= max(si.std, EPS)
    img += p  # one IEEE add commutes exactly, so this is p + img
    return img


def normalize_fuse(z_img: np.ndarray, z_p: np.ndarray, mode: str = "ours") -> np.ndarray:
    """Fuse the portrait stream into the image stream: the two halves, then the kernel.

    mode "ours": align z_p to (mean, std) of z_img, then add z_img.
    mode "pure-norm": standardize z_p only, then add z_img.
    mode "centralization": standardize both streams, then add.
    mode "baseline-add": plain z_p + z_img.
    """
    z_img = np.asarray(z_img, dtype=np.float64)
    if z_img.shape != np.shape(z_p):
        raise ValueError("shape mismatch")
    return fuse_kernel(z_img, image_moments(z_img, mode), normalize_portrait(z_p, mode), mode)
