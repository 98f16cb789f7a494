"""Statistics-aligned feature fusion of two conditioning streams.

``normalize_fuse`` rescales the portrait stream to the image stream's global
mean/std before the residual add, so the two feature distributions share a
center. It composes two public halves, split where the paper's Normalized
Facial Expression Block splits: ``normalize_portrait`` standardises the
portrait stream by its own moments, and ``image_moments`` takes the image
stream's moments for the modes in ``READS_IMAGE_MOMENTS``. ``fuse_kernel``,
internal and unchecked, aligns the normalized portrait stream to those
moments and adds the image stream. No denoising step changes either stream,
so the model runs all of this once per window, in ``ToyModel.condition``,
and at every layer of every step only adds the fused result
(``flow_model.fuse_streams``). The other modes are the ablation baselines.
"""

from __future__ import annotations

import math

import numpy as np

from .core import EPS, FeatureStats, check_rule, require_finite, stats

FUSION_MODES = ("baseline-add", "pure-norm", "centralization", "ours")
# The modes whose fusion reads the image stream's moments; the others add the image stream as is.
READS_IMAGE_MOMENTS = ("ours", "centralization")
# The fusion-mode rule, (holds, requirement): every check of a mode applies it, and flow_model.MODEL_RULES holds it.
MODE_RULE = (lambda mode: mode in FUSION_MODES, f"must be one of {FUSION_MODES}")


def _checked_stats(x: np.ndarray, name: str) -> FeatureStats:
    """``stats(x)``, or a ValueError naming ``name`` when x holds NaN or inf or its moments overflow float64."""
    with np.errstate(over="ignore", invalid="ignore"):  # NaN or inf moments are the ValueError below
        st = stats(x)
    if not (math.isfinite(st.mean) and math.isfinite(st.std)):  # NaN or inf in x makes the mean so
        require_finite(**{name: x})
        raise ValueError(f"{name}: its moments overflow float64")
    return st


def normalize_portrait(z_p: np.ndarray, mode: str = "ours") -> np.ndarray:
    """The portrait half of the fusion: (z_p - mean_p) / max(std_p, EPS), a fresh array.

    Mode "baseline-add" uses no statistics and returns z_p unchanged. In the
    others a z_p holding NaN or inf, or whose moments overflow float64, is a ValueError naming it.
    """
    check_rule(MODE_RULE, mode, "fusion_mode")
    z_p = np.asarray(z_p, dtype=np.float64)
    if mode == "baseline-add":
        return z_p
    sp = _checked_stats(z_p, "z_p")
    out = z_p - sp.mean
    out /= max(sp.std, EPS)
    return out


def image_moments(z_img: np.ndarray, mode: str = "ours") -> FeatureStats | None:
    """The image half of the fusion: ``stats(z_img)`` for the modes in ``READS_IMAGE_MOMENTS``, else None.

    In those modes a z_img holding NaN or inf, or whose moments overflow float64, is a ValueError naming it.
    """
    check_rule(MODE_RULE, mode, "fusion_mode")
    return _checked_stats(z_img, "z_img") if mode in READS_IMAGE_MOMENTS else None


def fuse_kernel(z_img: np.ndarray, si: FeatureStats | None, p: np.ndarray, mode: str) -> np.ndarray:
    """Fuse ``p = normalize_portrait(z_p, mode)`` into ``z_img`` given ``si = image_moments(z_img, mode)``.

    Checks nothing: the caller (``normalize_fuse`` or ``ToyModel.condition``)
    guarantees a known mode, float64 streams of one shape, and ``si``
    present exactly for the modes in ``READS_IMAGE_MOMENTS``. A stream of
    another shape would broadcast silently. Neither stream is written to.
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
    In every mode, a stream holding NaN or inf is a ValueError naming it,
    and a result that overflows float64 is a ValueError naming ``normalize_fuse``.
    """
    z_img = np.asarray(z_img, dtype=np.float64)
    if z_img.shape != np.shape(z_p):
        raise ValueError("shape mismatch")
    require_finite(z_img=z_img, z_p=z_p)
    with np.errstate(over="ignore"):  # an overflow is the ValueError below, not a warning
        out = fuse_kernel(z_img, image_moments(z_img, mode), normalize_portrait(z_p, mode), mode)
    if not np.isfinite(out).all():
        raise ValueError("normalize_fuse overflows float64 on these inputs")
    return out
