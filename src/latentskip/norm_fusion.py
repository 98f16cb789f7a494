"""Statistics-aligned feature fusion of two conditioning streams.

``normalize_fuse`` rescales the portrait stream to the image stream's global
mean/std before the residual add, so the two feature distributions share a
center. It is three parts, split where the paper's Normalized Facial
Expression Block splits: ``normalize_portrait`` standardises the portrait
stream by its own moments, ``image_moments`` takes the image stream's
moments, and ``fuse_normalized`` aligns the normalized portrait stream to
those moments and adds the image stream. No denoising step changes either
stream, so the model takes both streams' moments once per window and runs
only the scale, shift and add (``fuse_kernel``, ``fuse_normalized`` without
its checks) at every layer of every step. The other modes are the ablation
baselines.
"""

from __future__ import annotations

import numpy as np

from .core import EPS, FeatureStats, stats

FUSION_MODES = ("baseline-add", "pure-norm", "centralization", "ours")


def _check_mode(mode: str) -> None:
    if mode not in FUSION_MODES:
        raise ValueError(f"unknown fusion mode {mode!r}")


def normalize_portrait(z_p: np.ndarray, mode: str = "ours") -> np.ndarray:
    """The portrait half of the fusion: (z_p - mean_p) / max(std_p, EPS), a fresh array.

    Mode "baseline-add" uses no statistics and returns z_p unchanged.
    """
    _check_mode(mode)
    z_p = np.asarray(z_p, dtype=np.float64)
    if mode == "baseline-add":
        return z_p
    sp = stats(z_p)
    out = z_p - sp.mean
    out /= max(sp.std, EPS)
    return out


def image_moments(z_img: np.ndarray, mode: str = "ours") -> FeatureStats | None:
    """The image half of the fusion: ``stats(z_img)`` for the modes that read it, else None.

    Modes "ours" and "centralization" read the image stream's moments;
    "pure-norm" and "baseline-add" do not.
    """
    _check_mode(mode)
    if mode in ("baseline-add", "pure-norm"):
        return None
    return stats(z_img)


def fuse_normalized(z_img: np.ndarray, si: FeatureStats | None, p: np.ndarray,
                    mode: str = "ours") -> np.ndarray:
    """Fuse ``p = normalize_portrait(z_p, mode)`` into the image stream ``z_img``.

    ``si = image_moments(z_img, mode)``: this half takes no moments itself.
    ``p`` is not written to.
    mode "ours": align p to (mean, std) of z_img, then add z_img.
    mode "pure-norm": p + z_img.
    mode "centralization": p + the standardized image stream.
    mode "baseline-add": plain p + z_img.
    This is the checked entry point: it checks the mode, the shapes and that
    ``si`` is there for the modes that read it, then runs ``fuse_kernel``. The
    model's step loop runs the kernel alone, on streams that its
    ``Conditioning`` checked once, when it was built.
    """
    _check_mode(mode)
    z_img = np.asarray(z_img, dtype=np.float64)
    if z_img.shape != np.shape(p):
        raise ValueError("shape mismatch")
    if si is None and mode in ("ours", "centralization"):
        raise ValueError(f"fusion mode {mode!r} needs the image stream's moments")
    return fuse_kernel(z_img, si, p, mode)


def fuse_kernel(z_img: np.ndarray, si: FeatureStats | None, p: np.ndarray, mode: str) -> np.ndarray:
    """The scale, shift and add of ``fuse_normalized``, with none of its checks.

    The caller guarantees what ``fuse_normalized`` checks: a known mode,
    float64 streams of one shape, and ``si`` present for "ours" and
    "centralization". A stream of another shape would broadcast silently.
    """
    # Each result is one fresh array updated in place, in the order of the
    # expression it stands for, so it is bitwise equal to that expression.
    if mode in ("baseline-add", "pure-norm"):
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
    """Fuse the portrait stream into the image stream: the three parts above, composed.

    mode "ours": align z_p to (mean, std) of z_img, then add z_img.
    mode "pure-norm": standardize z_p only, then add z_img.
    mode "centralization": standardize both streams, then add.
    mode "baseline-add": plain z_p + z_img.
    """
    return fuse_normalized(z_img, image_moments(z_img, mode), normalize_portrait(z_p, mode), mode)
