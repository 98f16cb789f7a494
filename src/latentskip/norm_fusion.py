"""Statistics-aligned feature fusion of two conditioning streams.

``normalize_fuse`` rescales the portrait stream to the image stream's global
mean/std before the residual add, so the two feature distributions share a
center; ``ToyModel.eval`` runs it at every layer. The other modes are the
ablation baselines.
"""

from __future__ import annotations

import numpy as np

from .core import EPS, stats


def normalize_fuse(z_img: np.ndarray, z_p: np.ndarray, mode: str = "ours") -> np.ndarray:
    """Fuse the portrait stream into the image stream.

    mode "ours": align z_p to (mean, std) of z_img, then add z_img.
    mode "pure-norm": standardize z_p only, then add z_img.
    mode "centralization": standardize both streams, then add.
    mode "baseline-add": plain z_p + z_img.
    """
    z_img = np.asarray(z_img, dtype=np.float64)
    z_p = np.asarray(z_p, dtype=np.float64)
    if z_img.shape != z_p.shape:
        raise ValueError("shape mismatch")
    if mode == "baseline-add":
        return z_p + z_img
    sp, si = stats(z_p), stats(z_img)
    # Each result is one fresh array updated in place, in the order of the
    # expression it stands for, so it is bitwise equal to that expression.
    out = z_p - sp.mean
    out /= max(sp.std, EPS)
    if mode == "ours":  # (z_p - mean_p) / std_p * std_img + mean_img + z_img
        out *= si.std
        out += si.mean
        out += z_img
    elif mode == "pure-norm":  # (z_p - mean_p) / std_p + z_img
        out += z_img
    elif mode == "centralization":  # (z_p - mean_p) / std_p + (z_img - mean_img) / std_img
        img = z_img - si.mean
        img /= max(si.std, EPS)
        out += img
    else:
        raise ValueError(f"unknown fusion mode {mode!r}")
    return out
