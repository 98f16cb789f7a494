"""Dense tensor statistics, error metrics, and deterministic randomness.

Latents are plain float64 numpy arrays throughout the package; the helpers
here are the only place moments and norms are defined, so every module
shares the same conventions (population std, 1e-8 division guard).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Guard for every division in the package.
EPS = 1e-8


@dataclass(frozen=True)
class FeatureStats:
    mean: float
    std: float  # population (N divisor), never negative


class SeededRng:
    """Deterministic random stream: NumPy PCG64 keyed by a 64-bit seed.

    PCG64 produces the same sequence for the same seed on every platform,
    which is what makes every run in this package reproducible.
    """

    def __init__(self, seed: int):
        self.seed = int(seed)
        self._gen = np.random.Generator(np.random.PCG64(self.seed))

    def normal(self, shape) -> np.ndarray:
        return self._gen.standard_normal(shape)


def stats(x: np.ndarray) -> FeatureStats:
    """Global mean and population standard deviation over all elements."""
    x = np.asarray(x, dtype=np.float64)
    if x.size == 0:
        raise ValueError("empty input")
    return FeatureStats(float(x.mean()), float(x.std()))


def relative_l2(a: np.ndarray, b: np.ndarray) -> float:
    """||a - b||2 / max(||b||2, EPS)."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    denom = max(float(np.linalg.norm(b)), EPS)
    return float(np.linalg.norm(a - b)) / denom
