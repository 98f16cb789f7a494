"""Weighted sliding windows over long latent sequences, and the one sampling loop.

Long sequences are denoised as overlapping context windows. At every
denoising step each window advances independently through its evaluator
(``OracleState`` evaluates the model, ``PredictorState`` extrapolates
between anchors), then its leading overlap frames are blended with the
previous window's trailing frames under a linear 0..1 ramp. ``sample_full``
and ``sample_accelerated`` are ``run_long`` over a single window.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import require_finite
from .flow_model import LayerOutputs, euler_step
from .predictor import PredictorConfig, PredictorState


@dataclass(frozen=True)
class WindowPlan:
    total: int           # full sequence length (frames)
    window: int          # window length
    overlap: int         # shared frames between consecutive windows
    spans: tuple         # ((start, end), ...) covering [0, total)


def plan_windows(total: int, window: int, overlap: int) -> WindowPlan:
    """Slide a window of ``window`` frames, advancing by window - overlap.

    The final span is clamped to end exactly at ``total``, so it may be
    shorter than ``window``; it still shares exactly ``overlap`` frames with
    its predecessor and is longer than ``overlap``. A plan of more than one
    span needs ``overlap >= 2``, the shortest 0..1 blend ramp.
    """
    if not 0 < overlap < window:
        raise ValueError("overlap must satisfy 0 < overlap < window")
    if window > total:
        raise ValueError("window must not exceed the total length")
    if window < total and overlap < 2:
        raise ValueError("overlap must be >= 2 when the window is shorter than the total length")
    spans = []
    s, e = 0, min(window, total)
    spans.append((s, e))
    while e < total:
        s = s + (window - overlap)
        e = min(s + window, total)
        spans.append((s, e))
    return WindowPlan(total, window, overlap, tuple(spans))


def blend_weights(overlap: int) -> np.ndarray:
    """Linear ramp 0..1 inclusive; frame 0 keeps the previous window."""
    if overlap < 2:
        raise ValueError("overlap must be >= 2 for a 0..1 ramp")
    return np.linspace(0.0, 1.0, overlap)


def blend_overlap(prev_tail: np.ndarray, cur_head: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Convex per-frame mix: w*current + (1-w)*previous."""
    if prev_tail.shape != cur_head.shape or prev_tail.shape[0] != len(weights):
        raise ValueError("overlap length mismatch")
    w = weights.reshape((len(weights),) + (1,) * (cur_head.ndim - 1))
    out = w * cur_head
    out += (1.0 - w) * prev_tail
    return out


class OracleState:
    """Evaluator that runs the full model at every step (the oracle)."""

    def __init__(self):
        self.evals = 0

    def step(self, model, z: np.ndarray, t: float, cond, step_index: int) -> LayerOutputs:
        self.evals += 1
        return model.eval(z, t, cond)


def run_long(model, z_T_full: np.ndarray, cond_full, plan: WindowPlan,
             sampler_cfg, predictor_cfg: PredictorConfig | None = None):
    """Denoise a length-L sequence window by window with per-step blending.

    Each window steps through its own evaluator: the oracle without a
    ``predictor_cfg``, a ``PredictorState`` with one. Within each step,
    windows are advanced left to right from the previous step's state; each
    window's head overlap is blended against the previous window's pre-blend
    tail from the same step. The first window and the first step skip
    blending. A ``cond_full`` with one row per frame is sliced per window;
    any other value (a shared vector, or None) reaches the model untouched.
    Returns (trajectory, evals_per_window); NaN or inf in either input is a ValueError.
    """
    z = np.array(z_T_full, dtype=np.float64)
    if z.shape[0] != plan.total:
        raise ValueError(f"latent has {z.shape[0]} frames, plan expects {plan.total}")
    require_finite(z_T=z, cond=cond_full)
    per_frame_cond = np.ndim(cond_full) == 2 and np.shape(cond_full)[0] == plan.total
    evaluators = [OracleState() if predictor_cfg is None else PredictorState(predictor_cfg)
                  for _ in plan.spans]

    ts = sampler_cfg.timesteps()
    v = plan.overlap
    weights = blend_weights(v) if len(plan.spans) > 1 else None
    trajectory = [z]
    for j in range(sampler_cfg.steps):
        t, dt = float(ts[j]), float(ts[j] - ts[j + 1])
        new_z = z.copy()
        prev_tail = None
        for wi, ((s, e), evaluator) in enumerate(zip(plan.spans, evaluators)):
            zi = z[s:e]
            out = evaluator.step(model, zi, t, cond_full[s:e] if per_frame_cond else cond_full, j)
            stepped = euler_step(zi, out.final, dt)
            cur_tail = stepped[-v:].copy()  # pre-blend tail for the next window
            if wi > 0 and j > 0:
                stepped[:v] = blend_overlap(prev_tail, stepped[:v], weights)
            new_z[s:e] = stepped
            prev_tail = cur_tail
        z = new_z
        trajectory.append(z)
    return trajectory, [ev.evals for ev in evaluators]
