"""Weighted sliding windows over long latent sequences, and the one sampling loop.

Long sequences are denoised as overlapping context windows. At every
denoising step each window advances independently, by a model evaluation
on the oracle path or through its own ``PredictorState`` (anchors and
extrapolation) on the accelerated one, then its leading overlap frames are
blended with the previous window's trailing frames under a linear 0..1
ramp. ``sample_full`` and ``sample_accelerated`` are ``run_long`` over a
single window.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import check_kinds, require_finite
from .flow_model import SamplerConfig
# Bound under this name because perfbench/tracer.py times the Euler step by wrapping windows.euler_step.
# The kernel runs unguarded inside run_long's loop-wide errstate; dt comes from SamplerConfig.timesteps().
from .flow_model import euler_kernel as euler_step
from .predictor import PredictorConfig, PredictorState


@dataclass(frozen=True)
class WindowPlan:
    """Windows of ``window`` frames over ``total``, each advancing by window - overlap.

    ``spans`` is derived: ((start, end), ...) covering [0, total). The final
    span is clamped to end exactly at ``total``, so it may be shorter than
    ``window``; it still shares exactly ``overlap`` frames with its
    predecessor and is longer than ``overlap``. A plan of more than one span
    needs ``overlap >= 2``, the shortest 0..1 blend ramp; a single window
    (``window == total``) may have overlap 0.
    """

    total: int           # full sequence length (frames)
    window: int          # window length
    overlap: int         # shared frames between consecutive windows
    spans: tuple = field(init=False)

    def __post_init__(self):
        check_kinds(self)
        if not 0 <= self.overlap < self.window:
            raise ValueError("overlap must satisfy 0 <= overlap < window")
        if self.window > self.total:
            raise ValueError("window must not exceed the total length")
        if self.window < self.total and self.overlap < 2:
            raise ValueError("overlap must be >= 2 when the window is shorter than the total length")
        spans = [(0, self.window)]
        while spans[-1][1] < self.total:
            s = spans[-1][0] + self.window - self.overlap
            spans.append((s, min(s + self.window, self.total)))
        object.__setattr__(self, "spans", tuple(spans))


# The plan's constructor under the name that perfbench calls; the library calls WindowPlan.
plan_windows = WindowPlan


def latent_frames(z_T) -> int:
    """The frame count of a latent sequence: the length of its first axis, which must be >= 1."""
    shape = np.shape(z_T)
    if not shape or shape[0] == 0:
        raise ValueError(f"z_T must have at least one frame, got shape {shape}")
    return shape[0]


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


def run_long(model, z_T_full: np.ndarray, cond_full, plan: WindowPlan,
             sampler_cfg, predictor_cfg: PredictorConfig | None = None):
    """Denoise a length-L sequence window by window with per-step blending.

    Without a ``predictor_cfg`` every window evaluates the model at every
    step (the oracle); with one, each window steps through its own
    ``PredictorState``. Within each step, windows are advanced left to right
    from the previous step's state; each window's head overlap is blended
    against the previous window's pre-blend tail from the same step. The
    first window and the first step skip blending. Frames run along the
    first axis of ``z_T_full`` and of a 2-D ``cond_full``, which is sliced
    once per window; a 1-D (shared) cond, or None, is every window's cond. A model with a ``condition(cond, frames)``
    method (``ToyModel``) gets each window's cond through it once, before
    the first step, and every evaluation of that window gets the result; any
    other model gets the cond itself. Returns (trajectory, evals_per_window).
    NaN or inf in either input, a latent with no frames, or a 2-D cond without
    one row per frame is a ValueError, raised before any evaluation, as is
    any error ``condition`` raises. A trajectory that turns NaN or inf, from
    an evaluation, an extrapolation or an Euler step that overflows float64,
    is a ValueError naming its first non-finite latent, with no
    RuntimeWarning on the way: the loop runs under one ``np.errstate``, its
    Euler steps are the unguarded kernel (``dt`` comes from
    ``sampler_cfg.timesteps()``), and the latents are checked once, at the
    end.
    """
    z = np.array(z_T_full, dtype=np.float64)
    if latent_frames(z) != plan.total:
        raise ValueError(f"latent has {z.shape[0]} frames, plan expects {plan.total}")
    require_finite(z_T=z, cond=cond_full)
    if np.ndim(cond_full) == 2 and len(cond_full) != plan.total:
        raise ValueError(f"cond has {len(cond_full)} rows, plan expects one per frame ({plan.total})")
    conds = [cond_full[s:e] if np.ndim(cond_full) == 2 else cond_full for s, e in plan.spans]
    condition = getattr(model, "condition", None)
    if condition is not None:
        conds = [condition(c, e - s) for c, (s, e) in zip(conds, plan.spans)]
    states = None if predictor_cfg is None else [PredictorState(predictor_cfg) for _ in plan.spans]

    ts = sampler_cfg.timesteps()
    v = plan.overlap
    weights = blend_weights(v) if len(plan.spans) > 1 else None
    trajectory = [z]
    # A NaN or inf from an evaluation, an extrapolation or an Euler step that overflows is the
    # ValueError below, not a RuntimeWarning on the way.
    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(sampler_cfg.steps):
            t, dt = float(ts[j]), float(ts[j] - ts[j + 1])
            new_z = np.empty_like(z)  # the spans cover every frame
            prev_tail = None
            for wi, ((s, e), cond) in enumerate(zip(plan.spans, conds)):
                zi = z[s:e]
                out = model.eval(zi, t, cond) if states is None else states[wi].step(model, zi, t, cond, j)
                stepped = euler_step(zi, out.final, dt)
                cur_tail = stepped[len(stepped) - v:].copy()  # pre-blend tail; empty at v = 0, where -v is 0
                if wi > 0 and j > 0:
                    stepped[:v] = blend_overlap(prev_tail, stepped[:v], weights)
                new_z[s:e] = stepped
                prev_tail = cur_tail
            z = new_z
            trajectory.append(z)
    # Each frame is an Euler step of the same frame of the latent before, then at most a blend with
    # weights in [0, 1], so a NaN or inf in any latent survives to the last: one check covers them all.
    if not np.isfinite(z).all():
        bad = next(i for i, zi in enumerate(trajectory) if not np.isfinite(zi).all())
        raise ValueError(f"trajectory latent {bad} is not finite: "
                         "an evaluation, an extrapolation or an Euler step gave NaN or inf")
    evals = [sampler_cfg.steps] * len(plan.spans) if states is None else [st.evals for st in states]
    return trajectory, evals


def sample_full(model, z_T: np.ndarray, cond: np.ndarray, cfg: SamplerConfig):
    """Non-accelerated sampler: evaluate the model at every step (the oracle).

    This is ``run_long`` over a single window spanning every frame. Returns
    (trajectory, evals): steps+1 latents ending at the sample, and the
    number of full model evaluations (== steps).
    """
    frames = latent_frames(z_T)
    trajectory, evals = run_long(model, z_T, cond, WindowPlan(frames, frames, 0), cfg)
    return trajectory, evals[0]


def sample_accelerated(model, z_T: np.ndarray, cond, sampler_cfg, predictor_cfg: PredictorConfig):
    """Euler sampling with full evaluations only at anchor steps.

    This is ``run_long`` over a single window spanning every frame.
    Returns (trajectory, evals); evals == ceil(steps / anchor_spacing).
    """
    frames = latent_frames(z_T)
    trajectory, evals = run_long(model, z_T, cond, WindowPlan(frames, frames, 0), sampler_cfg, predictor_cfg)
    return trajectory, evals[0]
