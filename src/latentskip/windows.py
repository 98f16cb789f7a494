"""Weighted sliding windows over long latent sequences, and the one sampling loop.

Long sequences are denoised as overlapping context windows. At every
denoising step each window gives its frames' velocity, from a model
evaluation (oracle) or its own ``PredictorState`` (accelerated); its head
overlap is blended with the previous window's tail under a linear 0..1
ramp, and the sequence takes one ``euler_step``. All windows step from one
latent, so this equals blending their stepped latents. ``sample_full``
and ``sample_accelerated`` are ``run_long`` over a single window.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import check_kinds, check_rule, require_finite, require_real
from .flow_model import SamplerConfig
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
        check_rule((lambda v: 0 <= v < self.window, f"must be >= 0 and < window ({self.window})"),
                   self.overlap, "overlap")
        check_rule((lambda w: w <= self.total, f"must not exceed total ({self.total})"), self.window, "window")
        check_rule((lambda v: v >= 2 or self.window == self.total,
                    "must be >= 2 when the window is shorter than the total length"), self.overlap, "overlap")
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
    """Convex per-frame mix: w*current + (1-w)*previous.

    ``weights`` is the 1-D ramp, or the ramp already shaped to broadcast over
    the frames' axes, as ``run_long`` shapes it once per run.
    """
    if prev_tail.shape != cur_head.shape or prev_tail.shape[0] != len(weights):
        raise ValueError("overlap length mismatch")
    w = weights if weights.ndim == cur_head.ndim else weights.reshape((-1,) + (1,) * (cur_head.ndim - 1))
    out = w * cur_head
    out += (1.0 - w) * prev_tail
    return out


def euler_step(z: np.ndarray, v: np.ndarray, dt: float) -> np.ndarray:
    """``z - dt * v``, unchecked: ``run_long``'s Euler step, under its loop's ``np.errstate``."""
    return z - dt * v


def run_long(model, z_T_full: np.ndarray, cond_full, plan: WindowPlan,
             sampler_cfg, predictor_cfg: PredictorConfig | None = None):
    """Denoise a length-L sequence window by window, one Euler step per denoising step.

    Without a ``predictor_cfg`` every window evaluates the model at every
    step (the oracle); with one, each window steps through its own
    ``PredictorState``; ``t`` and ``dt`` are Python floats, taken from the
    schedule once per run. At each step the windows, left to right on the
    same latent, fill one velocity array; a window's head overlap blends
    its velocity with the previous window's raw tail (not at the first
    window or step, where the later window's velocity is kept). A
    one-window plan has neither: its window's velocity, cast to float64 if
    it is not, is the step's. The sequence then takes one Euler step,
    ``euler_step``. Frames run along the first axis
    of ``z_T_full`` and of a 2-D ``cond_full``, which is sliced once per
    window; a 1-D (shared) cond is every window's cond. A model with a
    ``condition(cond, frames)`` method (``ToyModel``) gets each window's
    cond through it once, before the first step, and every evaluation of
    that window gets the result; any other model gets the cond itself. A
    None cond goes only to a model without ``condition``. Returns
    (trajectory, evals_per_window). A complex input, NaN or inf in either
    input, a latent with no frames, or a 2-D cond without one row per
    frame is a ValueError naming ``z_T`` or ``cond``, raised before any
    evaluation, as is any error ``condition`` raises; so is a velocity
    whose shape is not its window's. A trajectory that turns
    NaN or inf (an evaluation, an extrapolation or an Euler step that
    overflows float64) is a ValueError naming its first non-finite latent,
    with no RuntimeWarning: the loop runs under one ``np.errstate`` and
    checks the latents once, at the end, the one Euler overflow policy.
    """
    require_real(z_T=z_T_full, cond=cond_full)
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

    ts = sampler_cfg.timesteps().tolist()
    v, one_window = plan.overlap, len(plan.spans) == 1
    # Shaped once to broadcast over the frames' axes, so blend_overlap need not reshape it per call.
    weights = None if one_window else blend_weights(v).reshape((v,) + (1,) * (z.ndim - 1))
    trajectory = [z]
    # A NaN or inf from an evaluation, an extrapolation or an Euler step that overflows is the
    # ValueError below, not a RuntimeWarning on the way.
    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(sampler_cfg.steps):
            t, dt = ts[j], ts[j] - ts[j + 1]
            vel = None if one_window else np.empty_like(z)  # the spans cover every frame
            for wi, ((s, e), cond) in enumerate(zip(plan.spans, conds)):
                zi = z[s:e]
                vi = (model.eval(zi, t, cond) if states is None else states[wi].step(model, zi, t, cond, j)).final
                if vi.shape != zi.shape:
                    raise ValueError(f"window {wi}'s velocity has shape {vi.shape}, its latent {zi.shape}")
                if one_window:  # the window's velocity is the step's, in the latent's float64
                    vel = vi if vi.dtype == z.dtype else vi.astype(z.dtype)
                    break
                vel[s:e] = vi
                if wi > 0 and j > 0:
                    vel[s:s + v] = blend_overlap(prev_tail, vi[:v], weights)
                prev_tail = vi[len(vi) - v:]  # the raw tail, a view nothing writes; empty at v = 0
            z = euler_step(z, vel, dt)
            trajectory.append(z)
    # Each latent is the one before minus dt times a convex blend of velocities: one check covers them all.
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
