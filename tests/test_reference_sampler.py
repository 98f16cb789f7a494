"""``run_long`` held to a reference sampler written from the paper's formula.

The reference shares no code with ``predictor`` or ``windows``: it keeps
each window's last n+1 anchor evaluations and its sigmas, takes backward
differences as binomial sums, and writes out the correctors, the Euler step
and the blend. A predicted step k past anchor a is

    f(a) + sum_{i=1..m} nabla^i f(a) k^i / (i! K^i w_{L,i} s),

with m = min(n, anchors - 1), and s = w = 1 until the window holds n+1
anchors and one sigma (or with dynamics off).
"""

import math

import numpy as np
from hypothesis import given, settings, strategies as st

from latentskip.core import SeededRng
from latentskip.flow_model import FUSION_MODES, SamplerConfig, build_model
from latentskip.predictor import PredictorConfig
from latentskip.windows import WindowPlan, run_long

EPS = 1e-8  # the package's division guard


def backward_difference(values, i):
    """nabla^i at the newest of ``values`` (oldest first): sum_j (-1)^j C(i, j) f(a - jK)."""
    return sum((-1) ** j * math.comb(i, j) * values[-1 - j] for j in range(i + 1))


def reference_velocity(model, z, t, cond, j, window, cfg):
    """The final layer's output at step j: evaluated at an anchor, extrapolated between anchors."""
    if cfg is None:
        return model.eval(z, t, cond).final
    K, n = cfg.anchor_spacing, cfg.max_order
    anchors, sigmas = window["anchors"], window["sigmas"]
    if j % K == 0:
        layers = model.eval(z, t, cond).per_layer
        if anchors:
            sigmas.append(np.linalg.norm(layers[-1] - anchors[-1][-1]) / K)
        window["anchors"] = (anchors + [layers])[-(n + 1):]
        window["anchor_step"], window["evals"] = j, window["evals"] + 1
        return layers[-1].reshape(z.shape)
    k = j - window["anchor_step"]
    warm = cfg.dynamics_enabled and len(anchors) == n + 1 and len(sigmas) > 0
    s = 1.0
    if warm and sigmas[-1] >= EPS and np.mean(sigmas) >= EPS:
        s = (sigmas[-1] / np.mean(sigmas)) ** cfg.alpha
    f = anchors[-1][-1].copy()
    for i in range(1, min(n, len(anchors) - 1) + 1):
        diffs = [backward_difference([a[l] for a in anchors], i) for l in range(len(anchors[-1]))]
        w = 1.0
        if warm:
            mags = [np.mean(np.abs(d)) for d in diffs]
            w = 1.0 / math.sqrt(max(mags[-1] / max(np.mean(mags), EPS), EPS))
        f = f + diffs[-1] * k ** i / (math.factorial(i) * K ** i * w * s)
    return f.reshape(z.shape)


def reference_sampler(model, z_T, cond, total, window, overlap, steps, cfg):
    """(trajectory, evals per window): every window steps from the last latent, then blends left to right."""
    spans = [(0, window)]
    while spans[-1][1] < total:
        start = spans[-1][0] + window - overlap
        spans.append((start, min(start + window, total)))
    ramp = np.linspace(0.0, 1.0, overlap)[:, None]  # frame 0 of a head keeps the previous window
    states = [{"anchors": [], "sigmas": [], "anchor_step": None, "evals": 0} for _ in spans]
    ts = np.linspace(1.0, 0.0, steps + 1)
    z = np.array(z_T, dtype=np.float64)
    trajectory = [z]
    for j in range(steps):
        t, dt = float(ts[j]), float(ts[j] - ts[j + 1])
        stepped = []
        for (s, e), state in zip(spans, states):
            c = cond[s:e] if cond.ndim == 2 else cond
            stepped.append(z[s:e] - dt * reference_velocity(model, z[s:e], t, c, j, state, cfg))
        z = np.empty_like(z)
        for w, (s, e) in enumerate(spans):
            z[s:e] = stepped[w]
            if w > 0 and j > 0:  # the previous window's tail before its own head was blended
                z[s:s + overlap] = ramp * stepped[w][:overlap] + (1.0 - ramp) * stepped[w - 1][-overlap:]
        trajectory.append(z)
    return trajectory, [steps if cfg is None else state["evals"] for state in states]


@st.composite
def plans(draw):
    """(total, window, overlap, windows) for plans of 1-5 windows, the window as short as overlap + 1."""
    overlap = draw(st.integers(2, 4))
    window = draw(st.integers(overlap + 1, 2 * overlap + 2))
    windows = draw(st.integers(1, 5))
    stride = window - overlap
    # The last window is clamped: it ends anywhere past the end of the one before it.
    total = window if windows == 1 else draw(
        st.integers(window + (windows - 2) * stride + 1, window + (windows - 1) * stride))
    return total, window, overlap, windows


PREDICTORS = st.builds(PredictorConfig, st.integers(1, 6), st.integers(0, 3),
                       st.floats(0.5, 1.5), st.booleans())


@settings(max_examples=150, deadline=None)
@given(plan=plans(), fusion=st.sampled_from(FUSION_MODES), shared=st.booleans(),
       layers=st.integers(2, 4), steps=st.integers(1, 25), cfg=st.none() | PREDICTORS | PREDICTORS,
       seed=st.integers(0, 2**16))
def test_run_long_matches_reference(plan, fusion, shared, layers, steps, cfg, seed):
    total, window, overlap, windows = plan
    model = build_model(seed, layer_count=layers, width=6, latent_dim=4, cond_dim=3, fusion_mode=fusion)
    rng = SeededRng(seed + 1)
    z, cond = rng.normal((total, 4)), rng.normal(3 if shared else (total, 3))
    window_plan = WindowPlan(total, window, overlap)
    assert len(window_plan.spans) == windows
    trajectory, evals = run_long(model, z, cond, window_plan, SamplerConfig(steps=steps), cfg)
    reference, reference_evals = reference_sampler(model, z, cond, total, window, overlap, steps, cfg)
    per_window = steps if cfg is None else math.ceil(steps / cfg.anchor_spacing)
    assert evals == reference_evals == [per_window] * windows
    assert len(trajectory) == len(reference) == steps + 1
    assert max(float(np.max(np.abs(a - b))) for a, b in zip(trajectory, reference)) <= 1e-12
