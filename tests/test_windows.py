import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from latentskip import norm_fusion, predictor, windows
from latentskip.core import SeededRng, relative_l2
from latentskip.flow_model import FUSION_MODES, LayerOutputs, SamplerConfig, build_model
from latentskip.harness import ExperimentConfig
from latentskip.predictor import PredictorConfig
from latentskip.windows import (WindowPlan, blend_overlap, blend_weights, plan_windows, run_long,
                                sample_accelerated, sample_full)


def reference_euler(model, z_T, cond, cfg):
    """Plain oracle Euler loop, the reference the shared sampling loop is held to; it shares no step code."""
    ts, trajectory = cfg.timesteps(), [np.array(z_T, dtype=np.float64)]
    for j in range(cfg.steps):
        v = model.eval(trajectory[-1], float(ts[j]), cond).final
        trajectory.append(trajectory[-1] - float(ts[j] - ts[j + 1]) * v)
    return trajectory


@settings(max_examples=100, deadline=None)
@given(overlap=st.integers(2, 9), tail=st.lists(st.integers(1, 4), max_size=2), ramp=st.booleans(),
       seed=st.integers(0, 2**32))
def test_blend_bitwise_equals_reference(overlap, tail, ramp, seed):
    rng = SeededRng(seed)
    shape = (overlap, *tail)
    prev, cur = rng.normal(shape), rng.normal(shape) * 3.0
    weights = blend_weights(overlap) if ramp else np.abs(rng.normal(overlap)) % 1.0
    before = [prev.copy(), cur.copy(), weights.copy()]
    w = weights.reshape((overlap,) + (1,) * len(tail))
    assert np.array_equal(blend_overlap(prev, cur, weights), w * cur + (1.0 - w) * prev)
    assert all(np.array_equal(a, b) for a, b in zip((prev, cur, weights), before))


class TestPlan:
    def test_worked_trace(self):
        plan = plan_windows(21, 9, 5)
        assert plan.spans == ((0, 9), (4, 13), (8, 17), (12, 21))

    def test_single_window(self):
        assert plan_windows(9, 9, 5).spans == ((0, 9),)
        assert plan_windows(8, 8, 0).spans == ((0, 8),)

    def test_end_clamp(self):
        assert plan_windows(10, 9, 5).spans == ((0, 9), (4, 10))

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            plan_windows(21, 9, 9)
        with pytest.raises(ValueError):
            plan_windows(21, 9, 0)
        with pytest.raises(ValueError):
            plan_windows(8, 9, 5)
        with pytest.raises(TypeError):  # spans are derived, never given
            WindowPlan(16, 8, 3, ((0, 8),))
        with pytest.raises(ValueError, match="window: expected an integer, got 8.0"):  # spans index frames
            WindowPlan(16, 8.0, 2)
        with pytest.raises(ValueError, match="total: expected an integer, got 16.0"):
            WindowPlan(16.0, 8, 2)

    @pytest.mark.parametrize("total,window,overlap", [(21, 9, 5), (40, 12, 5), (10, 9, 5), (100, 7, 2)])
    def test_coverage(self, total, window, overlap):
        plan = plan_windows(total, window, overlap)
        counts = np.zeros(total, dtype=int)
        for s, e in plan.spans:
            counts[s:e] += 1
        assert np.all(counts >= 1)
        assert plan.spans[-1][1] == total
        # consecutive overlap is exactly `overlap`, the clamped last pair included
        for (s0, e0), (s1, e1) in zip(plan.spans, plan.spans[1:]):
            assert e0 - s1 == overlap

    @given(st.data())
    def test_plan_property(self, data):
        total = data.draw(st.integers(2, 200), label="L")
        window = data.draw(st.integers(2, total), label="window")
        overlap = data.draw(st.integers(1, window - 1), label="overlap")
        if overlap == 1 and window < total:  # several spans, but no 0..1 blend ramp
            with pytest.raises(ValueError, match="overlap: must be >= 2"):
                plan_windows(total, window, overlap)
            return
        spans = plan_windows(total, window, overlap).spans
        assert spans[0][0] == 0 and spans[-1][1] == total
        for (s0, e0), (s1, e1) in zip(spans, spans[1:]):
            assert e0 - s1 == overlap
        assert all(e - s > overlap for s, e in spans)


class TestBlend:
    def test_ramp_example(self):
        out = blend_overlap(np.zeros(5), np.full(5, 10.0), blend_weights(5))
        assert np.allclose(out, [0.0, 2.5, 5.0, 7.5, 10.0])

    def test_equal_inputs_unchanged(self):
        x = SeededRng(1).normal((5, 3))
        out = blend_overlap(x, x.copy(), blend_weights(5))
        assert np.allclose(out, x, atol=1e-12)

    def test_endpoints_bit_exact(self):
        prev, cur = SeededRng(1).normal((5, 3)), SeededRng(2).normal((5, 3))
        out = blend_overlap(prev, cur, blend_weights(5))
        assert np.array_equal(out[0], prev[0])
        assert np.array_equal(out[-1], cur[-1])

    def test_convex_envelope(self):
        prev, cur = SeededRng(1).normal((5, 3)), SeededRng(2).normal((5, 3))
        out = blend_overlap(prev, cur, blend_weights(5))
        assert np.all(out <= np.maximum(prev, cur) + 1e-12)
        assert np.all(out >= np.minimum(prev, cur) - 1e-12)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            blend_overlap(np.zeros(4), np.zeros(5), blend_weights(5))

    @pytest.mark.parametrize("overlap", [1, 0])
    def test_ramp_needs_two_frames(self, overlap):
        with pytest.raises(ValueError, match=re.escape("overlap must be >= 2 for a 0..1 ramp")):
            blend_weights(overlap)


class TestRunLong:
    @pytest.fixture
    def setup(self):
        model = build_model(0, layer_count=3, width=8, latent_dim=6, cond_dim=4)
        rng = SeededRng(1)
        z = rng.normal((21, 6))
        cond = rng.normal((21, 4))
        return model, z, cond

    def test_single_window_matches_oracle_bitwise(self, setup):
        model, z, cond = setup
        plan = plan_windows(21, 21, 5)
        cfg = SamplerConfig(steps=10)
        long_traj, evals = run_long(model, z, cond, plan, cfg)
        oracle, _ = sample_full(model, z, cond, cfg)
        assert all(np.array_equal(a, b) for a, b in zip(long_traj, oracle))
        assert evals == [10]

    def test_deterministic(self, setup):
        model, z, cond = setup
        plan = plan_windows(21, 9, 5)
        cfg = SamplerConfig(steps=10)
        t1, _ = run_long(model, z, cond, plan, cfg)
        t2, _ = run_long(model, z, cond, plan, cfg)
        assert all(np.array_equal(a, b) for a, b in zip(t1, t2))

    def test_agreeing_windows_make_blending_a_noop(self):
        # frame-wise model with per-frame cond: overlapping windows compute
        # identical values, so the convex blend changes nothing
        model = build_model(0, layer_count=3, width=8, latent_dim=6, cond_dim=4)
        rng = SeededRng(1)
        z, cond = rng.normal((21, 6)), rng.normal((21, 4))
        cfg = SamplerConfig(steps=6)
        split, _ = run_long(model, z, cond, plan_windows(21, 9, 5), cfg)
        whole, _ = run_long(model, z, cond, plan_windows(21, 21, 5), cfg)
        assert np.allclose(split[-1], whole[-1], atol=1e-12)

    def test_accelerated_eval_counts_per_window(self, setup):
        model, z, cond = setup
        plan = plan_windows(21, 9, 5)
        cfg = SamplerConfig(steps=10)
        _, evals = run_long(model, z, cond, plan, cfg, PredictorConfig(anchor_spacing=5))
        assert evals == [2, 2, 2, 2]

    def test_accelerated_run_builds_only_final_layers(self, monkeypatch):
        # run_long reads only .final, so a predicted step extrapolates one layer, not all 16.
        model = build_model(0, layer_count=16, width=8, latent_dim=6, cond_dim=4)
        rng = SeededRng(1)
        z, cond = rng.normal((21, 6)), rng.normal((21, 4))
        plan, cfg = plan_windows(21, 9, 5), SamplerConfig(steps=10)
        calls = []
        original = predictor.extrapolate_layer

        def counting(diffs, terms):
            calls.append(len(terms))
            return original(diffs, terms)

        monkeypatch.setattr(predictor, "extrapolate_layer", counting)
        _, evals = run_long(model, z, cond, plan, cfg, PredictorConfig(anchor_spacing=5))
        predicted_steps = cfg.steps - evals[0]
        assert len(plan.spans) == 4 and predicted_steps == 8
        assert len(calls) == predicted_steps * len(plan.spans)

    @pytest.mark.parametrize("pcfg", [None, PredictorConfig(2, 1)], ids=["oracle", "accelerated"])
    def test_one_euler_step_per_denoising_step(self, monkeypatch, pcfg):
        # The windows' velocities are blended into one array over every frame, which takes one
        # Euler step: T calls over T steps, not one per window per step.
        model = build_model(0, layer_count=3, width=8, latent_dim=6, cond_dim=4)
        rng = SeededRng(1)
        z, cond = rng.normal((28, 6)), rng.normal((28, 4))
        plan, cfg = plan_windows(28, 9, 5), SamplerConfig(steps=10)
        original, calls = windows.euler_step, []
        monkeypatch.setattr(windows, "euler_step", lambda *args: calls.append(args[0].shape) or original(*args))
        trajectory, _ = run_long(model, z, cond, plan, cfg, pcfg)
        assert len(plan.spans) == 6
        assert calls == [(28, 6)] * cfg.steps and len(trajectory) == cfg.steps + 1

    @pytest.mark.parametrize("frames", [1, 8])
    def test_velocity_of_another_shape_rejected(self, frames):
        # A one-frame velocity would broadcast over its window's frames; the loop names the window.
        model = ConstantVelocityModel(1.0, frames)
        z, cfg = SeededRng(1).normal((21, 6)), SamplerConfig(steps=2)
        with pytest.raises(ValueError, match=re.escape(f"window 0's velocity has shape ({frames}, 6), "
                                                       "its latent (9, 6)")):
            run_long(model, z, np.zeros(4), plan_windows(21, 9, 5), cfg)

    def test_length_mismatch(self, setup):
        model, z, cond = setup
        with pytest.raises(ValueError):
            run_long(model, z, cond, plan_windows(20, 9, 5), SamplerConfig(steps=2))


SMALL_MODEL = build_model(0, layer_count=3, width=8, latent_dim=6, cond_dim=4)


@settings(max_examples=40, deadline=None)
@given(steps=st.integers(1, 12), spacing=st.integers(1, 6), order=st.integers(0, 3),
       seed=st.integers(0, 2**32 - 1))
def test_single_window_loop_matches_reference(steps, spacing, order, seed):
    rng = SeededRng(seed)
    five, cond = rng.normal((5, 6)), rng.normal(4)
    cfg = SamplerConfig(steps=steps)
    for z in (five, five[:1]):  # a one-frame latent is a one-frame window
        reference = reference_euler(SMALL_MODEL, z, cond, cfg)
        oracle, oracle_evals = sample_full(SMALL_MODEL, z, cond, cfg)
        assert oracle_evals == steps
        assert all(np.array_equal(a, b) for a, b in zip(oracle, reference, strict=True))
        exact, _ = sample_accelerated(SMALL_MODEL, z, cond, cfg, PredictorConfig(1, order))
        assert all(np.array_equal(a, b) for a, b in zip(exact, reference, strict=True))
        accel, evals = sample_accelerated(SMALL_MODEL, z, cond, cfg, PredictorConfig(spacing, order))
        assert evals == math.ceil(steps / spacing)
        assert np.all(np.isfinite(accel[-1])) or not np.all(np.isfinite(oracle[-1]))


SAMPLERS = {
    "sample_full": lambda z, cond, cfg: sample_full(SMALL_MODEL, z, cond, cfg),
    "sample_accelerated": lambda z, cond, cfg: sample_accelerated(SMALL_MODEL, z, cond, cfg,
                                                                  PredictorConfig(2, 2)),
    "run_long": lambda z, cond, cfg: run_long(SMALL_MODEL, z, cond, plan_windows(12, 6, 3), cfg,
                                              PredictorConfig(2, 2)),
}


@pytest.mark.parametrize("sampler", sorted(SAMPLERS))
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("target", ["z_T", "cond"])
def test_non_finite_input_rejected(sampler, bad, target):
    rng = SeededRng(3)
    inputs = {"z_T": rng.normal((12, 6)), "cond": rng.normal((12, 4))}
    inputs[target][5, 1] = bad
    with pytest.raises(ValueError, match=target):
        SAMPLERS[sampler](inputs["z_T"], inputs["cond"], SamplerConfig(steps=5))


@pytest.mark.parametrize("pcfg", [None, PredictorConfig(2, 2)], ids=["oracle", "accelerated"])
@pytest.mark.parametrize("plan", [plan_windows(12, 12, 0), plan_windows(12, 6, 3)], ids=["one-window", "windows"])
@pytest.mark.parametrize("target", ["z_T", "cond"])
def test_complex_input_rejected_before_any_eval(pcfg, plan, target):
    # A float64 cast would keep only the real part, with a ComplexWarning (a RuntimeWarning, which
    # pytest makes an error); the loop refuses the input instead, naming it, before any evaluation.
    model, rng = ConditioningCountingModel(SMALL_MODEL), SeededRng(3)
    inputs = {"z_T": rng.normal((12, 6)), "cond": rng.normal((12, 4))}
    inputs[target] = inputs[target] + 1j
    with pytest.raises(ValueError, match=f"^{target} must be real, got complex values$"):
        run_long(model, inputs["z_T"], inputs["cond"], plan, SamplerConfig(steps=5), pcfg)
    assert model.conditioned == [] and model.evals == 0


class CountingModel:
    """Passes evaluations through to a model and counts them."""

    def __init__(self, model):
        self.model, self.evals = model, 0

    def eval(self, z, t, cond):
        self.evals += 1
        return self.model.eval(z, t, cond)


class ConditioningCountingModel(CountingModel):
    """A CountingModel that also passes ``condition`` through, recording each call's frames."""

    def __init__(self, model):
        super().__init__(model)
        self.conditioned = []

    def condition(self, cond, frames):
        self.conditioned.append(frames)
        return self.model.condition(cond, frames)


@pytest.mark.parametrize("shared", [True, False])
@pytest.mark.parametrize("pcfg", [None, PredictorConfig(2, 2)])
def test_run_long_conditions_each_window_once(shared, pcfg):
    # The conditioning is step-invariant: one call per window per run, before the first step,
    # and the same trajectory as a model without the hook, which gets the raw cond at every step.
    plan, cfg = plan_windows(21, 9, 5), SamplerConfig(steps=6)
    rng = SeededRng(6)
    z, cond = rng.normal((21, 6)), rng.normal(4 if shared else (21, 4))
    hooked, plain = ConditioningCountingModel(SMALL_MODEL), CountingModel(SMALL_MODEL)
    traj, evals = run_long(hooked, z, cond, plan, cfg, pcfg)
    assert hooked.conditioned == [9, 9, 9, 9]  # the spans (0, 9), (4, 13), (8, 17), (12, 21)
    assert hooked.evals == sum(evals) == (24 if pcfg is None else 12)
    reference, _ = run_long(plain, z, cond, plan, cfg, pcfg)
    assert plain.evals == hooked.evals
    assert all(np.array_equal(a, b) for a, b in zip(traj, reference, strict=True))
    run_long(hooked, z, cond, plan, cfg, pcfg)
    assert len(hooked.conditioned) == 8


# Moments the fusion reads per layer: the portrait stream's, and the image stream's for two modes.
MOMENTS_PER_LAYER = {"ours": 2, "centralization": 2, "pure-norm": 1, "baseline-add": 0}


@pytest.mark.parametrize("fusion", FUSION_MODES)
@pytest.mark.parametrize("pcfg", [None, PredictorConfig(2, 2)])
def test_run_long_takes_the_moments_once_per_window(monkeypatch, fusion, pcfg):
    # No step changes either stream, so both streams' moments are taken in condition, once
    # per layer per window, and an eval given a conditioning takes none.
    model = build_model(0, layer_count=3, width=8, latent_dim=6, cond_dim=4, fusion_mode=fusion)
    original, calls = norm_fusion.stats, []
    monkeypatch.setattr(norm_fusion, "stats", lambda x: calls.append(np.shape(x)) or original(x))
    plan = plan_windows(12, 7, 2)  # the spans (0, 7) and (5, 12)
    rng = SeededRng(6)
    z, cond = rng.normal((12, 6)), rng.normal((12, 4))
    run_long(model, z, cond, plan, SamplerConfig(steps=6), pcfg)
    assert len(calls) == len(plan.spans) * 3 * MOMENTS_PER_LAYER[fusion]
    conditioning = model.condition(cond[:7], 7)
    calls.clear()
    model.eval(z[:7], 0.5, conditioning)
    assert calls == []


@pytest.mark.parametrize("sampler", ["sample_full", "sample_accelerated", "run_long"])
@pytest.mark.parametrize("length", [5, 0])
def test_shared_cond_of_the_wrong_length_rejected_before_any_eval(sampler, length):
    # ToyModel.condition checks the cond once per window, before the step loop.
    model, cfg, pcfg = ConditioningCountingModel(SMALL_MODEL), SamplerConfig(steps=5), PredictorConfig(2, 2)
    z, cond = SeededRng(4).normal((21, 6)), np.zeros(length)
    run = {"sample_full": lambda: sample_full(model, z, cond, cfg),
           "sample_accelerated": lambda: sample_accelerated(model, z, cond, cfg, pcfg),
           "run_long": lambda: run_long(model, z, cond, plan_windows(21, 9, 5), cfg, pcfg)}
    message = f"cond of shape ({length},) incompatible with (4,): a shared cond holds cond_dim values"
    with pytest.raises(ValueError, match=re.escape(message)):
        run[sampler]()
    assert model.evals == 0 and len(model.conditioned) == 1


@pytest.mark.parametrize("sampler", sorted(SAMPLERS))
@pytest.mark.parametrize("frames,rows,window,overlap", [(21, 9, 9, 5), (5, 1, 3, 2)])
def test_cond_without_a_row_per_frame_rejected(sampler, frames, rows, window, overlap):
    # A 2-D cond holds one row per frame. A (9, 4) cond fits each 9-frame window of 21 frames,
    # so only the check against the plan's frames, before the first evaluation, catches it.
    model, cfg, pcfg = CountingModel(SMALL_MODEL), SamplerConfig(steps=5), PredictorConfig(2, 2)
    rng = SeededRng(4)
    z, cond = rng.normal((frames, 6)), rng.normal((rows, 4))
    run = {"sample_full": lambda: sample_full(model, z, cond, cfg),
           "sample_accelerated": lambda: sample_accelerated(model, z, cond, cfg, pcfg),
           "run_long": lambda: run_long(model, z, cond, plan_windows(frames, window, overlap), cfg, pcfg)}
    message = f"cond has {rows} rows, plan expects one per frame ({frames})"
    with pytest.raises(ValueError, match=re.escape(message)):
        run[sampler]()
    assert model.evals == 0


@pytest.mark.parametrize("sampler", sorted(SAMPLERS))
@pytest.mark.parametrize("shape", [(0, 6), ()])
def test_latent_without_frames_rejected(sampler, shape):
    # Rejected before any window plan is built, so the message names the latent, not the plan.
    with pytest.raises(ValueError, match=re.escape(f"z_T must have at least one frame, got shape {shape}")):
        SAMPLERS[sampler](np.zeros(shape), np.zeros(4), SamplerConfig(steps=5))


class NaNInjectingModel:
    """SMALL_MODEL, but the final layer of one frame is NaN at one (step, window).

    ``condition`` tags each window's conditioning with the window's index, in
    the order ``run_long`` conditions them; the step is read back from ``t``.
    """

    def __init__(self, steps, step, window, frame):
        self.steps, self.target = steps, (step, window, frame)
        self.windows, self.fired = 0, False

    def condition(self, cond, frames):
        self.windows += 1
        return self.windows - 1, SMALL_MODEL.condition(cond, frames)

    def eval(self, z, t, cond):
        window, conditioning = cond
        out = SMALL_MODEL.eval(z, t, conditioning)
        step, target_window, frame = self.target
        if (round((1.0 - t) * self.steps), window) == (step, target_window):
            out.per_layer[-1][frame] = np.nan
            self.fired = True
        return out


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_nan_evaluation_raises_or_is_overwritten(data):
    # window < 2 * overlap is drawn too: a window's blended head and raw tail then share frames.
    window = data.draw(st.integers(3, 9), label="window")
    overlap = data.draw(st.integers(2, window - 1), label="overlap")
    total = data.draw(st.integers(window, 16), label="total")
    plan = plan_windows(total, window, overlap if window < total else 0)
    steps = data.draw(st.integers(1, 6), label="steps")
    pcfg = data.draw(st.sampled_from([None, PredictorConfig(1, 0), PredictorConfig(2, 1),
                                      PredictorConfig(3, 2, dynamics_enabled=False)]), label="pcfg")
    wi = data.draw(st.integers(0, len(plan.spans) - 1), label="window index")
    s, e = plan.spans[wi]
    step, frame = data.draw(st.integers(0, steps - 1), label="step"), data.draw(st.integers(0, e - s - 1))
    model = NaNInjectingModel(steps, step, wi, frame)
    rng = SeededRng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    z, cond = rng.normal((total, 6)), rng.normal((total, 4))
    # The NaN reaches the step's latent unless a later window overwrites its frame: at step 0,
    # where nothing is blended, the next window does; after it, the window after next does, with a
    # blend of the next window's raw tail. A predictor may carry an overwritten NaN on.
    later = wi + (1 if step == 0 else 2)
    survives = later >= len(plan.spans) or s + frame < plan.spans[later][0]
    try:  # under pytest's error::RuntimeWarning filter: the NaN must surface as the ValueError alone
        trajectory, _ = run_long(model, z, cond, plan, SamplerConfig(steps=steps), pcfg)
    except ValueError as exc:
        bad = re.fullmatch(r"trajectory latent (\d+) is not finite: .*", str(exc))
        assert bad and model.fired and int(bad.group(1)) > step
    else:
        assert all(np.isfinite(latent).all() for latent in trajectory)
        assert not (model.fired and survives)


class ScaledModel:
    """SMALL_MODEL's final layer times ``scale``, with the sign flipped at every other anchor."""

    def __init__(self, scale, steps, spacing):
        self.scale, self.steps, self.spacing = scale, steps, spacing

    def eval(self, z, t, cond):
        out = SMALL_MODEL.eval(z, t, cond)
        anchor = round((1.0 - t) * self.steps) // self.spacing
        out.per_layer[-1] *= self.scale * (-1.0) ** anchor
        return out


@pytest.mark.parametrize("sampler", ["sample_full", "sample_accelerated"])
def test_nan_model_raises(sampler):
    z, cond, cfg = SeededRng(5).normal((4, 6)), SeededRng(6).normal(4), SamplerConfig(steps=6)
    model = ScaledModel(np.nan, cfg.steps, 2)
    run = {"sample_full": lambda: sample_full(model, z, cond, cfg),
           "sample_accelerated": lambda: sample_accelerated(model, z, cond, cfg, PredictorConfig(2, 1))}
    message = "trajectory latent 1 is not finite"
    with pytest.raises(ValueError, match=re.escape(message)):  # and no RuntimeWarning, which pytest makes an error
        run[sampler]()


def test_overflowing_extrapolation_raises():
    # Outputs near 1e307 of alternating sign: the order-3 difference is about 8x that, so a term
    # diff_i * (-k)^i of the prediction overflows to inf, which no Euler step rejects.
    z, cond, cfg = SeededRng(5).normal((4, 6)), SeededRng(6).normal(4), SamplerConfig(steps=20)
    model = ScaledModel(1e307, cfg.steps, 5)
    oracle, _ = sample_full(model, z, cond, cfg)
    assert np.isfinite(oracle[-1]).all()
    with pytest.raises(ValueError, match="not finite"):  # and no RuntimeWarning, which pytest makes an error
        sample_accelerated(model, z, cond, cfg, PredictorConfig(5, 3, dynamics_enabled=False))


class ConstantVelocityModel:
    """Returns the same finite velocity at every step, so only an Euler step can overflow.

    Given ``frames``, the velocity has that many frames whatever the latent's.
    """

    def __init__(self, velocity, frames=None):
        self.velocity, self.frames = velocity, frames

    def eval(self, z, t, cond):
        shape = z.shape if self.frames is None else (self.frames, *z.shape[1:])
        return LayerOutputs([np.full(shape, self.velocity)], shape)


@pytest.mark.parametrize("pcfg", [None, PredictorConfig(2, 1)], ids=["oracle", "accelerated"])
def test_overflowing_euler_step_raises(pcfg):
    # z rises by 0.25e308 a step from 1e308: latent 3 is 1.75e308, latent 4 overflows float64. Step 3
    # is a predicted one on the accelerated path. The loop's Euler kernel lets the overflow become inf,
    # and the final check reports it, with no RuntimeWarning (pytest makes one an error) on the way.
    z, cfg = np.full((3, 2), 1e308), SamplerConfig(steps=4)
    with pytest.raises(ValueError, match=re.escape("trajectory latent 4 is not finite: an evaluation, "
                                                   "an extrapolation or an Euler step gave NaN or inf")):
        run_long(ConstantVelocityModel(-1e308), z, np.zeros(4), plan_windows(3, 3, 0), cfg, pcfg)


@pytest.mark.parametrize("fusion", ["pure-norm", "centralization", "ours"])
@pytest.mark.parametrize("pcfg", [None, PredictorConfig(2, 2)])
def test_cond_whose_moments_overflow_raises_in_condition(fusion, pcfg):
    # A finite cond of 1e308 gives finite streams whose moments overflow float64. A mode that takes
    # moments refuses it in condition, naming cond and the layer, before any evaluation and with no
    # RuntimeWarning (pytest turns one into an error); the portrait stream's are taken in every such mode.
    model = ConditioningCountingModel(build_model(0, fusion_mode=fusion))
    z, cond = SeededRng(3).normal((4, 64)), np.full(8, 1e308)
    message = r"^cond: layer 0's fusion fails: z_(img|p): its moments overflow float64$"
    with pytest.raises(ValueError, match=message):
        run_long(model, z, cond, plan_windows(4, 4, 0), SamplerConfig(steps=5), pcfg)
    assert model.conditioned == [4] and model.evals == 0


def test_cond_whose_moments_overflow_runs_without_moments():
    # baseline-add takes no moments: the same cond saturates the tanh layers and the run stays finite.
    z, cond = SeededRng(3).normal((4, 64)), np.full(8, 1e308)
    trajectory, _ = sample_full(build_model(0, fusion_mode="baseline-add"), z, cond, SamplerConfig(steps=5))
    assert np.isfinite(trajectory[-1]).all()


def test_skipping_error_is_below_the_oracles_own():
    # The converged flow is Richardson's 2 f_3200 - f_1600 (Euler's error is first order in dt). At the
    # default config with dynamics off, the accelerated final strays from the T=50 oracle's less than
    # that oracle strays from the flow.
    base = ExperimentConfig(dynamics_enabled=False)
    for seed in range(5):
        model = build_model(seed, base.layers, base.width, latent_dim=int(np.prod(base.frame_shape)),
                            cond_dim=base.cond_dim, fusion_mode=base.fusion)
        inputs = SeededRng(seed + 1)  # run_experiment's inputs for this seed
        z, cond = inputs.normal((base.frames, *base.frame_shape)), inputs.normal((base.frames, base.cond_dim))
        final = {steps: run_long(model, z, cond, base.plan, SamplerConfig(steps))[0][-1] for steps in (1600, 3200)}
        converged = 2 * final[3200] - final[1600]
        assert relative_l2(converged, final[3200]) < 1e-4
        oracle = run_long(model, z, cond, base.plan, base.sampler)[0][-1]
        accel = run_long(model, z, cond, base.plan, base.sampler, base.predictor)[0][-1]
        assert relative_l2(accel, oracle) < relative_l2(oracle, converged)
