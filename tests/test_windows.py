import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from latentskip import predictor
from latentskip.core import SeededRng
from latentskip.flow_model import SamplerConfig, build_model, euler_step
from latentskip.predictor import PredictorConfig
from latentskip.windows import (WindowPlan, blend_overlap, blend_weights, plan_windows, run_long,
                                sample_accelerated, sample_full)


def reference_euler(model, z_T, cond, cfg):
    """Plain oracle Euler loop, the reference the shared sampling loop is held to."""
    ts, trajectory = cfg.timesteps(), [np.array(z_T, dtype=np.float64)]
    for j in range(cfg.steps):
        v = model.eval(trajectory[-1], float(ts[j]), cond).final
        trajectory.append(euler_step(trajectory[-1], v, float(ts[j] - ts[j + 1])))
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
            with pytest.raises(ValueError, match="overlap must be >= 2"):
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


class CountingModel:
    """Passes evaluations through to a model and counts them."""

    def __init__(self, model):
        self.model, self.evals = model, 0

    def eval(self, z, t, cond):
        self.evals += 1
        return self.model.eval(z, t, cond)


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
