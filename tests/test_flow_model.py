import inspect

import numpy as np
import pytest

from latentskip import flow_model
from latentskip.core import SeededRng
from latentskip.flow_model import (LayerOutputs, MaskPair, SamplerConfig, build_model,
                                   euler_step, forward_diffuse, masked_recon_loss,
                                   sample_full, velocity_loss)


def small_model(seed=0, **kw):
    kw.setdefault("layer_count", 4)
    kw.setdefault("width", 8)
    kw.setdefault("latent_dim", 12)
    kw.setdefault("cond_dim", 4)
    return build_model(seed, **kw)


class TestToyModel:
    def test_build_deterministic(self):
        a, b = small_model(3), small_model(3)
        for wa, wb in zip(a.weights, b.weights):
            for key in wa:
                assert np.array_equal(wa[key], wb[key])

    def test_per_layer_output_count(self):
        m = small_model()
        out = m.eval(np.zeros(12), 0.5, np.zeros(4))
        assert len(out) == 4

    def test_fusion_hook_point(self, monkeypatch):
        # perfbench/tracer.py times fusion by wrapping flow_model.fuse_streams, so it
        # must stay a plain module-level function that eval looks up once per layer.
        original = inspect.getattr_static(flow_model, "fuse_streams")
        assert inspect.isfunction(original)
        calls = []

        def counting(*args):
            calls.append(args[2])
            return original(*args)

        monkeypatch.setattr(flow_model, "fuse_streams", counting)
        small_model(layer_count=5, fusion_mode="ours").eval(np.ones(12), 0.5, np.ones(4))
        assert calls == ["ours"] * 5

    def test_zero_weights_give_zero_outputs(self):
        m = small_model()
        for w in m.weights:
            for key in w:
                w[key][...] = 0.0
        out = m.eval(SeededRng(1).normal(12), 0.3, SeededRng(2).normal(4))
        for layer in out.per_layer:
            assert np.all(layer == 0.0)

    def test_eval_deterministic(self):
        m = small_model(5)
        z, cond = SeededRng(1).normal(12), SeededRng(2).normal(4)
        assert np.array_equal(m.eval(z, 0.7, cond).final, m.eval(z, 0.7, cond).final)

    def test_final_matches_input_shape(self):
        m = small_model()
        z = SeededRng(1).normal((3, 4))
        assert m.eval(z, 0.2, np.zeros(4)).final.shape == (3, 4)

    def test_framewise_eval(self):
        # a (frames, 12) latent is handled frame by frame
        m = small_model()
        z = SeededRng(1).normal((5, 12))
        out = m.eval(z, 0.4, np.zeros(4))
        assert out.final.shape == (5, 12)
        single = m.eval(z[2], 0.4, np.zeros(4))
        assert np.allclose(out.final[2], single.final)

    def test_invalid_dims_rejected(self):
        with pytest.raises(ValueError):
            build_model(0, layer_count=1)
        with pytest.raises(ValueError):
            build_model(0, width=1)


class TestForwardDiffuse:
    def test_endpoints(self):
        x0, x1 = SeededRng(1).normal(8), SeededRng(2).normal(8)
        assert np.array_equal(forward_diffuse(x0, x1, 0.0), x0)
        assert np.array_equal(forward_diffuse(x0, x1, 1.0), x1)

    def test_midpoint(self):
        x0, x1 = np.zeros(4), np.full(4, 2.0)
        assert np.array_equal(forward_diffuse(x0, x1, 0.5), np.ones(4))

    def test_t_out_of_range(self):
        with pytest.raises(ValueError):
            forward_diffuse(np.zeros(2), np.zeros(2), 1.5)

    def test_affine_in_t(self):
        x0, x1 = SeededRng(3).normal(16), SeededRng(4).normal(16)
        t1, t2, a = 0.2, 0.9, 0.37
        lhs = forward_diffuse(x0, x1, a * t1 + (1 - a) * t2)
        rhs = a * forward_diffuse(x0, x1, t1) + (1 - a) * forward_diffuse(x0, x1, t2)
        assert np.allclose(lhs, rhs, atol=1e-12)


class TestLosses:
    def test_velocity_loss_zero_at_truth(self):
        x0, x1 = SeededRng(1).normal(8), SeededRng(2).normal(8)
        assert velocity_loss(x1 - x0, x0, x1) == 0.0

    def test_velocity_loss_unit_error(self):
        x0 = np.zeros(6)
        assert velocity_loss(np.zeros(6), x0, np.ones(6)) == 1.0

    def test_velocity_loss_quadratic(self):
        x0, x1 = SeededRng(1).normal(8), SeededRng(2).normal(8)
        err = SeededRng(3).normal(8)
        l1 = velocity_loss((x1 - x0) + err, x0, x1)
        l2 = velocity_loss((x1 - x0) + 2 * err, x0, x1)
        assert l2 == pytest.approx(4 * l1)

    def test_velocity_loss_gradient_check(self):
        # finite differences vs analytic gradient 2*(pred - v)/N
        rng = SeededRng(9)
        pred, x0, x1 = rng.normal(10), rng.normal(10), rng.normal(10)
        analytic = 2 * (pred - (x1 - x0)) / pred.size
        h = 1e-6
        for idx in range(pred.size):
            bumped = pred.copy()
            bumped[idx] += h
            fd = (velocity_loss(bumped, x0, x1) - velocity_loss(pred, x0, x1)) / h
            assert fd == pytest.approx(analytic[idx], abs=1e-5)

    def test_masked_recon_zero_at_truth(self):
        z = SeededRng(1).normal(8)
        masks = MaskPair(np.ones(8), np.zeros(8))
        assert masked_recon_loss(z, z, masks) == 0.0

    def test_masked_recon_collapses_to_mse(self):
        z_gt, z_eps = SeededRng(1).normal(8), SeededRng(2).normal(8)
        masks = MaskPair(np.zeros(8), np.zeros(8))
        assert masked_recon_loss(z_gt, z_eps, masks) == pytest.approx(
            np.mean((z_gt - z_eps) ** 2), abs=1e-12)

    def test_masked_recon_worked_example(self):
        # unit diff, face mask on, lip mask off: ((1)*(1+1+0))^2 = 4
        z_gt, z_eps = np.ones(5), np.zeros(5)
        masks = MaskPair(np.ones(5), np.zeros(5))
        assert masked_recon_loss(z_gt, z_eps, masks) == 4.0

    def test_masked_recon_nonnegative(self):
        rng = SeededRng(3)
        masks = MaskPair(np.abs(rng.normal(8)) % 1.0, np.abs(rng.normal(8)) % 1.0)
        assert masked_recon_loss(rng.normal(8), rng.normal(8), masks) >= 0.0

    def test_mask_range_enforced(self):
        with pytest.raises(ValueError):
            MaskPair(np.array([1.5]), np.array([0.0]))

    @pytest.mark.parametrize("face, lip", [
        ([np.nan], [0.0]),
        ([0.5], [np.nan]),
        ([0.0, np.nan, 1.0], [0.5, 0.5, 0.5]),
        ([np.nan, np.nan], [np.nan, np.nan]),
    ])
    def test_mask_nan_rejected(self, face, lip):
        with pytest.raises(ValueError, match="mask elements"):
            MaskPair(np.array(face), np.array(lip))


class TestEulerAndSampler:
    def test_zero_velocity(self):
        z = SeededRng(1).normal(4)
        assert np.array_equal(euler_step(z, np.zeros(4), 0.5), z)

    def test_hand_example(self):
        assert euler_step(np.array([1.0]), np.array([1.0]), 0.5) == np.array([0.5])

    @pytest.mark.parametrize("dt", [0.0, -0.1, float("nan"), float("inf"), float("-inf")])
    def test_bad_dt_rejected(self, dt):
        with pytest.raises(ValueError, match="dt must be finite and positive"):
            euler_step(np.zeros(4), np.ones(4), dt)

    def test_step_composition_on_constant_field(self):
        z, v = SeededRng(1).normal(4), SeededRng(2).normal(4)
        two = euler_step(euler_step(z, v, 0.1), v, 0.1)
        one = euler_step(z, v, 0.2)
        assert np.allclose(two, one, atol=1e-12)

    def test_full_sampler_counts_and_length(self):
        m = small_model()
        cfg = SamplerConfig(steps=7)
        traj, evals = sample_full(m, SeededRng(1).normal(12), np.zeros(4), cfg)
        assert evals == 7 and len(traj) == 8

    def test_single_step_single_eval(self):
        m = small_model()
        traj, evals = sample_full(m, SeededRng(1).normal(12), np.zeros(4), SamplerConfig(steps=1))
        assert evals == 1

    def test_constant_field_is_affine_in_step(self):
        class Constant:
            def eval(self, z, t, cond):
                return LayerOutputs([np.ones(z.size)], z.shape)

        traj, _ = sample_full(Constant(), np.zeros(4), None, SamplerConfig(steps=10))
        zs = np.stack(traj)
        steps = np.arange(11).reshape(-1, 1)
        assert np.allclose(zs, -0.1 * steps * np.ones((1, 4)), atol=1e-12)

    def test_bitwise_reproducible(self):
        m = small_model(4)
        z, cond = SeededRng(1).normal(12), SeededRng(2).normal(4)
        t1, _ = sample_full(m, z, cond, SamplerConfig(steps=20))
        t2, _ = sample_full(m, z, cond, SamplerConfig(steps=20))
        assert all(np.array_equal(a, b) for a, b in zip(t1, t2))

    def test_schedule_validation(self):
        with pytest.raises(ValueError):
            SamplerConfig(steps=0)
