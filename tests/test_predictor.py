import math

import numpy as np
import pytest

import latentskip.predictor as pred_mod
from latentskip.core import SeededRng
from latentskip.flow_model import LayerOutputs, SamplerConfig, build_model, sample_full
from latentskip.predictor import (AnchorCache, DiffTable, PredictorConfig, SigmaHistory,
                                  difference_rows, finite_differences, is_anchor_step,
                                  layer_weight, predict, sample_accelerated, scale_s)


def scalar_outputs(value):
    return LayerOutputs([np.array([float(value)])], (1,))


def cache_from_scalar(fn, steps, spacing, capacity):
    """Push f(step) for each anchor step, newest last."""
    cache = AnchorCache(spacing, capacity)
    hist = SigmaHistory()
    for step in steps:
        cache.push(step, scalar_outputs(fn(step)), hist)
    return cache, hist


class TestAnchorCache:
    def test_first_anchor_records_no_sigma(self):
        cache = AnchorCache(5, 4)
        hist = SigmaHistory()
        cache.push(0, scalar_outputs(1.0), hist)
        assert len(cache) == 1 and hist.sigmas == []

    def test_capacity_evicts_oldest(self):
        cache, _ = cache_from_scalar(float, [0, 5, 10, 15, 20], spacing=5, capacity=4)
        assert len(cache) == 4
        assert [step for step, _ in cache.entries] == [5, 10, 15, 20]

    def test_sigma_from_final_outputs(self):
        cache = AnchorCache(5, 4)
        hist = SigmaHistory()
        cache.push(0, scalar_outputs(0.0), hist)
        cache.push(5, scalar_outputs(10.0), hist)
        assert hist.sigmas == [2.0]

    def test_spacing_violation(self):
        cache = AnchorCache(5, 4)
        cache.push(0, scalar_outputs(0.0))
        with pytest.raises(ValueError, match="anchor spacing violated"):
            cache.push(3, scalar_outputs(1.0))

    def test_direction_flip_rejected(self):
        cache = AnchorCache(5, 4)
        cache.push(10, scalar_outputs(0.0))
        cache.push(15, scalar_outputs(1.0))
        with pytest.raises(ValueError, match="anchor spacing violated"):
            cache.push(10, scalar_outputs(2.0))


class TestFiniteDifferences:
    def test_affine_signal(self):
        cache, _ = cache_from_scalar(lambda s: float(s), [15, 10, 5, 0], spacing=5, capacity=4)
        table = finite_differences(cache)
        diffs = [float(d[0]) for d in table.per_layer[0]]
        assert diffs[1] == 5.0 and diffs[2] == 0.0 and diffs[3] == 0.0

    def test_quadratic_signal(self):
        cache, _ = cache_from_scalar(lambda s: float(s) ** 2, [15, 10, 5, 0], spacing=5, capacity=4)
        diffs = [float(d[0]) for d in finite_differences(cache).per_layer[0]]
        assert diffs == [0.0, 25.0, 50.0, 0.0]

    def test_single_anchor_only_order_zero(self):
        cache, _ = cache_from_scalar(float, [0], spacing=5, capacity=4)
        table = finite_differences(cache)
        assert table.max_order == 0

    def test_sin_difference_derivative_consistency(self):
        # relative error of the i-th difference vs spacing^i * f^(i) halves with the spacing
        t = 0.7
        truth = {1: math.cos(t), 2: -math.sin(t)}
        for i in (1, 2):
            errs = []
            for spacing in (0.1, 0.05):
                vals = [math.sin(t + j * spacing) for j in range(i + 1)]
                delta = float(difference_rows(vals)[i])
                target = spacing ** i * truth[i]
                errs.append(abs(delta - target) / abs(target))
            ratio = errs[0] / errs[1]
            assert 1.6 <= ratio <= 2.4


class TestDynamics:
    def test_scale_neutral_when_sigma_equals_average(self):
        hist = SigmaHistory()
        hist.record(3.0)
        assert scale_s(hist, 1.5) == 1.0

    def test_scale_examples(self):
        hist = SigmaHistory()
        hist.record(0.0)
        hist.record(2.0)  # average 1.0, newest 2.0
        assert scale_s(hist, 1.5) == pytest.approx(2 ** 1.5)
        hist = SigmaHistory()
        hist.record(1.75)
        hist.record(0.25)  # average 1.0, newest 0.25
        assert scale_s(hist, 1.0) == pytest.approx(0.25)

    def test_scale_warmup_neutral(self):
        assert scale_s(SigmaHistory(), 1.5) == 1.0

    @pytest.mark.parametrize("sigmas", [[0.0], [0.0, 0.0], [2.0, 0.0]])
    def test_scale_neutral_on_degenerate_sigma(self, sigmas):
        hist = SigmaHistory()
        for sigma in sigmas:
            hist.record(sigma)
        assert scale_s(hist, 1.5) == 1.0

    def test_layer_weight_uniform(self):
        table = DiffTable([[np.array([3.0])], [np.array([3.0])], [np.array([-3.0])]])
        assert layer_weight(table, 0, 0) == pytest.approx(1.0)

    def test_layer_weight_examples(self):
        table = DiffTable([[np.array([4.0])], [np.zeros(1)], [np.zeros(1)], [np.zeros(1)]])
        assert layer_weight(table, 0, 0) == pytest.approx(0.5)
        table = DiffTable([[np.array([0.25])], [np.array([1.75])]])
        assert layer_weight(table, 0, 0) == pytest.approx(2.0)

    def test_layer_weight_missing_order(self):
        table = DiffTable([[np.array([1.0])]])
        with pytest.raises(ValueError):
            layer_weight(table, 0, 1)


class TestPredict:
    def test_affine_exact(self):
        cfg = PredictorConfig(anchor_spacing=5, max_order=1, dynamics_enabled=False)
        cache, hist = cache_from_scalar(lambda s: 3.0 * s + 1.0, [17, 12], spacing=5, capacity=2)
        out = predict(cache, finite_differences(cache), hist, 2, cfg)
        assert out.final[0] == pytest.approx(31.0, abs=1e-9)

    def test_quadratic_truncation_error(self):
        cfg = PredictorConfig(anchor_spacing=5, max_order=2, dynamics_enabled=False)
        cache, hist = cache_from_scalar(lambda s: float(s) ** 2, [22, 17, 12], spacing=5, capacity=3)
        out = predict(cache, finite_differences(cache), hist, 2, cfg)
        assert out.final[0] == pytest.approx(90.0, abs=1e-9)
        # documented truncation: predicted - true == -k*K
        assert out.final[0] - 100.0 == pytest.approx(-10.0, abs=1e-9)

    def test_zero_order_hold(self):
        cfg = PredictorConfig(anchor_spacing=5, max_order=3, dynamics_enabled=False)
        cache, hist = cache_from_scalar(lambda s: 42.0, [0], spacing=5, capacity=4)
        out = predict(cache, finite_differences(cache), hist, 3, cfg)
        assert out.final[0] == 42.0

    def test_affine_exact_all_k_multilayer(self):
        rng = SeededRng(8)
        slopes, offsets = rng.normal((3, 6)), rng.normal((3, 6))
        spacing = 5
        cfg = PredictorConfig(anchor_spacing=spacing, max_order=3, dynamics_enabled=False)
        cache = AnchorCache(spacing, 4)
        hist = SigmaHistory()
        for step in (15, 10, 5, 0):
            layers = [slopes[l] * step + offsets[l] for l in range(3)]
            cache.push(step, LayerOutputs(layers, (6,)), hist)
        table = finite_differences(cache)
        for k in range(1, spacing):
            out = predict(cache, table, hist, k, cfg)
            for l in range(3):
                expected = slopes[l] * (0 - k) + offsets[l]
                assert np.allclose(out.per_layer[l], expected, atol=1e-9)

    def test_k_out_of_range(self):
        cfg = PredictorConfig(anchor_spacing=5, max_order=1)
        cache, hist = cache_from_scalar(float, [5, 0], spacing=5, capacity=2)
        table = finite_differences(cache)
        with pytest.raises(ValueError):
            predict(cache, table, hist, 5, cfg)
        with pytest.raises(ValueError):
            predict(cache, table, hist, 0, cfg)

    def test_neutral_dynamics_bitwise_equivalence(self, monkeypatch):
        cache, hist = cache_from_scalar(lambda s: math.sin(0.1 * s), [15, 10, 5, 0],
                                        spacing=5, capacity=4)
        table = finite_differences(cache)
        off = predict(cache, table, hist, 2, PredictorConfig(5, 3, 1.5, False))
        monkeypatch.setattr(pred_mod, "scale_s", lambda h, a: 1.0)
        monkeypatch.setattr(pred_mod, "layer_weight", lambda t, l, i: 1.0)
        on = predict(cache, table, hist, 2, PredictorConfig(5, 3, 1.5, True))
        assert np.array_equal(off.per_layer[0], on.per_layer[0])

    def test_config_validation(self):
        with pytest.raises(ValueError):
            PredictorConfig(anchor_spacing=0)
        with pytest.raises(ValueError):
            PredictorConfig(max_order=-1)
        with pytest.raises(ValueError):
            PredictorConfig(alpha=2.0)


class TestAnchorSchedule:
    def test_every_spacing_steps(self):
        cfg = PredictorConfig(anchor_spacing=5)
        anchors = [j for j in range(50) if is_anchor_step(j, cfg)]
        assert anchors == list(range(0, 50, 5))

    def test_spacing_one_disables_acceleration(self):
        cfg = PredictorConfig(anchor_spacing=1)
        assert all(is_anchor_step(j, cfg) for j in range(10))

    @pytest.mark.parametrize("steps,spacing", [(50, 5), (50, 2), (50, 8), (7, 3), (1, 5)])
    def test_eval_count_law(self, steps, spacing):
        model = build_model(0, layer_count=3, width=8, latent_dim=12, cond_dim=4)
        z, cond = SeededRng(1).normal(12), SeededRng(2).normal(4)
        _, evals = sample_accelerated(model, z, cond, SamplerConfig(steps=steps),
                                      PredictorConfig(anchor_spacing=spacing))
        assert evals == math.ceil(steps / spacing)

    def test_spacing_one_matches_oracle_bitwise(self):
        model = build_model(0, layer_count=3, width=8, latent_dim=12, cond_dim=4)
        z, cond = SeededRng(1).normal(12), SeededRng(2).normal(4)
        cfg = SamplerConfig(steps=12)
        oracle, _ = sample_full(model, z, cond, cfg)
        accel, _ = sample_accelerated(model, z, cond, cfg, PredictorConfig(anchor_spacing=1))
        assert all(np.array_equal(a, b) for a, b in zip(oracle, accel))

    def test_stationary_field_stays_finite(self):
        # zero A and c: every layer ignores z and t, so every anchor sigma is 0
        model = build_model(0)
        for w in model.weights:
            w["A"][:] = 0.0
            w["c"][:] = 0.0
        rng = SeededRng(1)
        z, cond = rng.normal((8, 8)), rng.normal(8)
        cfg = SamplerConfig(steps=50)
        oracle, _ = sample_full(model, z, cond, cfg)
        accel, _ = sample_accelerated(model, z, cond, cfg, PredictorConfig(anchor_spacing=5, max_order=3))
        assert np.all(np.isfinite(accel[-1]))
        assert np.allclose(accel[-1], oracle[-1], rtol=0.0, atol=1e-12)

    def test_order_monotonicity_on_toy_suite(self):
        def mean_err(order):
            errs = []
            for seed in range(10):
                model = build_model(seed)
                rng = SeededRng(seed + 1)
                z, cond = rng.normal((8, 8)), rng.normal(8)
                cfg = SamplerConfig(steps=50)
                oracle, _ = sample_full(model, z, cond, cfg)
                accel, _ = sample_accelerated(model, z, cond, cfg, PredictorConfig(5, order))
                errs.append(np.linalg.norm(accel[-1] - oracle[-1]) / np.linalg.norm(oracle[-1]))
            return np.mean(errs)

        assert mean_err(3) <= mean_err(1)
