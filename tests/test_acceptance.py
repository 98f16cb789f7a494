"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
"""

import math
import time

import numpy as np
import pytest

from latentskip.cli import main
from latentskip.core import SeededRng, relative_l2, stats
from latentskip.flow_model import (LayerOutputs, MaskPair, SamplerConfig, build_model,
                                   masked_recon_loss, velocity_loss)
from latentskip.harness import ExperimentConfig, load_trajectory
from latentskip.norm_fusion import normalize_fuse
from latentskip.predictor import AnchorCache, PredictorConfig, SigmaHistory, finite_differences, predict
from latentskip.windows import (blend_overlap, blend_weights, plan_windows, run_long, sample_accelerated,
                                sample_full)

_T0 = time.perf_counter()


def announce(num, text):
    print(f"PASS criterion {num}: {text}")


@pytest.fixture(scope="module")
def toy_runs():
    """Oracle + accelerated runs on 10 seeded toy models (M=4, width=32, 8x8, T=50)."""
    results = {}
    cfg = SamplerConfig(steps=50)
    for seed in range(10):
        model = build_model(seed, layer_count=4, width=32, latent_dim=64, cond_dim=8)
        rng = SeededRng(seed + 1)
        z, cond = rng.normal((1, 8, 8)), rng.normal(8)
        oracle, _ = sample_full(model, z, cond, cfg)
        runs = {}
        for spacing, order in [(5, 1), (5, 2), (5, 3), (2, 3), (8, 3)]:
            accel, evals = sample_accelerated(model, z, cond, cfg, PredictorConfig(spacing, order))
            runs[(spacing, order)] = (relative_l2(accel[-1], oracle[-1]), evals)
        results[seed] = runs
    return results


def test_criterion_1_eval_count_speedup(toy_runs):
    for seed in range(10):
        err, evals = toy_runs[seed][(5, 3)]
        assert evals == 10 == math.ceil(50 / 5)
    announce(1, "T=50, K=5, n=3 performs exactly 10 full evaluations (5.0x reduction)")


def test_criterion_2_default_config_accuracy(toy_runs):
    mean_err = np.mean([toy_runs[s][(5, 3)][0] for s in range(10)])
    assert mean_err <= 5e-2
    announce(2, f"mean rel_err_final vs oracle over 10 seeds = {mean_err:.2e} <= 5e-2")


def test_criterion_3_quality_speed_tradeoff(toy_runs):
    by_order = [np.mean([toy_runs[s][(5, n)][0] for s in range(10)]) for n in (1, 2, 3)]
    assert by_order[0] >= by_order[1] >= by_order[2]
    by_spacing = [np.mean([toy_runs[s][(k, 3)][0] for s in range(10)]) for k in (2, 5, 8)]
    assert by_spacing[0] <= by_spacing[1] <= by_spacing[2]
    evals = [toy_runs[0][(k, 3)][1] for k in (2, 5, 8)]
    assert evals == [25, 10, 7]
    announce(3, "error monotone in n (non-increasing) and K (non-decreasing); evals 25/10/7")


class GrowingRippleVelocity:
    """Synthetic non-stationary field: amplitude ripple whose envelope grows
    as denoising proceeds (t: 1 -> 0), so the variation rate at recent
    anchors keeps exceeding the running average."""

    def __init__(self, seed, amp=1.5, freq=40.0, power=2.0, layers=3, dim=64):
        rng = SeededRng(seed)
        self.proj = [rng.normal((dim, dim)) / np.sqrt(dim) for _ in range(layers)]
        self.gain = [2.0, 1.0, 0.3][:layers]
        self.amp, self.freq, self.power = amp, freq, power

    def eval(self, z, t, cond):
        a = 1.0 + self.amp * (1.0 - t) ** self.power * np.sin(self.freq * t)
        h = z.reshape(-1)
        outs = []
        for g, w in zip(self.gain, self.proj):
            h = a * g * np.tanh(w @ h)
            outs.append(h)
        return LayerOutputs(outs, z.shape)


def test_criterion_4_dynamics_help_on_nonstationary_field():
    cfg = SamplerConfig(steps=50)
    errs = {True: [], False: []}
    for seed in range(12):
        model = GrowingRippleVelocity(seed)
        z = SeededRng(seed + 100).normal((8, 8))
        oracle, _ = sample_full(model, z, None, cfg)
        for dynamics in (True, False):
            accel, _ = sample_accelerated(model, z, None, cfg,
                                          PredictorConfig(5, 3, 1.5, dynamics))
            errs[dynamics].append(relative_l2(accel[-1], oracle[-1]))
    on, off = np.mean(errs[True]), np.mean(errs[False])
    assert off >= 1.2 * on
    announce(4, f"disabling dynamics degrades error {off / on:.2f}x (>= 1.2x) over 12 seeds")


def test_criterion_5_difference_order():
    t = 0.7
    truth = {1: math.cos(t), 2: -math.sin(t)}
    for i in (1, 2):
        errs = []
        for spacing in (0.1, 0.05):
            # sin(t + (i - j) * spacing) anchored at step j, newest (j = i, at t) last
            cache = AnchorCache(1, i + 1)
            for j in range(i + 1):
                cache.push(j, LayerOutputs([np.array([math.sin(t + (i - j) * spacing)])], (1,)))
            delta = float(finite_differences(cache).per_layer[0][i][0])
            target = spacing ** i * truth[i]
            errs.append(abs(delta - target) / abs(target))
        ratio = errs[0] / errs[1]
        assert 1.6 <= ratio <= 2.4
    announce(5, "halving the spacing shrinks difference/derivative error ~2x for orders 1 and 2")


def test_criterion_6_exactness():
    spacing = 5
    rng = SeededRng(8)
    slopes, offsets = rng.normal((4, 6)), rng.normal((4, 6))
    for order in (1, 2, 3):
        cache = AnchorCache(spacing, order + 1)
        hist = SigmaHistory()
        for step in range(0, order * spacing + 1, spacing):
            layers = [slopes[l] * step + offsets[l] for l in range(4)]
            cache.push(step, LayerOutputs(layers, (6,)), hist)
        table = finite_differences(cache)
        pcfg = PredictorConfig(spacing, order, dynamics_enabled=False)
        for k in range(1, spacing):
            out = predict(cache, table, hist, k, pcfg)
            for l in range(4):
                assert np.allclose(out.per_layer[l], slopes[l] * (order * spacing + k) + offsets[l], atol=1e-9)

    cache = AnchorCache(5, 3)
    hist = SigmaHistory()
    for step in (12, 17, 22):
        cache.push(step, LayerOutputs([np.array([float(step) ** 2])], (1,)), hist)
    out = predict(cache, finite_differences(cache), hist, 2,
                  PredictorConfig(5, 2, dynamics_enabled=False))
    assert abs((out.final[0] - 576.0) - (-10.0)) <= 1e-9
    announce(6, "affine trajectories exact for all k and n>=1; quadratic error equals -k*K")


def test_criterion_7_window_correctness():
    plan = plan_windows(21, 9, 5)
    assert plan.spans == ((0, 9), (4, 13), (8, 17), (12, 21))

    prev, cur = SeededRng(1).normal((5, 4)), SeededRng(2).normal((5, 4))
    blended = blend_overlap(prev, cur, blend_weights(5))
    assert np.array_equal(blended[0], prev[0])
    assert np.array_equal(blended[-1], cur[-1])

    model = build_model(0, layer_count=3, width=8, latent_dim=6, cond_dim=4)
    rng = SeededRng(1)
    z, cond = rng.normal((21, 6)), rng.normal((21, 4))
    cfg = SamplerConfig(steps=10)
    long_traj, _ = run_long(model, z, cond, plan_windows(21, 21, 5), cfg)
    oracle, _ = sample_full(model, z, cond, cfg)
    assert all(np.array_equal(a, b) for a, b in zip(long_traj, oracle))
    announce(7, "plan trace, bit-exact blend endpoints, and single-window degeneration hold")


def test_criterion_8_normalization():
    z_img = SeededRng(1).normal(256) * 4 - 2
    z_p = SeededRng(2).normal(256) * 0.1 + 9
    aligned = normalize_fuse(z_img, z_p) - z_img
    si, sa = stats(z_img), stats(aligned)
    assert abs(si.mean - sa.mean) < 1e-9 and abs(si.std - sa.std) < 1e-9

    rng = SeededRng(7)
    for _ in range(100):
        z_img, z_p = rng.normal(32), rng.normal(32)
        a = abs(rng.normal(1)[0]) + 0.1
        b = rng.normal(1)[0] * 5
        assert np.allclose(normalize_fuse(z_img, z_p),
                           normalize_fuse(z_img, a * z_p + b), atol=1e-9)
    announce(8, "aligned stream matches image stats within 1e-9; affine invariance on 100 inputs")


def test_criterion_9_losses():
    z = SeededRng(1).normal(8)
    assert masked_recon_loss(z, z, MaskPair(np.ones(8), np.zeros(8))) == 0.0
    z_gt, z_eps = SeededRng(1).normal(8), SeededRng(2).normal(8)
    assert masked_recon_loss(z_gt, z_eps, MaskPair(np.zeros(8), np.zeros(8))) == pytest.approx(
        np.mean((z_gt - z_eps) ** 2), abs=1e-12)
    assert masked_recon_loss(np.ones(5), np.zeros(5), MaskPair(np.ones(5), np.zeros(5))) == 4.0

    rng = SeededRng(9)
    pred, x0, x1 = rng.normal(10), rng.normal(10), rng.normal(10)
    analytic = 2 * (pred - (x1 - x0)) / pred.size
    h = 1e-6
    for idx in range(pred.size):
        bumped = pred.copy()
        bumped[idx] += h
        fd = (velocity_loss(bumped, x0, x1) - velocity_loss(pred, x0, x1)) / h
        assert fd == pytest.approx(analytic[idx], abs=1e-5)
    announce(9, "masked loss worked examples (0 / MSE / 4) and velocity gradient check pass")


def test_criterion_10_cli_determinism(tmp_path):
    args = ["sample", "-T", "20", "-L", "8", "--window", "8", "-K", "5", "--seed", "11"]
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    assert main(args + ["--out", str(p1)]) == 0
    assert main(args + ["--out", str(p2)]) == 0
    assert p1.read_bytes() == p2.read_bytes()

    traj = load_trajectory(p1)
    round_trip = tmp_path / "c.json"
    from latentskip.harness import dump_trajectory
    dump_trajectory(traj, round_trip)
    for a, b in zip(traj, load_trajectory(round_trip)):
        assert np.array_equal(a, b)
    announce(10, "fixed-seed CLI runs are bitwise identical; trajectory dump round-trips bitwise")


def test_criterion_11_beats_equal_evaluation_baseline():
    # The accelerated path makes ceil(T/K) evaluations; the oracle run at that many steps is the
    # cheapest sampler with the same budget. Extrapolation must track the T-step oracle better than it.
    # Order 0 holds the anchor's velocity for K steps, which is exactly that sampler when K divides T.
    base = ExperimentConfig()
    errs = {}
    for seed in range(5):
        model = build_model(seed, base.layers, base.width, latent_dim=int(np.prod(base.frame_shape)),
                            cond_dim=base.cond_dim, fusion_mode=base.fusion)
        inputs = SeededRng(seed + 1)  # run_experiment's inputs for this seed
        z, cond = inputs.normal((base.frames, *base.frame_shape)), inputs.normal((base.frames, base.cond_dim))
        oracle, _ = run_long(model, z, cond, base.plan, base.sampler)
        for spacing, order in [(5, 3), (10, 3), (16, 3), (25, 2)]:
            accel, _ = run_long(model, z, cond, base.plan, base.sampler, PredictorConfig(spacing, order, base.alpha))
            fewer, _ = run_long(model, z, cond, base.plan, SamplerConfig(math.ceil(base.steps / spacing)))
            errs.setdefault(spacing, []).append((relative_l2(accel[-1], oracle[-1]),
                                                 relative_l2(fewer[-1], oracle[-1])))
        for spacing in (2, 5, 10, 25):
            held, _ = run_long(model, z, cond, base.plan, base.sampler,
                               PredictorConfig(spacing, 0, dynamics_enabled=False))
            fewer, _ = run_long(model, z, cond, base.plan, SamplerConfig(base.steps // spacing))
            assert len(held[::spacing]) == len(fewer)
            assert all(np.max(np.abs(a - b)) <= 1e-12 for a, b in zip(held[::spacing], fewer))
    margins = {k: np.mean([f for _, f in e]) / np.mean([a for a, _ in e]) for k, e in errs.items()}
    assert margins[5] >= 2 and margins[10] >= 2 and margins[16] >= 2 and margins[25] > 1
    announce(11, "extrapolation beats the oracle at ceil(T/K) steps by "
             + ", ".join(f"{m:.2f}x (K={k})" for k, m in margins.items())
             + "; order 0 matches it at every anchor within 1e-12")


def test_criterion_1_runtime_budget():
    elapsed = time.perf_counter() - _T0
    assert elapsed < 60.0
    announce(1, f"acceptance suite ran in {elapsed:.1f}s (< 60s budget)")
