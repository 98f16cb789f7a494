import dataclasses
import inspect
import math
import re
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

import latentskip.predictor as pred_mod
from latentskip.core import EPS, SeededRng
from latentskip.flow_model import LayerOutputs, SamplerConfig, build_model, stack_layers
from latentskip.predictor import (AnchorCache, DiffTable, PredictorConfig, PredictorState,
                                  SigmaHistory, finite_differences, is_anchor_step, layer_weight,
                                  predict, scale_s)
from latentskip.windows import sample_accelerated, sample_full


def difference_rows(values: list) -> list:
    """Iterated forward differences of a newest-first value sequence, built from scratch.

    Returns [d0, d1, ..., dm] where d0 is the newest value and
    d_i = d_{i-1}(one step older) - d_{i-1}(newest). The cache's Newton table must equal it bitwise.
    """
    rows = [np.asarray(v, dtype=np.float64) for v in values]
    out = [rows[0]]
    while len(rows) > 1:
        rows = [rows[j + 1] - rows[j] for j in range(len(rows) - 1)]
        out.append(rows[0])
    return out


def layer_table(per_layer: list) -> DiffTable:
    """The DiffTable whose layer l holds the rows per_layer[l], its hidden layers stacked per order."""
    hidden = [stack_layers([rows[i] for rows in per_layer[:-1]]) for i in range(len(per_layer[-1]))]
    return DiffTable(hidden, list(per_layer[-1]))


def reference_layer_weight(table, layer, order):
    """The weight formula evaluated afresh at every query; layer_weight must equal it bitwise."""
    if order > table.max_order:
        raise ValueError(f"order {order} not present in difference table")
    mags = [float(np.mean(np.abs(diffs[order]))) for diffs in table.per_layer]
    r = mags[layer] / max(float(np.mean(mags)), EPS)
    return 1.0 / math.sqrt(max(r, EPS))


class AbsCounting(np.ndarray):
    """An array that counts the np.abs calls made on it."""

    abs_calls = 0

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        if ufunc is np.absolute:
            self.abs_calls += 1
        plain = [x.view(np.ndarray) if isinstance(x, AbsCounting) else x for x in inputs]
        return getattr(ufunc, method)(*plain, **kwargs)


class UfuncCounting(np.ndarray):
    """An array whose ufunc results are UfuncCounting arrays too; ``calls`` counts the ufunc calls on them.

    A call with ``out`` writes into the given arrays and returns them, as NumPy's own does.
    """

    calls = 0

    def __array_ufunc__(self, ufunc, method, *inputs, out=None, **kwargs):
        UfuncCounting.calls += 1
        plain = [x.view(np.ndarray) if isinstance(x, UfuncCounting) else x for x in inputs]
        if out is not None:
            kwargs["out"] = tuple(x.view(np.ndarray) if isinstance(x, UfuncCounting) else x for x in out)
        result = getattr(ufunc, method)(*plain, **kwargs)
        if out is not None:
            return out[0] if len(out) == 1 else out
        return result.view(UfuncCounting) if isinstance(result, np.ndarray) else result


@st.composite
def diff_tables(draw):
    """1-6 layers of orders 0..max_order (max_order 0-3); the final layer has its own width.

    An order's differences may be all zero at some layers or at every layer, so both
    EPS guards of the weight (on the cross-layer mean and on the ratio) are reached.
    """
    layers = draw(st.integers(1, 6))
    max_order = draw(st.integers(0, 3))
    hidden, final = draw(st.lists(st.integers(1, 5), min_size=2, max_size=2, unique=True))
    values = st.floats(-1e6, 1e6, allow_nan=False)
    zero_orders = draw(st.sets(st.integers(0, max_order)))
    per_layer = []
    for l in range(layers):
        width = final if l == layers - 1 else hidden
        per_layer.append([np.zeros(width) if i in zero_orders or draw(st.booleans())
                          else draw(arrays(np.float64, width, elements=values))
                          for i in range(max_order + 1)])
    return layer_table(per_layer)


def reference_predict(cache, table, hist, k, cfg):
    """Every layer extrapolated eagerly, as one loop; predict's layers must equal it bitwise."""
    m = min(cfg.max_order, len(cache) - 1)
    use_dynamics = cfg.dynamics_enabled and len(cache) >= cfg.max_order + 1 and bool(hist.sigmas)
    s = scale_s(hist, cfg.alpha) if use_dynamics else 1.0
    layers = []
    for l, diffs in enumerate(table.per_layer):
        acc = diffs[0].copy()
        for i in range(1, m + 1):
            w = reference_layer_weight(table, l, i) if use_dynamics else 1.0
            acc += diffs[i] * (-k) ** i / (math.factorial(i) * cfg.anchor_spacing ** i * w * s)
        layers.append(acc)
    return layers


class ListModel:
    """Stands in for a model: eval returns the given LayerOutputs one after another."""

    def __init__(self, outputs):
        self.outputs = iter(outputs)

    def eval(self, z, t, cond):
        return next(self.outputs)


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
        cache, _ = cache_from_scalar(lambda s: float(s) ** 2, [0, 5, 10, 15, 20], spacing=5, capacity=4)
        assert len(cache) == 4 and cache.newest_step == 20
        # the differences of 400, 225, 100, 25: the evicted anchor at step 0 would add order 4
        assert [float(d[0]) for d in finite_differences(cache).per_layer[0]] == [400.0, -175.0, 50.0, 0.0]

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_sigma_from_final_outputs(self, data):
        cache = AnchorCache(5, 4)
        hist = SigmaHistory()
        cache.push(0, scalar_outputs(0.0), hist)
        cache.push(5, scalar_outputs(10.0), hist)
        assert hist.sigmas == [2.0]
        # Any final layer, C- or F-ordered or a strided view, at every capacity (1 keeps no order-1
        # row): sigma is bitwise np.linalg.norm(old - new) / K, also where the squares overflow to inf.
        rows, cols = data.draw(st.integers(1, 8)), data.draw(st.integers(1, 8))
        scale = data.draw(st.sampled_from([1.0, 1e150, 1e300]))  # squares overflow from about 1.3e154
        layout = data.draw(st.sampled_from(["C", "F", "strided"]))
        rng = SeededRng(data.draw(st.integers(0, 2**32)))  # generic values: summation order shows

        def final_row():
            a = rng.normal((2 * rows, 3 * cols)) * scale
            if layout == "strided":
                return a[::2, ::3]
            return (np.ascontiguousarray if layout == "C" else np.asfortranarray)(a[:rows, :cols])

        old, new = final_row(), final_row()
        spacing = data.draw(st.integers(1, 7))
        cache, hist = AnchorCache(spacing, data.draw(st.sampled_from([1, 2, 4]))), SigmaHistory()
        with np.errstate(over="ignore"):  # dot warns on the overflow, inside np.linalg.norm too
            cache.push(0, LayerOutputs([old], old.shape), hist)
            cache.push(spacing, LayerOutputs([new], new.shape), hist)
            assert hist.sigmas[-1].hex() == (float(np.linalg.norm(old - new)) / spacing).hex()

    def test_spacing_violation(self):
        cache = AnchorCache(5, 4)
        cache.push(0, scalar_outputs(0.0))
        with pytest.raises(ValueError, match="anchor spacing violated"):
            cache.push(3, scalar_outputs(1.0))
        # Anchors ascend: a push spaced K apart but backwards is rejected too.
        cache = AnchorCache(5, 4)
        cache.push(10, scalar_outputs(0.0))
        with pytest.raises(ValueError, match="anchor spacing violated"):
            cache.push(5, scalar_outputs(1.0))

    @pytest.mark.parametrize("capacity", [1, 4])
    def test_direction_flip_rejected(self, capacity):
        # The newest step is kept at every capacity, so a cache of one anchor (max_order 0)
        # rejects the flip too.
        cache = AnchorCache(5, capacity)
        cache.push(10, scalar_outputs(0.0))
        cache.push(15, scalar_outputs(1.0))
        with pytest.raises(ValueError, match="anchor spacing violated"):
            cache.push(10, scalar_outputs(2.0))

    @pytest.mark.parametrize("capacity", [1, 4])
    def test_mismatched_layers_rejected(self, capacity):
        # Unchecked, a (1, 3) hidden layer would broadcast against a cached (4, 3) one, and a missing
        # layer would shift the final layer into the hidden ones.
        rng = SeededRng(6)

        def outputs(*shapes):
            return LayerOutputs([rng.normal(shape) for shape in shapes], shapes[-1])

        cache = AnchorCache(5, capacity)
        cache.push(0, outputs((4, 3), (4, 3), (4, 2)))
        cases = [(((1, 3), (1, 3), (4, 2)), "anchor's layer 0 has shape (1, 3), the cached anchors' has (4, 3)"),
                 (((4, 3), (4, 3), (1, 2)), "anchor's layer 2 has shape (1, 2), the cached anchors' has (4, 2)"),
                 (((4, 3), (4, 2)), "anchor has 2 layers, the cached anchors have 3"),
                 (((4, 3), (4, 3), (4, 3), (4, 2)), "anchor has 4 layers, the cached anchors have 3")]
        for shapes, message in cases:
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                cache.push(5, outputs(*shapes), SigmaHistory())
            assert len(cache) == 1 and cache.newest_step == 0
        cache.push(5, outputs((4, 3), (4, 3), (4, 2)))
        assert len(cache) == min(2, capacity)


class TestFiniteDifferences:
    def test_affine_signal(self):
        cache, _ = cache_from_scalar(lambda s: 15.0 - s, [0, 5, 10, 15], spacing=5, capacity=4)
        table = finite_differences(cache)
        diffs = [float(d[0]) for d in table.per_layer[0]]
        assert diffs[1] == 5.0 and diffs[2] == 0.0 and diffs[3] == 0.0

    def test_quadratic_signal(self):
        cache, _ = cache_from_scalar(lambda s: (15.0 - s) ** 2, [0, 5, 10, 15], spacing=5, capacity=4)
        diffs = [float(d[0]) for d in finite_differences(cache).per_layer[0]]
        assert diffs == [0.0, 25.0, 50.0, 0.0]

    def test_single_anchor_only_order_zero(self):
        cache, _ = cache_from_scalar(float, [0], spacing=5, capacity=4)
        table = finite_differences(cache)
        assert table.max_order == 0

    def test_empty_cache_rejected(self):
        with pytest.raises(ValueError, match="empty anchor cache"):
            finite_differences(AnchorCache(5, 4))

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_newton_table_matches_from_scratch_differences_bitwise(self, data):
        capacity, pushes = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 8))
        layers = data.draw(st.integers(1, 4))
        hidden, final = data.draw(st.lists(st.integers(1, 4), min_size=2, max_size=2, unique=True))
        spacing = data.draw(st.integers(1, 5))
        values = st.floats(-1e6, 1e6, allow_nan=False)
        cache, hist, history, tables = AnchorCache(spacing, capacity), SigmaHistory(), [], []
        for p in range(pushes):
            history.insert(0, LayerOutputs([data.draw(arrays(np.float64, final if l == layers - 1 else hidden,
                                                             elements=values)) for l in range(layers)], (final,)))
            cache.push(p * spacing, history[0], hist)
            assert len(cache) == min(p + 1, capacity) and cache.shape == (final,)
            # sigma is the norm of the final layer's order-1 row (old - new; at capacity 1, new - old
            # itself), bitwise equal to the norm of the anchors' outputs' difference
            assert hist.sigmas == [float(np.linalg.norm(new.final - old.final)) / spacing
                                   for new, old in zip(history[-2::-1], history[::-1])]
            expected = [difference_rows([outputs.per_layer[l] for outputs in history[:capacity]])
                        for l in range(layers)]
            tables.append((finite_differences(cache), expected))
            # every table taken so far still holds its own anchors' differences
            for table, want in tables:
                assert [len(rows) for rows in table.per_layer] == [len(rows) for rows in want]
                assert all(np.array_equal(got, ref) for rows, refs in zip(table.per_layer, want)
                           for got, ref in zip(rows, refs))


    @pytest.mark.parametrize("as_list", [False, True], ids=["eval-stack", "plain-list"])
    def test_deep_shape_rows_and_weights_bitwise(self, as_list):
        # deep_single's model: 15 hidden layers of 16 frames x 128 = 2048 values, above NumPy's
        # 128-element pairwise-summation block, a size no golden shape reaches. The stacked rows, and
        # each order's one reduction over the stack, must equal the per-layer formulas bit for bit,
        # from eval's stack and from the same values given as a plain list.
        model = build_model(0, 16, 128, fusion_mode="ours")
        rng = SeededRng(7)
        z, cond = rng.normal((16, 64)), rng.normal((16, 8))
        cache, history = AnchorCache(5, 4), []
        for p, t in enumerate((1.0, 0.9, 0.8, 0.7, 0.6)):
            out = model.eval(z * t, t, cond)
            if as_list:
                out = LayerOutputs(list(out.per_layer), out.shape)
            history.insert(0, out.per_layer)
            cache.push(5 * p, out)
            table = finite_differences(cache)
            expected = [difference_rows([layers[l] for layers in history[:4]]) for l in range(16)]
            assert all(np.array_equal(got, ref) for rows, refs in zip(table.per_layer, expected)
                       for got, ref in zip(rows, refs))
            reference = SimpleNamespace(per_layer=expected, max_order=len(expected[0]) - 1)
            assert table.max_order == reference.max_order == min(p, 3)
            for l in range(16):
                for i in range(table.max_order + 1):
                    assert layer_weight(table, l, i).hex() == reference_layer_weight(reference, l, i).hex()


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
        table = layer_table([[np.array([3.0])], [np.array([3.0])], [np.array([-3.0])]])
        assert layer_weight(table, 0, 0) == pytest.approx(1.0)

    def test_layer_weight_examples(self):
        table = layer_table([[np.array([4.0])], [np.zeros(1)], [np.zeros(1)], [np.zeros(1)]])
        assert layer_weight(table, 0, 0) == pytest.approx(0.5)
        table = layer_table([[np.array([0.25])], [np.array([1.75])]])
        assert layer_weight(table, 0, 0) == pytest.approx(2.0)

    def test_layer_weight_missing_order(self):
        table = layer_table([[np.array([1.0])]])
        with pytest.raises(ValueError):
            layer_weight(table, 0, 1)

    @settings(max_examples=200, deadline=None)
    @given(table=diff_tables(), data=st.data())
    def test_layer_weight_matches_reference_bitwise(self, table, data):
        queries = [(l, i) for l in range(len(table.per_layer)) for i in range(table.max_order + 1)]
        queries = data.draw(st.permutations(queries)) + data.draw(st.lists(st.sampled_from(queries)))
        for layer, order in queries:
            got = layer_weight(table, layer, order)
            assert got.hex() == reference_layer_weight(table, layer, order).hex()
        with pytest.raises(ValueError, match="not present"):
            layer_weight(table, 0, table.max_order + 1)

    def test_layer_weight_reduces_each_difference_once(self):
        # One table answers all M*(n+1) queries, twice over, with one np.abs per order over the
        # hidden layers' stack and one over the final layer's row: 2 per order, not M.
        rng = SeededRng(3)
        layers, max_order = 4, 3
        plain = layer_table([[rng.normal(6 if l < layers - 1 else 2) for _ in range(max_order + 1)]
                             for l in range(layers)])
        table = DiffTable([h.view(AbsCounting) for h in plain.hidden], [f.view(AbsCounting) for f in plain.final])
        queries = [(l, i) for _ in range(2) for l in range(layers) for i in range(max_order + 1)]
        got = [layer_weight(table, l, i) for l, i in queries]
        assert [d.abs_calls for d in table.hidden + table.final] == [1] * 2 * (max_order + 1)
        assert got == [reference_layer_weight(plain, l, i) for l, i in queries]

    @pytest.mark.parametrize("layers", [2, 9])
    def test_hidden_layers_cost_a_fixed_number_of_numpy_calls_per_order(self, layers):
        # Five anchors fill a capacity-4 cache, orders 0, 1, 2, 3 and 3: 9 subtractions over the hidden
        # stack. The first weight query at each of the 4 orders takes one np.abs of it: 13 in all,
        # whatever the layer count, since neither push nor the weights loop over the layers.
        rng = SeededRng(4)
        cache, hist = AnchorCache(5, 4), SigmaHistory()
        UfuncCounting.calls = 0
        for p in range(5):
            hidden = rng.normal((layers - 1, 3, 6)).view(UfuncCounting)
            cache.push(5 * p, LayerOutputs([*hidden, rng.normal((3, 2))], (3, 2), hidden), hist)
        table = finite_differences(cache)
        for i in range(table.max_order + 1):
            layer_weight(table, 0, i)
        assert UfuncCounting.calls == 13
        # A warmed predicted step on this table (its weights stored above) builds the final layer
        # only: a copy of its order-0 row, which is no ufunc call, then a multiply, a divide and an
        # add per order, 3 x 3 = 9 with the final rows counted too. It runs nothing over the hidden
        # stack until a hidden layer is read; that read costs the same 9, over views of the stack.
        table.final = [f.view(UfuncCounting) for f in table.final]
        UfuncCounting.calls = 0
        out = predict(cache, table, hist, 2, PredictorConfig(anchor_spacing=5, max_order=3))
        assert UfuncCounting.calls == 9
        out.per_layer[0]
        assert UfuncCounting.calls == 18


class TestPredict:
    def test_affine_exact(self):
        cfg = PredictorConfig(anchor_spacing=5, max_order=1, dynamics_enabled=False)
        cache, hist = cache_from_scalar(lambda s: 3.0 * s + 1.0, [12, 17], spacing=5, capacity=2)
        out = predict(cache, finite_differences(cache), hist, 2, cfg)
        assert out.final[0] == pytest.approx(58.0, abs=1e-9)

    def test_quadratic_truncation_error(self):
        cfg = PredictorConfig(anchor_spacing=5, max_order=2, dynamics_enabled=False)
        cache, hist = cache_from_scalar(lambda s: float(s) ** 2, [12, 17, 22], spacing=5, capacity=3)
        out = predict(cache, finite_differences(cache), hist, 2, cfg)
        assert out.final[0] == pytest.approx(566.0, abs=1e-9)
        # documented truncation: predicted - true == -k*K
        assert out.final[0] - 576.0 == pytest.approx(-10.0, abs=1e-9)

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
        for step in (0, 5, 10, 15):
            layers = [slopes[l] * step + offsets[l] for l in range(3)]
            cache.push(step, LayerOutputs(layers, (6,)), hist)
        table = finite_differences(cache)
        for k in range(1, spacing):
            out = predict(cache, table, hist, k, cfg)
            for l in range(3):
                expected = slopes[l] * (15 + k) + offsets[l]
                assert np.allclose(out.per_layer[l], expected, atol=1e-9)

    def test_empty_cache_rejected(self):
        table = layer_table([[np.zeros(1)]])
        with pytest.raises(ValueError, match="empty anchor cache"):
            predict(AnchorCache(5, 4), table, SigmaHistory(), 1, PredictorConfig())

    def test_k_out_of_range(self):
        cfg = PredictorConfig(anchor_spacing=5, max_order=1)
        cache, hist = cache_from_scalar(float, [0, 5], spacing=5, capacity=2)
        table = finite_differences(cache)
        with pytest.raises(ValueError):
            predict(cache, table, hist, 5, cfg)
        with pytest.raises(ValueError):
            predict(cache, table, hist, 0, cfg)

    def test_neutral_dynamics_bitwise_equivalence(self, monkeypatch):
        cache, hist = cache_from_scalar(lambda s: math.sin(0.1 * s), [0, 5, 10, 15],
                                        spacing=5, capacity=4)
        table = finite_differences(cache)
        off = predict(cache, table, hist, 2, PredictorConfig(5, 3, 1.5, False))
        monkeypatch.setattr(pred_mod, "scale_s", lambda h, a: 1.0)
        monkeypatch.setattr(pred_mod, "layer_weight", lambda t, l, i: 1.0)
        on = predict(cache, table, hist, 2, PredictorConfig(5, 3, 1.5, True))
        assert np.array_equal(off.per_layer[0], on.per_layer[0])

    @pytest.mark.parametrize("max_order", [1, 3])
    def test_layer_weight_hook_point(self, monkeypatch, max_order):
        # perfbench/tracer.py counts layer_weight by wrapping predictor.layer_weight, and
        # pins its calls, so predict must look it up once per (layer, order) when warmed.
        original = inspect.getattr_static(pred_mod, "layer_weight")
        assert inspect.isfunction(original)
        rng = SeededRng(5)
        layers, spacing = 3, 5
        cfg = PredictorConfig(anchor_spacing=spacing, max_order=max_order)
        cache, hist = AnchorCache(spacing, max_order + 1), SigmaHistory()
        for step in range(0, spacing * (max_order + 1), spacing):
            cache.push(step, LayerOutputs([rng.normal(4) for _ in range(layers)], (4,)), hist)
        table = finite_differences(cache)
        calls = []

        def counting(*args):
            calls.append(args[1:])
            return original(*args)

        monkeypatch.setattr(pred_mod, "layer_weight", counting)
        for k in range(1, spacing):
            calls.clear()
            predict(cache, table, hist, k, cfg)
            assert calls == [(l, i) for l in range(layers) for i in range(1, max_order + 1)]

    def test_scale_s_taken_once_per_anchor(self, monkeypatch):
        # The sigma history changes only when an anchor is pushed, so it takes the sigmas' mean once
        # per anchor, and no predicted step takes it. K=5, n=1: the second, third and fourth anchors
        # each record a sigma, when the history holds 1, 2 and 3. layer_weight takes means too, of
        # other values, so only the means of the history's own list are counted.
        state = PredictorState(PredictorConfig(5, 1))
        original, seen = pred_mod.mean, []

        def counting(x):
            if x is state.hist.sigmas:
                seen.append(len(x))
            return original(x)

        monkeypatch.setattr(pred_mod, "mean", counting)
        model = ListModel([scalar_outputs(v) for v in (1.0, 2.0, 4.0, 7.0)])
        for j in range(20):
            state.step(model, None, 0.0, None, j)
        assert seen == [1, 2, 3]

    @settings(max_examples=200, deadline=None)
    @given(table=diff_tables(), data=st.data())
    def test_layers_match_eager_reference_in_any_read_order(self, table, data):
        layers, width = len(table.per_layer), table.per_layer[-1][0].size
        spacing = data.draw(st.integers(2, 5))
        max_order = data.draw(st.integers(0, table.max_order))
        cfg = PredictorConfig(spacing, max_order, data.draw(st.floats(0.5, 1.5)), data.draw(st.booleans()))
        cache = AnchorCache(spacing, max_order + 1)
        for a in range(data.draw(st.integers(1, max_order + 1))):
            cache.push(a * spacing, LayerOutputs([np.zeros(width)], (width,)))
        hist = SigmaHistory()
        for sigma in data.draw(st.lists(st.floats(0.0, 1e3), max_size=4)):
            hist.record(sigma)
        k = data.draw(st.integers(1, spacing - 1))
        expected = reference_predict(cache, table, hist, k, cfg)

        by_index = predict(cache, table, hist, k, cfg)
        assert len(by_index.per_layer) == layers == len(by_index)
        for l in data.draw(st.lists(st.integers(-layers, layers - 1))):
            assert np.array_equal(by_index.per_layer[l], expected[l])
            assert by_index.per_layer[l] is by_index.per_layer[l]
        assert np.array_equal(by_index.final, expected[-1].reshape(width))
        by_iteration = list(predict(cache, table, hist, k, cfg).per_layer)
        assert len(by_iteration) == layers
        assert all(np.array_equal(got, want) for got, want in zip(by_iteration, expected))
        with pytest.raises(IndexError):
            by_index.per_layer[layers]

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_layer_read_after_next_anchor_keeps_predict_time_value(self, data):
        # The next anchor records a new sigma and replaces the table, so a layer
        # built from the state at read time would differ from one built at predict time.
        # Dynamics on: with them off a predicted step has no hidden layer to read.
        layers = data.draw(st.integers(2, 5))
        hidden, final = data.draw(st.lists(st.integers(1, 4), min_size=2, max_size=2, unique=True))
        spacing, max_order = data.draw(st.integers(2, 5)), data.draw(st.integers(0, 3))
        cfg = PredictorConfig(spacing, max_order, data.draw(st.floats(0.5, 1.5)), True)
        anchors = data.draw(st.integers(1, max_order + 2))
        values = st.floats(-10, 10, allow_nan=False)
        outputs = [LayerOutputs([data.draw(arrays(np.float64, final if l == layers - 1 else hidden,
                                                  elements=values)) for l in range(layers)], (final,))
                   for _ in range(anchors + 1)]
        model, state = ListModel(outputs), PredictorState(cfg)
        k = data.draw(st.integers(1, spacing - 1))
        for j in range((anchors - 1) * spacing + k):
            state.step(model, None, 0.0, None, j)
        expected = reference_predict(state.cache, finite_differences(state.cache), state.hist, k, cfg)
        out = state.step(model, None, 0.0, None, (anchors - 1) * spacing + k)
        early = data.draw(st.sets(st.integers(0, layers - 1)))
        for l in early:
            assert np.array_equal(out.per_layer[l], expected[l])
        for j in range((anchors - 1) * spacing + k + 1, anchors * spacing + 1):
            state.step(model, None, 0.0, None, j)
        assert state.evals == anchors + 1
        assert all(np.array_equal(got, want) for got, want in zip(out.per_layer, expected))

    def test_dynamics_off_keeps_only_the_final_layer(self):
        # Nothing reads a hidden layer with dynamics off, so none is tabled or predicted.
        model = build_model(0, layer_count=4, width=8, latent_dim=4, cond_dim=2)
        z, cond = SeededRng(1).normal((5, 4)), SeededRng(2).normal((5, 2))
        state = PredictorState(PredictorConfig(3, 2, dynamics_enabled=False))
        outs = [state.step(model, z, 1 - j / 8, cond, j) for j in range(8)]
        assert [len(out) for out in outs] == [4, 1, 1, 4, 1, 1, 4, 1]
        table = finite_differences(state.cache)
        assert [h.shape for h in table.hidden] == [(0,)] * 3 and table.layer_count == 1
        assert state.hist.sigmas == []

    def test_weights_reduced_once_per_warmed_table_and_order(self, monkeypatch):
        # Each predicted step fetches its table through finite_differences, the cache's own table
        # until the next anchor, so the weights an order's first query stores serve every later
        # step. K=5, n=2 over 20 steps: the anchors at steps 10 and 15 lead warmed tables, each
        # queried at orders 1 and 2 by 4 predicted steps: 4 reductions, where a table built per
        # step would take 16.
        model = build_model(0, 4, 8, 4, 2)
        z, cond = SeededRng(1).normal((5, 4)), SeededRng(2).normal((5, 2))
        original, calls = pred_mod.layer_means, []

        def counting(x):
            calls.append(len(x))
            return original(x)

        monkeypatch.setattr(pred_mod, "layer_means", counting)
        state = PredictorState(PredictorConfig(5, 2))
        for j in range(20):
            state.step(model, z, 1 - j / 20, cond, j)
        assert calls == [3] * 4

    def test_config_validation(self):
        with pytest.raises(ValueError):
            PredictorConfig(anchor_spacing=0)
        with pytest.raises(ValueError):
            PredictorConfig(max_order=-1)
        with pytest.raises(ValueError):
            PredictorConfig(alpha=2.0)
        # Kinds are checked first: a float order would size the anchor cache as a float.
        with pytest.raises(ValueError, match="max_order: expected an integer, got 1.5"):
            PredictorConfig(5, 1.5)
        with pytest.raises(ValueError, match="max_order: expected an integer, got True"):
            PredictorConfig(5, True)
        with pytest.raises(ValueError, match="dynamics_enabled: expected true or false, got 'no'"):
            PredictorConfig(dynamics_enabled="no")

    def test_config_is_frozen(self):
        cfg = PredictorConfig()
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.anchor_spacing = 0
        assert cfg.anchor_spacing == 5

    @pytest.mark.parametrize("step_index", [3, 1, 4])
    def test_predicted_step_before_any_anchor_rejected(self, step_index):
        # A stream whose first step is not an anchor has nothing to extrapolate from.
        state = PredictorState(PredictorConfig(5, 3))
        message = f"step {step_index} is a predicted step, but no anchor has been evaluated yet"
        with pytest.raises(ValueError, match=message):
            state.step(build_model(0), np.zeros((2, 64)), 0.5, np.zeros(8), step_index)
        assert state.evals == 0 and not len(state.cache)


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
        z, cond = SeededRng(1).normal((1, 12)), SeededRng(2).normal(4)
        _, evals = sample_accelerated(model, z, cond, SamplerConfig(steps=steps),
                                      PredictorConfig(anchor_spacing=spacing))
        assert evals == math.ceil(steps / spacing)

    def test_spacing_one_matches_oracle_bitwise(self):
        model = build_model(0, layer_count=3, width=8, latent_dim=12, cond_dim=4)
        z, cond = SeededRng(1).normal((1, 12)), SeededRng(2).normal(4)
        cfg = SamplerConfig(steps=12)
        oracle, _ = sample_full(model, z, cond, cfg)
        accel, _ = sample_accelerated(model, z, cond, cfg, PredictorConfig(anchor_spacing=1))
        assert all(np.array_equal(a, b) for a, b in zip(oracle, accel))

    def test_stationary_field_stays_finite(self):
        # zero A and c: every layer ignores z and t, so every anchor sigma is 0
        model = build_model(0)
        for w in model.weights:
            w["A"][:] = 0.0
            w["Abc"][:, -1] = 0.0
        rng = SeededRng(1)
        z, cond = rng.normal((1, 8, 8)), rng.normal(8)
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
                z, cond = rng.normal((1, 8, 8)), rng.normal(8)
                cfg = SamplerConfig(steps=50)
                oracle, _ = sample_full(model, z, cond, cfg)
                accel, _ = sample_accelerated(model, z, cond, cfg, PredictorConfig(5, order))
                errs.append(np.linalg.norm(accel[-1] - oracle[-1]) / np.linalg.norm(oracle[-1]))
            return np.mean(errs)

        assert mean_err(3) <= mean_err(1)
