import dataclasses
import inspect
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from latentskip import flow_model
from latentskip.core import SeededRng
from latentskip.flow_model import (FUSION_MODES, Conditioning, LayerOutputs, MaskPair, SamplerConfig,
                                   ToyModel, build_model, forward_diffuse, masked_recon_loss, velocity_loss)
from latentskip.norm_fusion import normalize_fuse
from latentskip.predictor import DiffTable
from latentskip.windows import euler_step, sample_full
from test_norm_fusion import reference_fuse


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
        out = m.eval(np.zeros((1, 12)), 0.5, np.zeros(4))
        assert len(out) == 4

    def test_fusion_hook_point(self, monkeypatch):
        # perfbench/tracer.py times fusion by wrapping flow_model.fuse_streams, so it must stay a
        # plain module-level function that eval looks up once per layer. Each call adds that layer's
        # own fused conditioning into the layer's product and leaves the conditioning as it was.
        original = inspect.getattr_static(flow_model, "fuse_streams")
        assert inspect.isfunction(original)
        calls = []

        def counting(x, fused):
            before = x.copy()
            original(x, fused)
            calls.append((fused, np.array_equal(x, before + fused)))

        monkeypatch.setattr(flow_model, "fuse_streams", counting)
        model = small_model(layer_count=5, fusion_mode="ours")
        conditioning = model.condition(SeededRng(2).normal((3, 4)), 3)
        kept = [fused.copy() for fused in conditioning.layers]
        for t in (0.5, 0.2):
            model.eval(SeededRng(1).normal((3, 12)), t, conditioning)
        assert len(calls) == 2 * 5
        assert all(fused is conditioning.layers[i % 5] and added for i, (fused, added) in enumerate(calls))
        assert all(np.array_equal(fused, k) for fused, k in zip(conditioning.layers, kept, strict=True))

    def test_zero_weights_give_zero_outputs(self):
        m = small_model()
        for w in m.weights:
            for key in w:
                w[key][...] = 0.0
        out = m.eval(SeededRng(1).normal((1, 12)), 0.3, SeededRng(2).normal(4))
        for layer in out.per_layer:
            assert np.all(layer == 0.0)

    def test_eval_deterministic(self):
        m = small_model(5)
        z, cond = SeededRng(1).normal((1, 12)), SeededRng(2).normal(4)
        assert np.array_equal(m.eval(z, 0.7, cond).final, m.eval(z, 0.7, cond).final)

    def test_final_matches_input_shape(self):
        m = small_model()
        z = SeededRng(1).normal((1, 3, 4))
        assert m.eval(z, 0.2, np.zeros(4)).final.shape == (1, 3, 4)

    def test_framewise_eval(self):
        # a (frames, 12) latent is handled frame by frame
        m = small_model()
        z = SeededRng(1).normal((5, 12))
        out = m.eval(z, 0.4, np.zeros(4))
        assert out.final.shape == (5, 12)
        single = m.eval(z[2:3], 0.4, np.zeros(4))
        assert np.allclose(out.final[2], single.final)

    @pytest.mark.parametrize("shape", [(4, 16), (64,), ()])
    def test_latent_off_the_frame_layout_rejected(self, shape):
        # Frames run along the first axis, each of latent_dim elements; a latent of
        # latent_dim elements in any other layout is not one frame.
        message = f"latent of shape {shape} incompatible with frame width 64: frames run along the first axis"
        with pytest.raises(ValueError, match=re.escape(message)):
            build_model(0).eval(np.zeros(shape), 0.5, np.zeros(8))

    def test_one_wide_frames_of_a_flat_latent(self):
        # On a latent_dim=1 model a (5,) latent is 5 frames, so it takes a per-frame cond.
        m = small_model(latent_dim=1)
        z, cond = SeededRng(1).normal(5), SeededRng(2).normal((5, 4))
        traj, evals = sample_full(m, z, cond, SamplerConfig(steps=3))
        framed, _ = sample_full(m, z.reshape(5, 1), cond, SamplerConfig(steps=3))
        assert evals == 3 and traj[-1].shape == (5,)
        assert all(np.array_equal(a, b.reshape(5)) for a, b in zip(traj, framed, strict=True))

    @pytest.mark.parametrize("fusion", FUSION_MODES)
    @pytest.mark.parametrize("shared", [True, False])
    @pytest.mark.parametrize("frames", [1, 7])
    def test_conditioned_eval_bitwise_equals_raw(self, fusion, shared, frames):
        # A sampler conditions once per window and passes the result to every step's eval.
        m = small_model(3, fusion_mode=fusion)
        rng = SeededRng(4)
        z, cond = rng.normal((frames, 12)), rng.normal(4 if shared else (frames, 4))
        conditioning = m.condition(cond, frames)
        kept = [fused.copy() for fused in conditioning.layers]
        for t in (1.0, 0.37, 0.0):  # one conditioning, many steps: eval never writes into it
            raw, conditioned = m.eval(z, t, cond), m.eval(z, t, conditioning)
            assert len(raw) == len(conditioned) == 4
            assert all(np.array_equal(a, b) for a, b in zip(raw.per_layer, conditioned.per_layer))
        assert all(np.array_equal(fused, k) for fused, k in zip(conditioning.layers, kept, strict=True))

    def test_fusion_overflow_saturates_without_a_warning(self):
        # baseline-add takes no moments, so it accepts a finite cond of 1e308. A fused array that
        # overflows float64 is inf, built in condition with no RuntimeWarning (pytest makes one an
        # error), and every eval's tanh saturates it, with or without run_long's np.errstate.
        model = build_model(0, fusion_mode="baseline-add")
        z, cond = SeededRng(3).normal((4, 64)), np.full(8, 1e308)
        conditioning = model.condition(cond, 4)
        assert not np.isfinite(conditioning.layers[-1]).all()
        for given_cond in (conditioning, cond):
            assert all(np.isfinite(layer).all() for layer in model.eval(z, 0.5, given_cond).per_layer)

    @pytest.mark.parametrize("shared", [True, False])
    def test_complex_cond_rejected(self, shared):
        # A float64 cast would keep only the real part, with a ComplexWarning (a RuntimeWarning,
        # which pytest makes an error). condition refuses it, and so does eval given a raw cond.
        m = build_model(0)
        cond = np.zeros(8 if shared else (2, 8)) + 1j
        for call in (lambda: m.condition(cond, 2), lambda: m.eval(np.zeros((2, 8, 8)), 0.5, cond)):
            with pytest.raises(ValueError, match="^cond must be real, got complex values$"):
                call()

    def test_complex_latent_rejected(self):
        # A float64 cast would keep only the real part, with a ComplexWarning.
        with pytest.raises(ValueError, match="^z must be real, got complex values$"):
            build_model(0).eval(np.zeros((1, 8, 8)) + 1j, 0.5, np.zeros(8))

    def test_conditioning_frames_must_match_the_latent(self):
        m = build_model(0)
        conditioning = m.condition(SeededRng(1).normal((16, 8)), 16)
        with pytest.raises(ValueError, match=re.escape("conditioning built for 16 frames, latent has 9")):
            m.eval(np.zeros((9, 8, 8)), 0.5, conditioning)

    @pytest.mark.parametrize("differs", [{"fusion_mode": "baseline-add"}, {"layer_count": 5}, {}])
    def test_conditioning_of_another_model_rejected(self, differs):
        # An "ours" model would add a "baseline-add" conditioning's fusion, and another model's
        # projections would be added silently: only the model that built it may use it.
        m = build_model(0, fusion_mode="ours")
        other = build_model(0, **{"fusion_mode": "ours", **differs})
        conditioning = other.condition(np.ones(8), 2)
        message = (f"conditioning built by another model (fusion {other.fusion_mode!r}, "
                   f"{other.layer_count} layers), not by this one (fusion 'ours', 4 layers)")
        with pytest.raises(ValueError, match=re.escape(message)):
            m.eval(np.zeros((2, 64)), 0.5, conditioning)

    @pytest.mark.parametrize("t", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_t_rejected(self, t):
        # A NaN t would make every output NaN, silently.
        with pytest.raises(ValueError, match=re.escape(f"t must be finite, got {t}")):
            build_model(0).eval(np.zeros((2, 8, 8)), t, np.zeros(8))

    def test_invalid_dims_rejected(self):
        with pytest.raises(ValueError, match="layer_count: must be >= 2, got 1"):
            build_model(0, layer_count=1)
        with pytest.raises(ValueError, match="width: must be >= 2, got 1"):
            build_model(0, width=1)
        with pytest.raises(ValueError, match="latent_dim: must be >= 1, got 0"):
            build_model(0, latent_dim=0)  # eval would return (frames, 0) velocities
        with pytest.raises(ValueError, match="cond_dim: must be >= 0, got -1"):
            build_model(0, cond_dim=-1)  # not NumPy's "negative dimensions are not allowed"
        with pytest.raises(ValueError, match=re.escape("fusion_mode: must be one of ('baseline-add',")):
            build_model(0, fusion_mode="nope")


def _rebuilt(conditioning, layers=None, model=None):
    """A hand-built Conditioning: ``conditioning`` with its layers or its model replaced."""
    return Conditioning(conditioning.frames, conditioning.layers if layers is None else tuple(layers),
                        conditioning.model if model is None else model)


def _with_layer(conditioning, m, fused):
    """``conditioning``'s layers with layer m's fused conditioning replaced."""
    layers = list(conditioning.layers)
    layers[m] = fused
    return layers


class TestConditioningChecks:
    # eval adds each layer's fused conditioning unchecked: a (layer_width, 1) array would broadcast
    # silently over the frames. A Conditioning is checked once, when built, by hand as much as by
    # ToyModel.condition.
    @pytest.mark.parametrize("fusion", FUSION_MODES)
    def test_built_by_condition_passes_and_rebuilds(self, fusion):
        conditioning = small_model(fusion_mode=fusion).condition(SeededRng(1).normal((3, 4)), 3)
        assert _rebuilt(conditioning).layers == conditioning.layers

    @pytest.mark.parametrize("stream", ["s_img", "p"])
    @pytest.mark.parametrize("bad", [lambda a: a[:1], lambda a: a[:, :-1], lambda a: a[:, :1], lambda a: a.T,
                                     lambda a: a[0], lambda a: a.astype(np.float32), lambda a: a.tolist()],
                             ids=["one-row", "frame-short", "one-frame", "transposed", "1-d", "float32", "list"])
    @pytest.mark.parametrize("m", [0, 3])
    def test_wrong_stream_rejected(self, stream, bad, m):
        # The check is on layout and type alone: layer m's raw image or portrait stream, a float64
        # (layer_width, frames) array, passes in place of its fused conditioning, and any cut of it fails.
        model = small_model(fusion_mode="ours")
        cond = SeededRng(1).normal((3, 4))
        conditioning = model.condition(cond, 3)
        good = model.weights[m]["P_img" if stream == "s_img" else "P_p"] @ cond.T
        _rebuilt(conditioning, _with_layer(conditioning, m, good))
        message = f"layer {m}'s fused conditioning must be a float64 array of shape {good.shape}"
        with pytest.raises(ValueError, match=re.escape(message)):
            _rebuilt(conditioning, _with_layer(conditioning, m, bad(good)))

    @pytest.mark.parametrize("count", [3, 5, 0])
    def test_one_triple_per_layer(self, count):
        conditioning = small_model().condition(np.zeros(4), 2)
        layers = (conditioning.layers * 2)[:count]
        with pytest.raises(ValueError, match=f"conditioning has {count} layers, the model has 4"):
            _rebuilt(conditioning, layers)

    def test_unknown_mode_rejected(self):
        model = small_model()
        odd = ToyModel(model.layer_count, model.width, model.latent_dim, model.cond_dim, "nope", model.weights)
        with pytest.raises(ValueError, match=re.escape("fusion_mode: must be one of ('baseline-add',")):
            _rebuilt(model.condition(np.ones(4), 2), model=odd)

    def test_model_fields_cannot_change_under_a_conditioning(self):
        # A conditioning fused for "baseline-add" would be added by an "ours" model silently.
        model = small_model()
        with pytest.raises(dataclasses.FrozenInstanceError):
            model.fusion_mode = "ours"


MODEL = small_model()
ARRAY_HOLDERS = {
    "LayerOutputs": lambda: LayerOutputs([np.zeros((2, 3))], (2, 3)),
    "MaskPair": lambda: MaskPair(np.zeros(3), np.ones(3)),
    "ToyModel": lambda: small_model(),
    "Conditioning": lambda: MODEL.condition(np.zeros(4), 2),
    "DiffTable": lambda: DiffTable([np.empty(0)], [np.zeros(3)]),
}


@pytest.mark.parametrize("name", sorted(ARRAY_HOLDERS))
def test_array_holding_dataclasses_compare_by_identity(name):
    # A field-wise __eq__ would compare arrays, whose truth value is ambiguous, and a field-wise
    # __hash__ would hash them. Identity is how eval matches a Conditioning to its model.
    a, b = ARRAY_HOLDERS[name](), ARRAY_HOLDERS[name]()
    assert a == a and a != b
    assert len({a, b, a}) == 2


def _layer_inputs(model, z, cond):
    h = np.reshape(z, (-1, model.latent_dim))
    return h, np.broadcast_to(cond, (h.shape[0], model.cond_dim))


def reference_eval(model, z, t, cond):
    """ToyModel.eval written as one expression per layer: the values eval must reproduce bitwise.

    Activations run feature-major: the layer's pre-activation is one product of [A | b | c] with
    the augmented input [h^T; 1; t], each stream one product P @ cond^T. The augmented input is
    C-contiguous, as eval's blocks are: BLAS rounds an F-ordered operand differently at some shapes.
    """
    h, cond2d = _layer_inputs(model, z, cond)
    frames = len(h)
    h = h.T
    outs = []
    for w in model.weights:
        fused = reference_fuse(w["P_img"] @ cond2d.T, w["P_p"] @ cond2d.T, model.fusion_mode)
        augmented = np.ascontiguousarray(np.concatenate([h, np.ones((1, frames)), np.full((1, frames), t)]))
        h = np.tanh(w["Abc"] @ augmented + fused)
        outs.append(h.T)
    return outs


def textbook_eval(model, z, t, cond):
    """tanh(h A^T + b + t c + fused) per layer, from Abc's separate columns: equal up to rounding."""
    h, cond2d = _layer_inputs(model, z, cond)
    outs = []
    for w in model.weights:
        fused = reference_fuse(cond2d @ w["P_img"].T, cond2d @ w["P_p"].T, model.fusion_mode)
        A, b, c = w["Abc"][:, :-2], w["Abc"][:, -2], w["Abc"][:, -1]
        h = np.tanh(h @ A.T + b + t * c + fused)
        outs.append(h)
    return outs


def _random_inputs(seed, frames, latent_dim, cond_dim, shared):
    rng = SeededRng(seed + 1)
    return rng.normal((frames, latent_dim)), rng.normal(cond_dim if shared else (frames, cond_dim))


@settings(max_examples=80, deadline=None)
@given(fusion=st.sampled_from(FUSION_MODES), layers=st.integers(2, 5), width=st.integers(2, 40),
       latent_dim=st.integers(1, 12), frames=st.integers(1, 17),
       cond_dim=st.integers(0, 9), shared=st.booleans(), t=st.floats(0.0, 1.0), seed=st.integers(0, 2**32))
def test_eval_bitwise_equals_reference(fusion, layers, width, latent_dim, frames, cond_dim, shared, t, seed):
    model = build_model(seed, layers, width, latent_dim, cond_dim, fusion)
    z, cond = _random_inputs(seed, frames, latent_dim, cond_dim, shared)
    inputs = [z, cond] + [a for w in model.weights for a in w.values()]
    before = [a.copy() for a in inputs]
    got = model.eval(z, t, cond).per_layer
    conditioned = model.eval(z, t, model.condition(cond, frames)).per_layer
    ref = reference_eval(model, z, t, cond)
    assert len(got) == len(conditioned) == len(ref) == layers
    for g, c, r in zip(got, conditioned, ref):
        assert np.array_equal(g, r) and np.array_equal(c, r)
    assert all(np.array_equal(a, b) for a, b in zip(inputs, before))  # nothing the caller owns is written


@pytest.mark.parametrize("shared", [False, True], ids=["per-frame", "shared"])
@pytest.mark.parametrize("frames", [1, 16, 64])
@pytest.mark.parametrize("layers, width", [(16, 128), (4, 32)], ids=["M16-w128", "M4-w32"])
def test_eval_bitwise_equals_reference_at_benchmark_shapes(layers, width, frames, shared):
    # The hypothesis test above draws narrow layers and few frames; at these widths BLAS picks other
    # kernels, and with more than one thread it splits the product, so they are checked against @ here.
    model = build_model(0, layers, width, 64, 8, "ours")
    z, cond = _random_inputs(frames, frames, 64, 8, shared)
    got = model.eval(z, 0.37, cond).per_layer
    ref = reference_eval(model, z, 0.37, cond)
    assert len(got) == len(ref) == layers
    assert all(np.array_equal(g, r) for g, r in zip(got, ref))


@settings(max_examples=80, deadline=None)
@given(fusion=st.sampled_from(FUSION_MODES), layers=st.integers(2, 4), frames=st.integers(1, 17),
       cond_dim=st.integers(0, 9), shared=st.booleans(), seed=st.integers(0, 2**32))
def test_conditioning_is_the_public_fusion(fusion, layers, frames, cond_dim, shared, seed):
    # condition runs the whole fusion once per window; each layer's result is the public
    # normalize_fuse of its two projected streams, bit for bit.
    model = build_model(seed, layers, 8, 5, cond_dim, fusion)
    _, cond = _random_inputs(seed, frames, 5, cond_dim, shared)
    conditioning = model.condition(cond, frames)
    cond2d = np.broadcast_to(cond, (frames, cond_dim))
    assert len(conditioning.layers) == layers
    for w, fused in zip(model.weights, conditioning.layers, strict=True):
        assert np.array_equal(fused, normalize_fuse(w["P_img"] @ cond2d.T, w["P_p"] @ cond2d.T, fusion))


@pytest.mark.parametrize("shape", [{"layer_count": 2, "width": 2, "latent_dim": 3}, {},
                                   {"layer_count": 16, "width": 128}])
def test_hidden_stack_is_the_hidden_layers_without_a_copy(shape):
    # The predictor's table reads every hidden layer from this one stack; a copy here would cost
    # every anchor a (layers - 1) x frames x width copy, so eval must hand over the buffer's view.
    model = build_model(0, **shape)
    out = model.eval(SeededRng(1).normal((5, model.latent_dim)), 0.4, SeededRng(2).normal(8))
    assert out.hidden.shape == (model.layer_count - 1, 5, model.width)
    assert out.hidden_stack() is out.hidden
    for l, h in enumerate(out.per_layer[:-1]):
        assert np.shares_memory(out.hidden, h) and np.array_equal(out.hidden[l], h)
        assert out.hidden[l].strides == h.strides
    assert not np.shares_memory(out.hidden, out.per_layer[-1])


@pytest.mark.parametrize("layout", ["C", "F"])
def test_layers_from_a_list_are_stacked_once_in_their_own_layout(layout):
    layers = [np.asarray(SeededRng(l).normal((4, 6)), order=layout) for l in range(4)]
    out = LayerOutputs(layers, (4, 6))
    assert out.hidden is None
    stack = out.hidden_stack()
    assert out.hidden is stack and out.hidden_stack() is stack
    assert stack.shape == (3, 4, 6) and np.array_equal(stack, layers[:-1])
    assert all(stack[l].flags[f"{layout}_CONTIGUOUS"] for l in range(3))
    assert LayerOutputs([layers[0]], (4, 6)).hidden_stack().shape == (0,)  # no hidden layers
    with pytest.raises(ValueError, match=re.escape("layer 1 has shape (4, 5), layer 0 has (4, 6)")):
        LayerOutputs([layers[0], layers[1][:, :5], layers[3]], (4, 6)).hidden_stack()


@settings(max_examples=60, deadline=None)
@given(fusion=st.sampled_from(FUSION_MODES), layers=st.integers(2, 5), width=st.integers(2, 130),
       latent_dim=st.integers(1, 64), frames=st.integers(1, 17),
       cond_dim=st.integers(0, 9), shared=st.booleans(), t=st.floats(0.0, 1.0), seed=st.integers(0, 2**32))
def test_eval_within_rounding_of_textbook(fusion, layers, width, latent_dim, frames, cond_dim, shared, t, seed):
    # Folding b and t c into the product moves only the rounding of every layer.
    model = build_model(seed, layers, width, latent_dim, cond_dim, fusion)
    z, cond = _random_inputs(seed, frames, latent_dim, cond_dim, shared)
    got, ref = model.eval(z, t, cond).per_layer, textbook_eval(model, z, t, cond)
    assert len(got) == len(ref) == layers
    for g, r in zip(got, ref):
        assert np.max(np.abs(g - r)) <= 1e-12


@pytest.mark.parametrize("shape", [{}, {"layer_count": 2, "width": 2, "latent_dim": 3, "cond_dim": 0},
                                   {"layer_count": 16, "width": 128}])
def test_eval_returns_fresh_memory(shape):
    # AnchorCache keeps an anchor's outputs as its difference table's row 0, so no later eval may
    # write into them: every call's outputs are new memory, and no two layers of one call overlap.
    model = build_model(0, **shape)
    z, cond = _random_inputs(0, 3, model.latent_dim, model.cond_dim, False)
    conditioning = model.condition(cond, 3)
    owned = [z, cond] + [a for w in model.weights for a in w.values()] + list(conditioning.layers)
    kept = [a.copy() for a in owned]
    first, second = model.eval(z, 0.7, conditioning).per_layer, model.eval(z, 0.2, conditioning).per_layer
    for out in first:
        assert not any(np.shares_memory(out, other) for other in second + owned)
    assert all(np.array_equal(a, k) for a, k in zip(owned, kept, strict=True))  # no eval writes its inputs
    for outs in (first, second):
        for i, out in enumerate(outs):
            assert not any(np.shares_memory(out, other) for other in outs[i + 1:])


@pytest.mark.parametrize("shape", [{}, {"layer_count": 2, "width": 2, "latent_dim": 3, "cond_dim": 0},
                                   {"layer_count": 16, "width": 128}])
def test_weights_a_are_stored_in_the_layout_eval_reads(shape):
    # eval multiplies Abc @ [h; 1; t]: stored C-ordered, Abc is read by BLAS unrepacked.
    for w in build_model(0, **shape).weights:
        assert w["Abc"].flags.c_contiguous
        # A is a view of the block eval reads, so no reader sees stale weights.
        assert np.shares_memory(w["A"], w["Abc"]) and np.array_equal(w["A"], w["Abc"][:, :-2])


@pytest.mark.parametrize("shape", [{}, {"layer_count": 2, "width": 2, "latent_dim": 3, "cond_dim": 0},
                                   {"layer_count": 16, "width": 128}])
@pytest.mark.parametrize("fusion", FUSION_MODES)
def test_activations_are_contiguous_blocks(shape, fusion):
    # Activations run feature-major, so every hidden output is one F-contiguous (frames, width) block,
    # a view of the call's one buffer, and the final layer is C-contiguous, as the Euler step reads it.
    model = build_model(0, fusion_mode=fusion, **shape)
    z, cond = _random_inputs(0, 3, model.latent_dim, model.cond_dim, False)
    conditioning = model.condition(cond, 3)
    *hidden, final = model.eval(z, 0.7, conditioning).per_layer
    buffer = hidden[0].base
    assert buffer is not None and buffer.shape == (model.layer_count - 1, model.width + 2, 3)
    for h in hidden:
        assert h.shape == (3, model.width) and h.flags.f_contiguous and not h.flags.c_contiguous
        assert h.base is buffer
    assert final.shape == (3, model.latent_dim) and final.flags.c_contiguous and final.flags.owndata
    # The fused conditioning is feature-major too: eval adds each layer's to its (width, frames) product.
    for w, fused in zip(model.weights, conditioning.layers, strict=True):
        assert fused.shape == (w["Abc"].shape[0], 3) and fused.flags.c_contiguous


@settings(max_examples=60, deadline=None)
@given(fusion=st.sampled_from(FUSION_MODES), layers=st.integers(2, 5), width=st.integers(2, 130),
       latent_dim=st.integers(1, 64), frames=st.integers(1, 17),
       cond_dim=st.integers(0, 9), shared=st.booleans(), t=st.floats(0.0, 1.0), seed=st.integers(0, 2**32))
def test_weight_layout_changes_only_rounding(fusion, layers, width, latent_dim, frames, cond_dim, shared, t, seed):
    model = build_model(seed, layers, width, latent_dim, cond_dim, fusion)
    # eval reads only the block, so the variant swaps in an F-ordered copy of the block itself.
    f_ordered = dataclasses.replace(model, weights=[{**w, "Abc": np.array(w["Abc"], order="F")}
                                                    for w in model.weights])
    for w, v in zip(model.weights, f_ordered.weights):
        # A one-row block (latent_dim 1, last layer) is both C- and F-contiguous; hidden blocks never are.
        assert v["Abc"].flags.f_contiguous and (v["Abc"].shape[0] == 1 or not v["Abc"].flags.c_contiguous)
        assert np.array_equal(v["Abc"], w["Abc"]) and not np.shares_memory(v["Abc"], w["Abc"])
    z, cond = _random_inputs(seed, frames, latent_dim, cond_dim, shared)
    got, ref = model.eval(z, t, cond).per_layer, f_ordered.eval(z, t, cond).per_layer
    assert len(got) == len(ref) == layers
    for g, r in zip(got, ref):
        assert np.max(np.abs(g - r)) <= 1e-12


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


NON_FINITE = [np.nan, np.inf, -np.inf]


def _holding(bad):
    x = SeededRng(5).normal(3)
    x[1] = bad
    return x


@pytest.mark.parametrize("bad", NON_FINITE)
@pytest.mark.parametrize("target", ["x0", "x1"])
def test_forward_diffuse_rejects_non_finite(bad, target):
    args = {"x0": np.zeros(3), "x1": np.ones(3), target: _holding(bad)}
    with pytest.raises(ValueError, match=f"{target} contains NaN or inf"):
        forward_diffuse(args["x0"], args["x1"], 0.5)


@pytest.mark.parametrize("bad", NON_FINITE)
@pytest.mark.parametrize("target", ["pred", "x0", "x1"])
def test_velocity_loss_rejects_non_finite(bad, target):
    args = {"pred": np.zeros(3), "x0": np.zeros(3), "x1": np.ones(3), target: _holding(bad)}
    with pytest.raises(ValueError, match=f"{target} contains NaN or inf"):
        velocity_loss(args["pred"], args["x0"], args["x1"])


@pytest.mark.parametrize("bad", NON_FINITE)
@pytest.mark.parametrize("target", ["z_gt", "z_eps"])
def test_masked_recon_loss_rejects_non_finite(bad, target):
    args = {"z_gt": np.ones(3), "z_eps": np.zeros(3), target: _holding(bad)}
    with pytest.raises(ValueError, match=f"{target} contains NaN or inf"):
        masked_recon_loss(args["z_gt"], args["z_eps"], MaskPair(np.zeros(3), np.zeros(3)))


@pytest.mark.parametrize("call", [
    lambda: forward_diffuse(np.zeros(3), np.zeros(4), 0.5),
    lambda: velocity_loss(np.zeros(3), np.zeros(3), np.zeros((1, 3))),
    lambda: masked_recon_loss(np.zeros(3), np.zeros(3), MaskPair(np.zeros(3), np.zeros(2))),
], ids=["forward_diffuse", "velocity_loss", "masked_recon_loss"])
def test_shape_mismatch_rejected(call):
    # (3,) against (1, 3) would broadcast; the check refuses any shape but the first argument's.
    with pytest.raises(ValueError, match="shape mismatch"):
        call()


BIG = np.array([1e200])


@pytest.mark.parametrize("name,loss", [
    ("velocity_loss", lambda: velocity_loss(BIG, np.zeros(1), np.zeros(1))),
    ("velocity_loss", lambda: velocity_loss(np.zeros(1), -BIG * 1e108, BIG * 1e108)),
    ("masked_recon_loss", lambda: masked_recon_loss(BIG, np.zeros(1), MaskPair(np.zeros(1), np.zeros(1)))),
], ids=["velocity_loss", "velocity_loss-target-overflows", "masked_recon_loss"])
def test_loss_overflow_rejected(name, loss):
    # Finite inputs whose squared error exceeds float64: a ValueError, not inf and a RuntimeWarning.
    with pytest.raises(ValueError, match=f"{name} overflows"):
        loss()


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

    def test_step_composition_on_constant_field(self):
        z, v = SeededRng(1).normal(4), SeededRng(2).normal(4)
        two = euler_step(euler_step(z, v, 0.1), v, 0.1)
        one = euler_step(z, v, 0.2)
        assert np.allclose(two, one, atol=1e-12)

    def test_full_sampler_counts_and_length(self):
        m = small_model()
        cfg = SamplerConfig(steps=7)
        traj, evals = sample_full(m, SeededRng(1).normal((1, 12)), np.zeros(4), cfg)
        assert evals == 7 and len(traj) == 8

    def test_single_step_single_eval(self):
        m = small_model()
        traj, evals = sample_full(m, SeededRng(1).normal((1, 12)), np.zeros(4), SamplerConfig(steps=1))
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
        z, cond = SeededRng(1).normal((1, 12)), SeededRng(2).normal(4)
        t1, _ = sample_full(m, z, cond, SamplerConfig(steps=20))
        t2, _ = sample_full(m, z, cond, SamplerConfig(steps=20))
        assert all(np.array_equal(a, b) for a, b in zip(t1, t2))

    def test_schedule_validation(self):
        with pytest.raises(ValueError):
            SamplerConfig(steps=0)
        with pytest.raises(ValueError, match="steps: expected an integer, got True"):
            SamplerConfig(steps=True)

    def test_config_is_frozen(self):
        # Checked once when built, so it cannot be made invalid afterwards.
        cfg = SamplerConfig(steps=4)
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.steps = 0
        assert cfg.steps == 4
