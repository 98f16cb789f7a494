"""Layered toy denoiser, rectified-flow process and losses.

The model is a small tanh MLP applied independently per frame. It is smooth
in the timestep, so finite-difference extrapolation of its outputs behaves
like it would on a real layered denoiser, at desk scale.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .core import SeededRng, at_least, check_kinds, check_rule, mean, require_finite, require_real
from .norm_fusion import FUSION_MODES, MODE_RULE, fuse_kernel, image_moments, normalize_portrait


def fuse_streams(x: np.ndarray, fused: np.ndarray) -> None:
    """The step's half of the fusion: ``x += fused``, unchecked; ``Conditioning`` checked ``fused`` once.

    A module-level function that ``ToyModel.eval`` looks up once per layer,
    because perfbench/tracer.py times the fusion by wrapping it.
    """
    x += fused


def stack_layers(layers: Sequence) -> np.ndarray:
    """Same-shaped layers as one float64 array, layer first; no layers give an empty (0,) array.

    ``np.stack`` keeps the layers' own memory order (F-contiguous layers stay
    F-contiguous), so a reduction over the stack reads each layer's values in
    the order a reduction over that layer alone reads them. A layer whose
    shape is not layer 0's is a ValueError naming it.
    """
    layers = [np.asarray(v, dtype=np.float64) for v in layers]
    for l, v in enumerate(layers):
        if v.shape != layers[0].shape:
            raise ValueError(f"layer {l} has shape {v.shape}, layer 0 has {layers[0].shape}: "
                             "the hidden layers must share one shape")
    return np.stack(layers) if layers else np.empty(0)


@dataclass(eq=False)
class LayerOutputs:
    """Per-layer activations of one model evaluation.

    ``per_layer[i]`` has shape (frames, layer_width); the last layer maps
    back to the frame feature width so ``final`` is a velocity with the
    input latent's shape. A model evaluation gives a list, its hidden layers
    F-contiguous and its last layer C-contiguous (see ``ToyModel``), and
    ``hidden``, every hidden layer in one (layer_count - 1, frames, width)
    array, of which those hidden layers are views. Outputs built from a
    plain list leave ``hidden`` unset; ``hidden_stack`` stacks them once,
    on first use, so the anchor cache reads one stack either way. A
    predicted step gives a read-only sequence that builds each hidden layer
    on its first read (``predictor.PredictedLayers``).
    """

    per_layer: Sequence  # of np.ndarray, length == layer_count
    shape: tuple     # latent shape the final output reshapes to
    hidden: np.ndarray | None = field(default=None, repr=False)  # per_layer[:-1], stacked

    @property
    def final(self) -> np.ndarray:
        return self.per_layer[-1].reshape(self.shape)

    def __len__(self) -> int:
        return len(self.per_layer)

    def hidden_stack(self) -> np.ndarray:
        """``hidden``, stacked from ``per_layer[:-1]`` by ``stack_layers`` if unset, and kept."""
        if self.hidden is None:
            self.hidden = stack_layers([self.per_layer[l] for l in range(len(self) - 1)])
        return self.hidden


@dataclass(frozen=True)
class SamplerConfig:
    steps: int = 50

    def __post_init__(self):
        check_kinds(self)
        check_rule(at_least(1), self.steps, "steps")

    def timesteps(self) -> np.ndarray:
        """Uniform t_j = j/steps, descending from 1 to 0."""
        return np.linspace(1.0, 0.0, self.steps + 1)


@dataclass(eq=False)
class MaskPair:
    face: np.ndarray
    lip: np.ndarray

    def __post_init__(self):
        for m in (self.face, self.lip):
            if not (np.min(m) >= 0.0 and np.max(m) <= 1.0):  # NaN compares False, so it is rejected too
                raise ValueError("mask elements must lie in [0, 1]")


@dataclass(frozen=True, eq=False)
class Conditioning:
    """One cond's step-invariant conditioning for ``frames`` frames, from ``ToyModel.condition``.

    ``layers[m]`` is layer m's fused conditioning: the portrait stream
    aligned to the image stream and added to it (``norm_fusion.fuse_kernel``),
    feature-major, of shape (layer_width, frames), as ``eval`` adds it to its
    layer products. No step changes either stream, so the whole fusion runs
    once per window, and ``ToyModel.eval`` only adds each layer's array
    (``fuse_streams``, unchecked) at every step. What that add needs is
    checked here, once, when the conditioning is built: a known fusion mode
    and one float64 array of shape (layer_width, frames) per layer of
    ``model``. ``model`` is the model that built it; ``eval`` rejects a
    conditioning any other model built.
    """

    frames: int
    layers: tuple
    model: ToyModel = field(repr=False)

    def __post_init__(self):
        check_rule(MODE_RULE, self.model.fusion_mode, "fusion_mode")
        if len(self.layers) != self.model.layer_count:
            raise ValueError(f"conditioning has {len(self.layers)} layers, "
                             f"the model has {self.model.layer_count}")
        for m, (w, fused) in enumerate(zip(self.model.weights, self.layers)):
            shape = (w["Abc"].shape[0], self.frames)
            if not (isinstance(fused, np.ndarray) and fused.dtype == np.float64 and fused.shape == shape):
                raise ValueError(f"layer {m}'s fused conditioning must be a float64 array of shape "
                                 f"{shape}, got {type(fused).__name__} of shape {np.shape(fused)}")


@dataclass(frozen=True, eq=False)
class ToyModel:
    """Deterministic layered denoiser surrogate.

    Layer m computes h_m = tanh(A_m h_{m-1} + b_m + t*c_m + cond_m) where
    cond_m fuses an image-conditioning stream and a portrait-conditioning
    stream according to ``fusion_mode``. Applied per frame to a latent of
    shape (frames, *frame) with prod(frame) == latent_dim; the last layer
    returns to the frame width so the final output is a velocity. The
    fused streams do not depend on the step, so a sampler builds them once
    per window with ``condition`` and passes the result to every ``eval``.

    Each layer stores A_m, b_m and c_m side by side in one C-ordered block
    ``Abc`` = [A | b | c] of shape (out, in + 2). ``eval`` runs feature-major:
    a layer's input is the column block [h; 1; t] of shape (in + 2, frames),
    so A_m h + b_m + t*c_m is the one product ``Abc @ [h; 1; t]``. The hidden
    outputs are written into one buffer per call, of shape
    (layer_count - 1, width + 2, frames), whose blocks hold their (1, t)
    rows last; each hidden output is its block's transpose, one F-contiguous
    (frames, width) block, and ``LayerOutputs.hidden`` is the buffer's
    (layer_count - 1, frames, width) view of all of them, with no copy. The
    last layer is a C-contiguous (frames, latent_dim) copy. The fields are
    frozen: a ``Conditioning`` is checked against its model once, when
    built, so the model's fusion mode and layers must not change under it.
    """

    layer_count: int
    width: int
    latent_dim: int
    cond_dim: int
    fusion_mode: str = "baseline-add"
    weights: list = field(default_factory=list)  # per layer: dict(Abc, its view A, P_img, P_p)

    def eval(self, z: np.ndarray, t: float, cond) -> LayerOutputs:
        """Every layer's output at ``t``; ``cond`` is a raw cond or this model's ``Conditioning`` of it.

        A non-finite ``t`` is a ValueError: it would make every output NaN; so is a complex ``z``.
        """
        if not math.isfinite(t):
            raise ValueError(f"t must be finite, got {t}")
        z = np.asarray(z)
        if z.dtype != np.float64:  # the samplers pass float64, which needs neither check nor cast
            require_real(z=z)
            z = z.astype(np.float64)
        if z.ndim == 0 or math.prod(z.shape[1:]) != self.latent_dim:
            raise ValueError(f"latent of shape {z.shape} incompatible with frame width {self.latent_dim}: "
                             "frames run along the first axis")
        if not isinstance(cond, Conditioning):
            cond = self.condition(cond, len(z))
        elif cond.model is not self:
            other = cond.model
            raise ValueError(f"conditioning built by another model (fusion {other.fusion_mode!r}, "
                             f"{other.layer_count} layers), not by this one "
                             f"(fusion {self.fusion_mode!r}, {self.layer_count} layers)")
        elif cond.frames != len(z):
            raise ValueError(f"conditioning built for {cond.frames} frames, latent has {len(z)}")
        # Feature-major: Abc @ [h; 1; t] is A h + b + t c, shape (out, frames). Each hidden
        # product is written straight into the next block of one buffer, whose (1, t) rows are
        # already set, and the block's transpose is returned; the last layer is copied out C-contiguous.
        # The buffer is new at every call, because the predictor keeps an anchor's outputs, and
        # the hidden layers go to the predictor as one (layers - 1, frames, width) view of it.
        frames = len(z)
        first = np.empty((self.latent_dim + 2, frames))
        first[:-2] = z.reshape(frames, self.latent_dim).T
        first[-2], first[-1] = 1.0, t
        hidden = np.empty((self.layer_count - 1, self.width + 2, frames))
        hidden[:, -2], hidden[:, -1] = 1.0, t
        stack = hidden[:, :-2]  # every block's output rows
        hin, outs, last = first, [], self.layer_count - 1
        for m, (w, fused) in enumerate(zip(self.weights, cond.layers, strict=True)):
            x = w["Abc"].dot(hin, None if m == last else stack[m])  # matmul's BLAS call, no gufunc dispatch
            fuse_streams(x, fused)
            np.tanh(x, out=x)
            outs.append(x.T.copy() if m == last else x.T)
            hin = hidden[m] if m < last else None
        return LayerOutputs(outs, z.shape, stack.transpose(0, 2, 1))

    def condition(self, cond, frames: int) -> Conditioning:
        """Fuse a shared (cond_dim,) or per-frame (frames, cond_dim) cond into every layer's conditioning.

        Each stream is built feature-major, ``P @ cond2d.T`` of shape
        (layer_width, frames), the layout of eval's layer products. The
        whole fusion runs here, once: both streams' moments are taken, then
        the portrait stream is aligned to the image stream and added to it.
        A complex cond, a None cond, or moments that are NaN or inf (a cond
        holding NaN or inf, or one that overflows float64 in them), is a
        ValueError naming ``cond``. A fused value that overflows float64 is
        inf, which the layer's tanh saturates, as a step's overflow does.
        ``eval`` adds each layer's fused array to its layer product.
        """
        check_rule(MODE_RULE, self.fusion_mode, "fusion_mode")  # a bad mode is not the cond's fault
        cond2d_t = self._cond_frames(cond, frames).T
        layers = []
        for m, w in enumerate(self.weights):
            s_img = w["P_img"] @ cond2d_t
            try:
                si = image_moments(s_img, self.fusion_mode)
                p = normalize_portrait(w["P_p"] @ cond2d_t, self.fusion_mode)
            except ValueError as exc:
                raise ValueError(f"cond: layer {m}'s fusion fails: {exc}") from None
            with np.errstate(over="ignore"):
                layers.append(fuse_kernel(s_img, si, p, self.fusion_mode))
        return Conditioning(frames, tuple(layers), self)

    def _cond_frames(self, cond, frames: int) -> np.ndarray:
        if cond is None:  # np.asarray would make it a 0-d NaN
            raise ValueError(f"cond is None: a ToyModel takes a shared ({self.cond_dim},) "
                             f"or a per-frame ({frames}, {self.cond_dim}) cond")
        require_real(cond=cond)
        cond = np.asarray(cond, dtype=np.float64)
        if cond.ndim == 1:
            if len(cond) != self.cond_dim:
                raise ValueError(f"cond of shape {cond.shape} incompatible with ({self.cond_dim},): "
                                 "a shared cond holds cond_dim values")
            cond = np.broadcast_to(cond, (frames, self.cond_dim))
        if cond.shape != (frames, self.cond_dim):
            raise ValueError(f"cond of shape {cond.shape} incompatible with ({frames}, {self.cond_dim})")
        return cond


# build_model's rule for each model parameter: (holds, requirement).
MODEL_RULES = {"layer_count": at_least(2), "width": at_least(2), "latent_dim": at_least(1),
               "cond_dim": at_least(0), "fusion_mode": MODE_RULE}


def build_model(seed: int, layer_count: int = 4, width: int = 32,
                latent_dim: int = 64, cond_dim: int = 8,
                fusion_mode: str = "baseline-add") -> ToyModel:
    """Draw all weights from a single seeded stream, scaled by 1/sqrt(width).

    Each layer's A, b and c go into one C-ordered block ``Abc`` = [A | b | c],
    the layout ``ToyModel.eval`` reads; ``A`` is a view of it. Each
    parameter must keep its rule in ``MODEL_RULES``.
    """
    for param, value in (("layer_count", layer_count), ("width", width), ("latent_dim", latent_dim),
                         ("cond_dim", cond_dim), ("fusion_mode", fusion_mode)):
        check_rule(MODEL_RULES[param], value, param)
    rng = SeededRng(seed)
    scale = 1.0 / math.sqrt(width)
    weights = []
    for m in range(layer_count):
        in_dim = latent_dim if m == 0 else width
        out_dim = latent_dim if m == layer_count - 1 else width
        # [A | b | c], C-ordered: eval's one product per layer, Abc @ [h; 1; t], reads it unrepacked.
        abc = np.empty((out_dim, in_dim + 2))
        abc[:, :in_dim] = rng.normal((out_dim, in_dim)) * scale
        abc[:, in_dim] = rng.normal(out_dim) * scale
        abc[:, in_dim + 1] = rng.normal(out_dim) * scale
        weights.append({
            "Abc": abc,
            "A": abc[:, :in_dim],
            "P_img": rng.normal((out_dim, cond_dim)) * scale,
            "P_p": rng.normal((out_dim, cond_dim)) * scale,
        })
    return ToyModel(layer_count, width, latent_dim, cond_dim, fusion_mode, weights)


def forward_diffuse(x0: np.ndarray, x1: np.ndarray, t: float) -> np.ndarray:
    """Rectified-flow forward interpolation (1-t)*x0 + t*x1."""
    if x0.shape != x1.shape:
        raise ValueError("shape mismatch")
    if not 0.0 <= t <= 1.0:
        raise ValueError("t must lie in [0, 1]")
    require_finite(x0=x0, x1=x1)
    return (1.0 - t) * x0 + t * x1


def velocity_loss(pred: np.ndarray, x0: np.ndarray, x1: np.ndarray) -> float:
    """MSE between the predicted velocity and the true velocity x1 - x0."""
    if pred.shape != x0.shape or x0.shape != x1.shape:
        raise ValueError("shape mismatch")
    require_finite(pred=pred, x0=x0, x1=x1)
    with np.errstate(over="ignore"):  # an overflow is the ValueError below, not a warning
        loss = mean((pred - (x1 - x0)) ** 2)
    return _finite_loss("velocity_loss", loss)


def masked_recon_loss(z_gt: np.ndarray, z_eps: np.ndarray, masks: MaskPair) -> float:
    """Reconstruction MSE with face/lip regions up-weighted by (1 + face + lip)."""
    if z_gt.shape != z_eps.shape or masks.face.shape != z_gt.shape or masks.lip.shape != z_gt.shape:
        raise ValueError("shape mismatch")
    require_finite(z_gt=z_gt, z_eps=z_eps)  # MaskPair has checked the masks
    with np.errstate(over="ignore"):  # an overflow is the ValueError below, not a warning
        loss = mean(((z_gt - z_eps) * (1.0 + masks.face + masks.lip)) ** 2)
    return _finite_loss("masked_recon_loss", loss)


def _finite_loss(name: str, loss: float) -> float:
    """The loss, or a ValueError naming it when float64 overflowed on finite inputs."""
    if not math.isfinite(loss):
        raise ValueError(f"{name} overflows float64 on these inputs")
    return loss

