"""Adaptive latent prediction: anchor cache, finite differences, dynamics.

Full model evaluations happen only at anchor steps spaced ``anchor_spacing``
apart; between anchors, per-layer outputs are extrapolated with a truncated
Taylor series whose derivatives are approximated by the finite differences
at the newest anchor. The cache holds that table, the one
``finite_differences`` returns, which each anchor replaces by Newton's rule,
and the latent shape, not the anchors' outputs. Two scalar correctors adapt
the series: ``scale_s`` tracks how fast the latents currently change versus
the mean ``SigmaHistory`` takes at each anchor, ``layer_weight`` each layer's
derivative magnitude versus the cross-layer average. ``PredictorState``, one
per window of ``run_long``, is the interface; the rest is its internals.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .core import EPS, at_least, check_kinds, check_rule, layer_means, mean
from .flow_model import LayerOutputs


@dataclass(frozen=True)
class PredictorConfig:
    anchor_spacing: int = 5     # full evaluations every this many steps (K)
    max_order: int = 3          # highest finite-difference order kept (n)
    alpha: float = 1.5          # exponent of the variation-rate corrector
    dynamics_enabled: bool = True

    def __post_init__(self):
        check_kinds(self)
        check_rule(at_least(1), self.anchor_spacing, "anchor_spacing")
        check_rule(at_least(0), self.max_order, "max_order")
        check_rule((lambda a: 0.5 <= a <= 1.5, "must lie in [0.5, 1.5]"), self.alpha, "alpha")


class SigmaHistory:
    """Per-anchor latent variation rates; ``average``, their mean, is taken once per ``record``."""

    def __init__(self):
        self.sigmas: list[float] = []
        self.average = 0.0

    def record(self, sigma: float):
        self.sigmas.append(float(sigma))
        self.average = mean(self.sigmas)


class AnchorCache:
    """The newest ``capacity`` anchor evaluations, held as their Newton difference table.

    ``table`` is the ``DiffTable`` at the newest anchor, orders capped at
    ``capacity - 1``, and ``None`` before the first push; it is what
    ``finite_differences`` returns. ``shape`` is the newest anchor's latent
    shape. A push builds a new table, so a table taken earlier is never
    changed. Each anchor step must be exactly ``spacing`` past the previous
    one, as ``PredictorState.step`` pushes them, and its layers must have
    the cached anchors' count and shapes.
    """

    def __init__(self, spacing: int, capacity: int):
        self.spacing = spacing
        self.capacity = capacity
        self.table: DiffTable | None = None
        self.shape: tuple | None = None
        self.newest_step: int | None = None

    def __len__(self) -> int:
        return 0 if self.table is None else self.table.max_order + 1

    def push(self, step: int, outputs: LayerOutputs, hist: SigmaHistory | None = None):
        """Make ``outputs`` the newest anchor: row i becomes old row i-1 - new row i-1.

        Each order is two subtractions, one over the hidden stack and one over
        the final layer, whatever the layer count.
        """
        if self.newest_step is not None and step - self.newest_step != self.spacing:
            raise ValueError("anchor spacing violated")
        hidden, final = outputs.hidden_stack(), np.asarray(outputs.per_layer[-1], dtype=np.float64)
        old = self.table
        if old is not None and (hidden.shape != old.hidden[0].shape or final.shape != old.final[0].shape):
            self._refuse_layers(hidden, final)
        orders = min(len(self), self.capacity - 1)
        new_hidden, new_final = [hidden], [final]
        for i in range(1, orders + 1):
            new_hidden.append(old.hidden[i - 1] - new_hidden[i - 1])
            new_final.append(old.final[i - 1] - new_final[i - 1])
        if hist is not None and old is not None:
            # The final layer's order-1 row is old - new, the exact negation of new - old, so its
            # norm is bitwise the same; without that row (capacity 1) the difference is taken here.
            # The norm is np.linalg.norm's float64 path, sqrt of the raveled row's dot, sans wrapper.
            change = (new_final[1] if orders else final - old.final[0]).ravel(order="K")
            hist.record(math.sqrt(change.dot(change)) / self.spacing)
        self.table = DiffTable(new_hidden, new_final)
        self.shape, self.newest_step = outputs.shape, step

    def _refuse_layers(self, hidden: np.ndarray, final: np.ndarray):
        """A ValueError naming the first layer whose shape is not the cached anchors'.

        ``push`` calls it when the shapes differ: unchecked, a mismatched
        layer would broadcast against the table, or a missing one shift the
        final layer into the hidden stack.
        """
        cached = self.table.hidden[0]
        if len(hidden) != len(cached):
            raise ValueError(f"anchor has {len(hidden) + 1} layers, the cached anchors have {len(cached) + 1}")
        for l, got, want in ((0, hidden.shape[1:], cached.shape[1:]),
                             (len(hidden), final.shape, self.table.final[0].shape)):
            if got != want:
                raise ValueError(f"anchor's layer {l} has shape {got}, the cached anchors' has {want}")


@dataclass(eq=False)
class DiffTable:
    """Finite differences at the newest anchor, orders 0..max_order; ``AnchorCache.push`` builds it.

    ``hidden[i]`` stacks every hidden layer's i-th difference (layer first),
    and ``final[i]`` is the final layer's. ``layer(l)`` and ``per_layer``
    read them layer by layer, a hidden layer's as views of the stacks.
    """

    hidden: list  # hidden[i] = i-th difference of every hidden layer, shape (layers - 1, ...)
    final: list   # final[i] = i-th difference of the final layer
    max_order: int = field(init=False)
    layer_count: int = field(init=False)
    # order -> every layer's layer_weight, filled on the order's first query
    weights: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        self.max_order = len(self.final) - 1
        self.layer_count = len(self.hidden[0]) + 1

    def layer(self, l: int) -> list:
        """Layer l's differences, orders 0..max_order; l counts from 0."""
        return self.final if l == self.layer_count - 1 else [h[l] for h in self.hidden]

    @property
    def per_layer(self) -> list:
        """``per_layer[l][i]`` = i-th difference at layer l."""
        return [self.layer(l) for l in range(self.layer_count)]


def finite_differences(cache: AnchorCache) -> DiffTable:
    """The difference table the cache holds, newest anchor as base: the same object until the next push."""
    if cache.table is None:
        raise ValueError("empty anchor cache")
    return cache.table


def scale_s(hist: SigmaHistory, alpha: float) -> float:
    """Variation-rate corrector (sigma_newest / sigma_avg)^alpha.

    Returns the neutral 1.0 before any sigma is recorded, and when the newest
    or the average sigma is below EPS: a field that does not change between
    anchors gives no rate to compare, and a ratio of 0 (or 0/0) would make
    ``predict`` divide by zero. The history took the average at its last
    ``record``, so this is a few float operations.
    """
    if not hist.sigmas:
        return 1.0
    newest, average = hist.sigmas[-1], hist.average
    if newest < EPS or average < EPS:
        return 1.0
    return (newest / average) ** alpha


def layer_weight(table: DiffTable, layer: int, order: int) -> float:
    """1/sqrt of the layer's difference magnitude over the cross-layer mean.

    The table does not change once built, so the first query at an order
    computes every layer's weight and later queries read the stored one.
    That query takes every hidden layer's magnitude from one reduction over
    the order's hidden stack (``core.layer_means``), bitwise each layer's
    own ``core.mean``, and forms the weights on Python floats: the same IEEE
    operations as NumPy's, without a call per operation on a few elements.
    """
    if order > table.max_order:
        raise ValueError(f"order {order} not present in difference table")
    weights = table.weights.get(order)
    if weights is None:
        mags = layer_means(np.abs(table.hidden[order])).tolist()
        mags.append(mean(np.abs(table.final[order])))
        avg = max(mean(mags), EPS)
        weights = table.weights[order] = []
        for m in mags:  # not a comprehension: one would make avg a cell, built at every query
            weights.append(1.0 / math.sqrt(max(m / avg, EPS)))
    return weights[layer]


def extrapolate_layer(diffs: list, terms: list) -> np.ndarray:
    """diffs[0] + sum_i diffs[i] * num_i / den_i over the (num_i, den_i) of orders 1..m.

    Every term is formed in the array the first one allocates, multiply then
    divide, as ``diffs[i] * num / den`` would, so the result is bitwise the same.
    """
    acc = diffs[0].copy(order="K")  # in the layer's own layout: eval's hidden outputs are F-ordered
    term = None
    for i, (num, den) in enumerate(terms, start=1):
        term = np.multiply(diffs[i], num, out=term)
        term /= den
        acc += term
    return acc


class PredictedLayers(Sequence):
    """Read-only per-layer outputs of a predicted step; each is built on its first read.

    Layer l is ``extrapolate_layer(diffs[l], terms[l])``. The terms are fixed
    by ``predict``, so a layer first read after the next anchor still uses the
    correctors of the step it was predicted at. The final layer, the one
    ``run_long`` reads right away, is built here, from the table's own rows.
    """

    def __init__(self, table: DiffTable, terms: list):
        self._table = table
        self._terms = terms
        self._layers = [None] * (len(terms) - 1) + [extrapolate_layer(table.final, terms[-1])]

    def __len__(self) -> int:
        return len(self._layers)

    def __getitem__(self, l) -> np.ndarray:
        l = range(len(self._layers))[operator.index(l)]  # from 0, for DiffTable.layer
        if self._layers[l] is None:
            self._layers[l] = extrapolate_layer(self._table.layer(l), self._terms[l])
        return self._layers[l]


def predict(cache: AnchorCache, table: DiffTable, hist: SigmaHistory,
            k: int, cfg: PredictorConfig) -> LayerOutputs:
    """Extrapolate the layer outputs k steps past the newest anchor.

    Per layer: f(a) + sum_{i=1..m} diff_i * (-k)^i / (i! * K^i * w_i * s),
    with m capped by both max_order and the cached history. The correctors
    stay neutral while the cache is still warming up. Every layer's scalar
    terms are computed here; the final layer, the one the sampler reads, is
    built here too, and the others on their first read (``PredictedLayers``).
    The variation-rate corrector s is formed per call from the mean the
    history took at its last anchor, each order's i! * K^i once per call,
    and ``layer_weight`` is looked up once per (layer, order). A hidden layer
    is read from the table's stacks as views, when it is first read.
    """
    if not 1 <= k <= cfg.anchor_spacing - 1:
        raise ValueError(f"k must lie in [1, {cfg.anchor_spacing - 1}]")
    if not len(cache):
        raise ValueError("empty anchor cache")
    m = min(cfg.max_order, len(cache) - 1)
    warmed = len(cache) >= cfg.max_order + 1 and bool(hist.sigmas)
    use_dynamics = cfg.dynamics_enabled and warmed
    s = scale_s(hist, cfg.alpha) if use_dynamics else 1.0
    orders = [((-k) ** i, math.factorial(i) * cfg.anchor_spacing ** i) for i in range(1, m + 1)]
    terms = [[(num, den * (layer_weight(table, l, i) if use_dynamics else 1.0) * s)
              for i, (num, den) in enumerate(orders, start=1)]
             for l in range(table.layer_count)]
    return LayerOutputs(PredictedLayers(table, terms), cache.shape)


def is_anchor_step(step_index: int, cfg: PredictorConfig) -> bool:
    """Anchors sit every anchor_spacing steps, starting at the first step."""
    return step_index % cfg.anchor_spacing == 0


class PredictorState:
    """Anchor cache + dynamics bookkeeping for one sampling stream.

    ``windows.run_long`` keeps one instance per context window on the
    accelerated path and calls ``step`` once per denoising step; ``evals``
    counts the anchor steps, the only steps that evaluate the model.
    """

    def __init__(self, cfg: PredictorConfig):
        self.cfg = cfg
        self.cache = AnchorCache(cfg.anchor_spacing, cfg.max_order + 1)
        self.hist = SigmaHistory()
        self.evals = 0

    def step(self, model, z: np.ndarray, t: float, cond, step_index: int) -> LayerOutputs:
        if is_anchor_step(step_index, self.cfg):
            out = model.eval(z, t, cond)
            self.evals += 1
            if self.cfg.dynamics_enabled:
                self.cache.push(step_index, out, self.hist)
            else:  # nothing reads a hidden layer or sigma: the table keeps the final layer's only
                self.cache.push(step_index, LayerOutputs(out.per_layer[-1:], out.shape))
            return out
        if not len(self.cache):
            raise ValueError(f"step {step_index} is a predicted step, but no anchor has been evaluated yet")
        k = step_index - self.cache.newest_step
        return predict(self.cache, finite_differences(self.cache), self.hist, k, self.cfg)
