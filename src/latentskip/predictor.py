"""Adaptive latent prediction: anchor cache, finite differences, dynamics.

Full model evaluations happen only at anchor steps spaced ``anchor_spacing``
apart; between anchors, per-layer outputs are extrapolated with a truncated
Taylor series whose derivatives are approximated by the finite differences
at the newest anchor. The cache keeps that table, which each anchor updates
by Newton's rule, and the latent shape, not the anchors' outputs. Two scalar
correctors adapt the series: ``scale_s`` tracks how fast the latents
currently change versus average, ``layer_weight`` tracks each layer's
derivative magnitude versus the cross-layer average. ``PredictorState``, one
per window of ``run_long``, is the interface; the rest is its internals.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .core import EPS, check_kinds, mean
from .flow_model import LayerOutputs


@dataclass(frozen=True)
class PredictorConfig:
    anchor_spacing: int = 5     # full evaluations every this many steps (K)
    max_order: int = 3          # highest finite-difference order kept (n)
    alpha: float = 1.5          # exponent of the variation-rate corrector
    dynamics_enabled: bool = True

    def __post_init__(self):
        check_kinds(self)
        if self.anchor_spacing < 1:
            raise ValueError("anchor_spacing must be >= 1")
        if self.max_order < 0:
            raise ValueError("max_order must be >= 0")
        if not 0.5 <= self.alpha <= 1.5:
            raise ValueError("alpha must lie in [0.5, 1.5]")


class SigmaHistory:
    """Per-anchor latent variation rates and their running mean."""

    def __init__(self):
        self.sigmas: list[float] = []

    def record(self, sigma: float):
        self.sigmas.append(float(sigma))

    @property
    def newest(self) -> float:
        return self.sigmas[-1]

    @property
    def average(self) -> float:
        return mean(self.sigmas) if self.sigmas else 0.0


class AnchorCache:
    """Newton forward-difference table of the newest ``capacity`` anchor evaluations.

    ``rows[l][i]`` is the i-th difference at layer l with the newest anchor as
    base, orders capped at ``capacity - 1``; ``shape`` is the newest anchor's
    latent shape. A push builds fresh row lists, so a table taken earlier is
    never changed. Each anchor step must be exactly ``spacing`` past the
    previous one, as ``PredictorState.step`` pushes them.
    """

    def __init__(self, spacing: int, capacity: int):
        self.spacing = spacing
        self.capacity = capacity
        self.rows: list[list[np.ndarray]] = []
        self.shape: tuple | None = None
        self.newest_step: int | None = None

    def __len__(self) -> int:
        return len(self.rows[0]) if self.rows else 0

    def push(self, step: int, outputs: LayerOutputs, hist: SigmaHistory | None = None):
        """Make ``outputs`` the newest anchor: row i becomes old row i-1 - new row i-1."""
        if self.newest_step is not None and step - self.newest_step != self.spacing:
            raise ValueError("anchor spacing violated")
        orders = min(len(self), self.capacity - 1)
        rows = []
        for l, value in enumerate(outputs.per_layer):
            new = [np.asarray(value, dtype=np.float64)]
            for i in range(1, orders + 1):
                new.append(self.rows[l][i - 1] - new[i - 1])
            rows.append(new)
        if hist is not None and self.rows:
            # The final layer's order-1 row is old - new, the exact negation of new - old, so its
            # norm is bitwise the same; without that row (capacity 1) the difference is taken here.
            change = rows[-1][1] if orders else rows[-1][0] - self.rows[-1][0]
            hist.record(float(np.linalg.norm(change)) / self.spacing)
        self.rows = rows
        self.shape, self.newest_step = outputs.shape, step


@dataclass(eq=False)
class DiffTable:
    """Per-layer finite differences at the newest anchor, orders 0..max."""

    per_layer: list  # per_layer[l][i] = i-th difference at layer l
    # order -> every layer's layer_weight, filled on the order's first query
    weights: dict = field(default_factory=dict, init=False, repr=False)
    # (alpha, sigma count) -> scale_s, filled by predict's first query: a history only grows, by one
    # sigma per anchor push, and every anchor builds a new table, so s is taken once per anchor
    scales: dict = field(default_factory=dict, init=False, repr=False)

    @property
    def max_order(self) -> int:
        return len(self.per_layer[0]) - 1


def finite_differences(cache: AnchorCache) -> DiffTable:
    """The cache's difference table, newest anchor as base."""
    if not len(cache):
        raise ValueError("empty anchor cache")
    return DiffTable(cache.rows)


def scale_s(hist: SigmaHistory, alpha: float) -> float:
    """Variation-rate corrector (sigma_newest / sigma_avg)^alpha.

    Returns the neutral 1.0 before any sigma is recorded, and when the newest
    or the average sigma is below EPS: a field that does not change between
    anchors gives no rate to compare, and a ratio of 0 (or 0/0) would make
    ``predict`` divide by zero.
    """
    if not hist.sigmas:
        return 1.0
    newest, average = hist.newest, hist.average
    if newest < EPS or average < EPS:
        return 1.0
    return (newest / average) ** alpha


def layer_weight(table: DiffTable, layer: int, order: int) -> float:
    """1/sqrt of the layer's difference magnitude over the cross-layer mean.

    The table does not change once built, so the first query at an order
    computes every layer's weight and later queries read the stored one.
    """
    if order > table.max_order:
        raise ValueError(f"order {order} not present in difference table")
    weights = table.weights.get(order)
    if weights is None:
        mags = [mean(np.abs(diffs[order])) for diffs in table.per_layer]
        avg = max(mean(mags), EPS)
        weights = table.weights[order] = [1.0 / math.sqrt(max(mag / avg, EPS)) for mag in mags]
    return weights[layer]


def extrapolate_layer(diffs: list, terms: list) -> np.ndarray:
    """diffs[0] + sum_i diffs[i] * num_i / den_i over the (num_i, den_i) of orders 1..m."""
    acc = diffs[0].copy(order="K")  # in the layer's own layout: eval's hidden outputs are F-ordered
    for i, (num, den) in enumerate(terms, start=1):
        acc += diffs[i] * num / den
    return acc


class PredictedLayers(Sequence):
    """Read-only per-layer outputs of a predicted step; each is built on its first read.

    Layer l is ``extrapolate_layer(diffs[l], terms[l])``. The terms are fixed
    by ``predict``, so a layer first read after the next anchor still uses the
    correctors of the step it was predicted at.
    """

    def __init__(self, diffs: list, terms: list):
        self._diffs = diffs
        self._terms = terms
        self._layers = [None] * len(terms)

    def __len__(self) -> int:
        return len(self._layers)

    def __getitem__(self, l) -> np.ndarray:
        l = operator.index(l)
        if self._layers[l] is None:
            self._layers[l] = extrapolate_layer(self._diffs[l], self._terms[l])
        return self._layers[l]


def predict(cache: AnchorCache, table: DiffTable, hist: SigmaHistory,
            k: int, cfg: PredictorConfig) -> LayerOutputs:
    """Extrapolate the layer outputs k steps past the newest anchor.

    Per layer: f(a) + sum_{i=1..m} diff_i * (-k)^i / (i! * K^i * w_i * s),
    with m capped by both max_order and the cached history. The correctors
    stay neutral while the cache is still warming up. Every layer's scalar
    terms are computed here; the final layer, the one the sampler reads, is
    built here too, and the others on their first read (``PredictedLayers``).
    The variation-rate corrector s changes only at an anchor, so it is taken
    once per difference table (stored in ``table.scales``), and each order's
    i! * K^i once per call; ``layer_weight`` is still looked up once per
    (layer, order).
    """
    if not 1 <= k <= cfg.anchor_spacing - 1:
        raise ValueError(f"k must lie in [1, {cfg.anchor_spacing - 1}]")
    if not len(cache):
        raise ValueError("empty anchor cache")
    m = min(cfg.max_order, len(cache) - 1)
    warmed = len(cache) >= cfg.max_order + 1 and bool(hist.sigmas)
    use_dynamics = cfg.dynamics_enabled and warmed
    s = 1.0
    if use_dynamics:
        key = (cfg.alpha, len(hist.sigmas))
        s = table.scales.get(key)
        if s is None:
            s = table.scales[key] = scale_s(hist, cfg.alpha)
    orders = [((-k) ** i, math.factorial(i) * cfg.anchor_spacing ** i) for i in range(1, m + 1)]
    terms = [[(num, den * (layer_weight(table, l, i) if use_dynamics else 1.0) * s)
              for i, (num, den) in enumerate(orders, start=1)]
             for l in range(len(table.per_layer))]
    layers = PredictedLayers(table.per_layer, terms)
    layers[-1]  # built now: run_long reads only the final layer, right after this returns
    return LayerOutputs(layers, cache.shape)


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
        self.table: DiffTable | None = None
        self.evals = 0

    def step(self, model, z: np.ndarray, t: float, cond, step_index: int) -> LayerOutputs:
        if is_anchor_step(step_index, self.cfg):
            out = model.eval(z, t, cond)
            self.evals += 1
            self.cache.push(step_index, out, self.hist)
            self.table = finite_differences(self.cache)
            return out
        if self.table is None:
            raise ValueError(f"step {step_index} is a predicted step, but no anchor has been evaluated yet")
        k = step_index - self.cache.newest_step
        return predict(self.cache, self.table, self.hist, k, self.cfg)
