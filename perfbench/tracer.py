"""Span tracer that times the library's layers from outside the library.

``install`` replaces module attributes (and three methods) with wrappers,
at the module where each name is looked up, so the library's own calls go
through them. A wrapper records a span (name, start, end, parent span,
request) and, for some hooks, observes the call's arguments and result.
Spans stay in memory until the run ends.

Work done inside ``untimed()`` (output checks, and the reference
evaluations behind ``predictor.extrap_err``) is cut out of the tracer's
clock, so it lands in no span and in no request time.

A hook whose target no longer exists, or whose observer stops working
because the library changed shape, makes the metrics built on it absent
(``None``), never zero and never a crash.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import importlib
import inspect
import os
import statistics
import time
from collections import defaultdict

import numpy as np

from latentskip import core

# (module, attribute looked up there, span name). A span name may be looked
# up in several modules; its metrics are absent only if all are missing.
HOOKS = (
    ("flow_model", "ToyModel.eval", "flow_model.eval"),
    ("flow_model", "euler_step", "flow_model.euler_step"),
    ("predictor", "euler_step", "flow_model.euler_step"),
    ("windows", "euler_step", "flow_model.euler_step"),
    ("flow_model", "fuse_streams", "norm_fusion.fuse"),
    ("predictor", "PredictorState.step", "predictor.step"),
    ("predictor", "AnchorCache.push", "predictor.push"),
    ("predictor", "predict", "predictor.predict"),
    ("predictor", "finite_differences", "predictor.finite_differences"),
    ("predictor", "layer_weight", "predictor.layer_weight"),
    ("windows", "run_long", "windows.run_long"),
    ("harness", "run_long", "windows.run_long"),
    ("windows", "blend_overlap", "windows.blend_overlap"),
    ("harness", "relative_l2", "core.relative_l2"),
    ("harness", "run_experiment", "harness.run_experiment"),
    ("harness", "dump_trajectory", "harness.dump_trajectory"),
    ("harness", "load_trajectory", "harness.load_trajectory"),
    ("cli", "main", "cli.main"),
)

class Tracer:
    def __init__(self):
        self.spans: list = []                # (name, start, end, parent index, request)
        self.counters = defaultdict(float)   # (request, key) -> value
        self.requests: list[int] = []
        self.installed: set[str] = set()     # span names with at least one hook
        self.broken: set[str] = set()        # span names whose observer raised
        self.request: int | None = None
        self._stack: list[int] = []
        self._paused = False
        self._excluded = 0.0
        self._patches: list = []

    # -- clock and request bookkeeping ----------------------------------------

    def clock(self) -> float:
        return time.perf_counter() - self._excluded

    @contextlib.contextmanager
    def untimed(self):
        if self._paused:
            yield
            return
        self._paused = True
        start = time.perf_counter()
        try:
            yield
        finally:
            self._excluded += time.perf_counter() - start
            self._paused = False

    def begin(self, request: int):
        self.request = request
        self.requests.append(request)

    def end(self):
        self.request = None
        self._stack.clear()

    def add(self, key: str, value: float = 1.0):
        self.counters[(self.request, key)] += value

    def peak(self, key: str, value: float):
        k = (self.request, key)
        self.counters[k] = max(self.counters.get(k, value), value)

    # -- wrapping -------------------------------------------------------------

    def _observe(self, name: str, observer, *args):
        """Run an observer untimed; if it raises, its metrics become absent."""
        if name in self.broken:
            return None
        with self.untimed():
            try:
                return observer(*args)
            except Exception:
                self.broken.add(name)
                return None

    def wrap(self, name: str, fn, before=None, after=None):
        """Span-recording wrapper around ``fn``.

        ``before(call)`` returns a token that is passed on to
        ``after(call, result, token, span_seconds)``; ``call`` maps
        parameter names to the arguments of this call.
        """
        tracer = self
        signature = inspect.signature(fn) if before or after else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer._paused or tracer.request is None:
                return fn(*args, **kwargs)
            call = tracer._observe(name, lambda: signature.bind(*args, **kwargs).arguments) \
                if signature else None
            token = tracer._observe(name, before, call) if before else None
            index = len(tracer.spans)
            tracer.spans.append(None)
            parent = tracer._stack[-1] if tracer._stack else -1
            tracer._stack.append(index)
            start = tracer.clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = tracer.clock()
                tracer._stack.pop()
                tracer.spans[index] = (name, start, end, parent, tracer.request)
            if after:
                tracer._observe(name, after, call, result, token, end - start)
            return result

        return traced

    def install(self):
        observers = {
            "flow_model.eval": (None, self._after_eval),
            "predictor.step": (self._before_step, self._after_step),
            "predictor.predict": (self._before_predict, None),
            "windows.run_long": (self._before_run_long, self._after_run_long),
            "harness.dump_trajectory": (None, self._after_dump),
        }
        for module_name, path, name in HOOKS:
            try:
                module = importlib.import_module(f"latentskip.{module_name}")
            except ImportError:
                continue
            owner_name, _, attr = path.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            original = inspect.getattr_static(owner, attr, None) if owner is not None else None
            if not inspect.isfunction(original):
                continue
            before, after = observers.get(name, (None, None))
            setattr(owner, attr, self.wrap(name, original, before, after))
            self._patches.append((owner, attr, original))
            self.installed.add(name)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- observers ------------------------------------------------------------

    def _after_eval(self, call, result, token, seconds):
        model, z = call["self"], call["z"]
        frames = np.size(z) // model.latent_dim
        self.add("eval.flops", sum(2 * frames * (w["A"].size + w["P_img"].size + w["P_p"].size)
                                   for w in model.weights))

    def _before_step(self, call):
        return call["self"].evals

    def _after_step(self, call, result, evals_before, seconds):
        if call["self"].evals > evals_before:
            self.add("predictor.anchor.calls")
            return
        self.add("predictor.predicted.calls")
        true = call["model"].eval(call["z"], call["t"], call["cond"])  # paused: no span, no count
        self.peak("extrap_err.final", core.relative_l2(result.final, true.final))
        self.peak("extrap_err.layer_max", max(
            core.relative_l2(p, q) for p, q in zip(result.per_layer, true.per_layer)
            if p is not None and np.shape(p) == np.shape(q)))

    def _before_predict(self, call):
        cache, hist, cfg = call["cache"], call["hist"], call["cfg"]
        if cfg.dynamics_enabled and len(cache) >= cfg.max_order + 1 and hist.sigmas:
            self.add("predictor.warmed")

    def _before_run_long(self, call):
        oracle = call.get("predictor_cfg") is None
        if oracle:
            self.add("harness.oracle_runs")
        return oracle

    def _after_run_long(self, call, result, oracle, seconds):
        self.add("run_long.oracle_ms" if oracle else "run_long.accel_ms", seconds * 1e3)

    def _after_dump(self, call, result, token, seconds):
        self.add("harness.dump_bytes", os.path.getsize(call["path"]))

    # -- results --------------------------------------------------------------

    def _median_over(self, value, guard=None, empty=0.0):
        """Median of ``value(r)`` over the traced requests where ``guard(r) > 0``."""
        values = [value(r) for r in self.requests if guard is None or guard(r) > 0]
        return statistics.median(values) if values else empty

    def span_ratio(self, num: str, den: str) -> float | None:
        """Median over requests of counter ``num`` over counter ``den``."""
        c = self.counters
        return self._median_over(lambda r: c.get((r, num), 0.0) / c[(r, den)],
                                 lambda r: c.get((r, den), 0.0), empty=None)

    def layer_metrics(self) -> dict:
        """Per-layer metrics as medians over traced requests; None where absent."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls, total, own = defaultdict(float), defaultdict(float), defaultdict(float)
        for i, (name, start, end, _, req) in enumerate(self.spans):
            calls[(req, name)] += 1
            total[(req, name)] += (end - start) * 1e3
            own[(req, name)] += (end - start - child[i]) * 1e3
        c = self.counters

        def per_request(table, key):
            return lambda r: table.get((r, key), 0.0)

        def span(table, name):
            return name, False, lambda: self._median_over(per_request(table, name))

        def observed(hook, value, guard=None):
            return hook, True, lambda: self._median_over(value, guard)

        eval_ms = per_request(total, "flow_model.eval")
        predicted = per_request(c, "predictor.predicted.calls")
        # name -> (hook it needs, whether it needs that hook's observer, value)
        metrics = {
            "flow_model.eval.calls": span(calls, "flow_model.eval"),
            "flow_model.eval.self_ms": span(own, "flow_model.eval"),
            # flops / (ms * 1e-3) / 1e9 = flops / ms * 1e-6
            "flow_model.eval.gflops": observed(
                "flow_model.eval", lambda r: c.get((r, "eval.flops"), 0.0) / eval_ms(r) * 1e-6, eval_ms),
            "flow_model.euler_step.ms": span(total, "flow_model.euler_step"),
            "norm_fusion.fuse.calls": span(calls, "norm_fusion.fuse"),
            "norm_fusion.fuse.ms": span(total, "norm_fusion.fuse"),
            "predictor.anchor.calls": observed("predictor.step", per_request(c, "predictor.anchor.calls")),
            "predictor.predicted.calls": observed("predictor.step", predicted),
            "predictor.predict.self_ms": span(own, "predictor.predict"),
            "predictor.layer_weight.calls": span(calls, "predictor.layer_weight"),
            "predictor.layer_weight.ms": span(total, "predictor.layer_weight"),
            "predictor.finite_differences.ms": span(total, "predictor.finite_differences"),
            "predictor.push.ms": span(total, "predictor.push"),
            "predictor.warmed_share": observed(
                "predictor.predict",
                lambda r: c.get((r, "predictor.warmed"), 0.0) / calls[(r, "predictor.predict")],
                per_request(calls, "predictor.predict")),
            "predictor.extrap_err.final": observed(
                "predictor.step", per_request(c, "extrap_err.final"), predicted),
            "predictor.extrap_err.layer_max": observed(
                "predictor.step", per_request(c, "extrap_err.layer_max"), predicted),
            "windows.run_long.self_ms": span(own, "windows.run_long"),
            "windows.blend_overlap.calls": span(calls, "windows.blend_overlap"),
            "windows.blend_overlap.ms": span(total, "windows.blend_overlap"),
            "core.relative_l2.calls": span(calls, "core.relative_l2"),
            "core.relative_l2.ms": span(total, "core.relative_l2"),
            "harness.run_experiment.self_ms": span(own, "harness.run_experiment"),
            "harness.oracle_runs": observed("windows.run_long", per_request(c, "harness.oracle_runs")),
            "harness.dump_trajectory.ms": span(total, "harness.dump_trajectory"),
            "harness.load_trajectory.ms": span(total, "harness.load_trajectory"),
            "harness.dump_bytes": observed("harness.dump_trajectory", per_request(c, "harness.dump_bytes")),
            "cli.main.self_ms": span(own, "cli.main"),
        }
        return {name: value() if self.requests and hook in self.installed
                and not (needs_observer and hook in self.broken) else None
                for name, (hook, needs_observer, value) in metrics.items()}

    def write_spans(self, path: str):
        """All spans as CSV, times in microseconds on the tracer's clock."""
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["request", "span", "parent", "name", "start_us", "end_us"])
            for i, (name, start, end, parent, req) in enumerate(self.spans):
                writer.writerow([req, i, parent, name, f"{start * 1e6:.3f}", f"{end * 1e6:.3f}"])
