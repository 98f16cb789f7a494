"""The benchmark's four workloads, each driven by one closed-loop client.

A request with index ``i`` uses the seed ``workload_seed + i``. Inputs are
made by ``prepare`` outside the timed calls; ``request`` times the calls
into the library with ``ctx.clock`` and checks every output under
``ctx.untimed()``. A failed check is returned as a failure reason, never
raised, so one bad request does not abort the run.

``ctx`` is either ``PlainContext`` (untraced) or a ``tracer.Tracer``.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import math
import time
from dataclasses import dataclass, field

import numpy as np

from latentskip import cli, core, harness, windows
from latentskip.flow_model import SamplerConfig, build_model
from latentskip.predictor import PredictorConfig

# The acceptance suite's accuracy bound on the final latent at T=50.
REL_ERR_BOUND = 5e-2
STEPS = 50
FRAME_SHAPE = (8, 8)
COND_DIM = 8
# Sampler workloads keep one model for every run, so that only the inputs
# depend on the workload seed and rel_err_final stays comparable across seeds.
MODEL_SEED = 0


@dataclass
class Outcome:
    """One request: its timings in ms (NaN where not measured) and checks."""

    request_ms: float = math.nan
    accel_ms: float = math.nan
    oracle_ms: float = math.nan
    ref_ms: float = math.nan  # Reference time around the request
    rel_err: float = math.nan
    failures: list = field(default_factory=list)
    digest: str = ""

    @property
    def ok(self) -> bool:
        return not self.failures


class Reference:
    """Fixed work, timed between requests, that measures the machine's speed.

    The cores this benchmark runs on are shared: for seconds, sometimes
    minutes, every computation runs up to twice as slowly, in CPU time as
    much as in wall time. Timing this fixed work on both sides of each
    request and dividing cancels most of that drift. It is small dense
    NumPy work driven from Python, the mix the library itself runs, and it
    uses nothing from the library, so no change to the library moves it.
    """

    ITERATIONS = 300

    def __init__(self):
        rng = np.random.default_rng(0)
        self.weights = [rng.standard_normal((64, 64)) / 8.0 for _ in range(4)]
        self.x0 = rng.standard_normal((16, 64))

    def time_ms(self) -> float:
        x = self.x0
        start = time.perf_counter()
        for _ in range(self.ITERATIONS):
            for w in self.weights:
                x = np.tanh(x @ w + 0.1)
        return (time.perf_counter() - start) * 1e3


class PlainContext:
    """Untraced run: wall clock, and nothing to exclude."""

    clock = staticmethod(time.perf_counter)

    def untimed(self):
        return contextlib.nullcontext()

    def begin(self, request: int):
        pass

    def end(self):
        pass


def digest(arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        a = np.asarray(a)
        h.update(repr((a.dtype.str, a.shape)).encode())
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def _check_final(name: str, trajectory, failures: list):
    if len(trajectory) != STEPS + 1:
        failures.append(f"{name} trajectory has {len(trajectory)} latents, expected {STEPS + 1}")
    elif not np.all(np.isfinite(trajectory[-1])):
        failures.append(f"{name} final latent is not finite")


def _check_rel_err(rel: float, failures: list, where: str = ""):
    if not rel <= REL_ERR_BOUND:  # also catches NaN
        failures.append(f"rel_err_final {rel!r}{where} exceeds {REL_ERR_BOUND}")


class SamplerWorkload:
    """Oracle ``run_long``, then accelerated ``run_long``, on the same inputs."""

    def __init__(self, seed: int, layers: int, width: int, frames: int, window: int,
                 overlap: int, anchor_spacing: int, order: int):
        self.seed = seed
        self.model = build_model(MODEL_SEED, layers, width, latent_dim=int(np.prod(FRAME_SHAPE)),
                                 cond_dim=COND_DIM, fusion_mode="ours")
        self.plan = windows.plan_windows(frames, window, overlap)
        self.sampler_cfg = SamplerConfig(steps=STEPS)
        self.predictor_cfg = PredictorConfig(anchor_spacing, order, 1.5)
        self.expected_evals = math.ceil(STEPS / anchor_spacing)

    def prepare(self, index: int):
        rng = core.SeededRng(self.seed + index)
        z_T = rng.normal((self.plan.total,) + FRAME_SHAPE)
        cond = rng.normal((self.plan.total, COND_DIM))
        return z_T, cond

    def request(self, inputs, ctx) -> Outcome:
        z_T, cond = inputs
        t0 = ctx.clock()
        oracle, oracle_evals = windows.run_long(self.model, z_T, cond, self.plan, self.sampler_cfg, None)
        t1 = ctx.clock()
        accel, accel_evals = windows.run_long(self.model, z_T, cond, self.plan, self.sampler_cfg,
                                              self.predictor_cfg)
        t2 = ctx.clock()
        with ctx.untimed():
            failures = []
            _check_final("oracle", oracle, failures)
            _check_final("accelerated", accel, failures)
            if list(oracle_evals) != [STEPS] * len(self.plan.spans):
                failures.append(f"oracle evals per window {oracle_evals}, expected {STEPS}")
            if list(accel_evals) != [self.expected_evals] * len(self.plan.spans):
                failures.append(f"accelerated evals per window {accel_evals}, "
                                f"expected {self.expected_evals}")
            rel = core.relative_l2(accel[-1], oracle[-1]) if not failures else math.nan
            _check_rel_err(rel, failures)
            return Outcome(request_ms=(t2 - t0) * 1e3, accel_ms=(t2 - t1) * 1e3,
                           oracle_ms=(t1 - t0) * 1e3, rel_err=rel, failures=failures,
                           digest=digest(oracle + accel))


class AblationWorkload:
    """One serial 12-cell ``harness.ablation_sweep`` per request."""

    GRID = {"K": [2, 5, 8], "n": [1, 3], "fusion": ["ours", "baseline-add"]}

    def __init__(self, seed: int):
        self.seed = seed
        self.cells = {(fusion, K, n) for K in self.GRID["K"] for n in self.GRID["n"]
                      for fusion in self.GRID["fusion"]}

    def prepare(self, index: int):
        return harness.ExperimentConfig(layers=4, width=32, frames=32, window=16, overlap=5,
                                        steps=STEPS, seed=self.seed + index)

    def request(self, base, ctx) -> Outcome:
        t0 = ctx.clock()
        reports = harness.ablation_sweep(base, self.GRID, jobs=1)
        t1 = ctx.clock()
        with ctx.untimed():
            failures = []
            cells = {(r.mode, r.anchor_spacing, r.order) for r in reports}
            if len(reports) != len(self.cells) or cells != self.cells:
                failures.append(f"sweep returned cells {sorted(cells)}, expected {sorted(self.cells)}")
            for r in reports:
                evals = math.ceil(STEPS / r.anchor_spacing)
                if r.full_eval_count != evals or r.predicted_step_count != STEPS - evals:
                    failures.append(f"cell {r.mode} K={r.anchor_spacing} n={r.order}: "
                                    f"{r.full_eval_count} evals, {r.predicted_step_count} predicted")
                _check_rel_err(r.rel_err_final, failures,
                               f" in cell {r.mode} K={r.anchor_spacing} n={r.order}")
            rows = list(csv.reader(io.StringIO(harness.reports_to_csv(reports))))
            if not rows or rows[0] != harness.CSV_HEADER or len(rows) != len(reports) + 1:
                failures.append("reports_to_csv header or row count is wrong")
            errs = [r.rel_err_final for r in reports]
            return Outcome(request_ms=(t1 - t0) * 1e3,
                           accel_ms=sum(r.wall_clock_ms for r in reports),
                           rel_err=max(errs) if errs else math.nan, failures=failures,
                           digest=digest([np.asarray([r.rel_err_final, r.rel_err_mean] + r.per_step_errors)
                                          for r in reports]))


class RoundtripWorkload:
    """``latentskip sample --out`` through ``cli.main``, then ``load_trajectory``."""

    def __init__(self, seed: int, out_path: str):
        self.seed = seed
        self.out_path = out_path

    def prepare(self, index: int):
        return self.seed + index

    def request(self, seed, ctx) -> Outcome:
        argv = ["sample", "-T", str(STEPS), "-L", "16", "--window", "16", "-K", "5", "-n", "3",
                "--seed", str(seed), "--out", self.out_path]
        stdout, stderr = io.StringIO(), io.StringIO()
        t0 = ctx.clock()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code
        loaded = harness.load_trajectory(self.out_path) if code == 0 else []
        t1 = ctx.clock()
        with ctx.untimed():
            failures = []
            if code != 0:
                failures.append(f"cli exited with {code}: {stderr.getvalue().strip()}")
            rows = list(csv.reader(io.StringIO(stdout.getvalue())))
            row = dict(zip(rows[0], rows[1])) if len(rows) == 2 and rows[0] == harness.CSV_HEADER else None
            if row is None:
                failures.append("cli output is not one CSV row under CSV_HEADER")
                row = {"wall_ms": "nan", "rel_err_final": "nan"}
            elif int(row["evals"]) != math.ceil(STEPS / 5):
                failures.append(f"cli reports {row['evals']} evals, expected {math.ceil(STEPS / 5)}")
            rel = float(row["rel_err_final"])
            _check_rel_err(rel, failures)
            cfg = harness.ExperimentConfig(seed=seed, steps=STEPS, frames=16, window=16,
                                           anchor_spacing=5, order=3)
            reference = harness.run_experiment(cfg, keep_trajectory=True).trajectory
            if len(loaded) != STEPS + 1 or digest(loaded) != digest(reference):
                failures.append("loaded trajectory is not bitwise equal to run_experiment's")
            return Outcome(request_ms=(t1 - t0) * 1e3, accel_ms=float(row["wall_ms"]), rel_err=rel,
                           failures=failures,
                           digest=digest(loaded + [np.asarray([rel])]))


def make(name: str, seed: int, scratch: str):
    """Build a workload; ``scratch`` is a file path it may overwrite."""
    if name == "deep_single":
        return SamplerWorkload(seed, layers=16, width=128, frames=16, window=16, overlap=5,
                               anchor_spacing=5, order=3)
    if name == "long_windows":
        return SamplerWorkload(seed, layers=4, width=32, frames=64, window=16, overlap=5,
                               anchor_spacing=2, order=1)
    if name == "ablation_grid":
        return AblationWorkload(seed)
    if name == "trajectory_roundtrip":
        return RoundtripWorkload(seed, scratch)
    raise ValueError(f"unknown workload {name!r}")


NAMES = ("deep_single", "long_windows", "ablation_grid", "trajectory_roundtrip")
