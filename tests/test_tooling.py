import importlib
import importlib.util
import inspect
import re
from collections import defaultdict
from pathlib import Path

import pytest

import latentskip
from latentskip.flow_model import build_model

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACER = PERFBENCH / "tracer.py"

# core.mean and core.stats are the package's only moments; a direct NumPy call elsewhere
# would define a second convention and skip the bitwise property held in test_core.
MOMENT_CALL = re.compile(r"np\.mean\(|np\.std\(|np\.var\(|\.mean\(|\.std\(")


def test_moments_come_from_core():
    package = Path(latentskip.__file__).parent
    sources = sorted(p for p in package.glob("*.py") if p.name != "core.py")
    assert sources, f"no modules found in {package}"
    hits = [f"{path.name}:{lineno}: {line.strip()}"
            for path in sources
            for lineno, line in enumerate(path.read_text().splitlines(), 1)
            if MOMENT_CALL.search(line)]
    assert not hits, "compute moments with core.mean / core.stats:\n" + "\n".join(hits)


def _tracer_hooks():
    """perfbench's HOOKS table, read from its file without installing anything."""
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.HOOKS


def _hook_target(module_name, path):
    """What the tracer would wrap for one hook, resolved the way it does: a plain function or None."""
    module = importlib.import_module(f"latentskip.{module_name}")
    owner_name, _, attr = path.rpartition(".")
    owner = getattr(module, owner_name, None) if owner_name else module
    original = inspect.getattr_static(owner, attr, None) if owner is not None else None
    return original if inspect.isfunction(original) else None


def test_every_benchmark_span_has_a_hook_target():
    # A span whose every hook misses reports its metrics as absent, and only the
    # slow perfbench smoke test would notice.
    lookups = defaultdict(list)
    for module_name, path, name in _tracer_hooks():
        lookups[name].append((module_name, path))
    assert lookups, f"no HOOKS in {TRACER}"
    dead = [name for name, targets in lookups.items()
            if not any(_hook_target(m, p) for m, p in targets)]
    assert not dead, f"spans with no plain function to wrap: {dead}"


# Per-layer counts of the sampler request below: 3 layers, 12 frames in windows of 8 with overlap 4
# (2 windows), K=5, n=3, T=50.
SAMPLER_COUNTS = {
    "flow_model.eval.calls": 120,         # 2 x 50 + 2 x 10
    "norm_fusion.fuse.calls": 360,        # 120 evals x 3 layers
    "predictor.anchor.calls": 20,         # 2 windows x 10 anchors
    "predictor.predicted.calls": 80,      # 2 windows x 40 predicted steps
    # 2 windows x 28 warmed predicted steps (anchors 4-10 each lead 4) x 3 layers x 3 orders
    "predictor.layer_weight.calls": 504,
    "windows.blend_overlap.calls": 98,    # steps 1-49 x 2 paths (oracle, accelerated)
    "harness.oracle_runs": 1,
}


def test_benchmark_observers_read_live_parameters(monkeypatch, tmp_path):
    # The observers read parameters by name: predict's cache/hist/cfg, PredictorState.step's
    # model/z/t/cond, run_long's predictor_cfg and dump_trajectory's path. Renaming one makes
    # a per-layer metric absent, which only the slow perfbench smoke test would notice.
    monkeypatch.syspath_prepend(str(PERFBENCH))
    workloads = importlib.import_module("workloads")
    tracer = importlib.import_module("tracer").Tracer()
    # K=5, n=3 over 50 steps: the anchor cache fills, so warmed predicted steps occur.
    sampler = workloads.SamplerWorkload(0, layers=3, width=8, frames=12, window=8, overlap=4,
                                        anchor_spacing=5, order=3)
    roundtrip = workloads.make("trajectory_roundtrip", 0, str(tmp_path / "trajectory.json"))
    tracer.install()
    try:
        for index, workload in enumerate((sampler, roundtrip)):
            tracer.begin(index)
            try:
                outcome = workload.request(workload.prepare(index), tracer)
            finally:
                tracer.end()
            assert outcome.ok, outcome.failures
            if index == 0:
                sampler_metrics = tracer.layer_metrics()  # medians over the sampler request alone
    finally:
        tracer.uninstall()
    assert not tracer.broken, f"observers that raised: {sorted(tracer.broken)}"
    absent = [name for name, value in tracer.layer_metrics().items() if value is None]
    assert not absent, f"per-layer metrics absent: {absent}"
    # perfbench/test_smoke.py pins these count laws, but tier-1 does not run it.
    assert {name: sampler_metrics[name] for name in SAMPLER_COUNTS} == SAMPLER_COUNTS


@pytest.mark.parametrize("shape", [{}, {"layer_count": 2, "width": 2, "latent_dim": 3, "cond_dim": 0},
                                   {"layer_count": 16, "width": 128}])
def test_weights_keep_the_keys_the_tracer_reads(shape):
    # The tracer's eval observer counts flops from each layer's A, P_img and P_p.
    weights = build_model(0, **shape).weights
    assert weights and all({"A", "P_img", "P_p"} <= w.keys() for w in weights)
