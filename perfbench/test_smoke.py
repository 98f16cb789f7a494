"""Smoke test of the benchmark at a short run length.

    python3 -m pytest perfbench/test_smoke.py

Checks that every declared metric is printed with its unit on every
workload, that the count metrics repeat the exact values the workload
shapes imply, that a model returning NaN makes requests fail rather than
crash the run, that a hook whose target is gone is reported absent, and
that the benchmark refuses to run without the library's sources.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import workloads  # noqa: E402
from latentskip import predictor  # noqa: E402
from latentskip.flow_model import LayerOutputs  # noqa: E402
from tracer import Tracer  # noqa: E402
from worker import run_phase  # noqa: E402

# Per request (oracle and accelerated paths together). long_windows:
# 6 windows x 50 oracle evals + 6 x ceil(50/2) anchors = 450 evals;
# 24 warmed predicted steps x 6 windows x 4 layers x order 1 = 576 weights;
# 5 later windows x 49 blended steps = 245 blends per path. deep_single:
# 50 + 10 evals; 28 warmed predicted steps x 16 layers x 3 orders = 1344.
EXPECTED_COUNTS = {
    "deep_single": {"flow_model.eval.calls": 60, "norm_fusion.fuse.calls": 960,
                    "predictor.anchor.calls": 10, "predictor.predicted.calls": 40,
                    "predictor.layer_weight.calls": 1344, "windows.blend_overlap.calls": 0,
                    "harness.oracle_runs": 1},
    "long_windows": {"flow_model.eval.calls": 450, "predictor.anchor.calls": 150,
                     "predictor.predicted.calls": 150, "predictor.layer_weight.calls": 576,
                     "windows.blend_overlap.calls": 2 * 245, "harness.oracle_runs": 1},
    "ablation_grid": {"harness.oracle_runs": 12, "windows.blend_overlap.calls": 12 * 2 * 2 * 49},
    "trajectory_roundtrip": {"flow_model.eval.calls": 60, "harness.oracle_runs": 1},
}


def run(workload: str, trace: int, seconds: float, cwd: Path = ROOT):
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=170, cwd=cwd)


def result_of(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    return result


@pytest.mark.parametrize("workload", workloads.NAMES)
def test_end_to_end_metrics_named_with_units(workload):
    result = result_of(run(workload, trace=0, seconds=1))
    metrics = result["metrics"]
    assert {k: v["unit"] for k, v in metrics.items()} == \
        {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(v["value"] > 0 for v in metrics.values())


@pytest.mark.parametrize("workload", workloads.NAMES)
def test_traced_counts_are_exact(workload):
    result = result_of(run(workload, trace=1, seconds=2))
    metrics = result["metrics"]
    assert {k: v["unit"] for k, v in metrics.items()} == \
        {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert all(v["value"] is not None for v in metrics.values()), "a hook is absent"
    for name, expected in EXPECTED_COUNTS[workload].items():
        assert metrics[name]["value"] == expected, name


class NaNModel:
    def __init__(self, model):
        self.model = model

    def eval(self, z, t, cond):
        out = self.model.eval(z, t, cond)
        return LayerOutputs([np.full_like(h, np.nan) for h in out.per_layer], out.shape)


def test_nan_model_counts_as_failed(tmp_path):
    workload = workloads.make("deep_single", seed=0, scratch=str(tmp_path / "t.json"))
    workload.model = NaNModel(workload.model)
    with np.errstate(all="ignore"):
        outcomes = run_phase(workload, workloads.PlainContext(), seconds=0)
    assert len(outcomes) == 1
    assert any("not finite" in f for f in outcomes[0].failures)


def test_missing_hook_target_is_absent(monkeypatch):
    # With max_order 0 predict never reaches layer_weight, so it can go.
    monkeypatch.delattr(predictor, "layer_weight")
    workload = workloads.SamplerWorkload(0, layers=4, width=32, frames=16, window=16, overlap=5,
                                         anchor_spacing=5, order=0)
    tracer = Tracer()
    tracer.install()
    try:
        run_phase(workload, tracer, seconds=0)
    finally:
        tracer.uninstall()
    metrics = tracer.layer_metrics()
    assert metrics["predictor.layer_weight.calls"] is None
    assert metrics["predictor.layer_weight.ms"] is None
    assert metrics["flow_model.eval.calls"] == 60


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = run("deep_single", trace=0, seconds=1, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
