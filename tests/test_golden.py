"""Golden fixed-seed outputs: every sampler entry point, held bitwise.

One sha256 covers every latent of every run in ``runs()``: 4 fusions x 3
seeds x 3 shapes (one frame, one window, several windows) x shared and
per-frame conditioning x the oracle and two accelerated configs. The data
file also holds each run's final latent, so a failure says which runs moved
and by how much. GEMM results may differ with the NumPy build, the BLAS
kernel and its thread count, so on an environment other than the recorded
one the test skips and names the difference.

A change that alters outputs on purpose regenerates the file and says why
in CHANGES.md:

    PYTHONPATH=src python tests/test_golden.py
"""

import base64
import ctypes
import glob
import hashlib
import json
import os
from pathlib import Path

import numpy as np
import pytest

from latentskip.core import SeededRng
from latentskip.flow_model import FUSION_MODES, SamplerConfig, build_model
from latentskip.predictor import PredictorConfig
from latentskip.windows import plan_windows, run_long, sample_accelerated, sample_full

GOLDEN = Path(__file__).with_name("golden_outputs.json")
STEPS = 20
SEEDS = (0, 1, 2)
# name -> (frames, frame_shape, build_model shape, (window, overlap) or None for one window)
SHAPES = {
    "one-frame": (1, (2, 2), dict(layer_count=2, width=4, cond_dim=2), None),
    "one-window": (3, (3,), dict(layer_count=3, width=8, cond_dim=3), None),
    "windows": (8, (3,), dict(layer_count=4, width=16, cond_dim=2), (5, 2)),
}
# K=5 n=3 reaches warmed predicted steps (anchors 0, 5, 10, 15 fill the cache) within 20 steps.
PREDICTORS = {"oracle": None, "K5n3": PredictorConfig(5, 3), "K2n1-nodyn": PredictorConfig(2, 1, 1.0, False)}


def _openblas(name: str, restype):
    """``openblas_<name>()`` of the OpenBLAS that NumPy loaded, or None without one."""
    pattern = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*")
    for path in glob.glob(pattern):
        lib = ctypes.CDLL(path)
        for symbol in (f"scipy_openblas_{name}64_", f"openblas_{name}64_", f"openblas_{name}"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = restype
                return fn()
    return None


def environment() -> dict:
    """What GEMM results depend on: NumPy, the BLAS build and runtime kernel, its threads."""
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    core = _openblas("get_corename", ctypes.c_char_p)
    return {
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_core": core.decode() if core else None,
        "blas_threads": _openblas("get_num_threads", ctypes.c_int),
    }


def runs():
    """Yield (name, trajectory) for every golden run, in a fixed order."""
    cfg = SamplerConfig(steps=STEPS)
    for fusion in FUSION_MODES:
        for seed in SEEDS:
            for shape, (frames, frame_shape, dims, windows) in SHAPES.items():
                model = build_model(seed, latent_dim=int(np.prod(frame_shape)), fusion_mode=fusion, **dims)
                for cond_kind in ("shared", "per-frame"):
                    rng = SeededRng(1000 + seed)
                    z = rng.normal((frames,) + frame_shape)
                    cond = rng.normal((frames, dims["cond_dim"]) if cond_kind == "per-frame"
                                      else dims["cond_dim"])
                    for pname, pcfg in PREDICTORS.items():
                        if windows is not None:
                            plan = plan_windows(frames, *windows)
                            trajectory, _ = run_long(model, z, cond, plan, cfg, pcfg)
                        elif pcfg is None:
                            trajectory, _ = sample_full(model, z, cond, cfg)
                        else:
                            trajectory, _ = sample_accelerated(model, z, cond, cfg, pcfg)
                        yield f"{fusion}/{seed}/{shape}/{cond_kind}/{pname}", trajectory


def compute():
    """(sha256 over every latent of every run, {name: final latent})."""
    h, finals = hashlib.sha256(), {}
    for name, trajectory in runs():
        for z in trajectory:
            h.update(repr((z.dtype.str, z.shape)).encode())
            h.update(np.ascontiguousarray(z).tobytes())
        finals[name] = trajectory[-1]
    return h.hexdigest(), finals


def _encode(z: np.ndarray) -> str:
    """Base64 of the little-endian float64 bytes, as in trajectory files version 2."""
    return base64.b64encode(np.asarray(z, dtype="<f8").tobytes()).decode("ascii")


def test_golden_outputs():
    stored = json.loads(GOLDEN.read_text())
    env, made = environment(), stored["environment"]
    mismatch = [f"{key} {made.get(key)!r} (here {env.get(key)!r})"
                for key in sorted(set(env) | set(made)) if env.get(key) != made.get(key)]
    if mismatch:
        pytest.skip("golden outputs were made with " + ", ".join(mismatch))
    digest, finals = compute()
    assert list(finals) == list(stored["finals"]), "the set of golden runs changed"
    if digest != stored["sha256"]:
        deltas = {name: float(np.max(np.abs(z - np.frombuffer(base64.b64decode(stored["finals"][name]),
                                                              dtype="<f8").reshape(z.shape))))
                  for name, z in finals.items()}
        moved = sorted((d, name) for name, d in deltas.items() if d != 0.0)
        worst = f"; largest |delta| {moved[-1][0]:.3e} in {moved[-1][1]}" if moved else ""
        pytest.fail(f"sha256 {digest} != stored {stored['sha256']}: "
                    f"{len(moved)} of {len(finals)} final latents differ{worst}")


if __name__ == "__main__":
    digest, finals = compute()
    GOLDEN.write_text(json.dumps({"environment": environment(), "sha256": digest,
                                  "finals": {name: _encode(z) for name, z in finals.items()}},
                                 indent=0) + "\n")
    print(f"wrote {len(finals)} runs to {GOLDEN}, sha256 {digest}")
