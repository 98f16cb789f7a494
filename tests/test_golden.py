"""Golden fixed-seed outputs: every sampler entry point, held to the bitwise rule.

One sha256 covers every latent of every run in ``runs()``: 4 fusions x 3
seeds x 3 shapes (one frame, one window, several windows) x shared and
per-frame conditioning x the oracle and two accelerated configs. The data
file also holds each run's final latent from the last tree whose outputs
were bitwise equal to the one before it. Those finals are frozen (their own
sha256 is pinned below), and every run's final latent must stay within
1e-12 of them: a change may move the rounding, never the result.

GEMM results may differ with the NumPy build, the BLAS kernel and its
thread count, so on an environment other than the recorded one the hash
test skips and names the difference; the 1e-12 test runs everywhere.

A change that moves the rounding on purpose records the new hash and says
why in CHANGES.md; the writer keeps the stored finals as they are:

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
# Every final latent stays this close to its frozen final: rounding moves about 1e-15 at most.
TOLERANCE = 1e-12
# finals_digest of the stored finals, the outputs of the last bitwise tree (commit fee7668).
FROZEN_FINALS_SHA256 = "0220eb9605cf757406be979ed8f002aa74746d1f551fe532f37a65d9632eb10a"


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


def finals_digest(encoded: dict) -> str:
    """sha256 over the stored finals mapping: each run's name, then its final latent's bytes."""
    h = hashlib.sha256()
    for name, b64 in encoded.items():
        h.update(name.encode() + b"\0")
        h.update(base64.b64decode(b64))
    return h.hexdigest()


def deltas(finals: dict, encoded: dict) -> dict:
    """{name: max |final - stored final|} for every run."""
    return {name: float(np.max(np.abs(z - np.frombuffer(base64.b64decode(encoded[name]),
                                                        dtype="<f8").reshape(z.shape))))
            for name, z in finals.items()}


def _moved(by_run: dict) -> str:
    moved = sorted((d, name) for name, d in by_run.items() if d != 0.0)
    worst = f"; largest |delta| {moved[-1][0]:.3e} in {moved[-1][1]}" if moved else ""
    return f"{len(moved)} of {len(by_run)} final latents differ{worst}"


@pytest.fixture(scope="module")
def stored():
    return json.loads(GOLDEN.read_text())


@pytest.fixture(scope="module")
def computed():
    return compute()


def test_stored_finals_are_frozen(stored):
    # The finals of the last bitwise tree; the writer never rewrites them and no change refreshes them.
    assert finals_digest(stored["finals"]) == FROZEN_FINALS_SHA256


def test_finals_within_tolerance_of_frozen(stored, computed):
    _, finals = computed
    assert list(finals) == list(stored["finals"]), "the set of golden runs changed"
    moved = deltas(finals, stored["finals"])
    assert max(moved.values()) <= TOLERANCE, _moved(moved)


def test_golden_outputs(stored, computed):
    env, made = environment(), stored["environment"]
    mismatch = [f"{key} {made.get(key)!r} (here {env.get(key)!r})"
                for key in sorted(set(env) | set(made)) if env.get(key) != made.get(key)]
    if mismatch:
        pytest.skip("golden outputs were made with " + ", ".join(mismatch))
    digest, finals = computed
    assert digest == stored["sha256"], (f"sha256 {digest} != stored {stored['sha256']}: "
                                        + _moved(deltas(finals, stored["finals"])))


if __name__ == "__main__":
    digest, finals = compute()
    encoded = (json.loads(GOLDEN.read_text())["finals"] if GOLDEN.exists()
               else {name: _encode(z) for name, z in finals.items()})
    GOLDEN.write_text(json.dumps({"environment": environment(), "sha256": digest, "finals": encoded},
                                 indent=0) + "\n")
    print(f"wrote sha256 {digest} to {GOLDEN}; against its stored finals, {_moved(deltas(finals, encoded))}")
