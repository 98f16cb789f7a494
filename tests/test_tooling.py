import ast
import importlib
import importlib.util
import inspect
import re
from collections import defaultdict
from pathlib import Path

import numpy as np
import pytest

import latentskip
from latentskip.cli import main
from latentskip.flow_model import build_model

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"
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


# The unchecked kernels may run only where their inputs are checked, once: the fusion's alignment
# kernel in ToyModel.condition and normalize_fuse, which check its streams and moments; the step's
# add of a fused conditioning in ToyModel.eval, on a checked Conditioning's arrays; the Euler step in
# run_long's loop alone (a velocity of the latent's shape, dt from timesteps()).
KERNEL_SITES = {
    "fuse_kernel": {("flow_model.py", "import as fuse_kernel"), ("flow_model.py", "ToyModel.condition"),
                    ("norm_fusion.py", "normalize_fuse")},
    "fuse_streams": {("flow_model.py", "ToyModel.eval")},
    "euler_step": {("windows.py", "run_long")},
}


def _kernel_references(tree):
    """(kernel, site, line) per reference; the site is the enclosing def (class-qualified), or the import."""
    found = []

    def visit(node, site):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            site = node.name if site == "module level" else f"{site}.{node.name}"
        if isinstance(node, ast.ImportFrom):
            found.extend((alias.name, f"import as {alias.asname or alias.name}", node.lineno)
                         for alias in node.names if alias.name in KERNEL_SITES)
        name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
        if name in KERNEL_SITES:
            found.append((name, site, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, site)

    visit(tree, "module level")
    return found


def test_kernels_run_only_at_their_checked_sites():
    package = Path(latentskip.__file__).parent
    sources = sorted(package.glob("*.py"))
    assert sources, f"no modules found in {package}"
    seen, hits = set(), []
    for path in sources:
        for kernel, site, lineno in _kernel_references(ast.parse(path.read_text())):
            seen.add((kernel, path.name, site))
            if (path.name, site) not in KERNEL_SITES[kernel]:
                hits.append(f"{path.name}:{lineno}: {kernel} in {site}")
    assert not hits, ("an unchecked kernel outside its sites (call normalize_fuse; only ToyModel.eval adds "
                      "a fused conditioning; only run_long's loop takes an euler_step):\n" + "\n".join(hits))
    missing = {(kernel, *where) for kernel, sites in KERNEL_SITES.items() for where in sites} - seen
    assert not missing, f"KERNEL_SITES lists sites the package no longer has: {sorted(missing)}"


def _config_post_inits(tree):
    """Every ``__post_init__`` that calls ``check_kinds``, as (class name, function node)."""
    for cls in ast.walk(tree):
        if isinstance(cls, ast.ClassDef):
            for fn in cls.body:
                if (isinstance(fn, ast.FunctionDef) and fn.name == "__post_init__"
                        and any(isinstance(n, ast.Call) and getattr(n.func, "id", None) == "check_kinds"
                                for n in ast.walk(fn))):
                    yield cls.name, fn


def test_config_rules_go_through_check_rule():
    # A config dataclass (its __post_init__ calls check_kinds) states every rule as a core.check_rule
    # call, so each error reads "<field>: <requirement>, got <value>"; a hand-written raise would not.
    package = Path(latentskip.__file__).parent
    configs, hits = [], []
    for path in sorted(package.glob("*.py")):
        for name, fn in _config_post_inits(ast.parse(path.read_text())):
            configs.append(name)
            hits += [f"{path.name}:{node.lineno}: raise in {name}.__post_init__"
                     for node in ast.walk(fn) if isinstance(node, ast.Raise)]
    assert {"ExperimentConfig", "PredictorConfig", "SamplerConfig", "WindowPlan"} <= set(configs)
    assert not hits, "state the rule as a check_rule call:\n" + "\n".join(hits)


# What the rest of the package may take from predictor: its config. Only windows builds a PredictorState.
PREDICTOR_INTERFACE = {"PredictorConfig"}


def test_predictor_internals_stay_in_predictor():
    # Outside predictor.py and windows.py nothing may import the state, the cache, the table or the
    # correctors, so those internals can change by touching predictor.py, windows.py and their tests alone.
    package = Path(latentskip.__file__).parent
    sources = sorted(p for p in package.glob("*.py") if p.name not in ("predictor.py", "windows.py"))
    assert sources, f"no modules found in {package}"
    hits = []
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom):
                module = "." * node.level + (node.module or "")
                names = {alias.name for alias in node.names}
                if module in (".predictor", "latentskip.predictor"):
                    names -= PREDICTOR_INTERFACE
                else:  # the whole module, from . import predictor, is an import of its internals too
                    names &= {"predictor"} if module in (".", "latentskip") else set()
                hits += [f"{path.name}:{node.lineno}: {module} imports {name}" for name in sorted(names)]
            elif isinstance(node, ast.Import):
                hits += [f"{path.name}:{node.lineno}: imports {alias.name}" for alias in node.names
                         if alias.name == "latentskip.predictor"]
    assert not hits, "import only PredictorConfig from predictor:\n" + "\n".join(hits)


def test_readme_quickstart_runs(capsys):
    # The README's library example is the first code a reader runs; a stale call in it fails here.
    readme = (ROOT / "README.md").read_text()
    section = readme.split("## Library quickstart", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.DOTALL)
    assert block, "no python block under 'Library quickstart' in README.md"
    exec(compile(block.group(1), "README.md quickstart", "exec"), {})
    assert capsys.readouterr().out.split()[0] == "10"  # ceil(50 / 5) full evaluations


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


def test_trajectory_file_size(tmp_path, capsys):
    # trajectory_roundtrip's request: 51 latents of 16 frames x 64 values, written as one .npy array of
    # raw float64 after NumPy's header (417920 B in all). A text-encoded payload would be longer.
    path = tmp_path / "trajectory.npy"
    assert main(["sample", "-T", "50", "-L", "16", "--out", str(path)]) == 0
    with open(path, "rb") as fh:
        assert np.lib.format.read_magic(fh) == (1, 0)
        assert np.lib.format.read_array_header_1_0(fh) == ((51, 16, 8, 8), False, np.dtype("<f8"))
        header = fh.tell()
    assert path.stat().st_size == header + 8 * 51 * 16 * 64


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


# The sampler request's phase spans: Euler step, fusion, anchor push, predict and window blend.
LOOP_SPANS = ("flow_model.euler_step.ms", "norm_fusion.fuse.ms", "predictor.push.ms",
              "predictor.predict.self_ms", "windows.blend_overlap.ms")


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
    # A hook on a name the loop no longer calls (windows.euler_step, flow_model.fuse_streams rebound
    # to a function the loop does not reach) reads 0, not absent: each timed phase must have run.
    idle = [name for name in LOOP_SPANS if not sampler_metrics[name] > 0]
    assert not idle, f"spans that timed nothing on the sampler request: {idle}"


@pytest.mark.parametrize("shape", [{}, {"layer_count": 2, "width": 2, "latent_dim": 3, "cond_dim": 0},
                                   {"layer_count": 16, "width": 128}])
def test_weights_keep_the_keys_the_tracer_reads(shape):
    # The tracer's eval observer counts flops from each layer's A, P_img and P_p.
    weights = build_model(0, **shape).weights
    assert weights and all({"A", "P_img", "P_p"} <= w.keys() for w in weights)
