"""One benchmark process: set up a workload, then drive it as a closed loop.

run.py starts this script in a fresh interpreter, so that every set-up
pays the import:

    worker.py --workload NAME --seed S --first-index I --seconds N --trace 0|1

The last stdout line is one JSON object. ``ready`` is CLOCK_MONOTONIC at the
end of set-up (import, workload construction and the first request's
inputs); run.py subtracts the time at which it started the process.
``setup_ref_ms`` is the Reference's time right after set-up.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import resource
import statistics
import sys
import time
from dataclasses import asdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import latentskip  # noqa: E402

if Path(latentskip.__file__).resolve().parent != SRC / "latentskip":
    sys.exit(f"latentskip imported from {latentskip.__file__}, not from {SRC}")

import numpy as np  # noqa: E402

import workloads  # noqa: E402
from tracer import HOOKS, Tracer  # noqa: E402
from workloads import Outcome, PlainContext, Reference  # noqa: E402


def run_phase(workload, ctx, seconds: float, first_index: int = 0) -> list[Outcome]:
    """Closed loop: request i+1 starts when request i has been checked.

    At least one request runs; the loop stops at the first request that
    ends after ``seconds`` of wall time. The Reference is timed before the
    first request and after each one; a request's ``ref_ms`` is the mean of
    the two around it.
    """
    reference = Reference()
    outcomes = []
    ref_before = reference.time_ms()
    deadline = time.perf_counter() + seconds
    index = first_index
    while True:
        ctx.begin(index)
        try:
            with ctx.untimed():
                inputs = workload.prepare(index)
            outcome = workload.request(inputs, ctx)
        except Exception as exc:  # a failed request is counted, not fatal
            outcome = Outcome(failures=[f"raised {type(exc).__name__}: {exc}"])
        finally:
            ctx.end()
        ref_after = reference.time_ms()
        outcome.ref_ms = (ref_before + ref_after) / 2
        ref_before = ref_after
        outcomes.append(outcome)
        index += 1
        if time.perf_counter() >= deadline:
            return outcomes


def _median_ok(outcomes, value):
    values = [value(o) for o in outcomes if o.ok]
    return statistics.median(values) if values else None


def derived_metrics(plain: list[Outcome], traced: list[Outcome], tracer: Tracer) -> dict:
    """Speedup (oracle over accelerated) and traced over untraced request cost."""
    speedup = _median_ok(plain, lambda o: o.oracle_ms / o.accel_ms)
    if (speedup is None or not np.isfinite(speedup)) and "windows.run_long" in tracer.installed \
            and "windows.run_long" not in tracer.broken:
        # The program runs both samplers itself: use the traced run_long spans.
        speedup = tracer.span_ratio("run_long.oracle_ms", "run_long.accel_ms")
    # Request cost (time over Reference time), so that a change in the
    # machine's speed between the two halves cancels; request, not accel,
    # because on ablation_grid and trajectory_roundtrip the program times
    # accel_ms itself, including the untimed evaluations behind extrap_err.
    traced_cost = _median_ok(traced, lambda o: o.request_ms / o.ref_ms)
    plain_cost = _median_ok(plain, lambda o: o.request_ms / o.ref_ms)
    overhead = traced_cost / plain_cost if traced_cost is not None and plain_cost else None
    return {"derived.speedup": speedup, "derived.tracing_overhead": overhead}


def blas_threads():
    """Thread count the loaded OpenBLAS will use, asked of the library itself."""
    pattern = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*")
    for path in glob.glob(pattern):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return f"unknown (OPENBLAS_NUM_THREADS={os.environ.get('OPENBLAS_NUM_THREADS')})"


def environment() -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": blas_threads(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--first-index", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    scratch = out_dir / f"trajectory-{os.getpid()}.json"
    try:
        workload = workloads.make(args.workload, args.seed, str(scratch))
        workload.prepare(args.first_index)
        ready = time.clock_gettime(time.CLOCK_MONOTONIC)
        # The machine's speed just after set-up, by which run.py scales it.
        reference = Reference()
        setup_ref_ms = statistics.median(reference.time_ms() for _ in range(3))
        result = {"ready": ready, "setup_ref_ms": setup_ref_ms, "env": environment()}
        if args.trace == 0:
            plain, traced = run_phase(workload, PlainContext(), args.seconds, args.first_index), []
        else:
            # Untraced first, then traced over the same request indices, so
            # that their outputs can be compared bitwise.
            plain = run_phase(workload, PlainContext(), args.seconds / 2, args.first_index)
            tracer = Tracer()
            tracer.install()
            try:
                traced = run_phase(workload, tracer, args.seconds / 2, args.first_index)
            finally:
                tracer.uninstall()
            for p, t in zip(plain, traced):
                if p.ok and t.ok and p.digest != t.digest:
                    t.failures.append("traced outputs differ from the untraced run")
            result["per_layer"] = {**tracer.layer_metrics(), **derived_metrics(plain, traced, tracer)}
            result["absent_hooks"] = sorted({name for _, _, name in HOOKS} - tracer.installed)
            result["broken_observers"] = sorted(tracer.broken)
            tracer.write_spans(str(out_dir / f"spans-{args.workload}.csv"))
    finally:
        scratch.unlink(missing_ok=True)

    def dump(outcomes):
        return [{k: v for k, v in asdict(o).items() if k != "digest"} for o in outcomes]

    result["plain"], result["traced"] = dump(plain), dump(traced)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
