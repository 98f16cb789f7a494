"""Wall-clock benchmark of latentskip: oracle vs accelerated sampling.

    python3 perfbench/run.py --workload deep_single --seed 0 --seconds 25 --trace 0

Workloads, metric names, units and bounds come from BENCHMARK.json at the
root of the checkout; perfbench/README.md says why each workload exists
and which per-layer metric should move which end-to-end metric.

The library is imported from the checkout's ``src/``, never from an
installed copy. Each run is one client in a closed loop, in fresh
processes. ``--trace 0`` measures the end-to-end metrics with nothing
wrapped, in SEGMENTS consecutive worker processes that continue each
other's request indices; each one's start-up is a set-up sample, so set-up
is sampled across the whole run. ``--trace 1`` runs one worker untraced
for half the time, then traced over the same requests, checks that both
give bitwise-equal outputs, and reports the per-layer metrics.

Latencies are gated as costs: a request's time over the time of a fixed
computation (workloads.Reference) timed around it, which cancels most of
the drift in speed of a machine whose cores are shared. Set-up time is
scaled by the same computation, timed right after set-up. Raw times are
printed beside them.

Human-readable lines come first; the last stdout line is one JSON object
with the keys correct, attempted, failed and metrics. Exits 2 without a
result if the checkout has no library to run, 1 if the run cannot finish.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKER = Path(__file__).resolve().parent / "worker.py"
SEGMENTS = 5              # worker processes per untraced run
# setup_s is set-up time scaled to a machine on which workloads.Reference
# takes this long (about its median when the baseline was measured).
REF_NOMINAL_MS = 12.0
DEADLINE_S = 170.0        # a run must end within 180 s


class BenchError(RuntimeError):
    pass


def monotonic() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def spawn(args: list[str], deadline: float) -> tuple[float, dict]:
    """Run worker.py in a fresh interpreter; return its raw set-up time and result."""
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONDONTWRITEBYTECODE="1",
               # One client, no extra threads: BLAS must not spread over the cores.
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    start = monotonic()
    proc = subprocess.Popen([sys.executable, str(WORKER), *args], stdout=subprocess.PIPE,
                            env=env, cwd=str(ROOT))
    try:
        out, _ = proc.communicate(timeout=max(deadline - start, 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError("worker did not finish in time")
    lines = out.decode().strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker exited with code {proc.returncode}")
    result = json.loads(lines[-1])
    return result["ready"] - start, result


def git_commit() -> str:
    """Commit of the checkout, with a ``-dirty`` suffix if the tree has changes."""
    try:
        # The ceiling keeps git from taking a repository above the checkout.
        proc = subprocess.run(["git", "describe", "--always", "--dirty", "--abbrev=40"],
                              cwd=ROOT, capture_output=True, text=True, timeout=10,
                              env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)))
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 and proc.stdout.strip() else "unknown"


def latency(samples: list[float], unit: str, note: str = "") -> dict:
    """Minimum, median and tail; the tail is the highest sample with at
    least ten samples above it."""
    v = sorted(samples)
    n = len(v)
    tail, pct = (v[n - 11], 100.0 * (n - 10) / n) if n > 10 else (v[-1], 100.0)
    return {"min": (v[0], unit, f"n={n}{note}"), "p50": (statistics.median(v), unit, f"n={n}{note}"),
            "tail": (tail, unit, f"n={n}, p{pct:.1f}: ten samples above it{note}")}


def end_to_end(setups: list[float], setup_refs: list[float], plain: list[dict],
               peak_rss_mb: float) -> dict:
    """Untraced metrics: name -> (value, unit, note for the printout)."""
    ok = [o for o in plain if not o["failures"]]
    n = len(setups)
    scaled = [s * REF_NOMINAL_MS / r for s, r in zip(setups, setup_refs)]
    out = {"setup_s": (statistics.median(scaled), "s", f"median of {n} fresh processes, "
                       f"each scaled by {REF_NOMINAL_MS:g} ms over its Reference time"),
           "setup_raw_s": (statistics.median(setups), "s", f"median of {n} fresh processes"),
           "peak_rss_mb": (peak_rss_mb, "MB", "ru_maxrss, largest worker")}
    for field in ("request_ms", "accel_ms", "oracle_ms"):
        timed = [o for o in ok if o[field] == o[field]]  # NaN: not measured on this workload
        if not timed:
            continue
        out.update({f"{field}.{k}": v for k, v in latency([o[field] for o in timed], "ms").items()})
        if field != "oracle_ms":
            cost = field.replace("_ms", "_cost")
            stats = latency([o[field] / o["ref_ms"] for o in timed], "ref", ", over Reference time")
            out.update({f"{cost}.p50": stats["p50"], f"{cost}.tail": stats["tail"]})
    out.update({f"ref_ms.{k}": v for k, v in latency([o["ref_ms"] for o in ok], "ms").items()
                if k == "p50"})
    # A mean, not a max: a max over a timed run grows with the number of
    # requests, so a faster program would read as less accurate.
    out["rel_err_final.mean"] = (statistics.fmean(o["rel_err"] for o in ok), "ratio",
                                 f"mean over n={len(ok)} requests")
    return out


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "latentskip" / "__init__.py").is_file():
        print(f"error: no library to benchmark at {SRC / 'latentskip'}", file=sys.stderr)
        return 2

    deadline = monotonic() + DEADLINE_S
    segments = 1 if args.trace else SEGMENTS
    setups, workers = [], []
    try:
        index = 0
        for _ in range(segments):
            setup, worker = spawn(["--workload", args.workload, "--seed", str(args.seed),
                                   "--first-index", str(index), "--seconds", str(args.seconds / segments),
                                   "--trace", str(args.trace)], deadline)
            setups.append(setup)
            workers.append(worker)
            index += len(worker["plain"])
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    plain = [o for w in workers for o in w["plain"]]
    outcomes = plain + [o for w in workers for o in w["traced"]]
    failed = [o for o in outcomes if o["failures"]]
    if all(o["failures"] for o in plain):
        print("error: no untraced request succeeded: " + "; ".join(plain[0]["failures"]),
              file=sys.stderr)
        return 1

    e2e = end_to_end(setups, [w["setup_ref_ms"] for w in workers], plain,
                     max(w["peak_rss_mb"] for w in workers))
    per_layer = workers[-1].get("per_layer")
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    values = per_layer if args.trace else {k: v for k, (v, _, _) in e2e.items()}
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        print(f"error: metrics not computed: {missing}", file=sys.stderr)
        return 1

    env = dict(workers[0]["env"], commit=git_commit(), workload=args.workload, seed=args.seed,
               seconds=args.seconds, trace=args.trace)
    print(f"workload {args.workload}  seed {args.seed}  {args.seconds:g} s  trace {args.trace}"
          f"  (closed loop: 1 client; {segments} process(es) one after another)")
    print("env " + json.dumps(env))
    print(f"attempted {len(outcomes)}  failed {len(failed)}  "
          f"failed_share {len(failed) / len(outcomes):.4f} ratio")
    for o in failed[:5]:
        print("  failure: " + "; ".join(o["failures"]))
    gated = {m["name"] for m in spec["end_to_end"]}
    print("end-to-end, untraced ([reported]: printed, not gated by BENCHMARK.json)")
    for name, (value, unit, note) in e2e.items():
        print(f"  {name:<20} {value:>14.6g} {unit:<6} {note}"
              + ("" if name in gated else "  [reported]"))
    if args.trace:
        worker = workers[-1]
        print(f"per-layer, median over {len(worker['traced'])} traced requests"
              f" (absent hooks: {worker['absent_hooks'] or 'none'};"
              f" broken observers: {worker['broken_observers'] or 'none'})")
        for m in spec["per_layer"]:
            value = per_layer[m["name"]]
            shown = "absent" if value is None else f"{value:.6g}"
            print(f"  {m['name']:<34} {shown:>14} {m['unit']}")

    result = {
        "correct": not failed,
        "attempted": len(outcomes),
        "failed": len(failed),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared},
    }
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    record = dict(result, env=env, end_to_end={k: v for k, (v, _, _) in e2e.items()},
                  setup_samples=setups, setup_ref_ms=[w["setup_ref_ms"] for w in workers],
                  per_layer=per_layer, requests=plain,
                  failures=[o["failures"] for o in failed])
    (out_dir / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
