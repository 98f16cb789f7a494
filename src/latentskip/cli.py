"""Command-line front end: single runs, ablation grids, window plans, selftest."""

from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import fields

import numpy as np

from . import harness
from .core import SeededRng, relative_l2, stats
from .flow_model import FUSION_MODES, LayerOutputs
from .norm_fusion import normalize_fuse
from .predictor import AnchorCache, PredictorConfig, SigmaHistory, finite_differences, predict
from .windows import WindowPlan, blend_overlap, blend_weights


def _add_run_flags(p: argparse.ArgumentParser):
    p.add_argument("-T", "--steps", type=int, help="denoising steps")
    p.add_argument("-L", "--frames", type=int, help="total sequence length")
    p.add_argument("--window", type=int, help="context window length")
    p.add_argument("--overlap", type=int, help="window overlap length")
    p.add_argument("-K", dest="anchor_spacing", type=int, help="anchor spacing")
    p.add_argument("-n", dest="order", type=int, help="max difference order")
    p.add_argument("--alpha", type=float, help="variation-rate exponent")
    p.add_argument("--no-dynamics", dest="dynamics_enabled", action="store_false", default=None,
                   help="disable the dynamic correctors")
    p.add_argument("--fusion", choices=FUSION_MODES, help="conditioning fusion mode")
    p.add_argument("--seed", type=int, help="base seed")
    p.add_argument("--reps", dest="repetitions", metavar="REPS", type=int, help="repetitions (averaged)")
    p.add_argument("--config", help="flat JSON config file; flags override")
    p.add_argument("--out", dest="out_path", metavar="OUT", help="output path")


def _load_config(args) -> harness.ExperimentConfig:
    values = {}
    if args.config:
        with open(args.config) as fh:
            values = json.load(fh)
        if not isinstance(values, dict):
            raise ValueError(f"config file {args.config} must hold a JSON object")
    # Each run flag's dest is the config field it sets; an absent flag is None.
    names = {f.name for f in fields(harness.ExperimentConfig) if f.init}
    values.update({k: v for k, v in vars(args).items() if k in names and v is not None})
    return harness.ExperimentConfig.from_dict(values)


def cmd_sample(args) -> int:
    cfg = _load_config(args)
    report = harness.run_experiment(cfg, keep_trajectory=cfg.out_path is not None)
    if cfg.out_path:  # before the row, so a failed write prints no result
        harness.dump_trajectory(report.trajectory, cfg.out_path)
        print(f"trajectory written to {cfg.out_path}", file=sys.stderr)
    print(harness.reports_to_csv([report]), end="")
    return 0


def _on_off(value: str) -> bool:
    if value not in ("on", "off"):
        raise ValueError(f"expected on or off, got {value!r}")
    return value == "on"


# harness.GRID_KEYS key -> (parser of one comma-list entry, help of --grid-<key>).
_GRID_FLAGS = {
    "K": (int, "comma list of anchor spacings"),
    "n": (int, "comma list of difference orders"),
    "fusion": (str, "comma list of fusion modes"),
    "dynamics": (_on_off, "comma list of on/off"),
}


def cmd_ablate(args) -> int:
    cfg = _load_config(args)
    grid = {}
    for key in harness.GRID_KEYS:
        text = getattr(args, f"grid_{key}")
        if text:
            try:
                grid[key] = [_GRID_FLAGS[key][0](v) for v in text.split(",")]
            except ValueError as exc:
                raise ValueError(f"--grid-{key}: {exc}") from None
    out = harness.reports_to_csv(harness.ablation_sweep(cfg, grid))
    if cfg.out_path:
        with open(cfg.out_path, "w") as fh:
            fh.write(out)
    else:
        print(out, end="")
    return 0


def cmd_plan(args) -> int:
    plan = WindowPlan(args.frames, args.window, args.overlap)
    for s, e in plan.spans:
        print(f"({s}, {e})")
    return 0


def cmd_selftest(_args) -> int:
    failures = 0

    def check(name, ok):
        nonlocal failures
        print(f"{'PASS' if ok else 'FAIL'}  {name}")
        failures += 0 if ok else 1

    st = stats(np.array([1.0, 3.0]))
    check("population stats", st.mean == 2.0 and st.std == 1.0)

    plan = WindowPlan(21, 9, 5)
    check("window plan trace", plan.spans == ((0, 9), (4, 13), (8, 17), (12, 21)))

    w = blend_weights(5)
    blended = blend_overlap(np.zeros(5), np.full(5, 10.0), w)
    check("overlap blend ramp", np.allclose(blended, [0, 2.5, 5, 7.5, 10]))

    z_img = SeededRng(0).normal(64)
    z_p = SeededRng(1).normal(64) * 3 + 2
    fused = normalize_fuse(z_img, z_p)
    aligned = fused - z_img
    si, sa = stats(z_img), stats(aligned)
    check("stats alignment", abs(si.mean - sa.mean) < 1e-9 and abs(si.std - sa.std) < 1e-9)

    # Affine trajectories are extrapolated exactly.
    pcfg = PredictorConfig(anchor_spacing=5, max_order=1, dynamics_enabled=False)
    cache = AnchorCache(5, 2)
    cache.push(17, LayerOutputs([np.array([3.0 * 17 + 1])], (1,)), SigmaHistory())
    cache.push(12, LayerOutputs([np.array([3.0 * 12 + 1])], (1,)), SigmaHistory())
    table = finite_differences(cache)
    pred = predict(cache, table, SigmaHistory(), 2, pcfg)
    check("affine exactness", abs(pred.final[0] - 31.0) < 1e-9)

    rep = harness.run_experiment(harness.ExperimentConfig(steps=10, frames=8, window=8, overlap=5))
    check("eval-count law", rep.full_eval_count == 2 and rep.predicted_step_count == 8)

    check("relative_l2 self", relative_l2(z_img, z_img) == 0.0)
    print(f"{'OK' if failures == 0 else 'FAILED'}: {failures} failing check(s)")
    return 1 if failures else 0


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The whole argument tree, built on the first call and reused by later ``main`` calls."""
    parser = argparse.ArgumentParser(prog="latentskip",
                                     description="Sampler-acceleration experiments: Taylor-extrapolated "
                                                 "latent prediction with sliding-window scheduling.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_sample = sub.add_parser("sample", help="run one oracle-vs-accelerated comparison")
    _add_run_flags(p_sample)
    p_sample.set_defaults(fn=cmd_sample)

    p_ablate = sub.add_parser("ablate", help="run a grid of comparisons, emit CSV")
    _add_run_flags(p_ablate)
    for key, (_, help_text) in _GRID_FLAGS.items():
        p_ablate.add_argument(f"--grid-{key}", help=help_text)
    p_ablate.set_defaults(fn=cmd_ablate)

    p_plan = sub.add_parser("plan", help="print the window plan")
    p_plan.add_argument("-L", "--frames", type=int, required=True)
    p_plan.add_argument("--window", type=int, required=True)
    p_plan.add_argument("--overlap", type=int, default=5)
    p_plan.set_defaults(fn=cmd_plan)

    p_self = sub.add_parser("selftest", help="run the built-in invariant checks")
    p_self.set_defaults(fn=cmd_selftest)
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
