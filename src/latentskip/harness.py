"""Experiment runner: oracle-vs-accelerated comparisons, sweeps, and I/O.

Every experiment runs the oracle (full evaluation at every step) and the
configured accelerated pipeline on identical seeded inputs, then reports
evaluation counts and relative-L2 errors against the oracle trajectory.
A trajectory is saved as one NumPy ``.npy`` array of its latents.
"""

from __future__ import annotations

import csv
import io
import itertools
import math
import os
import stat
import time
import tokenize
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .core import SeededRng, at_least, check_kinds, check_rule, mean, relative_l2
from .flow_model import MODEL_RULES, SamplerConfig, build_model
from .predictor import PredictorConfig
from .windows import WindowPlan, run_long

CSV_HEADER = ["mode", "K", "n", "alpha", "T", "L", "l", "v",
              "evals", "predicted", "wall_ms", "rel_err_final", "rel_err_mean"]

# ExperimentConfig's fields that are build_model parameters, as (field, parameter).
MODEL_FIELDS = (("cond_dim", "cond_dim"), ("layers", "layer_count"), ("width", "width"), ("fusion", "fusion_mode"))

# dump_trajectory's write buffer is at most this, so a dump holds no more than it on top of the latents.
WRITE_BUFFER_BYTES = 1 << 20


class TrajectoryFormatError(ValueError):
    """Malformed or truncated trajectory file."""


class TrajectoryVersionError(ValueError):
    """Trajectory file written in an unsupported ``.npy`` format version."""


@dataclass(frozen=True)
class ExperimentConfig:
    """An experiment's parameters, checked when built: a bad value is a ValueError naming its field.

    Steps through alpha are checked by ``sampler``, ``plan`` and ``predictor``, built from them.
    """

    seed: int = 0
    layers: int = 4
    width: int = 32
    frame_shape: tuple = (8, 8)
    cond_dim: int = 8
    steps: int = 50            # T
    frames: int = 16           # L
    window: int = 16           # l
    overlap: int = 5           # v
    anchor_spacing: int = 5    # K
    order: int = 3             # n
    alpha: float = 1.5
    dynamics_enabled: bool = True
    fusion: str = "ours"
    repetitions: int = 1
    out_path: str | None = None
    sampler: SamplerConfig = field(init=False, repr=False, compare=False)
    plan: WindowPlan = field(init=False, repr=False, compare=False)
    predictor: PredictorConfig = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        check_kinds(self)
        object.__setattr__(self, "frame_shape", tuple(self.frame_shape))
        check_rule(at_least(0), self.seed, "seed")
        check_rule((lambda shape: len(shape) > 0 and all(map(MODEL_RULES["latent_dim"][0], shape)),
                    "must be a non-empty list of integers >= 1"), self.frame_shape, "frame_shape")
        for name, param in MODEL_FIELDS:
            check_rule(MODEL_RULES[param], getattr(self, name), name)
        check_rule(at_least(1), self.repetitions, "repetitions")
        object.__setattr__(self, "sampler", SamplerConfig(steps=self.steps))
        object.__setattr__(self, "plan", WindowPlan(self.frames, self.window, self.overlap))
        object.__setattr__(self, "predictor", PredictorConfig(
            self.anchor_spacing, self.order, self.alpha, self.dynamics_enabled))

    @classmethod
    def from_dict(cls, values: dict) -> "ExperimentConfig":
        """Build from a flat mapping; an unknown key is a ValueError, as is any bad value."""
        unknown = set(values) - {f.name for f in fields(cls) if f.init}
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        return cls(**values)

    @property
    def mode_label(self) -> str:
        return self.fusion if self.dynamics_enabled else self.fusion + "-nodyn"


@dataclass
class MetricsReport:
    mode: str
    anchor_spacing: int
    order: int
    alpha: float
    steps: int
    frames: int
    window: int
    overlap: int
    full_eval_count: int       # per window
    predicted_step_count: int  # per window
    wall_clock_ms: float
    rel_err_final: float
    rel_err_mean: float
    per_step_errors: list = field(default_factory=list)
    trajectory: list | None = None  # accelerated trajectory of the last rep

    def csv_row(self) -> list:
        return [self.mode, self.anchor_spacing, self.order, self.alpha,
                self.steps, self.frames, self.window, self.overlap,
                self.full_eval_count, self.predicted_step_count,
                repr(self.wall_clock_ms), repr(self.rel_err_final), repr(self.rel_err_mean)]


def run_experiment(cfg: ExperimentConfig, keep_trajectory: bool = False) -> MetricsReport:
    """Oracle + accelerated runs on the same seeded inputs, averaged over reps."""
    finals, means = [], []
    per_step = np.zeros(cfg.steps)
    wall_ms = 0.0
    evals_per_window = None
    last_traj = None
    for rep in range(cfg.repetitions):
        seed = cfg.seed + rep
        model = build_model(seed, cfg.layers, cfg.width,
                            latent_dim=int(np.prod(cfg.frame_shape)),
                            cond_dim=cfg.cond_dim, fusion_mode=cfg.fusion)
        inputs = SeededRng(seed + 1)
        z_T = inputs.normal((cfg.frames,) + tuple(cfg.frame_shape))
        cond = inputs.normal((cfg.frames, cfg.cond_dim))

        oracle_traj, _ = run_long(model, z_T, cond, cfg.plan, cfg.sampler, None)
        start = time.perf_counter()
        accel_traj, evals_per_window = run_long(model, z_T, cond, cfg.plan, cfg.sampler, cfg.predictor)
        wall_ms += (time.perf_counter() - start) * 1e3

        errs = [relative_l2(a, o) for a, o in zip(accel_traj[1:], oracle_traj[1:])]
        per_step += np.asarray(errs)
        finals.append(errs[-1])
        means.append(mean(errs))
        last_traj = accel_traj

    per_step /= cfg.repetitions
    full_evals = math.ceil(cfg.steps / cfg.anchor_spacing)
    if any(e != full_evals for e in evals_per_window):
        raise RuntimeError(f"full evaluations per window {evals_per_window}, "
                           f"expected ceil(T/K) = {full_evals}")
    return MetricsReport(
        mode=cfg.mode_label,
        anchor_spacing=cfg.anchor_spacing, order=cfg.order, alpha=cfg.alpha,
        steps=cfg.steps, frames=cfg.frames, window=cfg.window, overlap=cfg.overlap,
        full_eval_count=full_evals,
        predicted_step_count=cfg.steps - full_evals,
        wall_clock_ms=wall_ms / cfg.repetitions,
        rel_err_final=mean(finals),
        rel_err_mean=mean(means),
        per_step_errors=per_step.tolist(),
        trajectory=last_traj if keep_trajectory else None,
    )


GRID_KEYS = {"K": "anchor_spacing", "n": "order", "dynamics": "dynamics_enabled", "fusion": "fusion"}


def ablation_sweep(base: ExperimentConfig, grid: dict, jobs: int = 1) -> list[MetricsReport]:
    """One report per grid cell, run one after another, sorted by (mode, K, n).

    ``grid`` maps a subset of {K, n, dynamics, fusion} to non-empty lists (or tuples) of distinct values.
    Every cell is built, and so checked, before any cell runs.
    ``jobs`` accepts only 1 and remains for callers that pass it.
    """
    check_rule((lambda j: j == 1, "must be 1"), jobs, "jobs")
    if not grid:
        raise ValueError("empty ablation grid")
    unknown = set(grid) - set(GRID_KEYS)
    if unknown:
        raise ValueError(f"unknown grid keys: {sorted(unknown)}")
    keys = sorted(grid)
    for key in keys:
        values = grid[key]
        if type(values) not in (list, tuple) or not values:
            raise ValueError(f"grid {key}: expected a non-empty list, got {values!r}")
        for i, value in enumerate(values):
            if value in values[:i]:  # its cells would run twice and give identical reports
                raise ValueError(f"grid {key}: repeated value {value!r}")
    cells = []
    for combo in itertools.product(*(grid[k] for k in keys)):
        cell = dict(zip(keys, combo))
        try:
            cells.append(replace(base, **{GRID_KEYS[k]: v for k, v in cell.items()}))
        except ValueError as exc:
            raise ValueError(f"grid cell {cell} failed: {exc}") from exc
    return sorted((run_experiment(cfg) for cfg in cells),
                  key=lambda r: (r.mode, r.anchor_spacing, r.order))


def reports_to_csv(reports: list[MetricsReport]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    for report in reports:
        writer.writerow(report.csv_row())
    return buf.getvalue()


def dump_trajectory(trajectory: list, path: str):
    """Write latents of one shape as one NumPy ``.npy`` file (format 1.0), which ``np.load`` reads.

    The bytes are ``np.save``'s for the stack of the latents as C-ordered
    little-endian float64: NumPy's header for a ``(latents, *shape)`` array,
    then every value. Every bit pattern, NaN payloads included, round-trips.
    Each latent's own memory (a C-contiguous little-endian float64 copy only
    when it is not one already) follows the header through one buffered
    writer of at most ``WRITE_BUFFER_BYTES`` and no larger than the file, so
    nothing is stacked. A regular file is written over in place, then cut to
    the new length; a failed write leaves it empty, so no mix of old and new
    bytes loads. Nothing is fsynced. An empty list, latents of different
    shapes and 0-d latents are a ValueError, raised before the path is opened.
    """
    tensors = [np.asarray(z, dtype="<f8", order="C") for z in trajectory]
    shapes = {z.shape for z in tensors}
    if len(shapes) != 1 or () in shapes:
        raise ValueError(f"latent shapes {sorted(shapes)}: a trajectory is one or more latents of one shape, "
                         "each with a frame axis")
    head = io.BytesIO()
    np.lib.format.write_array_header_1_0(
        head, {"descr": "<f8", "fortran_order": False, "shape": (len(tensors), *tensors[0].shape)})
    size = head.tell() + len(tensors) * tensors[0].nbytes
    # No O_TRUNC: on ext4, closing a file cut to zero starts its writeback and re-allocates its blocks.
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    with open(fd, "wb", buffering=min(size, WRITE_BUFFER_BYTES)) as fh:
        regular = stat.S_ISREG(os.fstat(fd).st_mode)  # a device or a FIFO cannot be cut
        try:
            fh.write(head.getbuffer())
            for z in tensors:
                fh.write(z.data)
            fh.flush()
        except BaseException:
            if regular:
                os.ftruncate(fd, 0)
            fh.raw.close()  # drops the buffer, which closing the writer would write past the cut
            raise
        if regular:
            os.ftruncate(fd, size)


def load_trajectory(path: str) -> list:
    """Read a ``.npy`` file (format 1.0) of a ``(latents, frames, ...)`` float64 array, as ``dump_trajectory`` writes.

    Only a regular file is read: anything else (a FIFO, a directory) is a
    ``TrajectoryFormatError`` raised before the path is opened. A ``.npy``
    version other than 1.0 is a ``TrajectoryVersionError`` naming it. A
    ``TrajectoryFormatError`` is anything else that is not a ``<f8`` array
    in C order with at least 2 dimensions, each >= 0: no ``.npy`` magic
    string, a header NumPy's ``read_array_header_1_0`` refuses (its bound
    is 10000 bytes), or a payload that is not exactly the rest of the file,
    which is checked against the file's size before anything is allocated.
    The payload is read once, straight into one array, so the peak is about
    the payload; the returned fresh, writable, C-contiguous arrays are its
    views, one per latent.
    """
    info = os.stat(path)
    if not stat.S_ISREG(info.st_mode):
        raise TrajectoryFormatError(f"{os.fspath(path)!r} is not a regular file")
    # A small read buffer: it holds the header, and the payload is read past it.
    with open(path, "rb", buffering=io.DEFAULT_BUFFER_SIZE) as fh:
        try:
            version = np.lib.format.read_magic(fh)
        except ValueError as exc:
            raise TrajectoryFormatError(f"not a .npy file: {exc}") from exc
        if version != (1, 0):
            raise TrajectoryVersionError(f"unsupported .npy version {version[0]}.{version[1]}: only 1.0 is read")
        try:
            shape, fortran_order, dtype = np.lib.format.read_array_header_1_0(fh)
        # What NumPy's header parser (ast.literal_eval, then tokenize) raises on a malformed header.
        except (ValueError, TypeError, SyntaxError, RecursionError, MemoryError, tokenize.TokenError) as exc:
            raise TrajectoryFormatError(f"malformed .npy header: {exc}") from exc
        if dtype != np.dtype("<f8") or fortran_order:
            raise TrajectoryFormatError(f"{dtype.str} data in {'Fortran' if fortran_order else 'C'} order: "
                                        "only <f8 in C order is read")
        if len(shape) < 2 or min(shape) < 0:
            raise TrajectoryFormatError(f"shape {shape}: expected (latents, frames, ...), every dimension >= 0")
        total = math.prod(shape)
        size = info.st_size - fh.tell()
        if size != 8 * total:
            raise TrajectoryFormatError(f"{size} payload bytes for {total} values, expected {8 * total}")
        flat = np.empty(total, dtype="<f8")
        read = fh.readinto(flat)
        if read != size:  # the file shrank after it was sized
            raise TrajectoryFormatError(f"{read} payload bytes for {total} values, expected {size}")
    try:
        return list(flat.reshape(shape))
    except ValueError as exc:  # a zero-size shape beyond NumPy's limits, or over 64 dimensions
        raise TrajectoryFormatError(f"bad shape {shape}: {exc}") from exc
