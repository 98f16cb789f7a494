import argparse
import io
import json
import math
import os
import re
import sys
import tempfile
import threading
import tracemalloc
from dataclasses import FrozenInstanceError, fields, replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from latentskip import harness
from latentskip.cli import _add_run_flags, _load_config, main
from latentskip.core import SeededRng
from latentskip.flow_model import build_model
from latentskip.harness import (CSV_HEADER, ExperimentConfig, TrajectoryFormatError,
                                TrajectoryVersionError, ablation_sweep, dump_trajectory,
                                load_trajectory, reports_to_csv, run_experiment)


MAX_FLOAT = sys.float_info.max
SMALL_RUN = {"steps": 4, "frames": 8, "window": 8, "frame_shape": [4, 4]}


def fast_cfg(**kw):
    kw.setdefault("steps", 20)
    kw.setdefault("frames", 8)
    kw.setdefault("window", 8)
    kw.setdefault("overlap", 5)
    kw.setdefault("frame_shape", (4, 4))
    return ExperimentConfig(**kw)


class TestRunExperiment:
    def test_spacing_one_is_exact(self):
        report = run_experiment(fast_cfg(anchor_spacing=1))
        assert report.rel_err_final == 0.0
        assert report.full_eval_count == 20

    def test_eval_counts(self):
        report = run_experiment(fast_cfg(steps=50, anchor_spacing=5))
        assert report.full_eval_count == 10
        assert report.predicted_step_count == 40

    def test_counts_partition_steps(self):
        report = run_experiment(fast_cfg(anchor_spacing=3))
        assert report.full_eval_count + report.predicted_step_count == 20

    def test_repeated_run_identical(self):
        a, b = run_experiment(fast_cfg()), run_experiment(fast_cfg())
        assert a.rel_err_final == b.rel_err_final
        assert a.per_step_errors == b.per_step_errors

    def test_wall_clock_is_mean_over_repetitions(self, monkeypatch):
        # Each repetition reads the clock around its accelerated run: 250, 500 and 2250 ms.
        ticks = iter([0.0, 0.25, 1.0, 1.5, 2.0, 4.25])
        monkeypatch.setattr(harness, "time", SimpleNamespace(perf_counter=lambda: next(ticks)))
        assert run_experiment(fast_cfg(steps=4, repetitions=3)).wall_clock_ms == 1000.0

    def test_invalid_config_names_field(self):
        with pytest.raises(ValueError, match="anchor_spacing"):
            run_experiment(fast_cfg(anchor_spacing=0))
        with pytest.raises(ValueError, match="alpha"):
            run_experiment(fast_cfg(alpha=3.0))

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ValueError, match="unknown config keys"):
            ExperimentConfig.from_dict({"bogus": 1})

    def test_numpy_integers_accepted(self):
        cfg = fast_cfg(steps=np.int64(4), anchor_spacing=np.int32(2), frame_shape=[np.int64(4), 4])
        assert cfg == fast_cfg(steps=4, anchor_spacing=2) and cfg.frame_shape == (4, 4)
        assert run_experiment(cfg).full_eval_count == 2

    @pytest.mark.parametrize("field, value, param, model_value", [
        ("layers", 1, "layer_count", 1),
        ("width", 1, "width", 1),
        ("cond_dim", -1, "cond_dim", -1),
        ("fusion", "nope", "fusion_mode", "nope"),
        ("frame_shape", (4, 0), "latent_dim", 0),
    ], ids=["layers", "width", "cond_dim", "fusion", "frame_shape"])
    def test_model_fields_keep_the_model_rules(self, field, value, param, model_value):
        # One rule per model parameter, in flow_model: the config reports it under its own field name.
        with pytest.raises(ValueError) as model_exc:
            build_model(0, **{param: model_value})
        with pytest.raises(ValueError) as config_exc:
            fast_cfg(**{field: value})
        requirement = str(model_exc.value).removeprefix(f"{param}: ")
        if field == "frame_shape":  # latent_dim's rule on every axis, stated once for the whole shape
            assert requirement == "must be >= 1, got 0"
            requirement = "must be a non-empty list of integers >= 1, got (4, 0)"
        assert str(config_exc.value) == f"{field}: {requirement}"

    def test_config_is_frozen_and_checked_on_replace(self):
        cfg = fast_cfg()
        with pytest.raises(FrozenInstanceError):
            cfg.steps = 0
        with pytest.raises(ValueError, match=re.escape("steps: must be >= 1, got 0")):
            replace(cfg, steps=0)
        # The sub-configs built from it are frozen too, so they stay as checked.
        with pytest.raises(FrozenInstanceError):
            cfg.sampler.steps = 0
        with pytest.raises(FrozenInstanceError):
            cfg.predictor.max_order = 1.5
        assert cfg.sampler.steps == 20 and cfg.predictor.max_order == 3


class TestAblation:
    def test_grid_cardinality(self):
        reports = ablation_sweep(fast_cfg(), {"n": [1, 2, 3, 4]})
        assert len(reports) == 4

    def test_grid_eval_counts(self):
        reports = ablation_sweep(fast_cfg(steps=50), {"K": [2, 5, 8]})
        assert sorted(r.full_eval_count for r in reports) == [7, 10, 25]

    def test_empty_grid(self):
        with pytest.raises(ValueError, match="empty"):
            ablation_sweep(fast_cfg(), {})

    @pytest.mark.parametrize("grid, message", [
        ({"K": 5}, "grid K: expected a non-empty list, got 5"),
        ({"K": []}, "grid K: expected a non-empty list, got []"),  # would run no cell
        ({"fusion": "ours"}, "grid fusion: expected a non-empty list, got 'ours'"),  # one cell per letter
        ({"fusion": ["ours", "ours"]}, "grid fusion: repeated value 'ours'"),  # one cell run twice
        ({"K": [2], "bogus": [1]}, "unknown grid keys: ['bogus']"),  # no cell would vary it
    ], ids=["int", "empty", "string", "repeated", "unknown-key"])
    def test_grid_value_must_be_a_non_empty_list(self, grid, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            ablation_sweep(fast_cfg(), grid)

    def test_rows_sorted(self):
        reports = ablation_sweep(fast_cfg(), {"K": [5, 2], "fusion": ["ours", "baseline-add"]})
        keys = [(r.mode, r.anchor_spacing, r.order) for r in reports]
        assert keys == sorted(keys)

    def test_jobs_must_be_one(self):
        grid = {"K": [2, 5], "n": [1, 3]}
        with pytest.raises(ValueError, match="jobs"):
            ablation_sweep(fast_cfg(), grid, jobs=2)
        default, serial = ablation_sweep(fast_cfg(), grid), ablation_sweep(fast_cfg(), grid, jobs=1)
        wall = CSV_HEADER.index("wall_ms")
        assert [r.csv_row()[:wall] + r.csv_row()[wall + 1:] for r in serial] == \
            [r.csv_row()[:wall] + r.csv_row()[wall + 1:] for r in default]

    def test_cell_failure_carries_cell_id(self):
        with pytest.raises(ValueError, match="grid cell"):
            ablation_sweep(fast_cfg(), {"K": [0]})

    def test_invalid_cell_rejected_before_any_run(self, monkeypatch):
        runs = []
        monkeypatch.setattr(harness, "run_experiment", lambda cfg: runs.append(cfg))
        with pytest.raises(ValueError, match=re.escape("grid cell {'K': 0} failed: anchor_spacing")):
            ablation_sweep(fast_cfg(), {"K": [2, 5, 0]})
        assert runs == []

    def test_csv_schema(self):
        csv_text = reports_to_csv(ablation_sweep(fast_cfg(), {"n": [1]}))
        header = csv_text.splitlines()[0]
        assert header == ",".join(CSV_HEADER)
        assert header == "mode,K,n,alpha,T,L,l,v,evals,predicted,wall_ms,rel_err_final,rel_err_mean"


EDGE_FLOATS = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2e-308, MAX_FLOAT, -MAX_FLOAT])
# Raw float64 bit patterns: any uint64, plus +-inf and NaNs with payloads, quiet and signalling.
BIT_PATTERNS = st.integers(0, 2**64 - 1) | st.sampled_from(
    [0x7FF0000000000000, 0xFFF0000000000000, 0x7FF8000000000000, 0x7FF8000000000001,
     0x7FF0000000000001, 0xFFF4000000000ABC, 0xFFFFFFFFFFFFFFFF])
# Layouts dump_trajectory must accept, each keeping the latent's shape: Fortran order, a strided
# view, and big-endian copies.
LAYOUTS = st.sampled_from([
    lambda a: a,
    np.asfortranarray,
    lambda a: np.repeat(a, 2, axis=0)[::2],
    lambda a: a.astype(">f8"),
    lambda a: np.asfortranarray(a.astype(">f8")),
])


@st.composite
def trajectories(draw):
    """1-5 latents of one shape (zero-size frames included), each in a layout of its own."""
    shape = (draw(st.integers(1, 5)),) + draw(array_shapes(min_dims=1, max_dims=3, min_side=0, max_side=4))
    stacked = draw(arrays(np.float64, shape,
                          elements=st.floats(allow_nan=False, allow_infinity=False) | EDGE_FLOATS)
                   | arrays(np.uint64, shape, elements=BIT_PATTERNS).map(lambda a: a.view(np.float64)))
    return [draw(LAYOUTS)(z) for z in stacked]


def f8(*values) -> bytes:
    return np.asarray(values, dtype="<f8").tobytes()


# Files in the former version 3 layout (a JSON header line, then the payload), malformed ones included.
# None is a .npy file, so load_trajectory refuses each.
BAD_V3_FILES = {
    "header not json": b'{"version": 3, "shapes": [[1]]\n' + f8(1.0),
    "header not an object": b'[3, [[1]]]\n' + f8(1.0),
    "shapes missing": b'{"version": 3}\n' + f8(1.0),
    "negative dim": b'{"version": 3, "shapes": [[-1]]}\n',
    "negative dims, positive count": b'{"version": 3, "shapes": [[-1, -1]]}\n' + f8(1.0),
    "float dim": b'{"version": 3, "shapes": [[1.0]]}\n' + f8(1.0),
    "short payload": b'{"version": 3, "shapes": [[2]]}\n' + f8(1.0),
    "one trailing byte": b'{"version": 3, "shapes": [[1]]}\n' + f8(1.0) + b"\0",
    "partial float": b'{"version": 3, "shapes": [[1]]}\n' + bytes(7),
    # 2**80 values: the size check must refuse it before anything is allocated.
    "huge element count": b'{"version": 3, "shapes": [[1099511627776, 1099511627776]]}\n' + f8(1.0),
    "zero-size shape beyond numpy": b'{"version": 3, "shapes": [[0, 9223372036854775808]]}\n',
    "no newline after the header": b'{"version": 3, "shapes": []}',
    "bad utf-8": b'{"version": 3, "shapes": [[1]], "extra": \xff}\n' + f8(1.0),
    "5001-digit integer": b'{"version": 3, "shapes": [[1' + b"0" * 5000 + b']]}\n' + f8(1.0),
}

MAGIC = b"\x93NUMPY\x01\x00"


def npy(header: str, payload: bytes = b"", magic: bytes = MAGIC) -> bytes:
    """A file of ``.npy`` format 1.0 with ``header`` as written, unpadded."""
    text = header.encode("latin1")
    return magic + len(text).to_bytes(2, "little") + text + payload


def npy_header(shape, descr="<f8", fortran_order=False) -> str:
    return repr({"descr": descr, "fortran_order": fortran_order, "shape": shape})


# .npy files that load_trajectory must reject as malformed.
BAD_NPY_FILES = {
    # The version 3 layout the program wrote before it wrote .npy files.
    "version 3 file": b'{"version": 3, "shapes": [[2], [1, 1]]}\n' + f8(1.0, -2.0, 0.5),
    "bad magic": b"\x93NUMPX\x01\x00" + npy(npy_header((1, 1)), f8(1.0))[8:],
    "short magic": MAGIC[:5],
    "short header length": MAGIC + b"\x10",
    "short header": MAGIC + b"\x10\x00{'descr'",
    "header not a literal": npy("{'descr': '<f8', 'fortran_order': False, 'shape': tuple()}"),
    "header not a dict": npy("[1, 1]"),
    "shape missing": npy("{'descr': '<f8', 'fortran_order': False}", f8(1.0)),
    "shape not a tuple": npy(npy_header([1, 1]), f8(1.0)),
    "float dim": npy(npy_header((1, 1.0)), f8(1.0)),
    # What the header parser raises past ValueError: TokenError, TypeError, IndentationError,
    # RecursionError and MemoryError (Python's parser stack).
    "nested parentheses": npy("(" * 4000 + ")" * 4000),
    "unclosed parentheses": npy("{'shape': " + "(" * 300),
    "unhashable key": npy("{[]: 1}"),
    "bad indentation": npy("  x\n y"),
    "deep sum": npy("1" + "+1" * 3000),
    "deep unary minus": npy("-" * 9000 + "1"),
    "header over numpy's bound": npy(npy_header((1, 1)) + " " * 10_000, f8(1.0)),
    "5001-digit integer": npy("{'descr': '<f8', 'fortran_order': False, 'shape': (1, 1" + "0" * 5000 + ")}", f8(1.0)),
    "big-endian": npy(npy_header((1, 1), ">f8"), f8(1.0)),
    "float32": npy(npy_header((1, 1), "<f4"), bytes(4)),
    "object": npy(npy_header((1, 1), "|O"), bytes(8)),
    "fortran order": npy(npy_header((2, 2), fortran_order=True), f8(1.0, 2.0, 3.0, 4.0)),
    "0-d": npy(npy_header(()), f8(1.0)),
    "1-d": npy(npy_header((2,)), f8(1.0, 2.0)),
    "negative dim, zero count": npy(npy_header((-1, 0))),
    "negative dims, positive count": npy(npy_header((-1, -1)), f8(1.0)),
    "truncated payload": npy(npy_header((2, 1)), f8(1.0)),
    "partial float": npy(npy_header((1, 1)), bytes(7)),
    "one trailing byte": npy(npy_header((1, 1)), f8(1.0) + b"\0"),
    "zero-size shape beyond numpy": npy(npy_header((0, 2**63))),
    "65 dimensions": npy(npy_header((1,) * 65), f8(1.0)),
}


def assert_fresh_float64(a):
    assert a.dtype == np.dtype(np.float64)
    assert a.flags.writeable and a.flags.c_contiguous


class TestTrajectoryIO:
    @settings(max_examples=100, deadline=None)
    @given(traj=trajectories())
    def test_round_trip_bitwise(self, traj):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "traj.npy")
            dump_trajectory(traj, path)
            loaded = load_trajectory(path)
        assert len(loaded) == len(traj)
        for a, b in zip(traj, loaded):
            assert a.shape == b.shape
            assert np.ascontiguousarray(a, dtype=np.float64).tobytes() == b.tobytes()
            assert_fresh_float64(b)

    @pytest.mark.parametrize("shape, count", [((2,), 1), ((16, 8, 8), 3), ((0, 5), 2), ((3, 1, 2, 1), 4)],
                             ids=["one 1-d latent", "16 frames", "zero frames", "four dims"])
    def test_file_is_np_save_of_the_stack(self, tmp_path, shape, count):
        trajectory = list(SeededRng(count).normal((count,) + shape))
        path = tmp_path / "traj.npy"
        dump_trajectory(trajectory, path)
        saved = io.BytesIO()
        np.save(saved, np.stack(trajectory))
        assert path.read_bytes() == saved.getvalue()

    def test_reads_what_np_save_writes(self, tmp_path):
        array = SeededRng(4).normal((3, 4, 2))
        path = tmp_path / "traj.npy"
        np.save(path, array)
        loaded = load_trajectory(path)
        assert len(loaded) == 3 and np.array_equal(np.stack(loaded), array)

    @pytest.mark.parametrize("trajectory", [[], [np.zeros(2), np.zeros(3)], [np.zeros((2, 2)), np.zeros((2, 2, 1))],
                                            [np.float64(1.0)], [np.zeros(())] * 2],
                             ids=["empty", "lengths differ", "dimensions differ", "scalar", "0-d arrays"])
    def test_dump_refuses_what_no_caller_writes(self, tmp_path, trajectory):
        path = tmp_path / "traj.npy"
        with pytest.raises(ValueError):
            dump_trajectory(trajectory, path)
        assert not path.exists()

    @pytest.mark.parametrize("version", [(2, 0), (3, 0), (1, 1)], ids=["version 2", "version 3", "version 1.1"])
    def test_other_versions_refused_by_name(self, tmp_path, version):
        # NumPy's format versions 2.0 and 3.0, and a minor version after 1.0: refused before the header is read.
        path = tmp_path / "traj.npy"
        path.write_bytes(npy(npy_header((2, 1)), f8(1.0, 2.0), magic=MAGIC[:-2] + bytes(version)))
        with pytest.raises(TrajectoryVersionError, match=r"unsupported \.npy version {}\.{}: only 1\.0 is read"
                           .format(*version)):
            load_trajectory(path)

    @pytest.mark.parametrize("content", BAD_V3_FILES.values(), ids=BAD_V3_FILES.keys())
    def test_malformed_version_3_file_rejected(self, tmp_path, content):
        path = tmp_path / "traj.bin"
        path.write_bytes(content)
        with pytest.raises(TrajectoryFormatError):
            load_trajectory(path)

    @pytest.mark.parametrize("content", BAD_NPY_FILES.values(), ids=BAD_NPY_FILES.keys())
    def test_malformed_npy_file_rejected(self, tmp_path, content):
        path = tmp_path / "traj.npy"
        path.write_bytes(content)
        with pytest.raises(TrajectoryFormatError):
            load_trajectory(path)

    @pytest.mark.parametrize("frames", [16, 64])
    def test_dump_writes_once_per_mib(self, tmp_path, monkeypatch, frames):
        # Count the writes that reach the raw file, under the buffer harness asks open for.
        writes = []

        class CountingFileIO(io.FileIO):
            def write(self, data):
                writes.append(data)
                return super().write(data)

        def counting_open(path, mode, buffering=-1):
            assert mode == "wb"
            return io.BufferedWriter(CountingFileIO(path, "w"),
                                     buffering if buffering > 1 else io.DEFAULT_BUFFER_SIZE)

        path = tmp_path / "traj.bin"
        trajectory = [np.full((frames, 8, 8), float(j)) for j in range(51)]
        monkeypatch.setattr(harness, "open", counting_open, raising=False)
        dump_trajectory(trajectory, path)
        monkeypatch.undo()
        size = path.stat().st_size
        assert len(writes) <= math.ceil(size / 2**20) + 1
        assert [np.array_equal(a, b) for a, b in zip(load_trajectory(path), trajectory)] == [True] * 51

    def test_io_peak_memory(self, tmp_path):
        # T=50, L=64: a load holds about the payload once, a dump no more than its write buffer.
        def traced_peak(call):
            tracemalloc.start()
            try:
                call()
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        trajectory = [np.full((64, 8, 8), float(j)) for j in range(51)]
        payload = sum(z.nbytes for z in trajectory)
        path = tmp_path / "traj.bin"
        loaded = []
        dump_peak = traced_peak(lambda: dump_trajectory(trajectory, path))
        load_peak = traced_peak(lambda: loaded.extend(load_trajectory(path)))
        assert dump_peak <= min(path.stat().st_size, 2**20) + 2**14
        assert load_peak <= 1.05 * payload
        assert len(loaded) == 51 and np.array_equal(loaded[-1], trajectory[-1])

    def test_claimed_size_is_checked_before_allocating(self, tmp_path):
        # A header claiming 10**12 values over one: np.load or np.fromfile would allocate before sizing.
        path = tmp_path / "traj.npy"
        path.write_bytes(npy(npy_header((10**6, 10**6)), f8(1.0)))
        tracemalloc.start()
        try:
            with pytest.raises(TrajectoryFormatError, match="8 payload bytes for 1000000000000 values"):
                load_trajectory(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**16

    def test_file_that_shrinks_after_sizing(self, tmp_path, monkeypatch):
        # The size check passes on a stat taken 8 bytes earlier; the payload read then comes up short.
        path = tmp_path / "traj.npy"
        np.save(path, np.zeros((2, 1)))
        path.write_bytes(path.read_bytes()[:-8])
        info = os.stat(path)
        monkeypatch.setattr(harness, "os", SimpleNamespace(
            fspath=os.fspath, stat=lambda p: SimpleNamespace(st_mode=info.st_mode, st_size=info.st_size + 8)))
        with pytest.raises(TrajectoryFormatError, match="8 payload bytes for 2 values, expected 16"):
            load_trajectory(path)

    def test_only_regular_files_are_read(self, tmp_path):
        # A FIFO would block an open until a writer came; it is refused before it is opened.
        fifo = tmp_path / "traj.fifo"
        os.mkfifo(fifo)
        raised = []

        def load():
            try:
                load_trajectory(fifo)
            except Exception as exc:  # the main thread checks its class
                raised.append(exc)

        thread = threading.Thread(target=load, daemon=True)
        thread.start()
        thread.join(10)
        if thread.is_alive():
            with open(fifo, "wb"):  # releases the blocked open, so the thread can end
                pass
            thread.join(10)
            pytest.fail("load_trajectory blocked on a FIFO")
        assert len(raised) == 1 and isinstance(raised[0], TrajectoryFormatError)
        assert "regular file" in str(raised[0])
        with pytest.raises(TrajectoryFormatError, match="regular file"):
            load_trajectory(tmp_path)


class TestCli:
    def test_plan_output(self, capsys):
        assert main(["plan", "-L", "21", "--window", "9", "--overlap", "5"]) == 0
        assert capsys.readouterr().out.splitlines() == ["(0, 9)", "(4, 13)", "(8, 17)", "(12, 21)"]
        assert main(["plan", "-L", "8", "--window", "8", "--overlap", "0"]) == 0
        assert capsys.readouterr().out.splitlines() == ["(0, 8)"]

    def test_sample_prints_csv(self, capsys):
        rc = main(["sample", "-T", "10", "-L", "8", "--window", "8", "-K", "5", "--seed", "3"])
        assert rc == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0].startswith("mode,K,n")
        assert len(out) == 2

    def test_sample_dump_bitwise_reproducible(self, tmp_path, capsys):
        args = ["sample", "-T", "10", "-L", "8", "--window", "8", "--seed", "3"]
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        assert main(args + ["--out", str(p1)]) == 0
        assert main(args + ["--out", str(p2)]) == 0
        assert p1.read_bytes() == p2.read_bytes()
        loaded = load_trajectory(p1)
        assert len(loaded) == 11

    def test_sample_out_is_the_array_np_load_reads(self, tmp_path, capsys):
        path = tmp_path / "traj.npy"
        assert main(["sample", "-T", "50", "-L", "16", "--out", str(path)]) == 0
        array = np.load(path)
        assert array.shape == (51, 16, 8, 8) and array.dtype == np.float64
        reference = run_experiment(ExperimentConfig(steps=50, frames=16), keep_trajectory=True).trajectory
        assert array.tobytes() == np.stack(reference).tobytes()

    def test_sample_unwritable_out_prints_no_row(self, tmp_path, capsys):
        out = tmp_path / "missing" / "x.json"
        assert main(["sample", "-T", "4", "-L", "8", "--window", "8", "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and len(captured.err.splitlines()) == 1
        assert not out.parent.exists()

    def test_config_file_with_flag_override(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"steps": 10, "frames": 8, "window": 8, "anchor_spacing": 5}))
        assert main(["sample", "--config", str(cfg_path), "-K", "2"]) == 0
        row = capsys.readouterr().out.splitlines()[1].split(",")
        assert row[1] == "2"  # K column reflects the flag, not the file
        assert int(row[8]) == math.ceil(10 / 2)

    def test_ablate_writes_csv(self, tmp_path):
        out = tmp_path / "grid.csv"
        rc = main(["ablate", "-T", "10", "-L", "8", "--window", "8",
                   "--grid-K", "2,5", "--grid-n", "1,3", "--out", str(out)])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 5

    def test_ablate_prints_csv_without_out(self, capsys):
        assert main(["ablate", "-T", "4", "-L", "8", "--window", "8", "--grid-dynamics", "on,off"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == ",".join(CSV_HEADER)
        assert sorted(line.split(",")[0] for line in lines[1:]) == ["ours", "ours-nodyn"]

    def test_invalid_config_exits_nonzero(self, capsys):
        assert main(["sample", "-K", "0"]) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, config, message", [
        (["sample"], {"steps": 10.5}, "steps: expected an integer"),
        (["sample"], {"steps": "10"}, "steps: expected an integer"),
        (["sample"], {"steps": True}, "steps: expected an integer"),
        (["sample"], {"window": 8.0}, "window: expected an integer"),
        (["sample"], {"frame_shape": 5}, "frame_shape: expected a list of integers"),
        (["sample"], {"dynamics_enabled": "no"}, "dynamics_enabled: expected true or false"),
        (["sample"], {"alpha": "1.5"}, "alpha: expected a number"),
        (["ablate", "--grid-K", "0,2"], SMALL_RUN, "grid cell {'K': 0} failed: anchor_spacing"),
        (["ablate", "--grid-fusion", "ours,bogus"], SMALL_RUN, "grid cell {'fusion': 'bogus'} failed: fusion"),
        (["ablate", "--grid-dynamics", "yes,on"], SMALL_RUN, "--grid-dynamics: expected on or off, got 'yes'"),
        (["ablate", "--grid-K", "2,x"], SMALL_RUN, "--grid-K: "),
        (["ablate", "--grid-n", "1.5"], SMALL_RUN, "--grid-n: "),
        (["sample"], {"frame_shape": [0, 4]}, "frame_shape: must be"),
        (["sample"], {"frame_shape": []}, "frame_shape: must be"),
        (["sample"], {"frame_shape": [-2, 4]}, "frame_shape: must be"),
        (["sample"], {"cond_dim": -1}, "cond_dim: must be >= 0"),
        (["sample", "--seed", "-1"], SMALL_RUN, "seed: must be >= 0"),
        (["sample"], [1], "cfg.json must hold a JSON object"),
        (["sample"], None, "cfg.json must hold a JSON object"),
        (["sample"], "x", "cfg.json must hold a JSON object"),
        (["sample"], 3, "cfg.json must hold a JSON object"),
        (["sample"], {"seed": 1.5}, "seed: expected an integer"),
        (["sample"], {"repetitions": 0}, "repetitions: must be >= 1"),
        # One case per sampler, plan and model rule; a sub-config names its own field.
        (["sample", "-K", "0"], SMALL_RUN, "anchor_spacing: must be >= 1, got 0"),
        (["sample", "-n", "-1"], SMALL_RUN, "max_order: must be >= 0, got -1"),
        (["sample", "--alpha", "2"], SMALL_RUN, "alpha: must lie in [0.5, 1.5], got 2.0"),
        (["sample", "-T", "0"], SMALL_RUN, "steps: must be >= 1, got 0"),
        (["sample", "--window", "9", "-L", "8"], SMALL_RUN, "window: must not exceed total (8), got 9"),
        (["sample", "--overlap", "8", "--window", "8"], SMALL_RUN, "overlap: must be >= 0 and < window (8), got 8"),
        (["sample"], dict(SMALL_RUN, layers=1), "layers: must be >= 2, got 1"),
        (["sample"], dict(SMALL_RUN, width=1), "width: must be >= 2, got 1"),
        (["sample"], dict(SMALL_RUN, fusion="x"), "fusion: must be one of ('baseline-add', "),
    ])
    def test_malformed_input_exits_2(self, tmp_path, capsys, argv, config, message):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config))
        assert main(argv + ["--config", str(cfg_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        if argv[0] == "sample" and isinstance(config, dict):  # the same check from Python
            parser = argparse.ArgumentParser()
            _add_run_flags(parser)
            flags = {k: v for k, v in vars(parser.parse_args(argv[1:])).items() if v is not None}
            with pytest.raises(ValueError) as exc:
                ExperimentConfig(**{**config, **flags})
            assert err == f"error: {exc.value}\n"

    def test_multi_span_overlap_one_rejected_alike(self, capsys):
        # plan and sample validate the overlap in the same place, so they fail alike
        errors = []
        for argv in (["plan", "-L", "20", "--window", "8", "--overlap", "1"],
                     ["sample", "-T", "4", "-L", "20", "--window", "8", "--overlap", "1"]):
            assert main(argv) == 2
            errors.append(capsys.readouterr().err)
        assert errors[0] == errors[1] == ("error: overlap: must be >= 2 when the window is shorter than "
                                          "the total length, got 1\n")
        assert main(["plan", "-L", "8", "--window", "8", "--overlap", "1"]) == 0

    def test_zero_cond_dim_runs(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(dict(SMALL_RUN, cond_dim=0)))
        assert main(["sample", "--config", str(cfg_path)]) == 0

    def test_jobs_flag_is_gone(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["ablate", "--grid-K", "2", "--jobs", "2"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --jobs 2" in capsys.readouterr().err

    def test_run_flag_dests_are_config_fields(self):
        # _load_config keeps only dests named like a config field, so a misspelled dest is a no-op flag.
        parser = argparse.ArgumentParser()
        _add_run_flags(parser)
        dests = set(vars(parser.parse_args([]))) - {"config"}
        assert len(dests) == 12
        assert dests <= {f.name for f in fields(ExperimentConfig)}

    def test_run_flags_land_in_config(self, tmp_path):
        parser = argparse.ArgumentParser()
        _add_run_flags(parser)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"dynamics_enabled": False, "repetitions": 3}))
        assert _load_config(parser.parse_args(["--config", str(cfg_path)])) == \
            ExperimentConfig(dynamics_enabled=False, repetitions=3)
        argv = ["-T", "6", "-L", "9", "--window", "7", "--overlap", "2", "-K", "3", "-n", "1",
                "--alpha", "1.25", "--no-dynamics", "--fusion", "pure-norm", "--seed", "4",
                "--reps", "2", "--out", "t.json"]
        assert _load_config(parser.parse_args(argv)) == ExperimentConfig(
            steps=6, frames=9, window=7, overlap=2, anchor_spacing=3, order=1, alpha=1.25,
            dynamics_enabled=False, fusion="pure-norm", seed=4, repetitions=2, out_path="t.json")

    def test_selftest_command_is_gone(self, capsys):
        # Each of the checks it ran has a twin in the test suite.
        with pytest.raises(SystemExit) as exc:
            main(["selftest"])
        assert exc.value.code == 2
        assert "invalid choice: 'selftest'" in capsys.readouterr().err
