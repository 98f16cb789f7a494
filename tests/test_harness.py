import json
import math
import os
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from latentskip.cli import main
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

    def test_invalid_config_names_field(self):
        with pytest.raises(ValueError, match="anchor_spacing"):
            run_experiment(fast_cfg(anchor_spacing=0))
        with pytest.raises(ValueError, match="alpha"):
            run_experiment(fast_cfg(alpha=3.0))

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ValueError, match="unknown config keys"):
            ExperimentConfig.from_dict({"bogus": 1})


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

    def test_rows_sorted(self):
        reports = ablation_sweep(fast_cfg(), {"K": [5, 2], "fusion": ["ours", "baseline-add"]})
        keys = [(r.mode, r.anchor_spacing, r.order) for r in reports]
        assert keys == sorted(keys)

    def test_parallel_jobs_match_serial(self):
        grid = {"K": [2, 5], "n": [1, 3]}
        serial = ablation_sweep(fast_cfg(), grid, jobs=1)
        parallel = ablation_sweep(fast_cfg(), grid, jobs=4)
        assert [r.rel_err_final for r in serial] == [r.rel_err_final for r in parallel]

    def test_cell_failure_carries_cell_id(self):
        with pytest.raises(RuntimeError, match="grid cell"):
            ablation_sweep(fast_cfg(), {"K": [0]})

    def test_csv_schema(self):
        csv_text = reports_to_csv(ablation_sweep(fast_cfg(), {"n": [1]}))
        header = csv_text.splitlines()[0]
        assert header == ",".join(CSV_HEADER)
        assert header == "mode,K,n,alpha,T,L,l,v,evals,predicted,wall_ms,rel_err_final,rel_err_mean"


EDGE_FLOATS = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2e-308, MAX_FLOAT, -MAX_FLOAT])
TENSORS = st.lists(arrays(np.float64, array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=4),
                          elements=st.floats(allow_nan=False, allow_infinity=False) | EDGE_FLOATS),
                   max_size=5)


class TestTrajectoryIO:
    @settings(max_examples=60, deadline=None)
    @given(traj=TENSORS)
    def test_round_trip_bitwise(self, traj):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "traj.json")
            dump_trajectory(traj, path)
            loaded = load_trajectory(path)
        assert len(loaded) == len(traj)
        for a, b in zip(traj, loaded):
            assert a.shape == b.shape
            assert a.tobytes() == b.tobytes()

    def test_truncated_file_is_schema_error(self, tmp_path):
        path = tmp_path / "traj.json"
        dump_trajectory([np.zeros((2, 2))], path)
        path.write_text(path.read_text()[:-10])
        with pytest.raises(TrajectoryFormatError):
            load_trajectory(path)

    def test_version_mismatch(self, tmp_path):
        path = tmp_path / "traj.json"
        path.write_text(json.dumps({"version": 99, "tensors": []}))
        with pytest.raises(TrajectoryVersionError, match="unsupported version"):
            load_trajectory(path)

    def test_missing_version(self, tmp_path):
        path = tmp_path / "traj.json"
        path.write_text("{}")
        with pytest.raises(TrajectoryFormatError):
            load_trajectory(path)


class TestCli:
    def test_plan_output(self, capsys):
        assert main(["plan", "-L", "21", "--window", "9", "--overlap", "5"]) == 0
        assert capsys.readouterr().out.splitlines() == ["(0, 9)", "(4, 13)", "(8, 17)", "(12, 21)"]

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
                   "--grid-K", "2,5", "--grid-n", "1,3", "--jobs", "2", "--out", str(out)])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 5

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
    ])
    def test_malformed_input_exits_2(self, tmp_path, capsys, argv, config, message):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config))
        assert main(argv + ["--config", str(cfg_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err

    def test_selftest_passes(self, capsys):
        assert main(["selftest"]) == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out
