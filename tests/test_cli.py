import csv
import json

import numpy as np
import pytest

from htdsm.cli import dispatch
from htdsm.schedule import NoiseSchedule
from htdsm.scorenet import ScoreNetwork


def run_cli(*args):
    return dispatch(list(args))


class TestExitCodes:
    def test_unknown_subcommand_is_usage_error(self, capsys):
        assert run_cli("frobnicate") == 2
        capsys.readouterr()

    def test_missing_config_is_usage_error(self, tmp_path, capsys):
        code = run_cli("train", "--config", str(tmp_path / "nope.json"),
                       "--out", str(tmp_path / "ckpt.json"))
        assert code == 2
        capsys.readouterr()

    def test_malformed_json_is_usage_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code = run_cli("train", "--config", str(bad), "--out", str(tmp_path / "c.json"))
        assert code == 2
        capsys.readouterr()

    def test_numerical_failure_is_exit_one(self, tmp_path, capsys):
        code = run_cli(
            "schedule", "--beta", "1", "--dim", "2", "--delta", "0.9",
            "--sigma-min", "2.0", "--sigma-max", "1.0",
            "--out", str(tmp_path / "s.json"),
        )
        assert code == 1
        capsys.readouterr()


def _sampler_config(tmp_path, n):
    path = tmp_path / "sampler.json"
    sigmas = [1.0, 0.25]
    path.write_text(json.dumps({
        "schedule": {"kind": "geometric", "beta": 2.0, "n": n, "delta": None, "sigmas": sigmas},
        "steps_per_level": 5,
    }))
    return path


class TestSampleInputValidation:
    def test_wrong_shape_checkpoint_is_usage_error(self, tmp_path, capsys):
        ckpt = ScoreNetwork([3, 16, 16, 2], np.random.default_rng(0)).to_dict()
        ckpt["weights"][1] = np.zeros((16, 5)).tolist()
        path = tmp_path / "ckpt.json"
        path.write_text(json.dumps(ckpt))
        code = run_cli("sample", "--ckpt", str(path), "--config", str(_sampler_config(tmp_path, 2)),
                       "--count", "3", "--out", str(tmp_path / "out.csv"))
        assert code == 2
        assert "layer 1 weight" in capsys.readouterr().err

    def test_schedule_dimension_mismatch_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "ckpt.json"
        path.write_text(json.dumps(ScoreNetwork([3, 8, 2], np.random.default_rng(0)).to_dict()))
        code = run_cli("sample", "--ckpt", str(path), "--config", str(_sampler_config(tmp_path, 3)),
                       "--count", "3", "--out", str(tmp_path / "out.csv"))
        assert code == 2
        assert "schedule.n = 3" in capsys.readouterr().err


class TestScheduleCommand:
    def test_writes_valid_schedule(self, tmp_path, capsys):
        out = tmp_path / "sched.json"
        code = run_cli(
            "schedule", "--beta", "1", "--dim", "2", "--delta", "0.9",
            "--sigma-min", "0.25", "--sigma-max", "1.0", "--out", str(out),
        )
        assert code == 0
        payload = json.loads(out.read_text())
        sched = NoiseSchedule.from_dict(payload)
        assert sched.kind == "quantile_matched"
        assert all(0.25 <= s <= 1.0 for s in sched.sigmas)
        capsys.readouterr()

    def test_empirical_mode(self, tmp_path, capsys):
        out = tmp_path / "sched.json"
        code = run_cli(
            "schedule", "--beta", "1", "--dim", "8", "--delta", "0.9",
            "--sigma-min", "0.25", "--sigma-max", "1.0",
            "--empirical", "--mc-count", "20000", "--seed", "1",
            "--out", str(out),
        )
        assert code == 0
        assert json.loads(out.read_text())["delta"] == 0.9
        capsys.readouterr()


class TestNoiseCommand:
    def test_deterministic_output(self, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (a, b):
            code = run_cli("noise", "--beta", "1", "--alpha", "1",
                           "--count", "5000", "--seed", "0", "--out", str(out))
            assert code == 0
        assert a.read_bytes() == b.read_bytes()
        capsys.readouterr()

    def test_values_roundtrip(self, tmp_path, capsys):
        out = tmp_path / "n.csv"
        run_cli("noise", "--beta", "2", "--alpha", "1.4142135623730951",
                "--count", "1000", "--seed", "3", "--out", str(out))
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        vals = np.array([float(r["x0"]) for r in rows])
        assert abs(vals.mean()) < 0.15
        capsys.readouterr()


@pytest.fixture()
def train_config_file(tmp_path):
    cfg = {
        "train": {
            "schedule": {
                "kind": "geometric",
                "beta": 2.0,
                "n": 2,
                "delta": None,
                "sigmas": [1.0, 0.25],
            },
            "beta_noise": 2.0,
            "steps": 300,
            "batch_size": 64,
            "hidden": [8, 8],
            "seed": 0,
        },
        "mixture": {
            "means": [[2.5, 2.5], [-2.5, -2.5]],
            "stds": [0.5, 0.5],
            "weights": [0.5, 0.5],
        },
        "data_count": 1000,
        "data_seed": 0,
    }
    path = tmp_path / "train.json"
    path.write_text(json.dumps(cfg))
    return path


class TestTrainSampleMetricsPipeline:
    def test_end_to_end(self, tmp_path, train_config_file, capsys):
        ckpt = tmp_path / "ckpt.json"
        assert run_cli("train", "--config", str(train_config_file),
                       "--out", str(ckpt)) == 0
        payload = json.loads(ckpt.read_text())
        assert payload["layer_sizes"] == [3, 8, 8, 2]

        sampler_cfg = tmp_path / "sampler.json"
        sampler_cfg.write_text(json.dumps({
            "schedule": payload["train"]["schedule"],
            "steps_per_level": 40,
            "step_size": 0.1,
            "beta_diff": 2.0,
            "seed": 1,
        }))
        endpoints = tmp_path / "endpoints.csv"
        assert run_cli("sample", "--ckpt", str(ckpt), "--config", str(sampler_cfg),
                       "--count", "50", "--out", str(endpoints)) == 0
        with open(endpoints) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 50
        assert set(rows[0]) == {"particle_id", "status", "x0", "x1"}

        real = tmp_path / "real.csv"
        with open(real, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["x0", "x1"])
            rng = np.random.default_rng(0)
            for _ in range(50):
                writer.writerow([repr(float(v)) for v in rng.standard_normal(2)])
        report = tmp_path / "report.json"
        assert run_cli("metrics", "--real", str(real), "--fake", str(endpoints),
                       "--k", "5", "--out", str(report)) == 0
        data = json.loads(report.read_text())
        assert data["feature_map"] == "identity"
        assert all(
            data[k] is not None
            for k in ("precision", "recall", "density", "coverage", "kid", "fid")
        )
        capsys.readouterr()

    def test_sample_paths_mode(self, tmp_path, train_config_file, capsys):
        ckpt = tmp_path / "ckpt.json"
        run_cli("train", "--config", str(train_config_file), "--out", str(ckpt))
        payload = json.loads(ckpt.read_text())
        sampler_cfg = tmp_path / "sampler.json"
        sampler_cfg.write_text(json.dumps({
            "schedule": payload["train"]["schedule"],
            "steps_per_level": 10,
            "step_size": 0.1,
            "record_paths": True,
            "seed": 2,
        }))
        out = tmp_path / "paths.csv"
        assert run_cli("sample", "--ckpt", str(ckpt), "--config", str(sampler_cfg),
                       "--count", "4", "--out", str(out)) == 0
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 4 * 21
        assert set(rows[0]) == {"particle_id", "level", "step", "x0", "x1"}
        capsys.readouterr()


class TestSelftestCommand:
    def test_passes_and_bit_identical_report(self, tmp_path, capsys):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert run_cli("selftest", "--out", str(a)) == 0
        assert run_cli("selftest", "--out", str(b)) == 0
        assert a.read_bytes() == b.read_bytes()
        assert json.loads(a.read_text())["all_pass"] is True
        capsys.readouterr()


class TestExperimentCommand:
    def test_demo_subcommand(self, tmp_path, capsys):
        out_dir = tmp_path / "demo"
        code = run_cli("experiment", "demo", "--levels", "1", "--beta", "2.0",
                       "--out", str(out_dir))
        assert code == 0
        record = json.loads((out_dir / "record.json").read_text())
        assert record["diverged"] >= 0
        assert record["loss_last_decile"] < record["loss_first_decile"]
        assert (out_dir / "endpoints.csv").exists()
        assert (out_dir / "paths.csv").exists()
        capsys.readouterr()

    def test_imbalance_with_config(self, tmp_path, capsys):
        out_dir = tmp_path / "grid"
        cfg = {
            "train": {
                "schedule": {
                    "kind": "geometric", "beta": 2.0, "n": 2,
                    "delta": None, "sigmas": [1.0, 0.25],
                },
                "steps": 200,
            },
            "sampler": {
                "schedule": {
                    "kind": "geometric", "beta": 2.0, "n": 2,
                    "delta": None, "sigmas": [1.0, 0.25],
                },
                "steps_per_level": 30,
                "step_size": 0.1,
            },
            "particles": 40,
            "seeds": [0, 1],
            "data_count": 1500,
        }
        cfg_path = tmp_path / "exp.json"
        cfg_path.write_text(json.dumps(cfg))
        code = run_cli("experiment", "imbalance", "--config", str(cfg_path),
                       "--out", str(out_dir), "--sweep-betas", "2.0")
        assert code == 0
        grid = json.loads((out_dir / "grid.json").read_text())
        assert set(grid["cells"]) == {
            "dsm_gaussian", "dsm_laplace", "htdsm_gaussian", "htdsm_laplace"
        }
        assert (out_dir / "per_seed.csv").exists()
        assert (out_dir / "sweep.csv").exists()
        capsys.readouterr()
