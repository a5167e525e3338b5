import csv
import json

import numpy as np
import pytest

from htdsm import cli, schedule
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

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_numerical_failure_is_exit_one(self, tmp_path, train_config_file, capsys):
        # A valid train file whose learning rate blows the parameters up.
        raw = json.loads(train_config_file.read_text())
        raw["train"]["learning_rate"] = 1e12
        train_config_file.write_text(json.dumps(raw))
        out = tmp_path / "ckpt.json"
        code = run_cli("train", "--config", str(train_config_file), "--out", str(out))
        assert code == 1
        assert "non-finite loss/parameters" in capsys.readouterr().err and not out.exists()


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

    def test_misspelled_sampler_key_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "ckpt.json"
        path.write_text(json.dumps(ScoreNetwork([3, 8, 2], np.random.default_rng(0)).to_dict()))
        config = _sampler_config(tmp_path, 2)
        raw = json.loads(config.read_text())
        raw["stepsize"] = 0.5
        config.write_text(json.dumps(raw))
        out = tmp_path / "out.csv"
        code = run_cli("sample", "--ckpt", str(path), "--config", str(config),
                       "--count", "3", "--out", str(out))
        assert code == 2 and not out.exists()
        assert "unknown SamplerConfig key(s): 'stepsize'" in capsys.readouterr().err

    def test_non_finite_checkpoint_is_usage_error(self, tmp_path, capsys):
        ckpt = ScoreNetwork([3, 8, 2], np.random.default_rng(0)).to_dict()
        ckpt["weights"][0][1][3] = float("nan")
        path = tmp_path / "ckpt.json"
        path.write_text(json.dumps(ckpt))
        out = tmp_path / "out.csv"
        code = run_cli("sample", "--ckpt", str(path), "--config", str(_sampler_config(tmp_path, 2)),
                       "--count", "5", "--out", str(out))
        assert code == 2
        assert "layer 0 weight has non-finite" in capsys.readouterr().err
        assert not out.exists()

    def test_negative_sampler_seed_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "ckpt.json"
        path.write_text(json.dumps(ScoreNetwork([3, 8, 2], np.random.default_rng(0)).to_dict()))
        config = _sampler_config(tmp_path, 2)
        config.write_text(json.dumps({**json.loads(config.read_text()), "seed": -1}))
        out = tmp_path / "out.csv"
        code = run_cli("sample", "--ckpt", str(path), "--config", str(config),
                       "--count", "3", "--out", str(out))
        assert code == 2 and not out.exists()
        err = capsys.readouterr().err
        assert "bad sampler config" in err and "seed must be >= 0, got -1" in err

    @pytest.mark.parametrize("count", ["0", "-4"])
    def test_nonpositive_count_is_usage_error(self, tmp_path, capsys, count):
        path = tmp_path / "ckpt.json"
        path.write_text(json.dumps(ScoreNetwork([3, 8, 2], np.random.default_rng(0)).to_dict()))
        out = tmp_path / "out.csv"
        code = run_cli("sample", "--ckpt", str(path), "--config", str(_sampler_config(tmp_path, 2)),
                       "--count", count, "--out", str(out))
        assert code == 2 and not out.exists()
        assert f"--count must be >= 1, got {count}" in capsys.readouterr().err


def _points_csv(path, points):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"x{i}" for i in range(points.shape[1])])
        writer.writerows(points.tolist())
    return path


class TestMetricsInputValidation:
    @pytest.fixture
    def files(self, tmp_path):
        rng = np.random.default_rng(0)
        return {
            "real": _points_csv(tmp_path / "real.csv", rng.standard_normal((20, 2))),
            "fake": _points_csv(tmp_path / "fake.csv", rng.standard_normal((20, 2))),
            "fake3d": _points_csv(tmp_path / "fake3d.csv", rng.standard_normal((20, 3))),
            "few": _points_csv(tmp_path / "few.csv", rng.standard_normal((5, 2))),
        }

    def _metrics(self, files, tmp_path, real, fake, k):
        out = tmp_path / "report.json"
        code = run_cli("metrics", "--real", str(files[real]), "--fake", str(files[fake]),
                       "--k", str(k), "--out", str(out))
        return code, out

    def test_valid_inputs_pass(self, files, tmp_path, capsys):
        code, out = self._metrics(files, tmp_path, "real", "fake", 5)
        assert code == 0 and out.exists()
        capsys.readouterr()

    def test_dimension_mismatch_is_usage_error(self, files, tmp_path, capsys):
        code, out = self._metrics(files, tmp_path, "real", "fake3d", 5)
        assert code == 2 and not out.exists()
        err = capsys.readouterr().err
        assert "real.csv has 2 coordinate columns" in err and "fake3d.csv has 3" in err

    @pytest.mark.parametrize("real, fake", [("few", "fake"), ("real", "few")])
    def test_too_few_points_is_usage_error(self, files, tmp_path, capsys, real, fake):
        code, out = self._metrics(files, tmp_path, real, fake, 5)
        assert code == 2 and not out.exists()
        assert "few.csv has 5 usable points" in capsys.readouterr().err

    @pytest.mark.parametrize("k", [0, -3])
    def test_nonpositive_k_is_usage_error(self, files, tmp_path, capsys, k):
        code, out = self._metrics(files, tmp_path, "real", "fake", k)
        assert code == 2 and not out.exists()
        assert f"--k must be >= 1, got {k}" in capsys.readouterr().err

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_non_finite_coordinate_is_usage_error(self, files, tmp_path, capsys, bad):
        lines = files["fake"].read_text().splitlines()
        lines[3] = f"{bad},1.0"
        files["fake"].write_text("\n".join(lines) + "\n")
        code, out = self._metrics(files, tmp_path, "real", "fake", 5)
        assert code == 2 and not out.exists()
        assert "fake.csv: data row 3 has a non-finite coordinate" in capsys.readouterr().err

    def test_non_finite_diverged_row_is_skipped(self, files, tmp_path, capsys):
        path = tmp_path / "endpoints.csv"
        rows = ["particle_id,status,x0,x1", "0,diverged,nan,inf"]
        rows += [f"{i},converged,{0.1 * i},{-0.05 * i}" for i in range(1, 21)]
        path.write_text("\n".join(rows) + "\n")
        files["endpoints"] = path
        code, out = self._metrics(files, tmp_path, "real", "endpoints", 5)
        assert code == 0 and out.exists()
        capsys.readouterr()


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

    @pytest.mark.parametrize("flag, value", [
        ("--beta", "-1"), ("--beta", "0"), ("--beta", "nan"), ("--beta", "inf"),
        ("--beta", "1e-4"), ("--beta", "1000"),
        ("--dim", "0"), ("--delta", "1.0"), ("--delta", "nan"), ("--mc-count", "5"),
        ("--seed", "-1"),
    ])
    def test_bad_argument_is_usage_error(self, tmp_path, capsys, flag, value):
        args = {"--beta": "1", "--dim": "2", "--delta": "0.9", "--sigma-min": "0.25",
                "--sigma-max": "1.0", "--mc-count": "20000", "--seed": "0", flag: value}
        out = tmp_path / "sched.json"
        code = run_cli("schedule", *(t for kv in args.items() for t in kv),
                       "--empirical", "--out", str(out))
        assert code == 2 and not out.exists()
        assert f"{flag} must be" in capsys.readouterr().err

    @pytest.mark.parametrize("sigma_min, sigma_max", [
        ("2.0", "1.0"), ("1.0", "1.0"), ("0", "1.0"), ("-0.5", "1.0"), ("nan", "1.0"),
        ("0.25", "nan"),
    ])
    def test_bad_sigma_bounds_are_usage_errors(self, tmp_path, capsys, sigma_min, sigma_max):
        out = tmp_path / "s.json"
        code = run_cli("schedule", "--beta", "1", "--dim", "2", "--delta", "0.9",
                       "--sigma-min", sigma_min, "--sigma-max", sigma_max, "--out", str(out))
        assert code == 2 and not out.exists()
        assert "--sigma-min, --sigma-max must be" in capsys.readouterr().err

    def test_infinite_sigma_max_fails_instead_of_looping(self, tmp_path, capsys):
        code = run_cli("schedule", "--beta", "1", "--dim", "2", "--delta", "0.9",
                       "--sigma-min", "0.25", "--sigma-max", "inf",
                       "--out", str(tmp_path / "s.json"))
        assert code == 2
        assert "sigma_max < inf" in capsys.readouterr().err

    def test_empirical_flag_does_not_leak_into_the_next_call(self, tmp_path, capsys):
        # The parser is built once per process; each call must parse afresh.
        args = ["schedule", "--beta", "1", "--dim", "8", "--delta", "0.9",
                "--sigma-min", "0.25", "--sigma-max", "4.0"]
        emp, plain = tmp_path / "emp.json", tmp_path / "plain.json"
        assert run_cli(*args, "--empirical", "--mc-count", "20000", "--seed", "1",
                       "--out", str(emp)) == 0
        assert run_cli(*args, "--out", str(plain)) == 0
        model = schedule.quantile_matched_schedule(1.0, 8, 0.9, 0.25, 4.0)
        assert NoiseSchedule.from_dict(json.loads(plain.read_text())) == model
        assert json.loads(emp.read_text())["sigmas"] != list(model.sigmas)
        assert cli.build_parser() is cli.build_parser()
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

    @pytest.mark.parametrize("flag, value", [
        ("--count", "-5"), ("--beta", "0"), ("--beta", "nan"), ("--alpha", "-1"),
        ("--alpha", "inf"), ("--mu", "inf"), ("--mu", "nan"), ("--seed", "-1"),
    ])
    def test_bad_argument_is_usage_error(self, tmp_path, capsys, flag, value):
        args = {"--beta": "1", "--alpha": "1", "--count": "10", flag: value}
        out = tmp_path / "n.csv"
        code = run_cli("noise", *(t for kv in args.items() for t in kv), "--out", str(out))
        assert code == 2 and not out.exists()
        assert f"{flag} must be" in capsys.readouterr().err

    def test_zero_count_writes_the_header_only(self, tmp_path, capsys):
        out = tmp_path / "n.csv"
        assert run_cli("noise", "--beta", "1", "--alpha", "1", "--count", "0",
                       "--out", str(out)) == 0
        assert out.read_bytes() == b"x0\r\n"
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


@pytest.mark.parametrize("section, key", [("train", "batchsize"), ("mixture", "weight")])
def test_misspelled_train_config_key_is_usage_error(tmp_path, train_config_file, capsys,
                                                    section, key):
    raw = json.loads(train_config_file.read_text())
    raw[section][key] = 1
    train_config_file.write_text(json.dumps(raw))
    out = tmp_path / "ckpt.json"
    code = run_cli("train", "--config", str(train_config_file), "--out", str(out))
    assert code == 2 and not out.exists()
    assert f"'{key}'" in capsys.readouterr().err


@pytest.mark.parametrize("section, key, value", [
    (None, "data_count", 0), (None, "data_count", -5), ("train", "hidden", [0]),
    ("train", "hidden", [8, -1]),
])
def test_out_of_range_train_value_is_usage_error(tmp_path, train_config_file, capsys,
                                                 section, key, value):
    raw = json.loads(train_config_file.read_text())
    (raw if section is None else raw[section])[key] = value
    train_config_file.write_text(json.dumps(raw))
    out = tmp_path / "ckpt.json"
    code = run_cli("train", "--config", str(train_config_file), "--out", str(out))
    assert code == 2 and not out.exists()
    err = capsys.readouterr().err
    assert "bad train config" in err and key in err and "must be >= 1" in err


@pytest.mark.parametrize("section, key", [(None, "data_seed"), ("train", "seed")])
def test_negative_train_seed_is_usage_error(tmp_path, train_config_file, capsys, section, key):
    raw = json.loads(train_config_file.read_text())
    (raw if section is None else raw[section])[key] = -3
    train_config_file.write_text(json.dumps(raw))
    out = tmp_path / "ckpt.json"
    code = run_cli("train", "--config", str(train_config_file), "--out", str(out))
    assert code == 2 and not out.exists()
    err = capsys.readouterr().err
    assert "bad train config" in err and f"{key} must be >= 0, got -3" in err


def test_misspelled_top_level_train_key_is_usage_error(tmp_path, train_config_file, capsys):
    raw = json.loads(train_config_file.read_text())
    raw["data_cout"] = raw.pop("data_count")
    train_config_file.write_text(json.dumps(raw))
    out = tmp_path / "ckpt.json"
    code = run_cli("train", "--config", str(train_config_file), "--out", str(out))
    assert code == 2 and not out.exists()
    assert "unknown TrainFile key(s): 'data_cout'" in capsys.readouterr().err


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

    @pytest.mark.parametrize("flags", [
        ["--sweep-betas", "3"], ["--sweep-betas", "1.0", "0"], ["--sweep-betas", "nan"],
        ["--workers", "0"], ["--workers", "-2"],
    ])
    def test_imbalance_bad_flag_fails_before_any_work(self, tmp_path, capsys, monkeypatch,
                                                      flags):
        def no_run(*args, **kwargs):
            raise AssertionError("the grid ran despite a bad flag")

        monkeypatch.setattr(cli, "run_imbalance_grid", no_run)
        out_dir = tmp_path / "grid"
        code = run_cli("experiment", "imbalance", "--out", str(out_dir), *flags)
        assert code == 2 and not out_dir.exists()
        assert f"{flags[0]} must be" in capsys.readouterr().err

    @pytest.mark.parametrize("cfg, message", [
        ({"particles": 0}, "particles must be >= 1"),
        ({"seeds": []}, "seeds must be nonempty"),
        ({"train": {"steps": 10}}, "'schedule'"),
        ({"particle": 10}, "unknown ExperimentConfig key(s): 'particle'"),
        ({"train": {"schedule": {"kind": "geometric", "beta": 2.0, "n": 2, "delta": None,
                                 "sigmas": [1.0]}, "learning_rat": 0.1}}, "'learning_rat'"),
        ({"data_count": 0}, "data_count must be >= 1"),
        ({"seeds": [0, -1]}, "seeds must be >= 0"),
        ({"master_seed": -1}, "master_seed must be >= 0"),
    ])
    def test_imbalance_bad_config_is_usage_error(self, tmp_path, capsys, cfg, message):
        cfg_path = tmp_path / "exp.json"
        cfg_path.write_text(json.dumps(cfg))
        code = run_cli("experiment", "imbalance", "--config", str(cfg_path),
                       "--out", str(tmp_path / "grid"))
        assert code == 2
        err = capsys.readouterr().err
        assert "bad experiment config" in err and message in err
        assert not (tmp_path / "grid").exists()
