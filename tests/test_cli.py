import csv
import errno
import json
import os
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

from htdsm import cli, schedule
from htdsm.cli import dispatch
from htdsm.schedule import NoiseSchedule
from htdsm.scorenet import ScoreNetwork


def run_cli(*args):
    return dispatch(list(args))


def cannot_open(path, code):
    """The stderr of a command stopped by path, which failed with errno code."""
    return f"error: {path}: {os.strerror(code)}\n"


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

    def test_config_that_is_not_utf8_is_usage_error(self, tmp_path, capsys):
        bad = tmp_path / "latin1.json"
        bad.write_bytes('{"data_seed": "\u00e9"}'.encode("latin-1"))
        code = run_cli("train", "--config", str(bad), "--out", str(tmp_path / "c.json"))
        assert code == 2
        assert f"malformed JSON in {bad}: 'utf-8' codec can't decode" in capsys.readouterr().err

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


class TestPathErrors:
    """A path that cannot be opened or made exits 2 naming it, before any work."""

    def test_train_config_is_a_directory(self, tmp_path, capsys):
        code = run_cli("train", "--config", str(tmp_path), "--out", str(tmp_path / "c.json"))
        assert code == 2 and capsys.readouterr().err == cannot_open(tmp_path, errno.EISDIR)

    def test_sample_checkpoint_is_a_directory(self, tmp_path, capsys):
        code = run_cli("sample", "--ckpt", str(tmp_path), "--config",
                       str(_sampler_config(tmp_path, 2)), "--out", str(tmp_path / "out.csv"))
        assert code == 2 and capsys.readouterr().err == cannot_open(tmp_path, errno.EISDIR)

    def test_noise_out_in_a_missing_directory(self, tmp_path, capsys):
        out = tmp_path / "missing" / "n.csv"
        code = run_cli("noise", "--beta", "1", "--alpha", "1", "--count", "3", "--out", str(out))
        assert code == 2 and capsys.readouterr().err == cannot_open(out, errno.ENOENT)

    def test_train_out_in_a_missing_directory_fails_before_any_work(self, tmp_path, capsys,
                                                                     monkeypatch,
                                                                     train_config_file):
        def no_run(*args, **kwargs):
            raise AssertionError("trained for an --out it cannot write")

        monkeypatch.setattr(cli.scorenet, "train", no_run)
        out = tmp_path / "missing" / "c.json"
        code = run_cli("train", "--config", str(train_config_file), "--out", str(out))
        assert code == 2 and capsys.readouterr().err == cannot_open(out, errno.ENOENT)
        assert not out.parent.exists()

    def test_sample_out_in_a_missing_directory_fails_before_any_work(self, tmp_path, capsys,
                                                                      monkeypatch):
        def no_run(*args, **kwargs):
            raise AssertionError("sampled for an --out it cannot write")

        monkeypatch.setattr(cli, "_sample_network", no_run)
        ckpt = tmp_path / "ckpt.json"
        ckpt.write_text(json.dumps(ScoreNetwork([3, 8, 2], np.random.default_rng(0)).to_dict()))
        out = tmp_path / "missing" / "out.csv"
        code = run_cli("sample", "--ckpt", str(ckpt), "--config",
                       str(_sampler_config(tmp_path, 2)), "--out", str(out))
        assert code == 2 and capsys.readouterr().err == cannot_open(out, errno.ENOENT)
        assert not out.parent.exists()

    def test_imbalance_out_that_is_a_file_fails_before_any_work(self, tmp_path, capsys,
                                                                 monkeypatch):
        def no_run(*args, **kwargs):
            raise AssertionError("the grid ran into an --out it cannot make")

        monkeypatch.setattr(cli, "run_imbalance_grid", no_run)
        out = tmp_path / "grid"
        out.write_text("taken\n")
        code = run_cli("experiment", "imbalance", "--out", str(out))
        assert code == 2 and capsys.readouterr().err == cannot_open(out, errno.EEXIST)
        assert out.read_text() == "taken\n"


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

    def test_float_layer_sizes_checkpoint_is_usage_error(self, tmp_path, capsys):
        ckpt = ScoreNetwork([3, 8, 2], np.random.default_rng(0)).to_dict()
        ckpt["layer_sizes"] = [3.9, 8.7, 2.2]
        path = tmp_path / "ckpt.json"
        path.write_text(json.dumps(ckpt))
        out = tmp_path / "out.csv"
        code = run_cli("sample", "--ckpt", str(path), "--config", str(_sampler_config(tmp_path, 2)),
                       "--count", "5", "--out", str(out))
        assert code == 2 and not out.exists()
        err = capsys.readouterr().err
        assert "bad checkpoint" in err and "layer_sizes must be an integer, got 3.9" in err

    def test_scalar_weights_checkpoint_is_usage_error(self, tmp_path, capsys):
        ckpt = {**ScoreNetwork([3, 8, 2], np.random.default_rng(0)).to_dict(), "weights": 5}
        path = tmp_path / "ckpt.json"
        path.write_text(json.dumps(ckpt))
        out = tmp_path / "out.csv"
        code = run_cli("sample", "--ckpt", str(path), "--config", str(_sampler_config(tmp_path, 2)),
                       "--count", "5", "--out", str(out))
        assert code == 2 and not out.exists()
        err = capsys.readouterr().err
        assert "bad checkpoint" in err and "weights must be a list, got 5" in err

    def test_checkpoint_missing_keys_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "ckpt.json"
        path.write_text(json.dumps({"layer_sizes": [3, 8, 2]}))
        out = tmp_path / "out.csv"
        code = run_cli("sample", "--ckpt", str(path), "--config", str(_sampler_config(tmp_path, 2)),
                       "--count", "5", "--out", str(out))
        assert code == 2 and not out.exists()
        err = capsys.readouterr().err
        assert "bad checkpoint" in err and "missing checkpoint key(s): 'weights', 'biases'" in err

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

    @pytest.mark.parametrize("key, value, need", [
        ("step_size", float("nan"), "step_size must be finite"),
        ("step_size", float("inf"), "finite"), ("step_size", -0.5, "step_size must be >= 0"),
        ("init_half_width", float("nan"), "finite and positive"),
        *((key, value, f"{key} must be a real number") for value in (True, "0.5")
          for key in ("step_size", "beta_diff", "init_half_width", "divergence_radius")),
        ("steps_per_level", 1.5, "steps_per_level must be an integer, got 1.5"),
        ("steps_per_level", [5, 2.5], "steps_per_level must be an integer, got 2.5"),
        ("seed", 1.5, "seed must be an integer"), ("seed", True, "seed must be an integer"),
        ("record_paths", "false", "record_paths must be a bool, got 'false'"),
        ("beta_diff", 0.005, "beta_diff must be at least 0.00777"),
    ])
    def test_bad_sampler_value_is_usage_error(self, tmp_path, capsys, monkeypatch, key, value,
                                              need):
        def no_run(*args, **kwargs):
            raise AssertionError("sampled despite a bad sampler config")

        monkeypatch.setattr(cli, "_sample_network", no_run)
        path = tmp_path / "ckpt.json"
        path.write_text(json.dumps(ScoreNetwork([3, 8, 2], np.random.default_rng(0)).to_dict()))
        config = _sampler_config(tmp_path, 2)
        config.write_text(json.dumps({**json.loads(config.read_text()), key: value}))
        out = tmp_path / "out.csv"
        code = run_cli("sample", "--ckpt", str(path), "--config", str(config),
                       "--count", "3", "--out", str(out))
        assert code == 2 and not out.exists()
        err = capsys.readouterr().err
        assert "bad sampler config" in err and need in err

    @pytest.mark.parametrize("count, need", [
        ("0", ">= 1, got 0"), ("-4", ">= 1, got -4"), ("1.5", "an integer, got '1.5'"),
    ], ids=["0", "-4", "1.5"])
    def test_nonpositive_count_is_usage_error(self, tmp_path, capsys, count, need):
        path = tmp_path / "ckpt.json"
        path.write_text(json.dumps(ScoreNetwork([3, 8, 2], np.random.default_rng(0)).to_dict()))
        out = tmp_path / "out.csv"
        code = run_cli("sample", "--ckpt", str(path), "--config", str(_sampler_config(tmp_path, 2)),
                       "--count", count, "--out", str(out))
        assert code == 2 and not out.exists()
        assert f"--count must be {need}" in capsys.readouterr().err


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
        assert capsys.readouterr().err == (f"error: {files['real']} and {files['fake3d']}: "
                                           "feature dimensions differ: real has 2, fake has 3\n")

    @pytest.mark.parametrize("real, fake", [("few", "fake"), ("real", "few")])
    def test_too_few_points_is_usage_error(self, files, tmp_path, capsys, real, fake):
        code, out = self._metrics(files, tmp_path, real, fake, 5)
        assert code == 2 and not out.exists()
        side = "real" if real == "few" else "fake"
        assert capsys.readouterr().err == (f"error: {files['few']}: prdc with k=5 needs at least "
                                           f"6 points per set of width 2; {side} has 5\n")

    @pytest.mark.parametrize("real, fake", [("same", "fake"), ("real", "same")])
    def test_degenerate_points_are_usage_error(self, files, tmp_path, capsys, real, fake):
        files["same"] = _points_csv(tmp_path / "same.csv", np.ones((7, 2)))
        code, out = self._metrics(files, tmp_path, real, fake, 5)
        assert code == 2 and not out.exists()
        side = "real" if real == "same" else "fake"
        assert (f"same.csv: degenerate {side} points: every point has at least k=5 "
                "exact duplicates") in capsys.readouterr().err

    @pytest.mark.parametrize("k, need", [
        (0, ">= 1, got 0"), (-3, ">= 1, got -3"), ("abc", "an integer, got 'abc'"),
    ], ids=["0", "-3", "abc"])
    def test_nonpositive_k_is_usage_error(self, files, tmp_path, capsys, k, need):
        code, out = self._metrics(files, tmp_path, "real", "fake", k)
        assert code == 2 and not out.exists()
        assert f"--k must be {need}" in capsys.readouterr().err

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

    def test_coordinates_are_read_by_name(self, files, tmp_path, capsys):
        points = np.random.default_rng(1).standard_normal((50, 2))
        files["same"] = _points_csv(tmp_path / "same.csv", points)
        files["swapped"] = tmp_path / "swapped.csv"
        rows = "".join(f"{y!r},{x!r}\n" for x, y in points.tolist())
        files["swapped"].write_text("x1,x0\n" + rows)
        code, want = self._metrics(files, tmp_path, "same", "same", 5)
        assert code == 0
        want = want.read_text()
        code, got = self._metrics(files, tmp_path, "same", "swapped", 5)
        assert code == 0 and got.read_text() == want
        capsys.readouterr()

    def test_missing_input_is_usage_error(self, files, tmp_path, capsys):
        files["nope"] = tmp_path / "nope.csv"
        code, out = self._metrics(files, tmp_path, "real", "nope", 5)
        assert code == 2 and not out.exists()
        assert capsys.readouterr().err == cannot_open(files["nope"], errno.ENOENT)

    def test_empty_file_is_usage_error(self, files, tmp_path, capsys):
        files["empty"] = tmp_path / "empty.csv"
        files["empty"].write_text("")
        code, out = self._metrics(files, tmp_path, "empty", "fake", 5)
        assert code == 2 and not out.exists()
        assert capsys.readouterr().err == f"error: {files['empty']}: empty file\n"

    @pytest.mark.parametrize("row, reason", [
        ("0.5,abc", "could not convert string to float: 'abc'"),
        ("0.5", "list index out of range"),
    ], ids=["not-a-number", "short-row"])
    def test_malformed_csv_is_usage_error(self, files, tmp_path, capsys, row, reason):
        lines = files["fake"].read_text().splitlines()
        lines[4] = row
        files["fake"].write_text("\n".join(lines) + "\n")
        code, out = self._metrics(files, tmp_path, "real", "fake", 5)
        assert code == 2 and not out.exists()
        assert capsys.readouterr().err == f"error: {files['fake']}: malformed CSV ({reason})\n"

    @pytest.mark.parametrize("rows", [[], ["0,diverged,1.0,2.0", "1,diverged,nan,inf"]],
                             ids=["header-only", "all-diverged"])
    def test_no_usable_rows_is_usage_error(self, files, tmp_path, capsys, rows):
        files["none"] = tmp_path / "none.csv"
        files["none"].write_text("\n".join(["particle_id,status,x0,x1", *rows]) + "\n")
        code, out = self._metrics(files, tmp_path, "real", "none", 5)
        assert code == 2 and not out.exists()
        assert capsys.readouterr().err == f"error: {files['none']}: no usable rows\n"

    @pytest.mark.parametrize("header", ["x0,x1,xlabel", "x0,x2", "x0,x0", "x1", "y0,y1"])
    def test_coordinate_columns_must_be_x0_to_xd(self, files, tmp_path, capsys, header):
        files["bad"] = tmp_path / "bad.csv"
        width = header.count(",") + 1
        files["bad"].write_text(header + "\n" + f"{','.join(['0.5'] * width)}\n" * 20)
        code, out = self._metrics(files, tmp_path, "real", "bad", 5)
        assert code == 2 and not out.exists()
        assert "bad.csv: coordinate columns must be x0..xd-1, each once" in capsys.readouterr().err


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
        ("--seed", "-1"), ("--beta", "0.01"), ("--seed", "1e3"), ("--dim", "1.5"),
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

    def test_degenerate_schedule_is_usage_error(self, tmp_path, capsys):
        # Both quantile levels of delta = 1e-17 round to 0.5: the ratio is 1.
        out = tmp_path / "s.json"
        code = run_cli("schedule", "--beta", "1", "--dim", "2", "--delta", "1e-17",
                       "--sigma-min", "0.25", "--sigma-max", "1", "--out", str(out))
        assert code == 2 and not out.exists()
        assert capsys.readouterr().err == "error: degenerate level ratio 1.0 for delta=1e-17\n"

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
        ("--count", "1.5"), ("--seed", "1e3"), ("--alpha", "abc"), ("--beta", "abc"),
        ("--mu", "abc"),
    ])
    def test_bad_argument_is_usage_error(self, tmp_path, capsys, flag, value):
        args = {"--beta": "1", "--alpha": "1", "--count": "10", flag: value}
        out = tmp_path / "n.csv"
        code = run_cli("noise", *(t for kv in args.items() for t in kv), "--out", str(out))
        assert code == 2 and not out.exists()
        assert f"{flag} must be" in capsys.readouterr().err

    def test_overflowing_draws_are_usage_error(self, tmp_path, capsys):
        # log of the largest magnitude, log(G_q)/beta with G_q the 1 - 1e-12
        # quantile of Gamma(1/beta): 1151 at beta 0.005, 523 at beta 0.01.
        out = tmp_path / "n.csv"
        code = run_cli("noise", "--alpha", "1", "--beta", "0.005", "--count", "100",
                       "--out", str(out))
        assert code == 2 and not out.exists()
        assert "--beta must be large enough" in capsys.readouterr().err
        assert run_cli("noise", "--alpha", "1", "--beta", "0.01", "--count", "1000",
                       "--out", str(out)) == 0
        with open(out) as fh:
            vals = np.array([float(r["x0"]) for r in csv.DictReader(fh)])
        assert vals.size == 1000 and np.isfinite(vals).all()
        capsys.readouterr()

    @pytest.mark.parametrize("beta", ["30", "100", "2050", "1.9007874450344867e13", "2e13", "1e300"])
    def test_large_beta_draws_never_land_on_mu(self, tmp_path, capsys, beta):
        # numpy's Gamma(1/beta) alone is exactly 0 for about 2^(-1074/beta)
        # of the draws. Far below the inverse's shape domain the largest-draw
        # check would not converge (at 1.9007874450344867e13) or would raise.
        out = tmp_path / "n.csv"
        assert run_cli("noise", "--alpha", "1", "--beta", beta, "--mu", "0.5",
                       "--count", "10000", "--out", str(out)) == 0
        with open(out) as fh:
            vals = np.array([float(r["x0"]) for r in csv.DictReader(fh)])
        assert vals.size == 10000 and not np.any(vals == 0.5)
        assert np.all(np.abs(vals - 0.5) < 1.1)
        capsys.readouterr()

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


@pytest.mark.parametrize("section, key, value, need", [
    (None, "data_count", 0, "must be >= 1"), (None, "data_count", -5, "must be >= 1"),
    ("train", "hidden", [0], "must be >= 1"), ("train", "hidden", [8, -1], "must be >= 1"),
    (None, "data_count", 1000.0, "must be an integer"),
    ("train", "steps", 10.5, "must be an integer"),
    ("train", "hidden", [16.7], "must be an integer"),
    ("train", "batch_size", True, "must be an integer"),
    ("train", "learning_rate", -1, "must be finite and positive"),
    ("train", "learning_rate", float("nan"), "must be finite and positive"),
    ("train", "alpha_unit", -1, "must be finite and positive"),
    ("train", "loss_weight_exponent", float("nan"), "must be finite"),
    ("mixture", "means", [[1, 1], [-1]], "must all have one length"),
    ("mixture", "means", [[1, float("nan")], [-1, -1]], "must be finite"),
    ("mixture", "stds", [0.5, float("inf")], "must be finite and positive"),
    ("mixture", "weights", [float("nan"), 0.5], "must be finite and positive"),
    ("train", "beta_noise", 0.005, "beta_noise must be at least 0.00777"),
    *((section, key, value, f"{key} must be a real number") for value in (True, "0.5")
      for section, key in (("train", "beta_noise"), ("train", "alpha_unit"),
                           ("train", "learning_rate"), ("train", "loss_weight_exponent"),
                           ("train.schedule", "beta"), ("train.schedule", "delta"))),
    *((section, key, [value, 0.5], f"{key} must be a real number") for value in (True, "0.5")
      for section, key in (("train.schedule", "sigmas"), ("mixture", "stds"),
                           ("mixture", "weights"))),
    *(("mixture", "means", [[value, 1], [-1, -1]], "means must be a real number")
      for value in (True, "0.5")),
    ("train", "hidden", 16, "hidden must be a list, got 16"),
    ("train", "hidden", "16", "hidden must be a list, got '16'"),
    ("train.schedule", "sigmas", 0.5, "sigmas must be a list, got 0.5"),
    ("mixture", "means", [[1, 1], 2.5], "means must be a list, got 2.5"),
    ("mixture", "means", "ab", "means must be a list, got 'ab'"),
    ("mixture", "stds", 0.5, "stds must be a list, got 0.5"),
    ("mixture", "weights", 1.0, "weights must be a list, got 1.0"),
    (None, "train", None, "train must be an object, got NoneType"),
    ("train", "schedule", None, "train.schedule must be an object, got NoneType"),
    (None, "mixture", 5, "mixture must be an object, got int"),
    ("train", "schedule", 5, "train.schedule must be an object, got int"),
    ("train", "schedule", {"sigmas": [1.0]},
     "missing NoiseSchedule key(s) in train.schedule: 'kind', 'beta', 'n'"),
    (None, "mixture", {"means": [[1, 1]]},
     "missing MixtureSpec key(s) in mixture: 'stds', 'weights'"),
    ("train", "schedule", {"kind": "geometric", "beta": 2.0, "n": 2, "sigmas": [1.0], "sigma": 1},
     "unknown NoiseSchedule key(s) in train.schedule: 'sigma'"),
    ("train", "seed", -1, "train: seed must be >= 0, got -1"),
    ("mixture", "stds", [0.5], "mixture: means, stds and weights must have equal length"),
])
def test_out_of_range_train_value_is_usage_error(tmp_path, train_config_file, capsys,
                                                 monkeypatch, section, key, value, need):
    def no_run(*args, **kwargs):
        raise AssertionError("trained despite a bad train config")

    monkeypatch.setattr(cli.scorenet, "train", no_run)
    raw = target = json.loads(train_config_file.read_text())
    for part in section.split(".") if section else ():
        target = target[part]
    target[key] = value
    train_config_file.write_text(json.dumps(raw))
    out = tmp_path / "ckpt.json"
    code = run_cli("train", "--config", str(train_config_file), "--out", str(out))
    assert code == 2 and not out.exists()
    err = capsys.readouterr().err
    assert "bad train config" in err and key in err and need in err


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

    # 0.001 is positive, but its unit-variance diffusion scale underflows.
    @pytest.mark.parametrize("beta, need", [
        ("-1", "finite and positive"), ("0", "finite and positive"),
        ("nan", "finite and positive"),
        ("0.001", "at least 0.00777"), ("0.005", "at least 0.00777"),
        ("abc", "a real number, got 'abc'"),
    ], ids=["-1", "0", "nan", "0.001", "0.005", "abc"])
    def test_demo_bad_beta_fails_before_any_work(self, tmp_path, capsys, monkeypatch, beta,
                                                 need):
        def no_run(*args, **kwargs):
            raise AssertionError("the demo ran despite a bad --beta")

        monkeypatch.setattr(cli, "run_convergence_demo", no_run)
        out_dir = tmp_path / "demo"
        code = run_cli("experiment", "demo", "--levels", "1", "--beta", beta,
                       "--out", str(out_dir))
        assert code == 2 and not out_dir.exists()
        assert f"--beta must be {need}" in capsys.readouterr().err

    SMALL_GRID = {
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

    def test_imbalance_with_config(self, tmp_path, capsys):
        out_dir = tmp_path / "grid"
        cfg_path = tmp_path / "exp.json"
        cfg_path.write_text(json.dumps(self.SMALL_GRID))
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

    def test_verbose_logs_every_seed_on_any_worker_count(self, tmp_path):
        cfg_path = tmp_path / "exp.json"
        cfg_path.write_text(json.dumps(self.SMALL_GRID))
        src = Path(__file__).resolve().parents[1] / "src"
        env = {**os.environ, "PYTHONPATH": str(src)}
        per_seed = []
        for workers in ("1", "2"):
            out_dir = tmp_path / f"workers{workers}"
            proc = subprocess.run(
                [sys.executable, "-m", "htdsm.cli", "-v", "experiment", "imbalance", "--config",
                 str(cfg_path), "--out", str(out_dir), "--workers", workers, "--sweep-betas"],
                env=env, capture_output=True, text=True, timeout=300)
            assert proc.returncode == 0, proc.stderr
            done = [line for line in proc.stderr.splitlines() if " done (" in line]
            assert sorted(done) == [f"DEBUG htdsm.experiments: seed {seed} done (4 pairs)"
                                    for seed in (0, 1)], proc.stderr
            per_seed.append((out_dir / "per_seed.csv").read_bytes())
        assert per_seed[0] == per_seed[1]

    @pytest.mark.parametrize("flags", [
        ["--sweep-betas", "3"], ["--sweep-betas", "1.0", "0"], ["--sweep-betas", "nan"],
        ["--workers", "0"], ["--workers", "-2"], ["--sweep-betas", "1.0", "0.005"],
        ["--workers", "1.5"], ["--sweep-betas", "abc"], ["--sweep-betas", "1.5", "1.5"],
        ["--sweep-betas", "1", "2.0", "1.0"],
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

    @pytest.mark.parametrize("value", [True, "0.5"])
    def test_imbalance_bad_real_is_usage_error(self, tmp_path, capsys, monkeypatch, value):
        def no_run(*args, **kwargs):
            raise AssertionError("the grid ran despite a bad config value")

        monkeypatch.setattr(cli, "run_imbalance_grid", no_run)
        cfg_path = tmp_path / "exp.json"
        cfg_path.write_text(json.dumps({"bootstrap_level": value}))
        code = run_cli("experiment", "imbalance", "--config", str(cfg_path),
                       "--out", str(tmp_path / "grid"))
        assert code == 2 and not (tmp_path / "grid").exists()
        assert f"bootstrap_level must be a real number, got {value!r}" in capsys.readouterr().err

    @pytest.mark.parametrize("section, key, value", [
        ("train", "beta_noise", 0.5), ("train", "alpha_unit", 1.0), ("train", "seed", 9),
        ("sampler", "beta_diff", 0.3), ("sampler", "seed", 77), ("sampler", "record_paths", True),
    ])
    def test_imbalance_rejects_a_grid_owned_key(self, tmp_path, capsys, monkeypatch,
                                                section, key, value):
        def no_run(*args, **kwargs):
            raise AssertionError("the grid ran despite a grid-owned key")

        monkeypatch.setattr(cli, "run_imbalance_grid", no_run)
        levels = {"kind": "geometric", "beta": 2.0, "n": 2, "delta": None, "sigmas": [1.0, 0.25]}
        cfg_path = tmp_path / "exp.json"
        cfg_path.write_text(json.dumps({section: {"schedule": levels, key: value}}))
        code = run_cli("experiment", "imbalance", "--config", str(cfg_path),
                       "--out", str(tmp_path / "grid"))
        assert code == 2 and not (tmp_path / "grid").exists()
        err = capsys.readouterr().err
        assert f"{section}.{key} cannot be set" in err and "grid sets it per cell" in err

    def test_imbalance_accepts_grid_owned_keys_at_their_defaults(self, tmp_path, monkeypatch):
        class Ran(Exception):
            pass

        def stop(cfg, **kwargs):
            raise Ran(cfg)

        monkeypatch.setattr(cli, "run_imbalance_grid", stop)
        cfg_path = tmp_path / "exp.json"
        cfg_path.write_text(json.dumps(cli.ExperimentConfig().to_dict()))
        with pytest.raises(Ran) as ran:
            run_cli("experiment", "imbalance", "--config", str(cfg_path),
                    "--out", str(tmp_path / "grid"))
        assert ran.value.args[0] == cli.ExperimentConfig()

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
        ({"bootstrap_level": 2.0}, "bootstrap_level must lie in (0, 1), got 2.0"),
        ({"bootstrap_level": 0.0}, "bootstrap_level must lie in (0, 1), got 0.0"),
        ({"bootstrap_resamples": 0}, "bootstrap_resamples must be >= 1, got 0"),
        ({"metric_names": ["prcd"]}, "metric_names must be among prdc, kid, fid, got ['prcd']"),
        ({"particles": 20.5}, "particles must be an integer, got 20.5"),
        ({"particles": True}, "particles must be an integer, got True"),
        ({"seeds": [0.7]}, "seeds must be an integer, got 0.7"),
        ({"master_seed": 1.0}, "master_seed must be an integer, got 1.0"),
        ({"sampler": {"schedule": {"kind": "geometric", "beta": 2.0, "n": 3, "delta": None,
                                   "sigmas": [1.0, 0.25]}, "steps_per_level": 50}},
         "sampler.schedule.n must equal mixture.dim, got 3 and 2"),
        ({"seeds": 3}, "seeds must be a list, got 3"),
        ({"seeds": "01"}, "seeds must be a list, got '01'"),
        ({"metric_names": "prdc"}, "metric_names must be a list, got 'prdc'"),
        ({"seeds": [0, 0, 1]}, "seeds must be distinct, got [0, 0, 1]"),
        ({"sampler": None}, "sampler must be an object, got NoneType"),
        ({"sampler": 5}, "sampler must be an object, got int"),
        ({"train": {"schedule": 5}}, "train.schedule must be an object, got int"),
        ({"train": {"schedule": {"sigmas": [1.0]}}},
         "missing NoiseSchedule key(s) in train.schedule: 'kind', 'beta', 'n'"),
        ({"mixture": {"means": [[1, 1]]}},
         "missing MixtureSpec key(s) in mixture: 'stds', 'weights'"),
        ([1], "ExperimentConfig must be an object, got list"),
        ({"sampler": {"schedule": {"kind": "geometric", "beta": 2.0, "n": 2,
                                   "sigmas": [1.0, 0.25]}, "seed": -1}},
         "sampler: seed must be >= 0, got -1"),
        ({"train": {"schedule": {"kind": "geometric", "beta": 2.0, "n": 2,
                                 "sigmas": [1.0, 1.0]}}},
         "train.schedule: sigmas must be strictly descending: (1.0, 1.0)"),
    ])
    def test_imbalance_bad_config_is_usage_error(self, tmp_path, capsys, monkeypatch, cfg,
                                                 message):
        def no_run(*args, **kwargs):
            raise AssertionError("the grid ran despite a bad config")

        monkeypatch.setattr(cli, "run_imbalance_grid", no_run)
        cfg_path = tmp_path / "exp.json"
        cfg_path.write_text(json.dumps(cfg))
        code = run_cli("experiment", "imbalance", "--config", str(cfg_path),
                       "--out", str(tmp_path / "grid"))
        assert code == 2
        err = capsys.readouterr().err
        assert "bad experiment config" in err and message in err
        assert not (tmp_path / "grid").exists()


# The smallest value each typed flag accepts: 0 for an Index, 1 for a
# Count, the smallest double for a Positive, any finite Real, and for a
# noise shape 0.00777, just above where its unit-variance scale stops being
# a normal double. The grid and the demo are stubbed: demo training at that
# beta stops with a non-finite loss at step 0, a limit of training and not
# of the flag.
SMALLEST = [
    ("schedule", ["--dim", "1"], "dim", 1),
    ("schedule", ["--seed", "0"], "seed", 0),
    ("noise", ["--count", "0"], "count", 0),
    ("noise", ["--seed", "0"], "seed", 0),
    ("noise", ["--alpha", "5e-324"], "alpha", 5e-324),
    ("noise", ["--mu=-1e308"], "mu", -1e308),
    ("sample", ["--count", "1"], "count", 1),
    ("metrics", ["--k", "1"], "k", 1),
    ("experiment imbalance", ["--workers", "1"], "workers", 1),
    ("experiment imbalance", ["--sweep-betas", "0.00777"], "sweep_betas", [0.00777]),
    ("experiment demo", ["--beta", "0.00777"], "beta", 0.00777),
]


@pytest.mark.parametrize("command, flag, dest, value", SMALLEST,
                         ids=[" ".join([command, *flag]) for command, flag, *_ in SMALLEST])
def test_smallest_accepted_flag_value_runs(tmp_path, capsys, monkeypatch, command, flag, dest,
                                           value):
    record = types.SimpleNamespace(imbalance=1.0, diverged=0, mode_capture=None)
    monkeypatch.setattr(cli, "run_imbalance_grid", lambda cfg, **kwargs: {"cells": {}})
    monkeypatch.setattr(cli, "write_grid_outputs", lambda out_dir, grid: None)
    monkeypatch.setattr(cli, "run_convergence_demo", lambda cfg, out_dir: record)
    ckpt = tmp_path / "ckpt.json"
    ckpt.write_text(json.dumps(ScoreNetwork([3, 8, 2], np.random.default_rng(0)).to_dict()))
    points = _points_csv(tmp_path / "points.csv", np.random.default_rng(0).standard_normal((4, 2)))
    given = {
        "schedule": ["--beta", "1", "--dim", "2", "--delta", "0.9", "--sigma-min", "0.25",
                     "--sigma-max", "1"],
        "noise": ["--beta", "1", "--alpha", "1", "--count", "10"],
        "sample": ["--ckpt", str(ckpt), "--config", str(_sampler_config(tmp_path, 2))],
        "metrics": ["--real", str(points), "--fake", str(points)],
        "experiment demo": ["--levels", "1", "--beta", "2"],
    }
    # The flag comes after the other arguments, so its value is the one parsed.
    argv = [*command.split(), *given.get(command, []), *flag, "--out", str(tmp_path / "out")]
    assert getattr(cli.build_parser().parse_args(argv), dest) == value
    assert run_cli(*argv) == 0
    capsys.readouterr()
