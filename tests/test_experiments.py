import copy
import csv
import json
import math
import os
import re
import subprocess
import sys
import textwrap
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from htdsm import experiments, scorenet
from htdsm.experiments import (
    ExperimentConfig,
    run_convergence_demo,
    run_imbalance_grid,
    standard_member_alpha,
    write_grid_outputs,
    _seed_int,
    _STREAM_SAMPLE,
)
from htdsm.metrics import MetricReport
from htdsm.sampler import SamplerConfig, particle_rng
from htdsm.schedule import geometric_schedule
from htdsm.scorenet import MixtureSpec, TrainConfig


def tiny_config(**overrides):
    base = dict(
        mixture=MixtureSpec.two_mode(10.0),
        train=TrainConfig(schedule=geometric_schedule(1.0, 0.25, 2), steps=300),
        sampler=SamplerConfig(
            schedule=geometric_schedule(1.0, 0.25, 2),
            steps_per_level=50,
            step_size=0.1,
        ),
        particles=60,
        seeds=(0, 1),
        data_count=2000,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def strip_wall_times(grid):
    grid = copy.deepcopy(grid)
    for cell in [*grid["cells"].values(), *grid.get("sweep", ())]:
        for rec in cell["per_seed"]:
            rec["wall_time"] = 0.0
    return grid


@pytest.fixture(scope="module")
def small_grid():
    return run_imbalance_grid(tiny_config())


@pytest.fixture(scope="module")
def swept_grid():
    return run_imbalance_grid(tiny_config(), sweep_betas=(1.0, 1.5, 2.0))


def count_runs(monkeypatch):
    """Wrap experiments.train and experiments.ald_run with call counters."""
    calls = {"train": 0, "ald_run": 0}
    for name in calls:
        real = getattr(experiments, name)

        def counted(*args, _name=name, _real=real, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(experiments, name, counted)
    return calls


class TestImbalanceGrid:
    def test_table_shape(self, small_grid):
        assert small_grid["rows"] == ["dsm", "htdsm"]
        assert small_grid["cols"] == ["gaussian", "laplace"]
        assert set(small_grid["cells"]) == {
            "dsm_gaussian",
            "dsm_laplace",
            "htdsm_gaussian",
            "htdsm_laplace",
        }
        for cell in small_grid["cells"].values():
            assert len(cell["per_seed"]) == 2
            assert isinstance(cell["divergent"], bool)

    def test_records_have_imbalance_iff_survivors(self, small_grid):
        for cell in small_grid["cells"].values():
            for rec in cell["per_seed"]:
                if rec["diverged"] < 60:
                    assert rec["imbalance"] is not None
                    assert 0.0 <= rec["imbalance"] <= 100.0

    def test_ci_brackets_mean(self, small_grid):
        for cell in small_grid["cells"].values():
            if cell["mean"] is not None:
                assert cell["ci_lo"] <= cell["mean"] <= cell["ci_hi"]

    def test_deterministic_rerun(self, small_grid):
        again = run_imbalance_grid(tiny_config())
        assert strip_wall_times(again) == strip_wall_times(small_grid)

    def test_workers_do_not_change_results(self, small_grid):
        parallel = run_imbalance_grid(tiny_config(), workers=2)
        assert strip_wall_times(parallel) == strip_wall_times(small_grid)

    def test_workers_with_draw_processes_match_serial(self, small_grid, monkeypatch):
        # small_grid draws its 300-step trainings inline. The patches would
        # start a draw process per run, but only the main process forks
        # one: the grid workers draw inline, and a draw process started in
        # a worker would exit with code 3 and fail the grid.
        monkeypatch.setattr(scorenet, "_MIN_CHILD_STEPS", 100)
        monkeypatch.setattr(scorenet, "_draw_threads", lambda: 2)
        monkeypatch.setattr(scorenet, "_draw_process", lambda *args: os._exit(3))
        parallel = run_imbalance_grid(tiny_config(), workers=2)
        assert strip_wall_times(parallel) == strip_wall_times(small_grid)

    def test_sweep_endpoints_coincide_with_grid_cells(self, small_grid):
        sweep = run_imbalance_grid(tiny_config(), sweep_betas=[1.0, 2.0])["sweep"]
        by_beta = {row["beta"]: row for row in sweep}
        # beta = 2 is dsm_gaussian, beta = 1 is htdsm_laplace: identical
        # configuration and streams, so identical records.
        want_b2 = [r["imbalance"] for r in small_grid["cells"]["dsm_gaussian"]["per_seed"]]
        got_b2 = [r["imbalance"] for r in by_beta[2.0]["per_seed"]]
        assert got_b2 == want_b2
        want_b1 = [r["imbalance"] for r in small_grid["cells"]["htdsm_laplace"]["per_seed"]]
        got_b1 = [r["imbalance"] for r in by_beta[1.0]["per_seed"]]
        assert got_b1 == want_b1

    def test_sweep_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            run_imbalance_grid(tiny_config(), sweep_betas=[2.5])

    @pytest.mark.parametrize("beta", [2.5, 0.0, -1.0, math.nan])
    def test_sweep_range_is_checked_before_any_work(self, monkeypatch, beta):
        calls = count_runs(monkeypatch)
        with pytest.raises(ValueError, match="sweep betas must lie in"):
            run_imbalance_grid(tiny_config(), sweep_betas=[1.0, beta])
        assert calls == {"train": 0, "ald_run": 0}

    @pytest.mark.parametrize("betas, trainings, samplings", [
        ((), 2, 4), ((1.0, 2.0), 2, 4), ((2.0, 1.0, 2.0), 2, 4), ((1.0, 1.5, 2.0), 3, 5),
    ])
    def test_each_shape_runs_once_per_seed(self, monkeypatch, betas, trainings, samplings):
        # The grid needs two training shapes and four (training, diffusion)
        # pairs; matched betas 1 and 2 repeat grid pairs, 1.5 adds one of each.
        calls = count_runs(monkeypatch)
        run_imbalance_grid(tiny_config(seeds=(0,)), sweep_betas=betas)
        assert calls == {"train": trainings, "ald_run": samplings}

    def test_sweep_rows_equal_their_grid_cells(self, swept_grid):
        stripped = strip_wall_times(swept_grid)
        by_beta = {row.pop("beta"): row for row in stripped["sweep"]}
        assert list(by_beta) == [1.0, 1.5, 2.0]
        assert by_beta[1.0] == stripped["cells"]["htdsm_laplace"]
        assert by_beta[2.0] == stripped["cells"]["dsm_gaussian"]
        assert by_beta[1.5]["per_seed"] != by_beta[1.0]["per_seed"]
        # A repeated pair is a copy of the first record, wall time included.
        cell_recs = swept_grid["cells"]["dsm_gaussian"]["per_seed"]
        sweep_recs = swept_grid["sweep"][2]["per_seed"]
        assert [r["wall_time"] for r in sweep_recs] == [r["wall_time"] for r in cell_recs]
        assert all(a is not b for a, b in zip(sweep_recs, cell_recs))

    def test_close_sweep_betas_keep_their_own_records(self):
        # 1.0 and 1.0 + 1e-7 print alike with %g; each row keeps its own run.
        grid = strip_wall_times(
            run_imbalance_grid(tiny_config(seeds=(0,)), sweep_betas=(1.0, 1.0 + 1e-7))
        )
        assert grid["sweep"][0]["per_seed"] == grid["cells"]["htdsm_laplace"]["per_seed"]
        assert grid["sweep"][1]["per_seed"] != grid["sweep"][0]["per_seed"]

    def test_sweep_with_workers_matches_serial(self, swept_grid):
        parallel = run_imbalance_grid(tiny_config(), workers=2, sweep_betas=(1.0, 1.5, 2.0))
        assert strip_wall_times(parallel) == strip_wall_times(swept_grid)

    def test_grid_json_bytes_ignore_the_sweep(self, small_grid, swept_grid, tmp_path):
        def grid_json(grid, name):
            write_grid_outputs(tmp_path / name, grid)
            text = (tmp_path / name / "grid.json").read_text()
            return re.sub(r'"wall_time": [^,\n]+', '"wall_time": 0', text)

        assert grid_json(swept_grid, "swept") == grid_json(small_grid, "plain")
        assert (tmp_path / "swept" / "sweep.csv").exists()
        assert not (tmp_path / "plain" / "sweep.csv").exists()

    def test_metric_selection_fills_report(self):
        grid = run_imbalance_grid(
            tiny_config(metric_names=("prdc", "kid", "fid"), seeds=(0,))
        )
        rec = grid["cells"]["dsm_gaussian"]["per_seed"][0]
        assert rec["metrics"] is not None
        assert rec["metrics"]["feature_map"] == "identity"
        for key in ("precision", "recall", "density", "coverage", "kid", "fid"):
            assert rec["metrics"][key] is not None

    def test_grid_outputs_written(self, small_grid, tmp_path):
        write_grid_outputs(tmp_path, run_imbalance_grid(tiny_config(), sweep_betas=[2.0]))
        assert json.loads((tmp_path / "grid.json").read_text())["rows"] == ["dsm", "htdsm"]
        with open(tmp_path / "per_seed.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 8
        assert {r["cell"] for r in rows} == set(small_grid["cells"])
        with open(tmp_path / "sweep.csv") as fh:
            srows = list(csv.DictReader(fh))
        assert srows[0]["beta"] == "2.0"


FORK_AFTER_THREADED_DRAW = textwrap.dedent("""
    import sys
    import threading

    from htdsm import distributions
    from htdsm.experiments import run_imbalance_grid
    from htdsm.sampler import SamplerConfig, ald_run
    from htdsm.schedule import geometric_schedule
    from tests.test_experiments import strip_wall_times, tiny_config

    # 3000 steps x 2 coordinates fill tiles of 21 particles, so the parent's
    # 64 particles and every grid run's 60 draw on three threads.
    distributions._draw_threads = lambda: 3
    cfg = SamplerConfig(schedule=geometric_schedule(1.0, 0.25, 2), steps_per_level=1500)
    ald_run(lambda x, ls: -x, cfg, 64)
    if threading.active_count() != 1:
        sys.exit("the draw left threads running")
    grid = tiny_config(sampler=cfg)
    forked = run_imbalance_grid(grid, workers=2)
    serial = run_imbalance_grid(grid, workers=1)
    sys.exit(0 if strip_wall_times(forked) == strip_wall_times(serial) else "workers=2 differs")
""")


def test_grid_workers_fork_after_a_threaded_draw():
    root = Path(__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(root / "src"), str(root)])}
    proc = subprocess.run([sys.executable, "-c", FORK_AFTER_THREADED_DRAW], cwd=root, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr


class Escaper:
    """A network stand-in whose score sends every particle to infinity.
    Its forward takes ScoreNetwork.forward's arguments and ignores the
    buffers."""

    def forward(self, x, log_sigma, *, buffers=None):
        return np.full_like(x, np.inf)


def test_record_of_an_all_diverged_run():
    cfg = tiny_config(metric_names=("prdc", "kid", "fid"))
    _, endpoints, diverged = experiments._sample_network(Escaper(), cfg.sampler, cfg.particles)
    assert diverged.all()
    data = cfg.mixture.sample(np.random.default_rng(0), cfg.data_count)
    record = experiments._run_record(cfg, 0, data, np.ones(10), endpoints[~diverged],
                                     int(diverged.sum()), 0.0)
    assert record.imbalance is None
    assert record.diverged == cfg.particles
    assert record.metrics == MetricReport()


class TestStandardMemberAlpha:
    def test_anchors(self):
        assert standard_member_alpha(2.0) == pytest.approx(math.sqrt(2.0), rel=1e-12)
        assert standard_member_alpha(1.0) == pytest.approx(1.0, rel=1e-12)


class TestConvergenceDemo:
    def test_zero_step_endpoints_equal_init(self, tmp_path):
        cfg = tiny_config(
            mixture=MixtureSpec.two_mode(1.0),
            sampler=SamplerConfig(
                schedule=geometric_schedule(1.0, 0.25, 2),
                steps_per_level=5,
                step_size=0.0,
            ),
            particles=30,
        )
        record = run_convergence_demo(2, 2.0, tmp_path, cfg=cfg)
        with open(tmp_path / "endpoints.csv") as fh:
            rows = list(csv.DictReader(fh))
        sampler_seed = _seed_int(cfg.master_seed, cfg.seeds[0], _STREAM_SAMPLE)
        for pid, row in enumerate(rows):
            want = particle_rng(sampler_seed, pid).uniform(-6.0, 6.0, 2)
            assert float(row["x0"]) == want[0]
            assert float(row["x1"]) == want[1]
        assert record.diverged == 0

    def test_demo_outputs(self, tmp_path):
        cfg = tiny_config(mixture=MixtureSpec.two_mode(1.0), particles=40)
        record = run_convergence_demo(2, 1.0, tmp_path, cfg=cfg, path_particles=3)
        assert (tmp_path / "record.json").exists()
        with open(tmp_path / "paths.csv") as fh:
            rows = list(csv.DictReader(fh))
        # 3 particles, 100 steps plus the initial position each.
        assert len(rows) == 3 * 101
        assert {r["particle_id"] for r in rows} == {"0", "1", "2"}
        assert {r["level"] for r in rows} == {"0", "1"}
        assert record.loss_first_decile > 0

    def test_single_level_schedule(self, tmp_path):
        cfg = tiny_config(mixture=MixtureSpec.two_mode(1.0), particles=10)
        record = run_convergence_demo(1, 2.0, tmp_path, cfg=cfg, path_particles=2)
        with open(tmp_path / "paths.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert {r["level"] for r in rows} == {"0"}
        assert record.imbalance is not None

    def test_configured_alpha_unit_is_not_read(self, tmp_path):
        # The demo scales noise by the standard member, as the grid does.
        cfg = tiny_config(mixture=MixtureSpec.two_mode(1.0), particles=20)
        half = replace(cfg, train=replace(cfg.train, alpha_unit=0.5))
        for name, c in (("default", cfg), ("half", half)):
            run_convergence_demo(2, 1.0, tmp_path / name, cfg=c)
        endpoints = [(tmp_path / name / "endpoints.csv").read_bytes() for name in ("default", "half")]
        assert endpoints[0] == endpoints[1]

    def test_invalid_levels(self, tmp_path):
        with pytest.raises(ValueError):
            run_convergence_demo(3, 2.0, tmp_path)
        with pytest.raises(ValueError, match="path_particles"):
            run_convergence_demo(2, 2.0, tmp_path, path_particles=0)


class TestFullScaleDemo:
    """The demo at its real protocol (20k steps, 1,000 particles)."""

    def test_gaussian_two_level_mode_capture(self, tmp_path):
        record = run_convergence_demo(2, 2.0, tmp_path / "g")
        assert record.mode_capture >= 0.95
        assert record.loss_last_decile < record.loss_first_decile

    def test_laplace_two_level_all_converge(self, tmp_path):
        # Laplace training noise with matched Laplace diffusion: every
        # particle converges and the loss decreases.
        record = run_convergence_demo(2, 1.0, tmp_path / "l")
        assert record.diverged == 0
        assert record.loss_last_decile < record.loss_first_decile
        # paths.csv and endpoints.csv come from one run: each path ends at
        # its particle's endpoint, bit for bit.
        with open(tmp_path / "l" / "paths.csv") as fh:
            last = {row["particle_id"]: row for row in csv.DictReader(fh)}
        with open(tmp_path / "l" / "endpoints.csv") as fh:
            ends = list(csv.DictReader(fh))
        assert len(last) == 10
        for pid, row in last.items():
            assert (row["x0"], row["x1"]) == (ends[int(pid)]["x0"], ends[int(pid)]["x1"])


class TestConfigRoundtrip:
    def test_json_roundtrip(self):
        cfg = tiny_config()
        clone = ExperimentConfig.from_dict(json.loads(json.dumps(cfg.to_dict())))
        assert clone == cfg

    def test_validation(self):
        with pytest.raises(ValueError):
            tiny_config(seeds=())
        with pytest.raises(ValueError):
            tiny_config(particles=0)
        with pytest.raises(ValueError, match="seeds must be >= 0"):
            tiny_config(seeds=(0, -1))
        with pytest.raises(ValueError, match="master_seed must be >= 0"):
            tiny_config(master_seed=-1)
