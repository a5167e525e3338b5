import copy
import csv
import hashlib
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

from htdsm import experiments
from htdsm.experiments import (
    ExperimentConfig,
    demo_config,
    run_convergence_demo,
    run_imbalance_grid,
    standard_member_alpha,
    write_grid_outputs,
    _seed_int,
    _STREAM_SAMPLE,
)
from htdsm.metrics import MetricReport, fid, kid, prdc
from htdsm.sampler import DIVERGED, SamplerConfig, particle_rng
from htdsm.schedule import NoiseSchedule, geometric_schedule
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

    @pytest.mark.parametrize("beta", [2.5, 0.0, -1.0, math.nan, 1.0])
    def test_sweep_range_is_checked_before_any_work(self, monkeypatch, beta):
        calls = count_runs(monkeypatch)
        with pytest.raises(ValueError, match="sweep betas must lie in"):
            run_imbalance_grid(tiny_config(), sweep_betas=[1.0, beta])
        assert calls == {"train": 0, "ald_run": 0}

    @pytest.mark.parametrize("betas, trainings, samplings", [
        ((), 2, 4), ((1.0, 2.0), 2, 4), ((2.0, 1.0), 2, 4), ((1.0, 1.5, 2.0), 3, 5),
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
        # A repeated pair reads the same records, wall time included, into its own dicts.
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


FORK_AFTER_PRDC_POOL = textwrap.dedent("""
    import sys
    import threading

    import numpy as np

    from htdsm import metrics
    from htdsm.experiments import run_imbalance_grid
    from tests.test_experiments import strip_wall_times, tiny_config

    # PRDC's passes run on a pool of one thread per core, the package's one
    # thread pool. Run it in the parent on two threads before the grid forks.
    metrics._usable_cores = lambda: 2
    started = []
    thread_start = threading.Thread.start

    def start(self):
        started.append(self)
        thread_start(self)

    threading.Thread.start = start
    points = np.random.default_rng(0).standard_normal((2, 500, 2))
    metrics.prdc(points[0], points[1], 5)
    threading.Thread.start = thread_start
    if not started:
        sys.exit("PRDC started no thread")
    if threading.active_count() != 1:
        sys.exit("PRDC left threads running")
    forked = run_imbalance_grid(tiny_config(), workers=2)
    serial = run_imbalance_grid(tiny_config(), workers=1)
    sys.exit(0 if strip_wall_times(forked) == strip_wall_times(serial) else "workers=2 differs")
""")


def test_grid_workers_fork_after_a_threaded_draw():
    root = Path(__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(root / "src"), str(root)])}
    proc = subprocess.run([sys.executable, "-c", FORK_AFTER_PRDC_POOL], cwd=root, env=env,
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
    result = experiments._sample_network(Escaper(), cfg.sampler, cfg.particles)
    assert (result.status == DIVERGED).all()
    data = cfg.mixture.sample(np.random.default_rng(0), cfg.data_count)
    record = experiments._run_record(cfg, 0, data, np.ones(10), result, 0.0)
    assert record.imbalance is None
    assert record.diverged == cfg.particles
    assert record.metrics == MetricReport()


class RecordingPool:
    """A stand-in for experiments.ProcessPoolExecutor that records its
    max_workers and maps in this process: no process starts."""

    made = []

    def __init__(self, max_workers):
        self.made.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, tasks):
        return map(fn, tasks)


@pytest.mark.parametrize("workers, seeds, pools", [
    (64, (0, 1, 2), [3]), (2, (0, 1, 2), [2]), (3, (5, 4, 9), [3]), (5, (0,), []), (1, (0, 1), []),
])
def test_workers_never_outnumber_the_seeds(monkeypatch, workers, seeds, pools):
    monkeypatch.setattr(RecordingPool, "made", [])
    monkeypatch.setattr(experiments, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(experiments, "_seed_records",
                        lambda cfg, seed, pairs: {pair: {"seed": seed} for pair in pairs})
    pairs = [(2.0, 2.0), (1.0, 1.0)]
    per_pair = experiments._run_pairs(tiny_config(seeds=seeds), pairs, workers)
    assert RecordingPool.made == pools
    assert per_pair == {pair: [{"seed": s} for s in seeds] for pair in pairs}


def test_workers_capped_at_the_seeds_give_the_serial_grid(monkeypatch):
    cfg = tiny_config(seeds=(3, 1), particles=20)
    serial = run_imbalance_grid(cfg, sweep_betas=(1.0,))
    monkeypatch.setattr(RecordingPool, "made", [])
    monkeypatch.setattr(experiments, "ProcessPoolExecutor", RecordingPool)
    capped = run_imbalance_grid(cfg, workers=64, sweep_betas=(1.0,))
    assert RecordingPool.made == [2]
    assert json.dumps(strip_wall_times(capped)) == json.dumps(strip_wall_times(serial))


@pytest.fixture(scope="module")
def endpoint_sets():
    """Reference data and 40 endpoints, from the 10:1 mixture."""
    mix = MixtureSpec.two_mode(10.0)
    return mix.sample(np.random.default_rng(7), 200), mix.sample(np.random.default_rng(8), 40)


@pytest.mark.parametrize("n", [0, 1, 2, 3, 5, 6, 40])
def test_endpoint_metrics_are_none_exactly_where_undefined(endpoint_sets, n):
    data, endpoints = endpoint_sets
    pts = endpoints[:n]
    report = experiments._endpoint_metrics(pts, data, ("prdc", "kid", "fid"))
    # The guards this table pins: PRDC (k = 5) needs more than 5 points, KID
    # at least 2, FID more than the dimension, 2.
    want = MetricReport()
    if n > 5:
        want.precision, want.recall, want.density, want.coverage = prdc(data[:n], pts, 5)
    if n >= 2:
        want.kid = kid(data[:n], pts)
    if n > 2:
        want.fid = fid(data[:n], pts)
    assert report == want


def test_a_refused_statistic_is_recorded_as_none():
    # Six copies of one point: every 5-NN radius is 0, so PRDC is undefined.
    same = np.ones((6, 2))
    report = experiments._endpoint_metrics(same, same + 1.0, ("prdc",))
    assert report == MetricReport()


class TestStandardMemberAlpha:
    def test_anchors(self):
        assert standard_member_alpha(2.0) == pytest.approx(math.sqrt(2.0), rel=1e-12)
        assert standard_member_alpha(1.0) == pytest.approx(1.0, rel=1e-12)


def demo_tiny_config(beta_noise=2.0, **overrides):
    """tiny_config on the balanced mixture, training with beta_noise."""
    base = tiny_config(mixture=MixtureSpec.two_mode(1.0))
    return replace(base, train=replace(base.train, beta_noise=beta_noise), **overrides)


class TestConvergenceDemo:
    def test_zero_step_endpoints_equal_init(self, tmp_path):
        cfg = demo_tiny_config(
            sampler=SamplerConfig(
                schedule=geometric_schedule(1.0, 0.25, 2),
                steps_per_level=5,
                step_size=0.0,
            ),
            particles=30,
        )
        record = run_convergence_demo(cfg, tmp_path)
        with open(tmp_path / "endpoints.csv") as fh:
            rows = list(csv.DictReader(fh))
        sampler_seed = _seed_int(cfg.master_seed, cfg.seeds[0], _STREAM_SAMPLE)
        for pid, row in enumerate(rows):
            want = particle_rng(sampler_seed, pid).uniform(-6.0, 6.0, 2)
            assert float(row["x0"]) == want[0]
            assert float(row["x1"]) == want[1]
        assert record.diverged == 0

    def test_demo_outputs(self, tmp_path):
        record = run_convergence_demo(demo_tiny_config(1.0, particles=40), tmp_path)
        assert (tmp_path / "record.json").exists()
        with open(tmp_path / "paths.csv") as fh:
            rows = list(csv.DictReader(fh))
        # 10 particles, 100 steps plus the initial position each.
        assert len(rows) == 10 * 101
        assert {r["particle_id"] for r in rows} == {str(i) for i in range(10)}
        assert {r["level"] for r in rows} == {"0", "1"}
        assert record.loss_first_decile > 0

    def test_each_path_ends_at_its_endpoint(self, tmp_path):
        # The paths come from a separate 10-particle run. A radius of 7
        # makes particles diverge mid-run in both runs, so the big run's
        # alive row count changes under the network's forward.
        sampler_cfg = SamplerConfig(schedule=geometric_schedule(1.0, 0.25, 2),
                                    steps_per_level=200, step_size=0.1, beta_diff=1.0,
                                    divergence_radius=7.0)
        base = tiny_config(sampler=sampler_cfg, particles=500)
        cfg = replace(base, train=replace(base.train, beta_noise=1.0))
        record = run_convergence_demo(cfg, tmp_path)
        with open(tmp_path / "endpoints.csv") as fh:
            endpoints = list(csv.DictReader(fh))
        with open(tmp_path / "paths.csv") as fh:
            paths = list(csv.DictReader(fh))
        assert len(endpoints) == 500 and len(paths) == 10 * 401
        last = [row for row in paths if row["step"] == "400"]
        assert [row["particle_id"] for row in last] == [str(i) for i in range(10)]
        for path_row, end_row in zip(last, endpoints):
            assert (path_row["x0"], path_row["x1"]) == (end_row["x0"], end_row["x1"])
        diverged = [row["status"] == "diverged" for row in endpoints]
        assert 0 < sum(diverged[:10]) < 10 and sum(diverged) == record.diverged

    def test_single_level_schedule(self, tmp_path):
        one = NoiseSchedule(sigmas=(1.0,), beta=2.0, n=2, kind="geometric")
        base = demo_tiny_config(particles=10)
        cfg = replace(base, train=replace(base.train, schedule=one),
                      sampler=replace(base.sampler, schedule=one, steps_per_level=50))
        record = run_convergence_demo(cfg, tmp_path)
        with open(tmp_path / "paths.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert {r["level"] for r in rows} == {"0"}
        assert record.imbalance is not None

    def test_configured_alpha_unit_is_not_read(self, tmp_path):
        # The demo scales noise by the standard member, as the grid does.
        cfg = demo_tiny_config(1.0, particles=20)
        half = replace(cfg, train=replace(cfg.train, alpha_unit=0.5))
        for name, c in (("default", cfg), ("half", half)):
            run_convergence_demo(c, tmp_path / name)
        endpoints = [(tmp_path / name / "endpoints.csv").read_bytes() for name in ("default", "half")]
        assert endpoints[0] == endpoints[1]

    def test_invalid_levels(self):
        for levels in (0, 3):
            with pytest.raises(ValueError, match="levels must be 1 or 2"):
                demo_config(levels, 2.0)

    @pytest.mark.parametrize("levels", [1, 2])
    def test_demo_config_shares_one_schedule_and_beta(self, levels):
        cfg = demo_config(levels, 1.3)
        assert cfg.train.schedule == cfg.sampler.schedule
        assert cfg.train.schedule.sigmas == (1.0, 0.25)[:levels]
        assert cfg.sampler.steps_per_level == (1000,) * levels
        assert (cfg.train.beta_noise, cfg.sampler.beta_diff, cfg.seeds) == (1.3, 1.3, (0,))

    @pytest.mark.parametrize("cell, beta", [("dsm_gaussian", 2.0), ("htdsm_laplace", 1.0)])
    def test_demo_equals_a_grid_cell(self, tmp_path, cell, beta):
        # The demo runs one grid cell through the grid's own code.
        base = tiny_config(seeds=(1,), particles=30, metric_names=("kid",))
        cfg = replace(base, train=replace(base.train, beta_noise=beta),
                      sampler=replace(base.sampler, beta_diff=beta))
        demo = run_convergence_demo(cfg, tmp_path).to_dict()
        (grid_record,) = run_imbalance_grid(base)["cells"][cell]["per_seed"]
        skip = ("wall_time", "mode_capture")
        assert {k: v for k, v in demo.items() if k not in skip} == \
            {k: v for k, v in grid_record.items() if k not in skip}


class TestFullScaleDemo:
    """The demo at its real protocol (20k steps, 1,000 particles), pinned
    byte for byte: the sha256 of endpoints.csv and paths.csv, and every
    record field but wall_time. The network's rounding depends on the BLAS
    kernel, so the pins hold per host and BLAS build (x86-64 OpenBLAS)."""

    PINS = {
        2.0: ("bfccde8324650eba2210f0851d967af820697bbc642c76f017c9bc0b30fe305a",
              "2cde5b281256f3d5b1863fd77c8812edcdfbb64d56269e97e63d1915cbb1d057",
              dict(seed=0, imbalance=49.0, diverged=0, loss_first_decile=0.6865953647547606,
                   loss_last_decile=0.5114161762363838, metrics=None, mode_capture=0.971)),
        1.0: ("dfea0cdcff7e77e8809d53755d22604676debe883729fc571555e0b94089fef2",
              "0df6304e3f396f89ffaae2c0809e73dca127fec20007b386db032a8541a0a759",
              dict(seed=0, imbalance=41.4, diverged=0, loss_first_decile=0.7879386249518184,
                   loss_last_decile=0.653631465020779, metrics=None, mode_capture=0.89)),
    }

    def assert_pinned(self, out_dir, beta, record):
        endpoints, paths, fields = self.PINS[beta]
        digests = [hashlib.sha256((out_dir / name).read_bytes()).hexdigest()
                   for name in ("endpoints.csv", "paths.csv")]
        assert digests == [endpoints, paths]
        written = json.loads((out_dir / "record.json").read_text())
        for rec in (record.to_dict(), written):
            assert {k: v for k, v in rec.items() if k != "wall_time"} == fields

    def test_gaussian_two_level_mode_capture(self, tmp_path):
        record = run_convergence_demo(demo_config(2, 2.0), tmp_path / "g")
        assert record.mode_capture >= 0.95
        assert record.loss_last_decile < record.loss_first_decile
        self.assert_pinned(tmp_path / "g", 2.0, record)

    def test_laplace_two_level_all_converge(self, tmp_path):
        # Laplace training noise with matched Laplace diffusion: every
        # particle converges and the loss decreases.
        record = run_convergence_demo(demo_config(2, 1.0), tmp_path / "l")
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
        self.assert_pinned(tmp_path / "l", 1.0, record)


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
