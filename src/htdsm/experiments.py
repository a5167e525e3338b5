"""Scenario runners for the 2D mixture experiments: the 10:1 imbalance
grid over {training noise shape} x {diffusion shape}, the matched
noise/diffusion shape sweep, and the convergence demo, which runs one grid
cell of its config through the grid's own cell pipeline and writes its
endpoints, paths and record.

Every run is a pure function of (config, master seed): data, training and
sampling streams are derived from named substreams, seeds fan out across
workers without changing results, and aggregation is a deterministic fold
in seed order. Wall times are the only unreproducible fields.
"""

from __future__ import annotations

import json
import logging
import time
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from htdsm._config import Config, Count, Index, Real
from htdsm.metrics import MetricError, MetricReport, bootstrap_ci, fid, kid, mode_imbalance, prdc
from htdsm.sampler import CONVERGED, SamplerConfig, ald_run
from htdsm.schedule import NoiseSchedule, geometric_schedule
from htdsm.scorenet import MixtureSpec, TrainConfig, _ForwardBuffers, train

log = logging.getLogger(__name__)

__all__ = [
    "ExperimentConfig",
    "RunRecord",
    "standard_member_alpha",
    "demo_config",
    "run_convergence_demo",
    "run_imbalance_grid",
    "write_endpoints_csv",
    "write_paths_csv",
    "GRID_CELLS",
    "GRID_OWNED",
]

# Substream tags for deriving independent generators from the master seed.
_STREAM_DATA = 0
_STREAM_TRAIN = 1
_STREAM_SAMPLE = 2

# Table-shaped grid: training objective rows x diffusion columns.
GRID_CELLS = (
    ("dsm", "gaussian"),
    ("dsm", "laplace"),
    ("htdsm", "gaussian"),
    ("htdsm", "laplace"),
)
_TRAIN_BETA = {"dsm": 2.0, "htdsm": 1.0}
_DIFF_BETA = {"gaussian": 2.0, "laplace": 1.0}
# The endpoint metrics an ExperimentConfig may name.
_METRICS = ("prdc", "kid", "fid")
# ExperimentConfig fields the grid sets per cell and seed; training draws
# from a generator derived from the master seed, not from train.seed.
GRID_OWNED = ("train.beta_noise", "train.alpha_unit", "train.seed",
              "sampler.beta_diff", "sampler.seed", "sampler.record_paths")


def standard_member_alpha(beta: float) -> float:
    """Base noise scale 2^(1 - 1/beta): the density kernel becomes
    exp(-|x|^beta / 2^(beta-1)), which is the standard normal at beta = 2
    and the standard Laplace at beta = 1. The experiments scale noise as
    sigma times this standard family member, so heavier-tailed training
    noise also carries more power, matching the noising recipe the sweep
    and grid compare."""
    return 2.0 ** (1.0 - 1.0 / beta)


def _rng(master_seed: int, *key: int) -> np.random.Generator:
    return np.random.default_rng(
        np.random.SeedSequence(entropy=int(master_seed), spawn_key=tuple(key))
    )


def _seed_int(master_seed: int, *key: int) -> int:
    ss = np.random.SeedSequence(entropy=int(master_seed), spawn_key=tuple(key))
    return int(ss.generate_state(1, np.uint64)[0])


@dataclass(frozen=True)
class ExperimentConfig(Config):
    """One imbalance experiment: mixture, shared training/sampling settings,
    particle count and the seed list. The grid sets the GRID_OWNED fields per
    cell and seed, so `htdsm experiment imbalance` rejects a config that
    moves any of them off its default. The demo sets train.alpha_unit too,
    to the standard member's."""

    mixture: MixtureSpec = field(default_factory=lambda: MixtureSpec.two_mode(10.0))
    train: TrainConfig = field(
        default_factory=lambda: TrainConfig(
            schedule=geometric_schedule(1.0, 0.25, 2), learning_rate=1e-3
        )
    )
    # 1500 steps per level: the same step size as the single-level demo but
    # with enough level-1 tail events for the diffusion-shape contrast to
    # show over 10 seeds.
    sampler: SamplerConfig = field(
        default_factory=lambda: SamplerConfig(
            schedule=geometric_schedule(1.0, 0.25, 2),
            steps_per_level=1500,
            step_size=0.1,
        )
    )
    particles: Count = 1000
    seeds: tuple[Index, ...] = tuple(range(10))
    metric_names: tuple[str, ...] = ()
    data_count: Count = 20_000
    master_seed: Index = 0
    bootstrap_resamples: Count = 10_000
    bootstrap_level: Real = 0.95

    def __post_init__(self) -> None:
        super().__post_init__()
        if not self.seeds:
            raise ValueError("seeds must be nonempty")
        if len(set(self.seeds)) < len(self.seeds):
            raise ValueError(f"seeds must be distinct, got {list(self.seeds)}")
        if not 0.0 < self.bootstrap_level < 1.0:
            raise ValueError(f"bootstrap_level must lie in (0, 1), got {self.bootstrap_level!r}")
        unknown = [name for name in self.metric_names if name not in _METRICS]
        if unknown:
            raise ValueError(f"metric_names must be among {', '.join(_METRICS)}, got {unknown}")
        # train.schedule.n is never read: training takes its dim from the data.
        if self.sampler.schedule.n != self.mixture.dim:
            raise ValueError(f"sampler.schedule.n must equal mixture.dim, got "
                             f"{self.sampler.schedule.n} and {self.mixture.dim}")


@dataclass
class RunRecord(Config):
    """Per-run summary; imbalance is None when every particle diverged."""

    seed: int
    imbalance: float | None
    diverged: int
    loss_first_decile: float
    loss_last_decile: float
    metrics: MetricReport | None = None
    wall_time: float = 0.0
    mode_capture: float | None = None


def _loss_deciles(losses: np.ndarray) -> tuple:
    n10 = max(1, len(losses) // 10)
    return float(losses[:n10].mean()), float(losses[-n10:].mean())


def _statistic(fn, *args):
    """fn(*args), or None where metrics refuses the inputs as undefined."""
    try:
        return fn(*args)
    except MetricError:
        return None


def _endpoint_metrics(pts, data, names) -> MetricReport | None:
    """The named metrics of pts against as many data points, PRDC at k = 5;
    None for a metric not named or refused."""
    if not names:
        return None
    ref = data[: len(pts)]
    prdc_values = _statistic(prdc, ref, pts, 5) if "prdc" in names else None
    return MetricReport(*(prdc_values or (None,) * 4),
                        kid=_statistic(kid, ref, pts) if "kid" in names else None,
                        fid=_statistic(fid, ref, pts) if "fid" in names else None)


def _run_record(cfg: ExperimentConfig, seed: int, data, losses, result, t0: float) -> RunRecord:
    """The record of one cell from ald_run's record array, timed from t0."""
    first, last = _loss_deciles(losses)
    kept = result.final[result.status == CONVERGED]
    return RunRecord(
        seed=seed,
        imbalance=_statistic(mode_imbalance, kept, cfg.mixture),
        diverged=len(result) - len(kept),
        loss_first_decile=first,
        loss_last_decile=last,
        metrics=_endpoint_metrics(kept, data, cfg.metric_names),
        wall_time=time.perf_counter() - t0,
    )


def _train_for_seed(cfg: ExperimentConfig, seed: int, beta_noise: float):
    """Deterministic (data, net, losses) for one seed and training shape,
    with noise scaled by the shape's standard member."""
    data = cfg.mixture.sample(
        _rng(cfg.master_seed, seed, _STREAM_DATA), cfg.data_count
    )
    train_cfg = replace(cfg.train, beta_noise=beta_noise,
                        alpha_unit=standard_member_alpha(beta_noise))
    beta_key = int(round(beta_noise * 1_000_000))
    net, losses = train(
        data, train_cfg, _rng(cfg.master_seed, seed, _STREAM_TRAIN, beta_key)
    )
    return data, net, losses


def _sample_network(net, sampler_cfg: SamplerConfig, count: int) -> np.recarray:
    """ald_run's record array for count particles under net's score.

    Every score goes through net.forward on one set of forward buffers per
    run; ald_run uses each score before asking for the next."""
    buffers = _ForwardBuffers(net)
    return ald_run(lambda x, ls: net.forward(x, ls, buffers=buffers), sampler_cfg, count)


def _sample_cell(cfg: ExperimentConfig, seed: int, net, beta_diff: float,
                 record_paths: bool = False) -> np.recarray:
    """ald_run's record array of one cell, seeded from the master seed."""
    sampler_cfg = replace(
        cfg.sampler,
        beta_diff=beta_diff,
        record_paths=record_paths,
        seed=_seed_int(cfg.master_seed, seed, _STREAM_SAMPLE),
    )
    return _sample_network(net, sampler_cfg, cfg.particles)


def _run_cell(cfg: ExperimentConfig, seed: int, trained: dict, beta_noise: float,
              beta_diff: float):
    """(record, net, ald_run's record array) of one cell. The beta_noise
    shape is trained into trained[beta_noise] unless it is there already;
    the record's wall time covers the training and the sampling."""
    t0 = time.perf_counter()
    if beta_noise not in trained:
        trained[beta_noise] = _train_for_seed(cfg, seed, beta_noise)
    data, net, losses = trained[beta_noise]
    result = _sample_cell(cfg, seed, net, beta_diff)
    return _run_record(cfg, seed, data, losses, result, t0), net, result


def _seed_records(args) -> dict:
    """One seed's records by name, for shapes (name, beta_noise, beta_diff).

    Module-level so worker processes can pickle it. Each distinct training
    shape is trained once and each distinct (training, diffusion) pair is
    sampled once; a name repeating a pair gets a copy of its record, wall
    time included.
    """
    cfg, seed, shapes = args
    trained = {}
    records = {}
    out = {}
    for name, beta_noise, beta_diff in shapes:
        pair = (beta_noise, beta_diff)
        if pair not in records:
            records[pair] = _run_cell(cfg, seed, trained, beta_noise, beta_diff)[0]
        out[name] = records[pair].to_dict()
    log.debug("seed %d done (%d shapes)", seed, len(shapes))
    return out


def _run_shapes(cfg: ExperimentConfig, shapes, workers: int = 1) -> dict:
    """Records per shape name, seed-ordered. Seeds fan across workers."""
    tasks = [(cfg, seed, shapes) for seed in cfg.seeds]
    # A fork pool starts all its workers at the first submit: one per seed at most.
    workers = min(workers, len(tasks))
    with ProcessPoolExecutor(max_workers=workers) if workers > 1 else nullcontext() as pool:
        results = list((pool.map if pool else map)(_seed_records, tasks))
    per_shape = {name: [] for name, *_ in shapes}
    for res in results:
        for name, record in res.items():
            per_shape[name].append(record)
    return per_shape


def _aggregate_cell(cfg: ExperimentConfig, records: list) -> dict:
    imbalances = [r["imbalance"] for r in records if r["imbalance"] is not None]
    diverged_fracs = [r["diverged"] / cfg.particles for r in records]
    divergent = (
        sum(f > 0.5 for f in diverged_fracs) > 0.5 * len(records)
    )
    cell = {
        "divergent": divergent,
        "per_seed": records,
        "mean": None,
        "ci_lo": None,
        "ci_hi": None,
    }
    if imbalances:
        mean, lo, hi = bootstrap_ci(
            imbalances,
            cfg.bootstrap_resamples,
            cfg.bootstrap_level,
            _rng(cfg.master_seed, _STREAM_SAMPLE, 999),
        )
        cell.update(mean=mean, ci_lo=lo, ci_hi=hi)
    return cell


def run_imbalance_grid(cfg: ExperimentConfig, workers: int = 1, sweep_betas=()) -> dict:
    """The {DSM, HTDSM} x {Gaussian, Laplace} table, plus the matched
    noise/diffusion sweep when sweep_betas is not empty.

    Per cell and seed the model is retrained with the cell's noise shape,
    1,000 (cfg.particles) particles are annealed, and non-diverged
    endpoints are assigned to modes; per-seed imbalances aggregate through
    a percentile bootstrap. A cell is Divergent when more than half the
    seeds lose more than half their particles; divergence is an outcome,
    never an error.

    Each sweep beta in (0, 2] trains and samples with that same shape and
    becomes one row of grid["sweep"]. The grid and the sweep run as one set
    of shapes, so beta = 2 reuses the dsm_gaussian cell's run and beta = 1
    the htdsm_laplace cell's.
    """
    betas = [float(b) for b in sweep_betas]
    if any(not 0.0 < b <= 2.0 for b in betas):
        raise ValueError(f"sweep betas must lie in (0, 2], got {betas}")
    cell_shapes = [(f"{row}_{col}", _TRAIN_BETA[row], _DIFF_BETA[col]) for row, col in GRID_CELLS]
    sweep_shapes = [(f"beta_{b!r}", b, b) for b in betas]
    per_shape = _run_shapes(cfg, cell_shapes + sweep_shapes, workers)
    grid = {
        "rows": ["dsm", "htdsm"],
        "cols": ["gaussian", "laplace"],
        "cells": {name: _aggregate_cell(cfg, per_shape[name]) for name, *_ in cell_shapes},
        "seeds": list(cfg.seeds),
        "particles": cfg.particles,
        "bootstrap": {
            "resamples": cfg.bootstrap_resamples,
            "level": cfg.bootstrap_level,
        },
    }
    if betas:
        grid["sweep"] = [
            {"beta": b, **_aggregate_cell(cfg, per_shape[name])} for name, b, _ in sweep_shapes
        ]
    return grid


def demo_config(levels: int, beta: float) -> ExperimentConfig:
    """The balanced-mixture demo's protocol: one seed, shape beta for both
    the training noise and the diffusion, and one schedule for both, the
    single sigma = 1.0 level at levels = 1 or the [1.0, 0.25] pair at
    levels = 2. It takes 1,000 Langevin steps per level at step size 0.1,
    and a learning rate high enough for the fixed 20k-step budget to reach
    the smoothed score (the imbalance grid deliberately stays at the slower
    default, where the mode-collapse contrast lives)."""
    if levels not in (1, 2):
        raise ValueError(f"levels must be 1 or 2, got {levels!r}")
    schedule = (
        NoiseSchedule(sigmas=(1.0,), beta=2.0, n=2, kind="geometric")
        if levels == 1
        else geometric_schedule(1.0, 0.25, 2)
    )
    return ExperimentConfig(
        mixture=MixtureSpec.two_mode(1.0),
        train=TrainConfig(schedule=schedule, beta_noise=beta, learning_rate=0.02),
        sampler=SamplerConfig(schedule=schedule, steps_per_level=1000, step_size=0.1,
                              beta_diff=beta),
        seeds=(0,),
    )


def run_convergence_demo(cfg: ExperimentConfig, out_dir) -> RunRecord:
    """One grid cell of cfg as given, with its files in out_dir: the cell of
    the first seed, training shape cfg.train.beta_noise and diffusion shape
    cfg.sampler.beta_diff. demo_config builds the demo's own protocol.

    endpoints.csv holds every particle and paths.csv the full paths of the
    first 10. The paths come from a second ALD run of just those particles,
    which is bit-equal to their rows of the first (particles are seeded by
    index and the network's forward is row-stable), so each path ends at its
    particle's endpoint. record.json is the cell's record plus mode_capture,
    the share of kept endpoints within 3 stds of a mode; its wall time
    covers the training and the sampling of the cell.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    seed, beta_diff = cfg.seeds[0], cfg.sampler.beta_diff
    record, net, result = _run_cell(cfg, seed, {}, cfg.train.beta_noise, beta_diff)
    write_endpoints_csv(out_dir / "endpoints.csv", result)
    path_cfg = replace(cfg, particles=min(10, cfg.particles))
    paths = _sample_cell(path_cfg, seed, net, beta_diff, record_paths=True)
    write_paths_csv(out_dir / "paths.csv", paths, cfg.sampler.steps_per_level)

    kept = result.final[result.status == CONVERGED]
    capture = None
    if len(kept):
        dists = np.linalg.norm(
            kept[:, None, :] - cfg.mixture.mean_array()[None], axis=2
        ).min(axis=1)
        capture = float((dists <= 3.0 * max(cfg.mixture.stds)).mean())
    record = replace(record, mode_capture=capture)
    write_json(out_dir / "record.json", record.to_dict())
    return record


def write_json(path, payload) -> None:
    """payload as JSON indented by 2, ending in a newline."""
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


def _fmt(x) -> str:
    """Shortest round-trip decimal representation; "" for None."""
    return "" if x is None else repr(float(x))


# Rows per block of write_csv. Formatting a block holds about 100 B per float
# field, so memory stays bounded for any row count. Blocks of 1024 to 8192
# rows format equally fast, and 65,536 rows was slower.
_CSV_ROWS = 1024


def write_csv(path, header, columns) -> None:
    """RFC 4180 CSV with CRLF line ends from equal-length columns: floats as
    their shortest round-trip repr (nan, inf), anything else (ids, levels,
    status strings) as str. No field needs quoting. Rows are formatted and
    written _CSV_ROWS at a time, one write per block."""
    columns = [np.asarray(col) for col in columns]
    fmts = [repr if col.dtype.kind == "f" else str for col in columns]
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        for i in range(0, len(columns[0]) if columns else 0, _CSV_ROWS):
            cells = [map(f, col[i : i + _CSV_ROWS].tolist()) for f, col in zip(fmts, columns)]
            fh.write("\r\n".join(map(",".join, zip(*cells))) + "\r\n")


def write_endpoints_csv(path, result) -> None:
    """One row per particle of ald_run's record array: particle_id, status, x0..xd-1."""
    header = ["particle_id", "status", *(f"x{i}" for i in range(result.final.shape[1]))]
    write_csv(path, header, [np.arange(len(result)), result.status, *result.final.T])


def write_paths_csv(path, particle_paths, steps_per_level) -> None:
    """Per-step positions: particle_id, level, step, x0..xd-1, from ald_run's
    record array of paths recorded under a schedule with steps_per_level
    steps at each level.

    Step 0 is the initial position (level of the first schedule level).
    """
    if "positions" not in particle_paths.dtype.names:
        raise ValueError("paths were not recorded for this run")
    rows = sum(steps_per_level) + 1
    if particle_paths.positions.shape[1] != rows:
        raise ValueError(f"steps_per_level {tuple(steps_per_level)} needs paths of {rows} rows")
    count = len(particle_paths)
    pos = particle_paths.positions.reshape(count * rows, -1)
    ids = np.repeat(np.arange(count), rows)
    level_of_row = np.repeat(np.arange(len(steps_per_level)),
                             [steps_per_level[0] + 1, *steps_per_level[1:]])
    levels = np.tile(level_of_row, count)
    steps = np.tile(np.arange(rows), count)
    header = ["particle_id", "level", "step", *(f"x{i}" for i in range(pos.shape[1]))]
    write_csv(path, header, [ids, levels, steps, *pos.T])


def write_grid_outputs(out_dir, grid: dict) -> None:
    """grid.json (without the sweep rows), the per-seed CSV and, when the
    grid holds a sweep, sweep.csv."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_json(out_dir / "grid.json", {k: v for k, v in grid.items() if k != "sweep"})
    rows = [
        (name, rec["seed"], _fmt(rec["imbalance"]), rec["diverged"])
        for name, cell in grid["cells"].items()
        for rec in cell["per_seed"]
    ]
    write_csv(out_dir / "per_seed.csv", ["cell", "seed", "imbalance", "diverged"], [*zip(*rows)])
    if "sweep" in grid:
        floats = ("beta", "mean", "ci_lo", "ci_hi")
        rows = [(*(_fmt(row[k]) for k in floats), row["divergent"]) for row in grid["sweep"]]
        write_csv(out_dir / "sweep.csv", [*floats, "divergent"], [*zip(*rows)])
