"""Byte pins, block invariance and memory bound of the numeric CSV writers.

`htdsm noise`, `write_endpoints_csv` and `write_paths_csv` format whole
columns in blocks of `experiments._CSV_ROWS` rows. The sha256 digests below
were recorded from the `csv.writer` row loops those writers replaced, so
every file must still come out byte for byte the same: CRLF line ends,
shortest round-trip `repr` floats, `nan`/`inf` tokens and no quoting.
"""

import hashlib
import tracemalloc

import numpy as np
import pytest

from htdsm import experiments
from htdsm.cli import dispatch
from htdsm.experiments import write_endpoints_csv, write_paths_csv
from htdsm.sampler import CONVERGED, DIVERGED, SamplerConfig, ald_run
from htdsm.schedule import geometric_schedule

# 65 537 and 200 003 rows span several blocks and end in a partial one.
NOISE_COUNTS = (1, 65_537, 200_003)
NOISE_BETAS = (0.5, 1.0, 2.5)

NOISE_SHA256 = {
    (0.5, 1): "f95a1789d3b30c3d87b7b4d99dffd1a89a931fbdcc99c0cdb4372ad797292a2d",
    (0.5, 65537): "20e3402b0efa698710c28344768bdfea216aa7d2c16f0b00bf4c898ca32d4ffe",
    (0.5, 200003): "97e778c5c8d3c4575f190eb27ccb08a5d80267d5f0f78df94e9c745990c2c005",
    (1.0, 1): "bf54477a993996413b78d285c8da8cbee1baf96522ca2279405ef0f54e404966",
    (1.0, 65537): "13b45bf8df23c3d00f989921f42f39cf60555e227dc47764a1c89178e14ebca9",
    (1.0, 200003): "b3a0140b736e7d9cfa497982add9883e4737d6d852c5b3c29a841730a70df00f",
    (2.5, 1): "24f20e9b9f477b7c5ba5990e4efb9af1295f735a78cd575b4b4cf31aceb381ef",
    (2.5, 65537): "8e7a0c985b57251c722bf97f4eccc471d6af585343687db72cc59d1a551537a0",
    (2.5, 200003): "b569aeccf797a2a7d743e9e63eda5db4e45499e89c00ff5c5e64eadce69ef879",
}
ENDPOINTS_SHA256 = "d56c613c3c0d1e6c1c4decd959890b2d3c396e9ed83f84789a600bed2ca3645a"
# Re-recorded when log_gamma became the C library's lgamma: the paths'
# Laplace diffusion scale unit_variance_alpha(1.0) moved from 6 ulps to 1 ulp
# of sqrt(0.5), and the paths with it.
PATHS_SHA256 = "b7bf4421ac84601b5cfc863ac86c8124026b5bcdf1d28e2362c6aa2672e8ff94"
PER_SEED_SHA256 = "5a579418bccd6ddbc70dc661f557eee7a06093877ce2ca47594c31e39bc9b16a"
SWEEP_SHA256 = "5af1d46dcf92fe4975461ac7a1f5769a7fd6a8e4688f8f346196c13834ded01c"
EMPTY_SWEEP_SHA256 = "7d05b63b5c0810404582add3a0a75f1bdcf2f3ccd4ea58853d36d7527398a2d8"


def sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def write_noise(path, beta, count) -> int:
    return dispatch(["noise", "--beta", repr(beta), "--alpha", "1.5", "--mu", "0.25",
                     "--count", str(count), "--seed", "7", "--out", str(path)])


def endpoint_fixture():
    """ald_run's record array of 300 endpoints spanning 16 decades, with nan,
    inf, -0.0 and subnormal rows."""
    rng = np.random.default_rng(2024)
    pts = rng.standard_normal((300, 3)) * 10.0 ** rng.uniform(-8.0, 8.0, (300, 3))
    pts[:4] = [[np.nan, 1.0, -2.0], [np.inf, -np.inf, 0.0],
               [-0.0, 5e-324, 1e308], [np.nan, np.nan, np.inf]]
    with np.errstate(over="ignore"):
        ok = np.isfinite(pts).all(axis=1) & (np.linalg.norm(pts, axis=1) <= 100.0)
    result = np.recarray(300, dtype=[("final", float, (3,)), ("status", "U9")])
    result.final, result.status = pts, np.where(ok, CONVERGED, DIVERGED)
    return result


def escaping_score(x, log_sigma):
    """Pulls particles within radius 5 to the origin and pushes the rest out;
    escapes to the right turn non-finite before they reach the radius."""
    r = np.linalg.norm(x, axis=1, keepdims=True)
    score = np.where(r > 5.0, 0.5 * x, -x)
    score[x[:, 0] > 50.0] = np.nan
    return score


def paths_fixture():
    cfg = SamplerConfig(schedule=geometric_schedule(1.0, 0.25, 2), steps_per_level=100,
                        step_size=0.1, beta_diff=1.0, record_paths=True, seed=21)
    return ald_run(escaping_score, cfg, 16)


def grid_fixture():
    """A grid and sweep with None imbalances and CIs, which write as ""."""
    values = [0.5, None, 1 / 3, 1e-17, None, 12345678.9]
    cells = {
        name: {"per_seed": [{"seed": s, "imbalance": values[(s + k) % 6], "diverged": 7 * s + k}
                            for s in (0, 1, 2)]}
        for k, name in enumerate(["dsm_gaussian", "dsm_laplace", "htdsm_laplace"])
    }
    sweep = [
        {"beta": 1.0, "mean": None, "ci_lo": None, "ci_hi": None, "divergent": True},
        {"beta": 2.0, "mean": 0.125, "ci_lo": -0.0, "ci_hi": 1e300, "divergent": False},
    ]
    return {"cells": cells}, sweep


def write_all(tmp_path) -> dict:
    """Every non-noise fixture written once; digests by name."""
    write_endpoints_csv(tmp_path / "endpoints.csv", endpoint_fixture())
    write_paths_csv(tmp_path / "paths.csv", paths_fixture(), (100, 100))
    grid, sweep = grid_fixture()
    experiments.write_grid_outputs(tmp_path / "grid", {**grid, "sweep": sweep})
    experiments.write_grid_outputs(tmp_path / "empty", {**grid, "sweep": []})
    return {
        "endpoints": sha256(tmp_path / "endpoints.csv"),
        "paths": sha256(tmp_path / "paths.csv"),
        "per_seed": sha256(tmp_path / "grid" / "per_seed.csv"),
        "sweep": sha256(tmp_path / "grid" / "sweep.csv"),
        "empty_sweep": sha256(tmp_path / "empty" / "sweep.csv"),
    }


PINNED = {
    "endpoints": ENDPOINTS_SHA256,
    "paths": PATHS_SHA256,
    "per_seed": PER_SEED_SHA256,
    "sweep": SWEEP_SHA256,
    "empty_sweep": EMPTY_SWEEP_SHA256,
}


# The ids name the gamma root's branch that draws these betas (rng.gamma to a power).
@pytest.mark.parametrize("beta", NOISE_BETAS, ids=lambda beta: f"{beta}-gamma_power")
@pytest.mark.parametrize("count", NOISE_COUNTS)
def test_noise_csv_matches_recorded_bytes(tmp_path, capsys, beta, count):
    out = tmp_path / "noise.csv"
    assert write_noise(out, beta, count) == 0
    capsys.readouterr()
    assert sha256(out) == NOISE_SHA256[(beta, count)]


def test_endpoint_path_and_grid_csvs_match_recorded_bytes(tmp_path):
    paths = paths_fixture()
    assert {p.status for p in paths} == {CONVERGED, DIVERGED}
    assert any(np.isnan(p.positions).any() for p in paths)
    assert write_all(tmp_path) == PINNED
    text = (tmp_path / "endpoints.csv").read_bytes()
    assert text.startswith(b"particle_id,status,x0,x1,x2\r\n0,diverged,nan,1.0,-2.0\r\n"
                           b"1,diverged,inf,-inf,0.0\r\n2,diverged,-0.0,5e-324,1e+308\r\n")


def test_path_levels_follow_the_steps_per_level(tmp_path):
    cfg = SamplerConfig(schedule=geometric_schedule(1.0, 0.25, 2), steps_per_level=(3, 5),
                        record_paths=True)
    write_paths_csv(tmp_path / "paths.csv", ald_run(lambda x, ls: -x, cfg, 2), (3, 5))
    rows = (tmp_path / "paths.csv").read_text().splitlines()[1:]
    levels = [0] * 4 + [1] * 5
    assert [row.split(",")[:3] for row in rows] == [
        [str(pid), str(level), str(step)] for pid in (0, 1) for step, level in enumerate(levels)
    ]


def test_paths_of_another_length_are_rejected(tmp_path):
    # Unchecked, write_csv would zip the 201-row paths with 101-row columns.
    out = tmp_path / "paths.csv"
    with pytest.raises(ValueError, match="101 rows"):
        write_paths_csv(out, paths_fixture(), (50, 50))
    assert not out.exists()


def test_a_run_without_recorded_paths_is_rejected(tmp_path):
    cfg = SamplerConfig(schedule=geometric_schedule(1.0, 0.25, 2), steps_per_level=3)
    out = tmp_path / "paths.csv"
    with pytest.raises(ValueError, match="paths were not recorded"):
        write_paths_csv(out, ald_run(lambda x, ls: -x, cfg, 2), (3, 3))
    assert not out.exists()


@pytest.mark.parametrize("rows", [1, 7])
def test_output_does_not_depend_on_the_block_size(tmp_path, capsys, monkeypatch, rows):
    monkeypatch.setattr(experiments, "_CSV_ROWS", rows)
    assert write_all(tmp_path) == PINNED
    out = tmp_path / "noise.csv"
    assert write_noise(out, 1.0, 65_537) == 0
    capsys.readouterr()
    assert sha256(out) == NOISE_SHA256[(1.0, 65_537)]


def test_noise_write_memory_is_bounded_by_the_block(tmp_path, capsys):
    # gn_sample's temporaries for 1M draws peak at about 31 MiB, and a block
    # of formatted rows takes about 0.1 MiB. Formatting all 1M rows at once
    # would hold about 100 MiB of Python floats and strings on top.
    tracemalloc.start()
    try:
        assert write_noise(tmp_path / "noise.csv", 1.0, 1_000_000) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    capsys.readouterr()
    assert peak < 48 * 2**20
