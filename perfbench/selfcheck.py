"""Self-tests of the benchmark harness at tiny sizes, kept out of the tier-1
suite (the file name does not match pytest's test_*.py pattern).

    python3 -m pytest -q perfbench/selfcheck.py
"""

import math
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402

sys.path.insert(0, str(run.SRC))

from htdsm import experiments, scorenet  # noqa: E402
from workloads import Ops  # noqa: E402

SEED = 3


def traced(workload: str) -> dict:
    res = run.measure(workload, SEED, 0.0, trace=True, tiny=True)
    assert res["errors"] == []
    return res


def value(res: dict, name: str) -> float:
    return res["metrics"][name][0]


def test_grid_seed_counts_match_config():
    res = traced("grid_seed")
    expected = res["work"].expected_counts()
    assert value(res, "scorenet.train_steps") == expected["train_steps"]
    assert value(res, "sampler.particle_steps") == expected["particle_steps"]
    assert 0 < value(res, "scorenet.forward_rows") <= value(res, "sampler.particle_steps")


def test_sample_eval_counts_match_config():
    res = traced("sample_eval")
    assert value(res, "sampler.particle_steps") == res["work"].expected_counts()["particle_steps"]
    assert 0 < value(res, "scorenet.forward_rows") <= value(res, "sampler.particle_steps")
    assert value(res, "scorenet.train_steps") == 0
    assert value(res, "cli.bytes_written") > 0


def test_noise_schedule_reaches_specfun():
    res = traced("noise_schedule")
    work = res["work"]
    assert value(res, "schedule.builds") == 2 * len(work.DELTAS) * len(work.betas)
    assert value(res, "specfun.inv_calls") > 0
    assert value(res, "specfun.reg_calls_per_inv") >= 1
    assert value(res, "scorenet.forward_calls") == 0


def test_layer_self_times_rebuild_traced_wall():
    res = traced("grid_seed")
    wall = sum(res["traced"]) / len(res["traced"])
    parts = sum(value(res, f"{layer}.self_s") for layer in run.LAYERS)
    assert math.isclose(parts + value(res, "trace.unattributed_s"), wall, rel_tol=1e-9)
    assert value(res, "trace.unattributed_s") >= 0.0


def test_traced_digest_equals_untraced_digest():
    plain = run.measure("grid_seed", SEED + 1, 0.0, trace=False, tiny=True)
    traced_run = run.measure("grid_seed", SEED + 1, 0.0, trace=True, tiny=True)
    assert plain["errors"] == [] and traced_run["errors"] == []
    assert plain["digest"] == traced_run["digest"]


def test_originals_restored_after_trace():
    traced("sample_eval")
    assert not hasattr(scorenet.train, "__wrapped__")
    assert not hasattr(scorenet.ScoreNetwork.forward, "__wrapped__")
    assert experiments.train is scorenet.train


def test_bad_config_dispatch_counts_as_failed(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"mixture": {}}')
    ops = Ops()
    assert ops.dispatch(["train", "--config", str(bad), "--out", str(tmp_path / "c.json")]) == 2
    assert (ops.attempted, ops.failed) == (1, 1)
    assert ops.failed / ops.attempted == 1.0
