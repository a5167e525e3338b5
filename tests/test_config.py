import dataclasses
import json
import types
import typing

import numpy as np
import pytest

from htdsm._config import check_int
from htdsm.distributions import GeneralizedGamma, GeneralizedNormal, NormModel
from htdsm.experiments import ExperimentConfig, RunRecord
from htdsm.metrics import MetricReport
from htdsm.sampler import SamplerConfig
from htdsm.schedule import NoiseSchedule, geometric_schedule
from htdsm.scorenet import MixtureSpec, TrainConfig


def configs():
    """One instance of every config class, with non-default values."""
    sched = NoiseSchedule(sigmas=(2.0, 0.5, 0.1), beta=1.5, n=3, delta=0.9, kind="quantile_matched")
    mixture = MixtureSpec(means=((1.0, 2.0), (-1.0, 0.5)), stds=(0.3, 0.7), weights=(0.25, 0.75))
    train = TrainConfig(schedule=sched, beta_noise=1.0, alpha_unit=1.25, batch_size=32, steps=77,
                        learning_rate=0.5, loss_weight_exponent=1.0, hidden=(8, 4), seed=9)
    sampler = SamplerConfig(schedule=geometric_schedule(1.0, 0.25, 2), steps_per_level=(5, 7),
                            step_size=0.05, beta_diff=1.0, init_half_width=3.0,
                            divergence_radius=50.0, record_paths=True, seed=3)
    experiment = ExperimentConfig(mixture=mixture, train=train, sampler=sampler, particles=12,
                                  seeds=(4, 5), metric_names=("prdc",), data_count=500,
                                  master_seed=7, bootstrap_resamples=100, bootstrap_level=0.9)
    report = MetricReport(precision=0.5, recall=0.25, density=1.5, coverage=0.75, kid=0.001,
                          fid=2.5)
    record = RunRecord(seed=3, imbalance=1.5, diverged=2, loss_first_decile=0.9,
                       loss_last_decile=0.4, metrics=report, wall_time=1.25, mode_capture=None)
    return [sched, mixture, train, sampler, experiment, report, record]


IDS = [type(c).__name__ for c in configs()]


# json.dumps(cfg.to_dict()) for each of configs(), recorded before the
# codec was shared. Checkpoint and schedule files carry these bytes, so
# the key order is pinned as well as the values.
WIRE = {
    "NoiseSchedule": (
        '{"kind": "quantile_matched", "beta": 1.5, "n": 3, "delta": 0.9, '
        '"sigmas": [2.0, 0.5, 0.1]}'
    ),
    "MixtureSpec": (
        '{"means": [[1.0, 2.0], [-1.0, 0.5]], "stds": [0.3, 0.7], "weights": [0.25, '
        '0.75]}'
    ),
    "TrainConfig": (
        '{"schedule": {"kind": "quantile_matched", "beta": 1.5, "n": 3, "delta": 0.9, '
        '"sigmas": [2.0, 0.5, 0.1]}, "beta_noise": 1.0, "alpha_unit": 1.25, '
        '"batch_size": 32, "steps": 77, "learning_rate": 0.5, '
        '"loss_weight_exponent": 1.0, "hidden": [8, 4], "seed": 9}'
    ),
    "SamplerConfig": (
        '{"schedule": {"kind": "geometric", "beta": 2.0, "n": 2, "delta": null, '
        '"sigmas": [1.0, 0.25]}, "steps_per_level": [5, 7], "step_size": 0.05, '
        '"beta_diff": 1.0, "init_half_width": 3.0, "divergence_radius": 50.0, '
        '"record_paths": true, "seed": 3}'
    ),
    "ExperimentConfig": (
        '{"mixture": {"means": [[1.0, 2.0], [-1.0, 0.5]], "stds": [0.3, 0.7], '
        '"weights": [0.25, 0.75]}, "train": {"schedule": {"kind": "quantile_matched", '
        '"beta": 1.5, "n": 3, "delta": 0.9, "sigmas": [2.0, 0.5, 0.1]}, '
        '"beta_noise": 1.0, "alpha_unit": 1.25, "batch_size": 32, "steps": 77, '
        '"learning_rate": 0.5, "loss_weight_exponent": 1.0, "hidden": [8, 4], '
        '"seed": 9}, "sampler": {"schedule": {"kind": "geometric", "beta": 2.0, '
        '"n": 2, "delta": null, "sigmas": [1.0, 0.25]}, "steps_per_level": [5, 7], '
        '"step_size": 0.05, "beta_diff": 1.0, "init_half_width": 3.0, '
        '"divergence_radius": 50.0, "record_paths": true, "seed": 3}, "particles": 12, '
        '"seeds": [4, 5], "metric_names": ["prdc"], "data_count": 500, '
        '"master_seed": 7, "bootstrap_resamples": 100, "bootstrap_level": 0.9}'
    ),
    "MetricReport": (
        '{"precision": 0.5, "recall": 0.25, "density": 1.5, "coverage": 0.75, "kid": 0.001, '
        '"fid": 2.5, "feature_map": "identity"}'
    ),
    "RunRecord": (
        '{"seed": 3, "imbalance": 1.5, "diverged": 2, "loss_first_decile": 0.9, '
        '"loss_last_decile": 0.4, "metrics": {"precision": 0.5, "recall": 0.25, '
        '"density": 1.5, "coverage": 0.75, "kid": 0.001, "fid": 2.5, '
        '"feature_map": "identity"}, "wall_time": 1.25, "mode_capture": null}'
    ),
}


@pytest.mark.parametrize("cfg", configs(), ids=IDS)
def test_roundtrip_through_json(cfg):
    emitted = json.loads(json.dumps(cfg.to_dict()))
    assert emitted == cfg.to_dict()  # plain JSON data: lists, not tuples
    assert set(emitted) == {f.name for f in dataclasses.fields(cfg)}
    assert type(cfg).from_dict(emitted) == cfg


@pytest.mark.parametrize("cfg", configs(), ids=IDS)
def test_wire_format_is_byte_stable(cfg):
    assert json.dumps(cfg.to_dict()) == WIRE[type(cfg).__name__]


@pytest.mark.parametrize("cfg", configs(), ids=IDS)
def test_unknown_key_is_rejected_by_name(cfg):
    raw = cfg.to_dict()
    raw["no_such_key"] = 1
    with pytest.raises(ValueError, match=f"unknown {type(cfg).__name__} key.*'no_such_key'"):
        type(cfg).from_dict(raw)


@pytest.mark.parametrize("cfg", configs(), ids=IDS)
def test_non_object_is_rejected(cfg):
    with pytest.raises(TypeError, match="must be an object"):
        type(cfg).from_dict([["steps", 3]])


def test_misspelled_step_size_no_longer_falls_back_to_default():
    raw = configs()[3].to_dict()
    raw["stepsize"] = raw.pop("step_size")
    with pytest.raises(ValueError, match="'stepsize'"):
        SamplerConfig.from_dict(raw)


def test_nested_unknown_key_is_rejected():
    raw = configs()[4].to_dict()
    raw["train"]["schedule"]["sigma"] = [1.0]
    with pytest.raises(ValueError, match="unknown NoiseSchedule key.*'sigma'"):
        ExperimentConfig.from_dict(raw)


def test_omitted_keys_keep_their_defaults():
    sched = geometric_schedule(1.0, 0.25, 2)
    assert SamplerConfig.from_dict({"schedule": sched.to_dict()}) == SamplerConfig(schedule=sched)
    assert ExperimentConfig.from_dict({}) == ExperimentConfig()
    no_delta = {"kind": "geometric", "beta": 2.0, "n": 2, "sigmas": [1.0, 0.25]}
    assert NoiseSchedule.from_dict(no_delta) == sched


# Every field of configs() and of the distribution dataclasses whose type
# does not admit None, read from the dataclass, so a field added later is
# covered as well.
REQUIRED = [
    (obj, f.name)
    for obj in [*configs(), GeneralizedNormal(0.5, 1.5, 1.0), GeneralizedGamma(2.0, 0.5, 1.5),
                NormModel(3, 1.5, 1.0)]
    for f in dataclasses.fields(obj)
    if types.NoneType not in typing.get_args(typing.get_type_hints(type(obj))[f.name])
]


@pytest.mark.parametrize("obj, name", REQUIRED,
                         ids=[f"{type(obj).__name__}.{name}" for obj, name in REQUIRED])
def test_every_field_refuses_none_by_name(obj, name):
    with pytest.raises(ValueError, match=f"^{name} must be "):
        dataclasses.replace(obj, **{name: None})


@pytest.mark.parametrize("value, want", [(7, 7), (np.int64(7), 7), (np.uint8(7), 7)])
def test_check_int_accepts_integers(value, want):
    got = check_int("steps", value, 1)
    assert got == want and type(got) is int


@pytest.mark.parametrize("value", [7.0, np.float64(7.0), True, np.True_, "7", None])
def test_check_int_rejects_non_integers_by_name(value):
    with pytest.raises(ValueError, match=r"^steps must be an integer, got "):
        check_int("steps", value, 1)
