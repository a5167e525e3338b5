"""The benchmark in perfbench/ still fits the package: every function and
method it traces resolves, its ald_run counter reads a real sampler result,
and its tiny noise_schedule workload runs with no failed operation.
perfbench/run.py and perfbench/workloads.py are loaded by path; nothing here
runs the benchmark's entry point, so its digest registry under
perfbench/_work is neither read nor written."""

import importlib.util
from collections import defaultdict
from pathlib import Path

import numpy as np

from htdsm import sampler
from htdsm.schedule import geometric_schedule

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_trace_targets_resolve():
    functions, methods = load("run").trace_targets()
    assert functions and methods
    for module, attr, span, _count in functions:
        assert callable(getattr(module, attr, None)), span
    for cls, name, span, _count in methods:
        assert callable(getattr(cls, name, None)), span


def test_ald_run_counter_reads_the_result():
    functions, _ = load("run").trace_targets()
    (count,) = [count for _module, _attr, span, count in functions if span == "sampler.ald_run"]

    def score(x, log_sigma):
        # Pulls particles within radius 5 to the origin and pushes the rest out.
        return np.where(np.linalg.norm(x, axis=1, keepdims=True) > 5.0, 0.5 * x, -x)

    cfg = sampler.SamplerConfig(schedule=geometric_schedule(1.0, 0.25, 2), steps_per_level=100,
                                step_size=0.1, seed=21)
    args = (score, cfg, 64)
    result = sampler.ald_run(*args)
    diverged = (result.status == sampler.DIVERGED).sum()
    assert 0 < diverged < 64
    counters = defaultdict(float)
    count(counters, args, {}, result)
    assert counters == {"particle_steps": 64 * 200, "diverged": diverged}


def test_tiny_noise_schedule_workload_runs(tmp_path):
    workloads = load("workloads")
    work = workloads.NoiseSchedule(seed=3, tiny=True)
    work.setup(tmp_path)
    ops = workloads.Ops()
    work.unit(ops)
    assert ops.attempted > 0
    assert (ops.failed, ops.errors) == (0, [])
    assert work.check() == []
