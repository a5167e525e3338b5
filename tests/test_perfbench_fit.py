"""The benchmark in perfbench/ still fits the package: every function and
method it traces resolves, and its tiny noise_schedule workload runs with
no failed operation. perfbench/run.py and perfbench/workloads.py are loaded
by path; nothing here runs the benchmark's entry point, so its digest
registry under perfbench/_work is neither read nor written."""

import importlib.util
from pathlib import Path

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


def test_tiny_noise_schedule_workload_runs(tmp_path):
    workloads = load("workloads")
    work = workloads.NoiseSchedule(seed=3, tiny=True)
    work.setup(tmp_path)
    ops = workloads.Ops()
    work.unit(ops)
    assert ops.attempted > 0
    assert (ops.failed, ops.errors) == (0, [])
    assert work.check() == []
