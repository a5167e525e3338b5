"""The benchmark in perfbench/ still fits the package: every function and
method it traces resolves, no code run on a PRDC thread calls one of them,
its ald_run counter reads a real sampler result, it sees training's and
ALD's noise draws, its forward counters see every score of a network ALD
run, and its tiny noise_schedule workload runs with no failed operation.
perfbench/run.py and perfbench/workloads.py are loaded by path; nothing here
runs the benchmark's entry point, so its digest registry under
perfbench/_work is neither read nor written."""

import ast
import importlib.util
import sys
from collections import defaultdict
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from htdsm import experiments, metrics, sampler, scorenet
from htdsm.schedule import geometric_schedule

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # Registered before it runs, as an import would be: dataclasses look
    # their module up by name.
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def test_trace_targets_resolve():
    functions, methods = load("run").trace_targets()
    assert functions and methods
    for module, attr, span, _count in functions:
        assert callable(getattr(module, attr, None)), span
    for cls, name, span, _count in methods:
        assert callable(getattr(cls, name, None)), span


def test_draw_workers_call_no_traced_function():
    # The tracer keeps one span stack per process, so no task run on
    # _map_on_cores's threads (PRDC's passes) may call a traced name, nor may
    # any private package function they call by name.
    functions, methods = load("run").trace_targets()
    traced = {entry[1] for entry in functions + methods}
    trees = {path.stem: ast.parse(path.read_text())
             for path in Path(scorenet.__file__).parent.glob("*.py")}
    private = defaultdict(list)
    for tree in trees.values():
        for node in tree.body:
            if isinstance(node, ast.FunctionDef) and node.name.startswith("_"):
                private[node.name].append(node)

    def defined(module, function, name):
        (outer,) = [n for n in trees[module].body if getattr(n, "name", None) == function]
        (node,) = [n for n in ast.walk(outer) if getattr(n, "name", None) == name]
        return node

    def call_name(call):
        return getattr(call.func, "id", getattr(call.func, "attr", None))

    # The tasks handed to _map_on_cores, found where it is called.
    tasks = [(module, outer.name, call.args[0].id)
             for module, tree in trees.items() for outer in tree.body
             if isinstance(outer, ast.FunctionDef)
             for call in ast.walk(outer)
             if isinstance(call, ast.Call) and call_name(call) == "_map_on_cores"]
    assert sorted(name for *_, name in tasks) == ["_cross_counts", "_knn_radii", "_knn_radii"]
    todo = [node for module, outer, name in tasks
            for node in private[name] or [defined(module, outer, name)]]
    seen = set()
    while todo:
        node = todo.pop()
        for call in ast.walk(node):
            if not isinstance(call, ast.Call):
                continue
            name = call_name(call)
            assert name not in traced, f"{node.name} calls the traced {name}"
            if name in private and name not in seen:
                seen.add(name)
                todo.extend(private[name])
    assert "_distances" in seen


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


def test_ald_noise_draws_are_traced_under_ald_run(monkeypatch):
    run, spans = load("run"), load("spans")
    functions, _ = run.trace_targets()
    traced = [f for f in functions if f[2] in ("sampler.ald_run", "distributions.gn_sample")]
    cfg = sampler.SamplerConfig(schedule=geometric_schedule(1.0, 0.25, 2), steps_per_level=150,
                                step_size=0.1, beta_diff=1.0, seed=8)
    count, steps, dim = 10, 300, 2
    # Blocks of 3, 3 and 4 particles.
    monkeypatch.setattr(sampler, "_BLOCK_BUDGET", 4 * steps * dim)
    tracer = spans.Tracer()
    with spans.patched(tracer, traced, []):
        sampler.ald_run(lambda x, ls: -x, cfg, count)
    assert tracer.stats["sampler.ald_run"].calls == 1
    assert tracer.edges[("sampler.ald_run", "distributions.gn_sample")].calls == count
    assert tracer.counters["gn_sample_values"] == count * steps * dim


def test_training_noise_draws_are_traced_under_train():
    run, spans = load("run"), load("spans")
    functions, _ = run.trace_targets()
    traced = [f for f in functions if f[2] in ("scorenet.train", "distributions.gn_sample")]
    data = scorenet.MixtureSpec.two_mode(1.0).sample(np.random.default_rng(19), 500)
    # Chunks of 64, 64 and 2 steps.
    cfg = scorenet.TrainConfig(schedule=geometric_schedule(1.0, 0.25, 2), steps=130,
                               batch_size=16)
    tracer = spans.Tracer()
    with spans.patched(tracer, traced, []):
        scorenet.train(data, cfg, np.random.default_rng(20))
    assert tracer.edges[("scorenet.train", "distributions.gn_sample")].calls == 3
    assert tracer.counters["gn_sample_values"] == 130 * 16 * 2


def test_ald_run_starts_no_thread_pool(monkeypatch):
    started = []
    real = ThreadPoolExecutor.__init__

    def spy(self, *args, **kwargs):
        started.append(self)
        real(self, *args, **kwargs)

    monkeypatch.setattr(ThreadPoolExecutor, "__init__", spy)
    monkeypatch.setattr(metrics, "_usable_cores", lambda: 2)
    # 2100 steps x 2 values a particle: draws of at least 4,096 values.
    cfg = sampler.SamplerConfig(schedule=geometric_schedule(1.0, 0.25, 2), steps_per_level=1050,
                                step_size=0.1, seed=9)
    result = sampler.ald_run(lambda x, ls: -x, cfg, 6)
    assert len(result) == 6 and started == []


def outward_beyond_net(edge: float, push: float) -> scorenet.ScoreNetwork:
    """A [3, 8, 2] ReLU network scoring -x + push * (x - edge) per coordinate
    beyond +-edge and -x inside: particles that cross the score's zero at
    edge * push / (push - 1) are pushed out."""
    net = scorenet.ScoreNetwork([3, 8, 2])
    w1, w2 = net.weights
    b1 = net.biases[0]
    for i in range(2):
        # Hidden units 4i..4i+3: relu(x_i), relu(-x_i), relu(x_i - edge), relu(-x_i - edge).
        w1[i, 4 * i : 4 * i + 4] = (1.0, -1.0, 1.0, -1.0)
        b1[4 * i + 2 : 4 * i + 4] = -edge
        w2[4 * i : 4 * i + 4, i] = (-1.0, 1.0, push, -push)
    return net


def test_forward_counters_see_every_ald_score(monkeypatch):
    run, spans = load("run"), load("spans")
    _, methods = run.trace_targets()
    (forward,) = [m for m in methods if m[2] == "scorenet.forward"]
    cfg = sampler.SamplerConfig(schedule=geometric_schedule(1.0, 0.25, 2), steps_per_level=50,
                                step_size=0.1, seed=5)
    count, steps = 64, 100
    # Blocks of 21, 21 and 22 particles.
    monkeypatch.setattr(sampler, "_BLOCK_BUDGET", 24 * steps * 2)
    tracer = spans.Tracer()
    with spans.patched(tracer, [], [forward]):
        result = experiments._sample_network(outward_beyond_net(5.0, 10.0), cfg, count)
    assert not hasattr(scorenet.ScoreNetwork.forward, "__wrapped__")
    # Some particles diverge, and every block keeps one alive to the end,
    # so each block scores on every step.
    diverged = result.status == sampler.DIVERGED
    assert 0 < diverged.sum()
    cuts = (0, 21, 42, 64)
    assert all(not diverged[start:stop].all() for start, stop in zip(cuts, cuts[1:]))
    assert tracer.stats["scorenet.forward"].calls == 3 * steps
    rows = tracer.counters["forward_rows"]
    assert 0 < rows < count * steps


def test_tiny_noise_schedule_workload_runs(tmp_path):
    workloads = load("workloads")
    work = workloads.NoiseSchedule(seed=3, tiny=True)
    work.setup(tmp_path)
    ops = workloads.Ops()
    work.unit(ops)
    assert ops.attempted > 0
    assert (ops.failed, ops.errors) == (0, [])
    assert work.check() == []
