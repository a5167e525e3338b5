"""htdsm benchmark: one workload per invocation, closed loop, single process.

    python3 perfbench/run.py --workload grid_seed --seed 0 --seconds 12 --trace 0

Run from a checkout root holding `src/htdsm`. Set-up is repeated (at
least 3 times and 2 s) and its median reported; timed units repeat until
--seconds of unit time have passed (at least one unit). Every unit's outputs
are digested and checked outside the timed region; the digest must match
every other unit of the run and every earlier run of the same seed and
source tree (kept in perfbench/_work/digests.json). With --trace 1 the run
first times one untraced unit, then times traced units and prints the
per-layer metrics. The last stdout line is the JSON result; the exit code is
nonzero when a check fails.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work"
# Set-up repeats at least this often and for at least this long, so the
# sub-second set-ups report a median of several samples.
SETUP_MIN_REPEATS = 3
SETUP_MIN_SECONDS = 2.0


def source_hash() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "htdsm").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def git_sha() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = ROOT / ".git" / ref[5:]
    if ref_file.is_file():
        return ref_file.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def openblas_threads() -> int | None:
    import ctypes

    import numpy

    libs = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("lib*openblas*.so*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment(seed: int, code: str) -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError):
        blas = {}
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "openblas_threads": openblas_threads(),
        "git_sha": git_sha(),
        "src_sha256": code,
        "seed": seed,
        "workers": 1,
    }


def trace_targets():
    """(functions, methods) to wrap: every public function a layer exposes
    to the others, named <layer>.<function>. gn_cdf and gg_cdf are timed at
    their own boundary because distributions vectorizes
    reg_lower_inc_gamma at import time."""
    import numpy as np

    from htdsm import cli, distributions, experiments, metrics, sampler, schedule, scorenet, specfun

    def rows(c, args, kwargs, result):
        c["forward_rows"] += np.shape(args[1])[0] if np.ndim(args[1]) == 2 else 1

    def train_steps(c, args, kwargs, result):
        c["train_steps"] += args[1].steps

    def particles(c, args, kwargs, result):
        c["particle_steps"] += args[2] * sum(args[1].steps_per_level)
        c["diverged"] += sum(p.status == sampler.DIVERGED for p in result)

    def values(c, args, kwargs, result):
        c["gn_sample_values"] += result.size

    def pairwise(c, args, kwargs, result):
        m, n = len(args[0]), len(args[1])
        c["pairwise_entries"] += m * m + n * n + m * n

    counted = [
        (specfun, "inv_reg_lower_inc_gamma", None),
        (specfun, "reg_lower_inc_gamma", None),
        (distributions, "gn_sample", values),
        (distributions, "gn_score", None),
        (distributions, "gn_cdf", None),
        (distributions, "gg_cdf", None),
        (distributions, "gg_quantile", None),
        (distributions, "empirical_norm_quantile", None),
        (schedule, "quantile_matched_schedule", None),
        (scorenet, "train", train_steps),
        (scorenet, "dsm_loss", None),
        (sampler, "ald_run", particles),
        (metrics, "prdc", pairwise),
        (metrics, "kid", pairwise),
        (metrics, "fid", None),
        (metrics, "bootstrap_ci", None),
        (metrics, "mode_imbalance", None),
        (experiments, "run_imbalance_grid", None),
        (experiments, "write_endpoints_csv", None),
        (cli, "dispatch", None),
    ]
    functions = [
        (module, attr, f"{module.__name__.rsplit('.', 1)[-1]}.{attr}", count)
        for module, attr, count in counted
    ]
    methods = [
        (scorenet.ScoreNetwork, name, f"scorenet.{name}", rows if name == "forward" else None)
        for name in ("forward", "forward_cached", "backward", "sgd_step", "params_finite")
    ]
    return functions, methods


LAYERS = ("specfun", "distributions", "schedule", "scorenet", "sampler", "metrics", "experiments", "cli")


def layer_metrics(tracer, units: int, traced: list, untraced: float, ops, bytes_written: int) -> dict:
    """Per-layer metrics, each per traced unit."""
    stats, edges, counters = tracer.stats, tracer.edges, tracer.counters

    def total(name):
        return stats[name].total / units if name in stats else 0.0

    def calls(name):
        return stats[name].calls / units if name in stats else 0.0

    def self_time(name):
        return stats[name].self_time / units if name in stats else 0.0

    def ratio(a, b):
        return a / b if b else 0.0

    steps = counters["train_steps"] / units
    particle_steps = counters["particle_steps"] / units
    forward_rows = counters["forward_rows"] / units
    inv_calls = calls("specfun.inv_reg_lower_inc_gamma")
    reg_in_inv = edges[("specfun.inv_reg_lower_inc_gamma", "specfun.reg_lower_inc_gamma")].calls / units
    by_layer = tracer.self_by_layer()
    wall_total = sum(traced)
    out = {
        "scorenet.train_s": (total("scorenet.train"), "s"),
        "scorenet.train_steps": (steps, "count"),
        "scorenet.step_us": (1e6 * ratio(total("scorenet.train"), steps), "us"),
        "scorenet.train_self_s": (self_time("scorenet.train"), "s"),
        "scorenet.dsm_loss_self_s": (self_time("scorenet.dsm_loss"), "s"),
        "scorenet.forward_cached_s": (total("scorenet.forward_cached"), "s"),
        "scorenet.backward_s": (total("scorenet.backward"), "s"),
        "scorenet.sgd_step_s": (total("scorenet.sgd_step"), "s"),
        "scorenet.params_finite_s": (total("scorenet.params_finite"), "s"),
        "scorenet.train_gn_sample_s": (
            edges[("scorenet.dsm_loss", "distributions.gn_sample")].total / units, "s"),
        "scorenet.forward_calls": (calls("scorenet.forward"), "count"),
        "scorenet.forward_rows": (forward_rows, "count"),
        "scorenet.forward_s": (total("scorenet.forward"), "s"),
        "sampler.ald_s": (total("sampler.ald_run"), "s"),
        "sampler.particle_steps": (particle_steps, "count"),
        "sampler.alive_frac": (ratio(forward_rows, particle_steps), "ratio"),
        "sampler.diverged": (counters["diverged"] / units, "count"),
        "sampler.noise_s": (edges[("sampler.ald_run", "distributions.gn_sample")].total / units, "s"),
        "distributions.gn_sample_calls": (calls("distributions.gn_sample"), "count"),
        "distributions.gn_sample_values": (counters["gn_sample_values"] / units, "count"),
        "distributions.gn_sample_s": (total("distributions.gn_sample"), "s"),
        "distributions.gn_score_s": (total("distributions.gn_score"), "s"),
        "distributions.gn_cdf_s": (total("distributions.gn_cdf"), "s"),
        "distributions.gg_cdf_s": (total("distributions.gg_cdf"), "s"),
        "distributions.empirical_quantile_s": (total("distributions.empirical_norm_quantile"), "s"),
        "specfun.inv_calls": (inv_calls, "count"),
        "specfun.inv_s": (total("specfun.inv_reg_lower_inc_gamma"), "s"),
        "specfun.reg_calls_per_inv": (ratio(reg_in_inv, inv_calls), "count"),
        "schedule.builds": (calls("schedule.quantile_matched_schedule"), "count"),
        "schedule.build_s": (total("schedule.quantile_matched_schedule"), "s"),
        "metrics.prdc_s": (total("metrics.prdc"), "s"),
        "metrics.kid_s": (total("metrics.kid"), "s"),
        "metrics.fid_s": (total("metrics.fid"), "s"),
        "metrics.bootstrap_s": (total("metrics.bootstrap_ci"), "s"),
        "metrics.pairwise_mb_computed": (8.0 * counters["pairwise_entries"] / units / 2**20, "MiB"),
        "cli.bytes_written": (bytes_written / units, "bytes"),
    }
    for layer in LAYERS:
        # sampler.self_s is ALD minus forward minus noise: ald_run is the
        # sampler's only span.
        out[f"{layer}.self_s"] = (by_layer.get(layer, 0.0) / units, "s")
    out.update({
        "trace.wall_s": (statistics.median(traced), "s"),
        "trace.units": (units, "count"),
        "trace.spans": (sum(stat.calls for stat in stats.values()) / units, "count"),
        "trace.unattributed_s": ((wall_total - tracer.top_total) / units, "s"),
        "trace.overhead_s": (statistics.median(traced) - untraced, "s"),
        "failed_frac": (ops.failed / ops.attempted, "ratio"),
    })
    return out


def trace_consistency(tracer, traced: list) -> list[str]:
    """Layer self times plus the unattributed remainder must rebuild the
    traced wall time, with no span counted twice."""
    wall = sum(traced)
    self_sum = sum(tracer.self_by_layer().values())
    errors = []
    if abs(self_sum - tracer.top_total) > 1e-6 * max(wall, 1.0):
        errors.append(f"span self times sum to {self_sum}, outermost spans cover {tracer.top_total}")
    if tracer.top_total > wall * (1.0 + 1e-9):
        errors.append(f"spans cover {tracer.top_total} s of {wall} s traced wall time")
    return errors


def percentile_note(samples: list) -> str:
    """Highest percentile with at least ten samples beyond it, if any."""
    n = len(samples)
    if n < 11:
        return f"n={n}; no percentile has 10 samples beyond it below n=11; max {max(samples)!r} s"
    ordered = sorted(samples)
    return f"n={n}; p{100.0 * (n - 10) / n:.1f} {ordered[n - 11]!r} s; max {ordered[-1]!r} s"


def check_digest(workload: str, seed: int, tiny: bool, code: str, digest: str) -> list[str]:
    """Same seed and source tree must give the same digest in every run."""
    registry = WORK / "digests.json"
    known = json.loads(registry.read_text()) if registry.is_file() else {}
    key = f"{code}:{workload}:{seed}:{'tiny' if tiny else 'full'}"
    if key in known:
        if known[key] != digest:
            return [f"output digest {digest} differs from an earlier run's {known[key]}"]
        return []
    known[key] = digest
    tmp = registry.with_suffix(f".{os.getpid()}.tmp")
    tmp.write_text(json.dumps(known, indent=1, sort_keys=True))
    os.replace(tmp, registry)
    return []


def run_units(work, ops, seconds: float, digests: list) -> list:
    samples = []
    while not samples or sum(samples) < seconds:
        t0 = time.perf_counter()
        work.unit(ops)
        samples.append(time.perf_counter() - t0)
        digests.append(work.digest())
    return samples


def measure(workload: str, seed: int, seconds: float, trace: bool, tiny: bool = False) -> dict:
    """One benchmark run; returns the result dict plus report fields."""
    import spans
    from workloads import WORKLOADS, Ops

    code = source_hash()
    workdir = WORK / f"{workload}-{seed}-{int(trace)}-{os.getpid()}"
    try:
        setup_times = []
        while len(setup_times) < SETUP_MIN_REPEATS or sum(setup_times) < SETUP_MIN_SECONDS:
            shutil.rmtree(workdir, ignore_errors=True)
            work = WORKLOADS[workload](seed, tiny=tiny)
            t0 = time.perf_counter()
            work.setup(workdir)
            setup_times.append(time.perf_counter() - t0)

        ops = Ops()
        digests: list[str] = []
        errors: list[str] = []
        # End-to-end times always come from untraced units; a traced run
        # times one untraced unit first, for the overhead and digest match.
        samples = run_units(work, ops, 0.0 if trace else seconds, digests)
        if trace:
            tracer = spans.Tracer()
            functions, methods = trace_targets()
            before = ops.bytes_written
            with spans.patched(tracer, functions, methods):
                traced = run_units(work, ops, seconds, digests)
            errors += trace_consistency(tracer, traced)
            layers = layer_metrics(tracer, len(traced), traced, samples[0], ops,
                                   ops.bytes_written - before)
        errors += [f"operation failed: {e}" for e in ops.errors]
        errors += work.check()
        if len(set(digests)) != 1:
            errors.append(f"output digests differ between units of one run: {sorted(set(digests))}")
        errors += check_digest(workload, seed, tiny, code, digests[0])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    end_to_end = {
        "setup_s": (statistics.median(setup_times), "s"),
        "wall_s": (statistics.median(samples), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    return {
        "env": environment(seed, code),
        "setup_times": setup_times,
        "samples": samples,
        "traced": traced if trace else None,
        "digest": digests[0],
        "errors": errors,
        "ops": ops,
        "work": work,
        "metrics": layers if trace else end_to_end,
        "end_to_end": end_to_end,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=["grid_seed", "sample_eval", "noise_schedule"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not (SRC / "htdsm" / "__init__.py").is_file():
        print(f"error: no htdsm package under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    WORK.mkdir(exist_ok=True)
    try:
        res = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except Exception:  # set-up or harness failure: no result to report
        traceback.print_exc()
        return 1

    ops = res["ops"]
    print("env " + json.dumps(res["env"], sort_keys=True))
    print(f"workload {args.workload} seed {args.seed} trace {args.trace} "
          f"(closed loop, 1 caller, single process)")
    for name, (value, unit) in res["end_to_end"].items():
        print(f"{name} {value!r} {unit}")
    print(f"setup runs {res['setup_times']!r}")
    print(f"wall_s samples {res['samples']!r} ({percentile_note(res['samples'])})")
    print(f"failed_frac {ops.failed / ops.attempted!r} ratio ({ops.failed}/{ops.attempted} operations)")
    print(f"digest {res['digest']}")
    if args.trace:
        for name, (value, unit) in res["metrics"].items():
            print(f"  {name} {value!r} {unit}")
    for err in res["errors"]:
        print(f"CHECK FAILED: {err}")
    correct = not res["errors"]
    print(json.dumps({
        "correct": correct,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in res["metrics"].items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
