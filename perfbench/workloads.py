"""The three benchmark workloads.

Each workload turns the benchmark seed into inputs during set-up, runs one
closed-loop unit of work per `unit` call (one caller, each operation waits
for the previous one), digests the unit's outputs and checks them. Digests
and checks run outside the timed region. `tiny=True` shrinks every size so
the self-tests finish in seconds; the full sizes are the benchmark.
"""

from __future__ import annotations

import csv
import dataclasses
import hashlib
import io
import json
import math
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np

from htdsm import cli, distributions, experiments, specfun
from htdsm.experiments import ExperimentConfig
from htdsm.sampler import CONVERGED, DIVERGED

# A KS distance above 3/sqrt(n) has probability below 1e-7 for a correct
# CDF, so the check does not fail by chance over many runs.
KS_FACTOR = 3.0
INVERSE_TOL = 1e-9


class Ops:
    """Counts attempted and failed operations of the timed region.

    A raised exception or a nonzero `dispatch` exit code is a failure; the
    unit carries on so the run reports failed_frac instead of aborting.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.bytes_written = 0

    def call(self, label: str, fn, *args, **kwargs):
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except Exception as exc:  # counted as a failed operation, reported by the run
            self.failed += 1
            self.errors.append(f"{label}: {exc!r}")
            return None

    def dispatch(self, argv: list[str], out: Path | None = None) -> int | None:
        """`htdsm <argv>` in-process with its console output captured."""
        self.attempted += 1
        stdout, stderr = io.StringIO(), io.StringIO()
        try:
            with redirect_stdout(stdout), redirect_stderr(stderr):
                code = cli.dispatch(argv)
        except Exception as exc:  # counted as a failed operation, reported by the run
            code = None
            stderr.write(repr(exc))
        if code != 0:
            self.failed += 1
            self.errors.append(f"htdsm {' '.join(argv)} -> {code}: {stderr.getvalue().strip()}")
        elif out is not None:
            self.bytes_written += out.stat().st_size
        return code


def _sha(*chunks: bytes) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(len(chunk).to_bytes(8, "little"))
        h.update(chunk)
    return h.hexdigest()


def _strip(obj, key: str):
    if isinstance(obj, dict):
        return {k: _strip(v, key) for k, v in obj.items() if k != key}
    if isinstance(obj, list):
        return [_strip(v, key) for v in obj]
    return obj


def _write_points(path: Path, points: np.ndarray) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"x{i}" for i in range(points.shape[1])])
        writer.writerows([repr(float(v)) for v in row] for row in points)


def _read_column(path: Path, name: str) -> list[str]:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        col = next(reader).index(name)
        return [row[col] for row in reader]


def _derived_seed(seed: int, *key: int) -> int:
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(key))
    return int(ss.generate_state(1)[0])


def grid_config(seed: int, tiny: bool) -> ExperimentConfig:
    """The default grid for one seed (or a shrunken copy for self-tests)."""
    cfg = ExperimentConfig(seeds=(seed,))
    if not tiny:
        return cfg
    return dataclasses.replace(
        cfg,
        train=dataclasses.replace(cfg.train, steps=300),
        sampler=dataclasses.replace(cfg.sampler, steps_per_level=40),
        particles=24,
        data_count=600,
        bootstrap_resamples=200,
    )


def _warmup_config(seed: int) -> ExperimentConfig:
    cfg = ExperimentConfig(seeds=(seed,))
    return dataclasses.replace(
        cfg,
        train=dataclasses.replace(cfg.train, steps=500),
        sampler=dataclasses.replace(cfg.sampler, steps_per_level=100),
        particles=100,
        data_count=2000,
        bootstrap_resamples=1000,
    )


class GridSeed:
    """run_imbalance_grid for one seed, default config, workers=1."""

    name = "grid_seed"

    def __init__(self, seed: int, tiny: bool = False) -> None:
        self.seed = seed
        self.tiny = tiny

    def setup(self, workdir: Path) -> None:
        self.cfg = grid_config(self.seed, self.tiny)
        self.out = workdir / "grid"
        self.out.mkdir(parents=True, exist_ok=True)
        # Warm every layer the unit touches (allocator, BLAS threads) at a
        # fraction of the unit's size.
        if not self.tiny:
            experiments.run_imbalance_grid(_warmup_config(self.seed), workers=1)

    def expected_counts(self) -> dict:
        cfg = self.cfg
        return {
            "train_steps": 2 * cfg.train.steps,
            "particle_steps": 4 * cfg.particles * sum(cfg.sampler.steps_per_level),
        }

    def unit(self, ops: Ops) -> None:
        self.grid = ops.call(
            "run_imbalance_grid", experiments.run_imbalance_grid, self.cfg, workers=1
        )

    def digest(self) -> str:
        if self.grid is None:
            return "missing"
        experiments.write_grid_outputs(self.out, self.grid)
        grid = json.loads((self.out / "grid.json").read_text())
        canonical = json.dumps(_strip(grid, "wall_time"), sort_keys=True).encode()
        return _sha(canonical, (self.out / "per_seed.csv").read_bytes())

    def check(self) -> list[str]:
        if self.grid is None:
            return ["grid was not produced"]
        errors = []
        cells = self.grid["cells"]
        if len(cells) != 4:
            errors.append(f"expected 4 grid cells, got {len(cells)}")
        for name, cell in cells.items():
            for rec in cell["per_seed"]:
                imb = rec["imbalance"]
                if imb is None or not 0.0 <= imb <= 100.0:
                    errors.append(f"{name} seed {rec['seed']}: imbalance {imb} outside [0, 100]")
                if not 0 <= rec["diverged"] <= self.cfg.particles:
                    errors.append(f"{name}: diverged count {rec['diverged']} out of range")
        return errors


class SampleEval:
    """`htdsm sample` then `htdsm metrics`, Laplace and Gaussian diffusion,
    from a DSM (beta = 2) checkpoint trained during set-up."""

    name = "sample_eval"
    DIFFUSIONS = (("laplace", 1.0), ("gaussian", 2.0))

    def __init__(self, seed: int, tiny: bool = False) -> None:
        self.seed = seed
        self.tiny = tiny
        self.count = 30 if tiny else 4000
        self.real_count = 200 if tiny else 4000

    def setup(self, workdir: Path) -> None:
        cfg = grid_config(self.seed, self.tiny)
        train_cfg = dataclasses.replace(
            cfg.train,
            beta_noise=2.0,
            alpha_unit=experiments.standard_member_alpha(2.0),
            seed=self.seed,
        )
        self.dir = workdir
        self.dir.mkdir(parents=True, exist_ok=True)
        train_json = self.dir / "train.json"
        train_json.write_text(json.dumps({
            "train": train_cfg.to_dict(),
            "mixture": cfg.mixture.to_dict(),
            "data_count": cfg.data_count,
            "data_seed": self.seed,
        }))
        self.ckpt = self.dir / "ckpt.json"
        setup_ops = Ops()
        setup_ops.dispatch(["train", "--config", str(train_json), "--out", str(self.ckpt)])
        if setup_ops.failed:
            raise RuntimeError("set-up failed: " + "; ".join(setup_ops.errors))
        self.real = self.dir / "real.csv"
        rng = np.random.default_rng(_derived_seed(self.seed, 1))
        _write_points(self.real, cfg.mixture.sample(rng, self.real_count))
        for name, beta in self.DIFFUSIONS:
            sampler = dataclasses.replace(cfg.sampler, beta_diff=beta, seed=_derived_seed(self.seed, 2))
            (self.dir / f"sampler_{name}.json").write_text(json.dumps(sampler.to_dict()))
        self.steps_total = sum(cfg.sampler.steps_per_level)

    def expected_counts(self) -> dict:
        return {"particle_steps": len(self.DIFFUSIONS) * self.count * self.steps_total}

    def _paths(self, name: str) -> tuple[Path, Path]:
        return self.dir / f"endpoints_{name}.csv", self.dir / f"report_{name}.json"

    def unit(self, ops: Ops) -> None:
        for name, _beta in self.DIFFUSIONS:
            endpoints, report = self._paths(name)
            ops.dispatch([
                "sample", "--ckpt", str(self.ckpt), "--config", str(self.dir / f"sampler_{name}.json"),
                "--count", str(self.count), "--out", str(endpoints),
            ], endpoints)
            ops.dispatch([
                "metrics", "--real", str(self.real), "--fake", str(endpoints),
                "--k", "5", "--out", str(report),
            ], report)

    def digest(self) -> str:
        chunks = [self.ckpt.read_bytes()]
        for name, _beta in self.DIFFUSIONS:
            for path in self._paths(name):
                chunks.append(path.read_bytes() if path.exists() else b"missing")
        return _sha(*chunks)

    def check(self) -> list[str]:
        errors = []
        for name, _beta in self.DIFFUSIONS:
            endpoints, report_path = self._paths(name)
            if not (endpoints.exists() and report_path.exists()):
                errors.append(f"{name}: outputs missing")
                continue
            statuses = _read_column(endpoints, "status")
            if len(statuses) != self.count or not set(statuses) <= {CONVERGED, DIVERGED}:
                errors.append(f"{name}: endpoint CSV has {len(statuses)} rows or bad statuses")
            report = json.loads(report_path.read_text())
            for key in ("precision", "recall", "coverage"):
                if not 0.0 <= report[key] <= 1.0:
                    errors.append(f"{name}: {key} {report[key]} outside [0, 1]")
            # Density counts ball memberships per k, so it may exceed 1.
            if not (math.isfinite(report["density"]) and report["density"] >= 0.0):
                errors.append(f"{name}: density {report['density']} not a finite value >= 0")
            if not (math.isfinite(report["fid"]) and report["fid"] >= 0.0):
                errors.append(f"{name}: fid {report['fid']} not a finite value >= 0")
            if not math.isfinite(report["kid"]):
                errors.append(f"{name}: kid {report['kid']} not finite")
        return errors


class NoiseSchedule:
    """`htdsm schedule` (model and empirical) and `htdsm noise` over a beta
    grid, then gn_cdf, gg_cdf and gg_quantile on the draws."""

    name = "noise_schedule"
    BETAS = tuple(round(0.5 + 0.2 * i, 1) for i in range(11))
    DELTAS = (0.5, 0.9, 0.99)
    SIGMAS = ("0.01", "10.0")

    def __init__(self, seed: int, tiny: bool = False) -> None:
        self.seed = seed
        self.tiny = tiny
        self.betas = (0.5, 1.3, 2.5) if tiny else self.BETAS
        self.count = 10_000 if tiny else 100_000
        self.mc_count = 10_000 if tiny else 100_000

    def quantile_levels(self) -> list[float]:
        return sorted(q for d in self.DELTAS for q in ((1.0 - d) / 2.0, (1.0 + d) / 2.0))

    def _plan(self, beta: float, seed: int, count: int, mc_count: int, tag: str) -> list:
        """(argv, output path) of every `htdsm` call for one beta."""
        runs = []
        for delta in self.DELTAS:
            base = ["schedule", "--beta", repr(beta), "--dim", "2", "--delta", repr(delta),
                    "--sigma-min", self.SIGMAS[0], "--sigma-max", self.SIGMAS[1]]
            model = self.dir / f"{tag}sched_{beta}_{delta}.json"
            runs.append((base + ["--out", str(model)], model))
            emp = self.dir / f"{tag}sched_{beta}_{delta}_emp.json"
            runs.append((base + ["--empirical", "--mc-count", str(mc_count), "--seed", str(seed),
                                 "--out", str(emp)], emp))
        noise = self.dir / f"{tag}noise_{beta}.csv"
        runs.append((["noise", "--beta", repr(beta), "--alpha", "1.0", "--count", str(count),
                      "--seed", str(seed), "--out", str(noise)], noise))
        return runs

    def _evaluate(self, ops: Ops, beta: float, seed: int, runs: list, count: int) -> tuple:
        for argv, out in runs:
            ops.dispatch(argv, out)
        dist = distributions.GeneralizedNormal(0.0, 1.0, beta)
        draws = distributions.gn_sample(dist, np.random.default_rng(seed), count)
        gg = distributions.NormModel(2, 1.0, beta).gg
        sq_norms = (draws.reshape(-1, 2) ** 2).sum(axis=1)
        levels = self.quantile_levels()
        return (
            draws,
            ops.call("gn_cdf", distributions.gn_cdf, dist, draws),
            ops.call("gg_cdf", distributions.gg_cdf, gg, sq_norms),
            ops.call("gg_quantile", lambda: [distributions.gg_quantile(gg, q) for q in levels]),
        )

    def setup(self, workdir: Path) -> None:
        self.dir = workdir
        self.dir.mkdir(parents=True, exist_ok=True)
        self.noise_seed = {b: _derived_seed(self.seed, i) for i, b in enumerate(self.betas)}
        self.plan = {
            b: self._plan(b, self.noise_seed[b], self.count, self.mc_count, "") for b in self.betas
        }
        # Warm every code path of the unit on one beta at a tenth of its size.
        warm_seed = _derived_seed(self.seed, len(self.betas))
        warm_plan = self._plan(1.0, warm_seed, 10_000, 10_000, "warm_")
        self._evaluate(Ops(), 1.0, warm_seed, warm_plan, 10_000)

    def unit(self, ops: Ops) -> None:
        self.results = {
            b: self._evaluate(ops, b, self.noise_seed[b], self.plan[b], self.count) for b in self.betas
        }

    def digest(self) -> str:
        chunks = []
        for beta in self.betas:
            for _argv, out in self.plan[beta]:
                chunks.append(out.read_bytes() if out.exists() else b"missing")
            _draws, cdf, gg_cdf, gg_q = self.results[beta]
            for arr in (cdf, gg_cdf, gg_q):
                chunks.append(b"missing" if arr is None else np.asarray(arr, dtype=float).tobytes())
        return _sha(*chunks)

    def check(self) -> list[str]:
        errors = []
        for beta in self.betas:
            draws, cdf, gg_cdf, gg_q = self.results[beta]
            for _argv, out in self.plan[beta]:
                if not out.exists():
                    errors.append(f"beta {beta}: {out.name} missing")
                elif out.suffix == ".json":
                    sigmas = json.loads(out.read_text())["sigmas"]
                    if not sigmas or any(a <= b for a, b in zip(sigmas, sigmas[1:])):
                        errors.append(f"beta {beta}: {out.name} sigmas not strictly descending")
                elif np.any(np.array(_read_column(out, "x0"), dtype=float) != draws):
                    errors.append(f"beta {beta}: noise CSV differs from gn_sample with its seed")
            if cdf is None or gg_cdf is None or gg_q is None:
                errors.append(f"beta {beta}: evaluation failed")
                continue
            n = draws.size
            empirical = np.arange(1, n + 1) / n
            sorted_cdf = np.asarray(cdf)[np.argsort(draws)]
            ks = max(np.max(empirical - sorted_cdf), np.max(sorted_cdf - (empirical - 1.0 / n)))
            if ks > KS_FACTOR / math.sqrt(n):
                errors.append(f"beta {beta}: KS distance {ks:.4g} of gn_cdf on GN draws too large")
            if not (np.all((gg_cdf >= 0.0) & (gg_cdf <= 1.0)) and np.all(np.diff(gg_q) > 0.0)):
                errors.append(f"beta {beta}: gg_cdf outside [0, 1] or gg_quantile not increasing")
            # gg_quantile inverts P(1/beta, .) at the same levels the
            # schedules do, so its outputs cover every inverse of the unit.
            gg = distributions.NormModel(2, 1.0, beta).gg
            for q, x in zip(self.quantile_levels(), gg_q):
                s = gg.d / gg.p
                if not abs(specfun.reg_lower_inc_gamma(s, (x / gg.a) ** gg.p) - q) <= INVERSE_TOL:
                    errors.append(f"beta {beta}: inverse P(s={s}, q={q}) misses q by more than {INVERSE_TOL}")
        return errors


WORKLOADS = {w.name: w for w in (GridSeed, SampleEval, NoiseSchedule)}
