"""Command-line entry point.

Subcommands: schedule, noise, train, sample, metrics, experiment, selftest.
Every command is pure in (config, seed) up to timing fields; outputs are
JSON or CSV (RFC 4180 with CRLF line ends, floats as their shortest
round-trip repr). Exit codes: 0 success, 1 numerical/runtime failure,
2 usage or config error, or a path that cannot be opened or made.
"""

from __future__ import annotations

import argparse
import csv
import errno
import functools
import json
import logging
import math
import os
import sys
from dataclasses import dataclass
from operator import attrgetter
from pathlib import Path

import numpy as np

from htdsm import distributions, metrics, sampler, schedule, scorenet, selftest, specfun
from htdsm._config import Config, Count, Index
from htdsm.experiments import (
    GRID_OWNED,
    ExperimentConfig,
    _loss_deciles,
    _sample_network,
    demo_config,
    run_convergence_demo,
    run_imbalance_grid,
    write_csv,
    write_endpoints_csv,
    write_grid_outputs,
    write_json,
    write_paths_csv,
)

log = logging.getLogger("htdsm")


class UsageError(Exception):
    """Malformed config or arguments; maps to exit code 2."""


def _require(ok: bool, flag: str, value, need: str) -> None:
    """A UsageError naming flag and its value unless ok."""
    if not ok:
        raise UsageError(f"{flag} must be {need}, got {value!r}")


def _require_unit_variance(flag: str, beta: float) -> None:
    """A UsageError naming flag where distributions.unit_variance_alpha refuses beta."""
    try:
        distributions.unit_variance_alpha(beta, flag)
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _load_json(path) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise UsageError(f"malformed JSON in {path}: {exc}") from exc


def _load_config(load, path, what):
    """load(the JSON in path), with any config error raised as a UsageError."""
    raw = _load_json(path)
    try:
        return load(raw)
    except (KeyError, TypeError, ValueError) as exc:
        raise UsageError(f"bad {what} {path}: {exc}") from exc


def _load_points_csv(path) -> np.ndarray:
    """Point sets as CSV with coordinate columns x0..xd-1, read by name:
    the columns whose names start with x must be exactly those, each once.
    Other columns, such as particle_id and status, are ignored; rows with a
    diverged status are skipped."""
    try:
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None:
                raise UsageError(f"{path}: empty file")
            xs = [name for name in header if name.startswith("x")]
            names = [f"x{i}" for i in range(len(xs))]
            if not xs or set(xs) != set(names):
                raise UsageError(f"{path}: coordinate columns must be x0..xd-1, each once; "
                                 f"got {xs}")
            cols = [header.index(name) for name in names]
            status_col = header.index("status") if "status" in header else None
            rows = []
            for number, row in enumerate(reader, start=1):
                if status_col is not None and row[status_col] == sampler.DIVERGED:
                    continue
                point = [float(row[i]) for i in cols]
                if not all(map(math.isfinite, point)):
                    raise UsageError(f"{path}: data row {number} has a non-finite coordinate")
                rows.append(point)
    except (ValueError, IndexError) as exc:
        raise UsageError(f"{path}: malformed CSV ({exc})") from exc
    if not rows:
        raise UsageError(f"{path}: no usable rows")
    return np.asarray(rows)


def _cmd_schedule(args) -> int:
    # The quantile inverse's domain, s = 1/beta in [0.01, 1e3].
    _require(1e-3 <= args.beta <= 100.0, "--beta", args.beta, "in [1e-3, 100]")
    _require(args.dim >= 1, "--dim", args.dim, ">= 1")
    _require(0.0 < args.delta < 1.0, "--delta", args.delta, "in (0, 1)")
    _require(0.0 < args.sigma_min < args.sigma_max < math.inf, "--sigma-min, --sigma-max",
             (args.sigma_min, args.sigma_max), "0 < sigma_min < sigma_max < inf")
    if args.empirical:
        _require(args.mc_count >= distributions.MIN_MC_COUNT, "--mc-count", args.mc_count,
                 f">= {distributions.MIN_MC_COUNT}")
        # The Monte Carlo oracle sums dim squared coordinates G^(2/beta).
        log_top = 2.0 * _log_largest_draw(1.0, args.beta) + math.log(args.dim)
        _require(log_top <= _LOG_DBL_MAX, "--beta", args.beta,
                 f"large enough that --empirical squared norms stay finite at --dim {args.dim}")
    _require(args.seed >= 0, "--seed", args.seed, ">= 0")
    try:
        sched = schedule.quantile_matched_schedule(
            args.beta, args.dim, args.delta, args.sigma_min, args.sigma_max,
            empirical=args.empirical, mc_count=args.mc_count,
            rng=np.random.default_rng(args.seed),
        )
    except schedule.ScheduleError as exc:  # the flags leave no schedule to build
        raise UsageError(str(exc)) from exc
    write_json(args.out, sched.to_dict())
    print(f"{len(sched)} levels: {sched.sigmas[0]:.6g} .. {sched.sigmas[-1]:.6g}")
    print(f"wrote {args.out}")
    return 0


_LOG_DBL_MAX = math.log(sys.float_info.max)


def _log_largest_draw(alpha: float, beta: float) -> float:
    """log of alpha G^(1/beta) at G's 1 - 1e-12 quantile, G ~ Gamma(1/beta):
    the largest |x - mu| of a GN draw. The power is formed before alpha
    scales it, so alpha < 1 does not keep it finite. Below beta = 1e-3, the
    inverse's domain, the log is above 7000. Above beta = 100 it takes the
    power term at 100 (0.0300), above log(G_q)/beta at every larger beta."""
    if beta < 1e-3:
        return math.inf
    beta = min(beta, 100.0)
    top = specfun.inv_reg_lower_inc_gamma(1.0 / beta, 1.0 - 1e-12)
    return math.log(top) / beta + max(math.log(alpha), 0.0)


def _cmd_noise(args) -> int:
    _require(math.isfinite(args.mu), "--mu", args.mu, "finite")
    for flag, value in (("--alpha", args.alpha), ("--beta", args.beta)):
        _require(0.0 < value < math.inf, flag, value, "finite and positive")
    _require(args.count >= 0, "--count", args.count, ">= 0")
    _require(args.seed >= 0, "--seed", args.seed, ">= 0")
    log_top = _log_largest_draw(args.alpha, args.beta)
    _require(log_top <= _LOG_DBL_MAX, "--beta", args.beta,
             f"large enough that the draws stay finite at --alpha {args.alpha} "
             f"(log of the largest magnitude is {log_top:.6g} > {_LOG_DBL_MAX:.6g})")
    dist = distributions.GeneralizedNormal(args.mu, args.alpha, args.beta)
    rng = np.random.default_rng(args.seed)
    draws = distributions.gn_sample(dist, rng, args.count)
    write_csv(args.out, ["x0"], [draws])
    print(
        f"wrote {args.count} draws of GN(mu={args.mu}, alpha={args.alpha}, "
        f"beta={args.beta}) to {args.out}"
    )
    return 0


@dataclass(frozen=True)
class TrainFile(Config):
    """The `htdsm train --config` file: training settings, the mixture, and
    how many data points to draw from it with which seed."""

    train: scorenet.TrainConfig
    mixture: scorenet.MixtureSpec
    data_count: Count = 20_000
    data_seed: Index = 0


def _require_out_dir(path) -> None:
    """The OSError that writing path would raise for want of its directory,
    raised before a command does its work."""
    parent = Path(path).parent
    if not parent.is_dir():
        code = errno.ENOTDIR if parent.exists() else errno.ENOENT
        raise OSError(code, os.strerror(code), path)


def _cmd_train(args) -> int:
    _require_out_dir(args.out)
    spec = _load_config(TrainFile.from_dict, args.config, "train config")
    cfg = spec.train
    data = spec.mixture.sample(np.random.default_rng(spec.data_seed), spec.data_count)
    net, losses = scorenet.train(data, cfg, np.random.default_rng(cfg.seed))
    payload = net.to_dict()
    payload["train"] = cfg.to_dict()
    payload["loss_first_decile"], payload["loss_last_decile"] = _loss_deciles(losses)
    write_json(args.out, payload)
    print(
        f"trained {cfg.steps} steps; loss {payload['loss_first_decile']:.4f} -> "
        f"{payload['loss_last_decile']:.4f}; wrote {args.out}"
    )
    return 0


def _cmd_sample(args) -> int:
    _require(args.count >= 1, "--count", args.count, ">= 1")
    _require_out_dir(args.out)
    net = _load_config(scorenet.ScoreNetwork.from_dict, args.ckpt, "checkpoint")
    cfg = _load_config(sampler.SamplerConfig.from_dict, args.config, "sampler config")
    if cfg.schedule.n != net.data_dim:
        raise UsageError(
            f"sampler config {args.config} has schedule.n = {cfg.schedule.n}, "
            f"but checkpoint {args.ckpt} is a {net.data_dim}-dimensional network"
        )
    result = _sample_network(net, cfg, args.count)
    if cfg.record_paths:
        write_paths_csv(args.out, result, cfg.steps_per_level)
    else:
        write_endpoints_csv(args.out, result)
    diverged = (result.status == sampler.DIVERGED).sum()
    print(f"{args.count} particles, {diverged} diverged; wrote {args.out}")
    return 0


def _cmd_metrics(args) -> int:
    if args.k < 1:
        raise UsageError(f"--k must be >= 1, got {args.k}")
    real = _load_points_csv(args.real)
    fake = _load_points_csv(args.fake)
    try:
        p, r, d, c = metrics.prdc(real, fake, args.k)
        report = metrics.MetricReport(p, r, d, c, metrics.kid(real, fake), metrics.fid(real, fake))
    except metrics.MetricError as exc:
        paths = {"real": args.real, "fake": args.fake}
        path = paths.get(exc.point_set, " and ".join(paths.values()))
        raise UsageError(f"{path}: {exc}") from exc
    write_json(args.out, report.to_dict())
    print(
        f"precision {p:.4f} recall {r:.4f} density {d:.4f} coverage {c:.4f} "
        f"kid {report.kid:.6g} fid {report.fid:.6g}"
    )
    print(f"wrote {args.out}")
    return 0


def _cmd_experiment(args) -> int:
    out_dir = Path(args.out)
    if args.mode == "demo":
        _require_unit_variance("--beta", args.beta)
        record = run_convergence_demo(demo_config(args.levels, args.beta), out_dir)
        print(
            f"demo levels={args.levels} beta={args.beta}: "
            f"imbalance={record.imbalance}, diverged={record.diverged}, "
            f"mode capture={record.mode_capture}"
        )
        print(f"wrote {out_dir}/endpoints.csv, paths.csv, record.json")
        return 0
    _require(args.workers >= 1, "--workers", args.workers, ">= 1")
    for beta in args.sweep_betas:
        _require(0.0 < beta <= 2.0, "--sweep-betas", beta, "in (0, 2]")
        _require_unit_variance("--sweep-betas", beta)
    cfg = default = ExperimentConfig()
    if args.config:
        cfg = _load_config(ExperimentConfig.from_dict, args.config, "experiment config")
        for key in GRID_OWNED:
            if attrgetter(key)(cfg) != attrgetter(key)(default):
                raise UsageError(f"bad experiment config {args.config}: {key} cannot be "
                                 "set, because the grid sets it per cell")
    out_dir.mkdir(parents=True, exist_ok=True)
    grid = run_imbalance_grid(cfg, workers=args.workers, sweep_betas=args.sweep_betas)
    write_grid_outputs(out_dir, grid)
    for name, cell in grid["cells"].items():
        if cell["divergent"]:
            print(f"{name}: Divergent")
        else:
            print(
                f"{name}: {cell['mean']:.2f} ({cell['ci_lo']:.2f}, "
                f"{cell['ci_hi']:.2f})"
            )
    print(f"wrote {out_dir}/grid.json, per_seed.csv" + (", sweep.csv" if "sweep" in grid else ""))
    return 0


def _cmd_selftest(args) -> int:
    report = selftest.run_selftest()
    for check in report["checks"]:
        print(("PASS " if check["passed"] else "FAIL ") + check["name"])
    if args.out:
        write_json(args.out, report)
    if report["all_pass"]:
        print(f"selftest: {len(report['checks'])} checks passed")
        return 0
    print("selftest: FAILURES present")
    return 1


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The htdsm argument parser, built once per process: parse_args keeps
    no state between calls, each call fills a fresh namespace."""
    parser = argparse.ArgumentParser(
        prog="htdsm",
        description=(
            "Heavy-tailed denoising score matching: schedules, noise, "
            "training, annealed Langevin sampling, metrics and experiments."
        ),
    )
    parser.add_argument("-v", "--verbose", action="store_true", help="debug logging")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("schedule", help="build a quantile-matched noise schedule")
    p.add_argument("--beta", type=float, required=True, help="noise shape")
    p.add_argument("--dim", type=int, required=True, help="data dimension n")
    p.add_argument("--delta", type=float, required=True, help="non-overlap proportion in (0,1)")
    p.add_argument("--sigma-min", type=float, required=True)
    p.add_argument("--sigma-max", type=float, required=True)
    p.add_argument("--empirical", action="store_true", help="use true-sum Monte Carlo quantiles")
    p.add_argument("--mc-count", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="output JSON path")
    p.set_defaults(func=_cmd_schedule)

    p = sub.add_parser("noise", help="draw generalized normal samples")
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--mu", type=float, default=0.0)
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="output CSV path")
    p.set_defaults(func=_cmd_noise)

    p = sub.add_parser("train", help="train a score network from a JSON config")
    p.add_argument("--config", required=True, help="JSON with train/mixture/data settings")
    p.add_argument("--out", required=True, help="checkpoint JSON path")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("sample", help="run annealed Langevin sampling from a checkpoint")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--config", required=True, help="sampler config JSON")
    p.add_argument("--count", type=int, default=1000)
    p.add_argument("--out", required=True, help="output CSV (endpoints or paths)")
    p.set_defaults(func=_cmd_sample)

    p = sub.add_parser("metrics", help="compute PRDC/KID/FID between two point sets")
    p.add_argument("--real", required=True, help="real points CSV")
    p.add_argument("--fake", required=True, help="generated points CSV")
    p.add_argument("--k", type=int, default=5)
    p.add_argument("--out", required=True, help="report JSON path")
    p.set_defaults(func=_cmd_metrics)

    p = sub.add_parser("experiment", help="run the 2D mixture experiments")
    psub = p.add_subparsers(dest="mode", required=True)
    pim = psub.add_parser("imbalance", help="the 10:1 {DSM,HTDSM}x{Gaussian,Laplace} grid")
    pim.add_argument("--config", help="ExperimentConfig JSON (defaults used if omitted)")
    pim.add_argument("--out", required=True, help="output directory")
    pim.add_argument("--workers", type=int, default=1)
    pim.add_argument(
        "--sweep-betas",
        type=float,
        nargs="*",
        default=(1.0, 2.0),
        help="matched noise/diffusion sweep grid (empty to skip)",
    )
    pim.set_defaults(func=_cmd_experiment, mode="imbalance")
    pdemo = psub.add_parser("demo", help="balanced-mixture convergence demo")
    pdemo.add_argument("--levels", type=int, choices=[1, 2], required=True)
    pdemo.add_argument("--beta", type=float, required=True, help="training noise shape")
    pdemo.add_argument("--out", required=True, help="output directory")
    pdemo.set_defaults(func=_cmd_experiment, mode="demo")

    p = sub.add_parser("selftest", help="run the deterministic invariant suite")
    p.add_argument("--out", help="optional JSON report path")
    p.set_defaults(func=_cmd_selftest)
    return parser


def dispatch(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        if exc.filename is None:
            raise
        # A path the command reads or writes could not be opened or made.
        print(f"error: {exc.filename}: {exc.strerror}", file=sys.stderr)
        return 2
    except (ValueError, ArithmeticError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
