"""Command-line entry point.

Subcommands: schedule, noise, train, sample, metrics, experiment, selftest.
Every command is pure in (config, seed) up to timing fields; outputs are
JSON or RFC-4180 CSV. Exit codes: 0 success, 1 numerical/runtime failure,
2 usage or config error.
"""

from __future__ import annotations

import argparse
import csv
import json
import logging
import sys
from pathlib import Path

import numpy as np

from htdsm import distributions, metrics, sampler, schedule, scorenet, selftest
from htdsm.experiments import (
    ExperimentConfig,
    run_beta_sweep,
    run_convergence_demo,
    run_imbalance_grid,
    write_endpoints_csv,
    write_grid_outputs,
    write_paths_csv,
)

log = logging.getLogger("htdsm")


class UsageError(Exception):
    """Malformed config or arguments; maps to exit code 2."""


def _fmt(x: float) -> str:
    return repr(float(x))


def _write_json(path, payload) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


def _load_json(path) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except FileNotFoundError as exc:
        raise UsageError(f"config file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise UsageError(f"malformed JSON in {path}: {exc}") from exc


def _load_points_csv(path) -> np.ndarray:
    """Point sets as CSV with coordinate columns x0..xd-1 (extra columns
    such as particle_id/status are ignored); rows with a diverged status
    are skipped."""
    try:
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader)
            cols = [i for i, name in enumerate(header) if name.startswith("x")]
            if not cols:
                raise UsageError(f"{path}: no coordinate columns x0..xd-1")
            status_col = header.index("status") if "status" in header else None
            rows = []
            for row in reader:
                if status_col is not None and row[status_col] == sampler.DIVERGED:
                    continue
                rows.append([float(row[i]) for i in cols])
    except FileNotFoundError as exc:
        raise UsageError(f"input file not found: {path}") from exc
    except (ValueError, IndexError) as exc:
        raise UsageError(f"{path}: malformed CSV ({exc})") from exc
    if not rows:
        raise UsageError(f"{path}: no usable rows")
    return np.asarray(rows)


def _cmd_schedule(args) -> int:
    if args.empirical:
        rng = np.random.default_rng(args.seed)
        sched = schedule.quantile_matched_schedule(
            args.beta,
            args.dim,
            args.delta,
            args.sigma_min,
            args.sigma_max,
            empirical=True,
            mc_count=args.mc_count,
            rng=rng,
        )
    else:
        sched = schedule.quantile_matched_schedule(
            args.beta, args.dim, args.delta, args.sigma_min, args.sigma_max
        )
    _write_json(args.out, sched.to_dict())
    print(f"{len(sched)} levels: {sched.sigmas[0]:.6g} .. {sched.sigmas[-1]:.6g}")
    print(f"wrote {args.out}")
    return 0


def _cmd_noise(args) -> int:
    dist = distributions.GeneralizedNormal(args.mu, args.alpha, args.beta)
    rng = np.random.default_rng(args.seed)
    draws = distributions.gn_sample(dist, rng, args.count, method=args.method)
    with open(args.out, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x0"])
        for v in draws:
            writer.writerow([_fmt(v)])
    print(
        f"wrote {args.count} draws of GN(mu={args.mu}, alpha={args.alpha}, "
        f"beta={args.beta}) to {args.out}"
    )
    return 0


def _train_config_from_file(path) -> tuple:
    raw = _load_json(path)
    try:
        cfg = scorenet.TrainConfig.from_dict(raw["train"])
        mixture = scorenet.MixtureSpec.from_dict(raw["mixture"])
        data_count = int(raw.get("data_count", 20_000))
        data_seed = int(raw.get("data_seed", 0))
    except (KeyError, TypeError, ValueError) as exc:
        raise UsageError(f"bad train config {path}: {exc}") from exc
    return cfg, mixture, data_count, data_seed


def _cmd_train(args) -> int:
    cfg, mixture, data_count, data_seed = _train_config_from_file(args.config)
    data = mixture.sample(np.random.default_rng(data_seed), data_count)
    net, losses = scorenet.train(data, cfg, np.random.default_rng(cfg.seed))
    n10 = max(1, len(losses) // 10)
    payload = net.to_dict()
    payload["train"] = cfg.to_dict()
    payload["loss_first_decile"] = float(losses[:n10].mean())
    payload["loss_last_decile"] = float(losses[-n10:].mean())
    _write_json(args.out, payload)
    print(
        f"trained {cfg.steps} steps; loss {payload['loss_first_decile']:.4f} -> "
        f"{payload['loss_last_decile']:.4f}; wrote {args.out}"
    )
    return 0


def _cmd_sample(args) -> int:
    ckpt = _load_json(args.ckpt)
    try:
        net = scorenet.ScoreNetwork.from_dict(ckpt)
    except (KeyError, TypeError, ValueError) as exc:
        raise UsageError(f"bad checkpoint {args.ckpt}: {exc}") from exc
    cfg_raw = _load_json(args.config)
    try:
        cfg = sampler.SamplerConfig.from_dict(cfg_raw)
    except (KeyError, TypeError, ValueError) as exc:
        raise UsageError(f"bad sampler config {args.config}: {exc}") from exc
    if cfg.schedule.n != net.data_dim:
        raise UsageError(
            f"sampler config {args.config} has schedule.n = {cfg.schedule.n}, "
            f"but checkpoint {args.ckpt} is a {net.data_dim}-dimensional network"
        )
    paths = sampler.ald_run(lambda x, ls: net.forward(x, ls), cfg, args.count)
    if cfg.record_paths:
        write_paths_csv(args.out, paths)
    else:
        endpoints = np.array([p.final for p in paths])
        statuses = [p.status for p in paths]
        write_endpoints_csv(args.out, endpoints, statuses)
    diverged = sum(p.status == sampler.DIVERGED for p in paths)
    print(f"{args.count} particles, {diverged} diverged; wrote {args.out}")
    return 0


def _cmd_metrics(args) -> int:
    real = _load_points_csv(args.real)
    fake = _load_points_csv(args.fake)
    report = metrics.MetricReport()
    p, r, d, c = metrics.prdc(real, fake, args.k)
    report.precision, report.recall, report.density, report.coverage = p, r, d, c
    report.kid = metrics.kid(real, fake)
    report.fid = metrics.fid(real, fake)
    _write_json(args.out, report.to_dict())
    print(
        f"precision {p:.4f} recall {r:.4f} density {d:.4f} coverage {c:.4f} "
        f"kid {report.kid:.6g} fid {report.fid:.6g}"
    )
    print(f"wrote {args.out}")
    return 0


def _cmd_experiment(args) -> int:
    out_dir = Path(args.out)
    if args.mode == "demo":
        record = run_convergence_demo(args.levels, args.beta, out_dir)
        print(
            f"demo levels={args.levels} beta={args.beta}: "
            f"imbalance={record.imbalance}, diverged={record.diverged}, "
            f"mode capture={record.mode_capture}"
        )
        print(f"wrote {out_dir}/endpoints.csv, paths.csv, record.json")
        return 0
    cfg = ExperimentConfig.from_dict(_load_json(args.config)) if args.config else ExperimentConfig()
    grid = run_imbalance_grid(cfg, workers=args.workers)
    sweep = None
    if args.sweep_betas:
        sweep = run_beta_sweep(cfg, args.sweep_betas, workers=args.workers)
    write_grid_outputs(out_dir, grid, sweep)
    for name, cell in grid["cells"].items():
        if cell["divergent"]:
            print(f"{name}: Divergent")
        else:
            print(
                f"{name}: {cell['mean']:.2f} ({cell['ci_lo']:.2f}, "
                f"{cell['ci_hi']:.2f})"
            )
    print(f"wrote {out_dir}/grid.json, per_seed.csv" + (", sweep.csv" if sweep else ""))
    return 0


def _cmd_selftest(args) -> int:
    report = selftest.run_selftest()
    for check in report["checks"]:
        print(("PASS " if check["passed"] else "FAIL ") + check["name"])
    if args.out:
        _write_json(args.out, report)
    if report["all_pass"]:
        print(f"selftest: {len(report['checks'])} checks passed")
        return 0
    print("selftest: FAILURES present")
    return 1


def build_parser() -> argparse.ArgumentParser:
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
    p.add_argument("--method", choices=["gamma_power", "uniform_mixture"], default="gamma_power")
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
        default=[1.0, 2.0],
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
    except (ValueError, ArithmeticError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
