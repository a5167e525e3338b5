"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`. The heavy fixtures (the
default 10-seed imbalance grid and the two demo trainings) are shared
across criteria; the whole module targets well under 30 minutes on a
laptop-class machine.
"""

import copy
import math

import numpy as np
import pytest
from scipy import stats

from htdsm import distributions as dist
from htdsm import metrics, specfun
from htdsm.experiments import ExperimentConfig, run_imbalance_grid
from htdsm.sampler import SamplerConfig, ald_run, forward_chain
from htdsm.schedule import NoiseSchedule, geometric_schedule, quantile_matched_schedule
from htdsm.scorenet import (
    MixtureSpec,
    TrainConfig,
    score_field_cosine,
    train,
)
from htdsm.selftest import run_selftest


def report(criterion: str, passed: bool, detail: str = "") -> None:
    status = "PASS" if passed else "FAIL"
    print(f"\nACCEPTANCE {criterion}: {status}" + (f" ({detail})" if detail else ""))


@pytest.fixture(scope="session")
def default_grid():
    """Criterion 8/9 protocol: 10 seeds x 1,000 particles, default config."""
    return run_imbalance_grid(ExperimentConfig(), workers=2)


@pytest.fixture(scope="session")
def demo_training():
    """Criterion 6 protocol: 20k-step trainings on the balanced mixture.

    Plain SGD at rate 0.02; the rate is a free training choice and this is
    the convergent regime for the fixed step budget.
    """
    schedule = geometric_schedule(1.0, 0.25, 2)
    mixture = MixtureSpec.two_mode(1.0)
    data = mixture.sample(np.random.default_rng(50), 20_000)
    gauss_cfg = TrainConfig(
        schedule=schedule, beta_noise=2.0, alpha_unit=math.sqrt(2.0),
        steps=20_000, learning_rate=0.02,
    )
    gauss_net, gauss_losses = train(data, gauss_cfg, np.random.default_rng(60))
    laplace_cfg = TrainConfig(
        schedule=schedule, beta_noise=1.0, alpha_unit=1.0,
        steps=20_000, learning_rate=0.02,
    )
    _, laplace_losses = train(data, laplace_cfg, np.random.default_rng(70))
    return mixture, gauss_net, gauss_losses, laplace_losses


def test_criterion_1_special_function_roundtrip():
    worst = 0.0
    for s in (0.25, 0.5, 1.0, 2.0, 5.0):
        for q in np.linspace(0.01, 0.99, 99):
            x = specfun.inv_reg_lower_inc_gamma(s, float(q))
            worst = max(worst, abs(specfun.reg_lower_inc_gamma(s, x) - q))
    report("1 specfun roundtrip", worst <= 1e-8, f"worst |P(Pinv)-q| = {worst:.2e}")
    assert worst <= 1e-8


def test_criterion_2_generalized_normal_correctness():
    pvalues = {}
    for i, beta in enumerate((0.5, 1.0, 1.5, 2.0, 2.5)):
        g = dist.GeneralizedNormal(0.0, 1.0, beta)
        draws = dist.gn_sample(g, np.random.default_rng(700 + i), 100_000)
        pvalues[beta] = stats.kstest(draws, lambda x: dist.gn_cdf(g, x)).pvalue
    ks_ok = all(p > 0.01 for p in pvalues.values())

    worst_fd = 0.0
    h = 1e-7
    for beta in (0.7, 1.0, 1.5, 2.0, 2.5):
        g = dist.GeneralizedNormal(0.0, 1.1, beta)
        for delta in (-2.0, -0.5, -0.01, 0.005, 0.4, 1.8):
            if abs(delta) <= 1e-3:
                continue
            fd = (dist.gn_log_pdf(g, delta + h) - dist.gn_log_pdf(g, delta - h)) / (2 * h)
            got = float(dist.gn_score(delta, 0.0, 1.1, beta))
            worst_fd = max(worst_fd, abs(got - float(fd)))
    fd_ok = worst_fd <= 1e-6
    report(
        "2 GN sampling + score",
        ks_ok and fd_ok,
        f"min KS p = {min(pvalues.values()):.3f}, worst score FD gap = {worst_fd:.2e}",
    )
    assert ks_ok and fd_ok


def test_criterion_3_exact_constants():
    c1 = dist.squared_norm_mean_factor(1.0)
    c2 = dist.squared_norm_var_factor(1.0)
    constants_ok = abs(c1 - 2.0) <= 1e-12 and abs(c2 - 20.0) <= 1e-12

    chi_ok = True
    chi = stats.chi2(1)
    for n in (2, 16):
        model = dist.NormModel(n, math.sqrt(2.0), 2.0)
        for q in (0.01, 0.05, 0.37, 0.5, 0.95, 0.99):
            want = n * chi.ppf(q)
            got = dist.gg_quantile(model.gg, q)
            if abs(got - want) > 1e-6 * max(1.0, abs(want)):
                chi_ok = False

    skew = dist.norm_model_skew(1.0)
    exact = 74.0 / 5.0**1.5
    # 74 / 5^(3/2) = 6.6188 to four places; the two-decimal shorthand 6.19
    # sometimes quoted for this quantity is not the value of the formula.
    skew_ok = abs(skew - exact) <= 1e-10 and abs(skew - 6.19) > 0.4
    report(
        "3 exact constants",
        constants_ok and chi_ok and skew_ok,
        f"C1 = {c1!r}, C2 = {c2!r}, skew(1) = {skew:.6f}",
    )
    assert constants_ok and chi_ok and skew_ok


@pytest.mark.parametrize("n", [16, 64])
def test_criterion_4_model_vs_truth_variance(n):
    rng = np.random.default_rng(200 + n)
    draws = dist.gn_sample(dist.GeneralizedNormal(0.0, 1.0, 1.0), rng, (100_000, n))
    mc_var = (draws**2).sum(axis=1).var()
    model_var = dist.NormModel(n, 1.0, 1.0).variance()
    ratio = model_var / mc_var
    ok = abs(ratio - n) <= 0.2 * n
    report(f"4 model/truth variance (n={n})", ok, f"ratio = {ratio:.2f} vs n = {n}")
    assert ok


def test_criterion_5_schedule_identity_and_tail_mass():
    identity_ok = True
    tail_ok = True
    rng = np.random.default_rng(300)
    for beta in (1.0, 2.0):
        sched = quantile_matched_schedule(beta, 16, 0.6, 0.1, 10.0)
        asc = sorted(sched.sigmas)
        assert len(asc) >= 3
        for lo, hi in zip(asc, asc[1:]):
            upper = dist.gg_quantile(
                dist.GeneralizedGamma(16 * lo**2, 0.5, beta / 2.0), 0.8
            )
            lower = dist.gg_quantile(
                dist.GeneralizedGamma(16 * hi**2, 0.5, beta / 2.0), 0.2
            )
            if abs(upper - lower) > 1e-8:
                identity_ok = False
        for sigma in sched.sigmas:
            gg = dist.GeneralizedGamma(16 * sigma**2, 0.5, beta / 2.0)
            upper = dist.gg_quantile(gg, 0.8)
            frac = float((dist.gg_sample(gg, rng, 100_000) > upper).mean())
            if abs(frac - 0.2) > 0.01:
                tail_ok = False
    report("5 quantile-matched schedule", identity_ok and tail_ok)
    assert identity_ok and tail_ok


def test_criterion_6_training_validates_almost_everywhere_objective(demo_training):
    mixture, gauss_net, gauss_losses, laplace_losses = demo_training
    n10 = len(laplace_losses) // 10
    laplace_converged = laplace_losses[-n10:].mean() < laplace_losses[:n10].mean()
    cosine = score_field_cosine(gauss_net, mixture, 0.25)
    cosine_ok = cosine > 0.95
    report(
        "6 heavy-tail training convergence + score recovery",
        laplace_converged and cosine_ok,
        f"laplace loss {laplace_losses[:n10].mean():.3f} -> "
        f"{laplace_losses[-n10:].mean():.3f}, cosine@0.25 = {cosine:.4f}",
    )
    assert laplace_converged and cosine_ok


def test_criterion_7_sampler_physics():
    eps = 0.05
    sched = NoiseSchedule(sigmas=(1.0,), beta=2.0, n=2, delta=None, kind="geometric")
    cfg = SamplerConfig(schedule=sched, steps_per_level=500, step_size=eps, seed=400)
    paths = ald_run(lambda x, ls: -x, cfg, 10_000)
    finals = np.array([p.final for p in paths])
    exact = 2 * eps / (1 - (1 - eps) ** 2)
    var = finals.ravel().var(ddof=1)
    stationary_ok = abs(var - exact) <= 0.05 * exact

    states = forward_chain(
        np.zeros((100_000, 1)), [0.3, 0.5, 1.0], np.random.default_rng(401)
    )
    fc_var = float((states[-1] - states[0]).var())
    forward_ok = abs(fc_var - 1.0) <= 0.02
    report(
        "7 sampler physics",
        stationary_ok and forward_ok,
        f"LD stationary var {var:.4f} vs {exact:.4f}; forward-chain var {fc_var:.4f}",
    )
    assert stationary_ok and forward_ok


def _cell_values(grid, name):
    return np.array(
        [r["imbalance"] for r in grid["cells"][name]["per_seed"]], dtype=float
    )


def test_criterion_8a_paired_ordering(default_grid):
    dsm = _cell_values(default_grid, "dsm_gaussian")
    htdsm = _cell_values(default_grid, "htdsm_gaussian")
    wins = int((dsm > htdsm).sum())
    ok = wins >= 8
    report("8a DSM > HTDSM paired (Gaussian diffusion)", ok, f"{wins}/10 seeds")
    assert ok


def test_criterion_8b_dsm_gaussian_collapse(default_grid):
    mean = default_grid["cells"]["dsm_gaussian"]["mean"]
    ok = mean >= 90.0
    report("8b DSM+Gaussian mean imbalance", ok, f"mean = {mean:.2f}")
    assert ok


def test_criterion_8c_laplace_diffusion_compensates(default_grid):
    lap = _cell_values(default_grid, "htdsm_laplace").mean()
    gau = _cell_values(default_grid, "htdsm_gaussian").mean()
    ok = lap < gau
    report(
        "8c HTDSM+Laplace < HTDSM+Gaussian",
        ok,
        f"{lap:.2f} vs {gau:.2f}",
    )
    assert ok


def test_criterion_8d_dsm_laplace_divergent_flag(default_grid):
    cell = default_grid["cells"]["dsm_laplace"]
    divs = [r["diverged"] for r in cell["per_seed"]]
    ok = cell["divergent"]
    report(
        "8d DSM+Laplace flagged Divergent",
        ok,
        f"per-seed diverged particles (of 1000): {divs}",
    )
    assert ok


def test_dsm_laplace_divergence_present_in_most_seeds(default_grid):
    # Not a numbered criterion: the module-level directional expectation
    # that DSM-trained models sampled with Laplace diffusion regularly
    # produce diverged particles (the cell-level majority flag above is the
    # strict form and is tracked separately).
    divs = [r["diverged"] for r in default_grid["cells"]["dsm_laplace"]["per_seed"]]
    seeds_with_divergence = sum(d > 0 for d in divs)
    assert seeds_with_divergence > len(divs) / 2


def test_criterion_9_shape_sweep_interval_separation(default_grid):
    # The matched-shape sweep endpoints are grid cells: run_imbalance_grid
    # samples each (training, diffusion) pair once, so the sweep rows for
    # beta = 2 and beta = 1 are the dsm_gaussian and htdsm_laplace cells
    # (test_sweep_rows_equal_their_grid_cells in the experiments tests).
    beta1 = default_grid["cells"]["htdsm_laplace"]
    beta2 = default_grid["cells"]["dsm_gaussian"]
    ok = beta1["ci_hi"] < beta2["ci_lo"]
    report(
        "9 sweep CI separation",
        ok,
        f"beta=1 CI ({beta1['ci_lo']:.2f}, {beta1['ci_hi']:.2f}) vs "
        f"beta=2 CI ({beta2['ci_lo']:.2f}, {beta2['ci_hi']:.2f})",
    )
    assert ok


def test_criterion_10_metric_oracles():
    from tests.test_metrics import kid_brute_force, prdc_brute_force

    prdc_ok = True
    for trial in range(50):
        rng = np.random.default_rng(500 + trial)
        real = rng.standard_normal((int(rng.integers(10, 31)), 2))
        fake = rng.standard_normal((int(rng.integers(10, 31)), 2)) * 1.3 + 0.2
        got = metrics.prdc(real, fake, 3)
        want = prdc_brute_force(real.tolist(), fake.tolist(), 3)
        if not np.allclose(got, want, atol=1e-12):
            prdc_ok = False

    pts = np.random.default_rng(501).standard_normal((30, 2))
    kid_ok = abs(metrics.kid(pts, pts.copy())) <= 1e-9
    small = np.random.default_rng(502).standard_normal((5, 2))
    other = np.random.default_rng(503).standard_normal((7, 2))
    kid_ok = kid_ok and metrics.kid(small, other) == pytest.approx(
        kid_brute_force(small, other), rel=1e-12
    )

    rng = np.random.default_rng(504)
    u = rng.standard_normal(2000)
    v = rng.standard_normal(2000) * 2.0 + 1.5
    want = (u.mean() - v.mean()) ** 2 + (u.std(ddof=1) - v.std(ddof=1)) ** 2
    fid_ok = abs(metrics.fid(u[:, None], v[:, None]) - want) <= 1e-8

    p, r, _, c = metrics.prdc(pts, pts.copy(), 5)
    identity_ok = (p, r, c) == (1.0, 1.0, 1.0)
    ok = prdc_ok and kid_ok and fid_ok and identity_ok
    report("10 metric oracles", ok)
    assert ok


def test_criterion_11_bitwise_determinism():
    selftest_ok = run_selftest() == run_selftest()

    cell_cfg = ExperimentConfig(
        train=TrainConfig(schedule=geometric_schedule(1.0, 0.25, 2), steps=2000),
        sampler=SamplerConfig(
            schedule=geometric_schedule(1.0, 0.25, 2),
            steps_per_level=200,
            step_size=0.1,
        ),
        particles=200,
        seeds=(0, 1),
        data_count=5000,
    )

    def strip(grid):
        grid = copy.deepcopy(grid)
        for cell in grid["cells"].values():
            for rec in cell["per_seed"]:
                rec["wall_time"] = 0.0
        return grid

    a = strip(run_imbalance_grid(cell_cfg))
    b = strip(run_imbalance_grid(cell_cfg))
    cell_ok = a == b
    report(
        "11 determinism",
        selftest_ok and cell_ok,
        "selftest and experiment cell rerun bit-identically",
    )
    assert selftest_ok and cell_ok
