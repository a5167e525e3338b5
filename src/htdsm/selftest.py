"""Deterministic invariant suite behind the `selftest` CLI command.

Every check is seeded and timing-free, so two runs produce byte-identical
reports. These are quick smoke-level invariants; the full oracle suite
lives in the pytest tests.
"""

from __future__ import annotations

import math

import numpy as np

from htdsm import distributions as dist
from htdsm import metrics, specfun
from htdsm.sampler import CONVERGED, SamplerConfig, ald_run, forward_chain
from htdsm.schedule import NoiseSchedule, geometric_schedule, quantile_matched_schedule
from htdsm.scorenet import MixtureSpec, ScoreNetwork, analytic_mixture_score

__all__ = ["run_selftest"]


def _check_specfun_roundtrip() -> bool:
    q = np.linspace(0.01, 0.99, 50)
    for s in (0.25, 0.5, 1.0, 2.0, 5.0):
        x = specfun.inv_reg_lower_inc_gamma(s, q)
        if np.any(np.abs(specfun.reg_lower_inc_gamma(s, x) - q) > 1e-8):
            return False
    return True


def _check_exponential_closed_form() -> bool:
    xs = np.linspace(0.0, 50.0, 101)
    return all(
        abs(specfun.reg_lower_inc_gamma(1.0, float(x)) - (1.0 - math.exp(-x))) <= 1e-10
        for x in xs
    )


def _check_score_finite_difference() -> bool:
    g = dist.GeneralizedNormal(0.0, 1.3, 1.5)
    h = 1e-6
    for delta in (-1.2, -0.3, 0.25, 2.0):
        got = float(dist.gn_score(delta, 0.0, g.alpha, g.beta))
        fd = float(
            (dist.gn_log_pdf(g, delta + h) - dist.gn_log_pdf(g, delta - h)) / (2 * h)
        )
        if abs(got - fd) > 1e-6:
            return False
    return True


def _check_norm_model_moments() -> bool:
    c1 = dist.squared_norm_mean_factor(1.0)
    c2 = dist.squared_norm_var_factor(1.0)
    skew = dist.norm_model_skew(1.0)
    return (
        abs(c1 - 2.0) < 1e-12
        and abs(c2 - 20.0) < 1e-12
        and abs(skew - 74.0 / 5.0**1.5) < 1e-10
    )


def _check_schedule_identity() -> bool:
    sched = quantile_matched_schedule(1.0, 16, 0.6, 0.1, 10.0)
    asc = sorted(sched.sigmas)
    for lo, hi in zip(asc, asc[1:]):
        g_lo = dist.GeneralizedGamma(16 * lo**2, 0.5, 0.5)
        g_hi = dist.GeneralizedGamma(16 * hi**2, 0.5, 0.5)
        if abs(dist.gg_quantile(g_hi, 0.2) - dist.gg_quantile(g_lo, 0.8)) > 1e-8:
            return False
    return len(sched) >= 3


def _check_geometric_schedule() -> bool:
    sched = geometric_schedule(1.0, 0.25, 2)
    return sched.sigmas == (1.0, 0.25)


def _check_prdc_identity() -> bool:
    pts = np.random.default_rng(11).standard_normal((30, 2))
    p, r, d, c = metrics.prdc(pts, pts.copy(), 4)
    return p == 1.0 and r == 1.0 and c == 1.0 and d > 0


def _check_kid_identity() -> bool:
    pts = np.random.default_rng(12).standard_normal((25, 3))
    return abs(metrics.kid(pts, pts.copy())) <= 1e-9


def _check_fid_scalar() -> bool:
    rng = np.random.default_rng(13)
    u = rng.standard_normal(400)
    v = rng.standard_normal(400) * 1.7 + 0.9
    got = metrics.fid(u[:, None], v[:, None])
    want = (u.mean() - v.mean()) ** 2 + (u.std(ddof=1) - v.std(ddof=1)) ** 2
    return abs(got - want) <= 1e-8


def _check_bootstrap_constant() -> bool:
    m, lo, hi = metrics.bootstrap_ci([2.5] * 9, 500, 0.95, np.random.default_rng(3))
    return m == lo == hi == 2.5


def _check_ld_frozen_at_zero_step() -> bool:
    sched = NoiseSchedule(sigmas=(1.0,), beta=2.0, n=2, delta=None, kind="geometric")
    cfg = SamplerConfig(
        schedule=sched, steps_per_level=20, step_size=0.0, record_paths=True, seed=5
    )
    paths = ald_run(lambda x, ls: -x, cfg, 8)
    return all(
        p.status == CONVERGED and np.array_equal(p.positions[0], p.positions[-1])
        for p in paths
    )


def _check_forward_chain_variance() -> bool:
    rng = np.random.default_rng(21)
    states = forward_chain(np.zeros((20000, 1)), [0.5, 1.0], rng)
    var = float((states[-1] - states[0]).var())
    return abs(var - 1.0) < 0.05


def _check_mixture_score_symmetry() -> bool:
    mix = MixtureSpec.two_mode(1.0)
    mid = analytic_mixture_score(np.zeros(2), mix, 0.5)
    single = MixtureSpec(means=((1.0, 0.0),), stds=(0.7,), weights=(1.0,))
    x = np.array([0.3, -0.2])
    want = -(x - np.array([1.0, 0.0])) / (0.7**2 + 0.5**2)
    got = analytic_mixture_score(x, single, 0.5)
    return np.linalg.norm(mid) < 1e-12 and np.allclose(got, want, atol=1e-12)


def _check_network_determinism() -> bool:
    net = ScoreNetwork([3, 8, 2], np.random.default_rng(7))
    x = np.random.default_rng(8).standard_normal((5, 2))
    a = net.forward(x, 0.3)
    b = net.forward(x.copy(), 0.3)
    return np.array_equal(a, b)


_CHECKS = (
    ("specfun_roundtrip", _check_specfun_roundtrip),
    ("specfun_exponential_closed_form", _check_exponential_closed_form),
    ("gn_score_finite_difference", _check_score_finite_difference),
    ("norm_model_constants", _check_norm_model_moments),
    ("schedule_quantile_identity", _check_schedule_identity),
    ("schedule_geometric_endpoints", _check_geometric_schedule),
    ("prdc_identical_sets", _check_prdc_identity),
    ("kid_identical_sets", _check_kid_identity),
    ("fid_scalar_closed_form", _check_fid_scalar),
    ("bootstrap_constant_sequence", _check_bootstrap_constant),
    ("ld_zero_step_constant", _check_ld_frozen_at_zero_step),
    ("forward_chain_variance", _check_forward_chain_variance),
    ("mixture_score_oracle", _check_mixture_score_symmetry),
    ("network_determinism", _check_network_determinism),
)


def run_selftest() -> dict:
    checks = []
    for name, fn in _CHECKS:
        try:
            passed = bool(fn())
        except Exception:
            passed = False
        checks.append({"name": name, "passed": passed})
    return {"checks": checks, "all_pass": all(c["passed"] for c in checks)}
