"""Generalized normal and generalized gamma distributions.

Covers densities, scores, sampling and moments for the GN noise family,
the GG model of the squared norm of a GN noise vector, and a Monte-Carlo
oracle for the true (n-fold sum) norm distribution. The GG norm model
treats the sum of n squared coordinates as n times a single squared
coordinate; that identity is false for sums, so the Monte-Carlo oracle is
kept alongside it to measure the discrepancy instead of hiding it. A GN
draw at beta 2 is alpha/sqrt(2) times rng.standard_normal, as GN(mu,
alpha, 2) is exactly N(mu, alpha^2/2); every other GN draw and every GG
draw takes its Gamma variate from the one kernel _gamma_root.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from htdsm._config import Checked, Count, Positive, Real, check_real
from htdsm.specfun import inv_reg_lower_inc_gamma, log_gamma, reg_lower_inc_gamma

__all__ = [
    "SingularScoreError",
    "GeneralizedNormal",
    "GeneralizedGamma",
    "NormModel",
    "gn_log_pdf",
    "gn_cdf",
    "gn_score",
    "gn_sample",
    "gn_variance",
    "unit_variance_alpha",
    "gg_pdf",
    "gg_cdf",
    "gg_quantile",
    "gg_raw_moment",
    "gg_sample",
    "squared_norm_mean_factor",
    "squared_norm_var_factor",
    "norm_model_skew",
    "empirical_norm_quantile",
]

# Clamp applied by callers that hit the score singularity at beta < 1.
SCORE_DELTA_FLOOR = 1e-8


class SingularScoreError(ValueError):
    """Raised when the conditional score is evaluated at its singularity."""


@dataclass(frozen=True)
class GeneralizedNormal(Checked):
    """GN(mu, alpha, beta) with density proportional to exp{-(|x-mu|/alpha)^beta}.

    (alpha, beta) = (sqrt(2), 2) is the standard normal and (1, 1) the
    standard Laplace.
    """

    mu: Real
    alpha: Positive
    beta: Positive


@dataclass(frozen=True)
class GeneralizedGamma(Checked):
    """GG(a, d, p) on x > 0 with density (p/a^d)/Gamma(d/p) x^{d-1} e^{-(x/a)^p}."""

    a: Positive
    d: Positive
    p: Positive


@dataclass(frozen=True)
class NormModel(Checked):
    """Scaled GG model of ||X||_2^2 for an n-dimensional GN(0, sigma, beta) vector.

    Models the squared norm as GG(a = n sigma^2, d = 1/2, p = beta/2). The
    model's variance scales as n^2 while the true sum's scales as n; see
    empirical_norm_quantile for the honest Monte-Carlo reference.
    """

    n: Count
    sigma: Positive
    beta: Positive

    @property
    def gg(self) -> GeneralizedGamma:
        return GeneralizedGamma(a=self.n * self.sigma**2, d=0.5, p=self.beta / 2.0)

    def mean(self) -> float:
        return self.n * self.sigma**2 * squared_norm_mean_factor(self.beta)

    def variance(self) -> float:
        return self.n**2 * self.sigma**4 * squared_norm_var_factor(self.beta)


# -- generalized normal --------------------------------------------------


def gn_log_pdf(dist: GeneralizedNormal, x):
    """Log density of GN at x (scalar or array)."""
    x = np.asarray(x, dtype=float)
    norm = math.log(dist.beta) - math.log(2.0 * dist.alpha) - log_gamma(1.0 / dist.beta)
    return norm - (np.abs(x - dist.mu) / dist.alpha) ** dist.beta


def gn_cdf(dist: GeneralizedNormal, x):
    """CDF of GN at x: 1/2 + P/2 at or above mu and Q/2 below it, with P and
    Q of (1/beta, (|x-mu|/alpha)^beta); Q keeps the lower tail's relative
    precision, where 1/2 - P/2 would cancel."""
    x = np.asarray(x, dtype=float)
    with np.errstate(over="ignore"):  # an overflow to inf gives P = 1, Q = 0
        t = (np.abs(x - dist.mu) / dist.alpha) ** dist.beta
    upper = x >= dist.mu
    half = 0.5 * reg_lower_inc_gamma(1.0 / dist.beta, t, complement=~upper)
    return np.where(upper, 0.5 + half, half)


def gn_score(x_tilde, x, alpha: float, beta: float):
    """Per-coordinate conditional score of GN noise centered at x.

    d/dx~ log q(x~|x) = -(beta/alpha^beta) sign(x~-x) |x~-x|^{beta-1},
    applied elementwise. For beta < 1 the score is singular at x~ = x;
    an exact hit raises SingularScoreError and leaves clamping policy to
    the caller (training clamps |delta| to SCORE_DELTA_FLOOR).
    """
    alpha = check_real("alpha", alpha, positive=True)
    beta = check_real("beta", beta, positive=True)
    delta = np.asarray(x_tilde, dtype=float) - np.asarray(x, dtype=float)
    return _score_of_delta(delta, beta / alpha**beta, beta)


def _score_of_delta(delta, coeff: float, beta: float, out=None):
    """gn_score from delta = x_tilde - x and coeff = beta / alpha^beta, into
    `out` if given; the caller has checked alpha and beta.

    At beta = 2 and 1 the power |delta|^(beta-1) is exactly |delta| and 1,
    so the product is formed without it, with the general form's bits.
    """
    if beta == 2.0:
        return np.multiply(delta, -coeff, out=out)
    if beta == 1.0:
        return np.multiply(np.sign(delta, out=out), -coeff, out=out)
    if beta < 1.0 and np.any(delta == 0.0):
        raise SingularScoreError(
            f"score of GN(beta={beta}) is singular at x_tilde == x"
        )
    return np.multiply(-coeff * np.sign(delta), np.abs(delta) ** (beta - 1.0), out=out)


# numpy's Gamma(k) is exactly 0 (its U^(1/k) underflows) for about 2^(-1074 k)
# of the draws: more than 1e-12 below this shape (above beta 26.94 for GN).
_SMALL_SHAPE = math.log(1e12) / (1074.0 * math.log(2.0))


def _gamma_root(rng: np.random.Generator, k: float, r: float, shape) -> np.ndarray:
    """G^(1/r) with G ~ Gamma(k, 1), the source of every GG draw and of
    every GN draw but beta 2's: at k >= _SMALL_SHAPE rng.gamma(k) ** (1/r),
    below it Gamma(k + 1)^(1/r) U^(1/(k r)) with U uniform on (0, 1], the
    same law (Y U^(1/k) ~ Gamma(k) for Y ~ Gamma(k + 1)) without the
    underflow onto 0."""
    if k >= _SMALL_SHAPE:
        return rng.gamma(k, 1.0, size=shape) ** (1.0 / r)
    root = rng.gamma(k + 1.0, 1.0, size=shape) ** (1.0 / r)
    return root * (1.0 - rng.random(shape)) ** (1.0 / (k * r))


def gn_sample(dist: GeneralizedNormal, rng: np.random.Generator, count) -> np.ndarray:
    """Draw i.i.d. GN samples; `count` may be an int or a shape tuple.

    At beta = 2 returns mu + alpha/sqrt(2) Z with Z from
    rng.standard_normal, the same law: GN(mu, alpha, 2) is N(mu, alpha^2/2).
    At any other beta returns mu + s alpha G^{1/beta}, G ~ Gamma(1/beta, 1),
    with the root from _gamma_root and s a fair random sign drawn after it.
    No draw collapses onto mu; up to beta 26.94 the root is
    rng.gamma(1/beta) ** (1/beta).
    """
    if dist.beta == 2.0:  # GN(mu, alpha, 2) is exactly N(mu, alpha^2 / 2)
        return dist.mu + dist.alpha / math.sqrt(2.0) * rng.standard_normal(count)
    root = _gamma_root(rng, 1.0 / dist.beta, dist.beta, count)
    sign = rng.integers(0, 2, size=count) * 2.0 - 1.0
    return dist.mu + sign * dist.alpha * root


def _row_view(a: np.ndarray) -> np.ndarray:
    """a with each row of its last axis as one void element, of shape
    a.shape[:-1] + (1,). Assigning between two such views copies each row
    as one element, where a float copy runs an inner loop per row. a's last
    axis must be contiguous."""
    return a.view(np.dtype((np.void, a.itemsize * a.shape[-1])))


def gn_variance(alpha: float, beta: float) -> float:
    """Var of GN(., alpha, beta) = alpha^2 Gamma(3/beta) / Gamma(1/beta)."""
    alpha = check_real("alpha", alpha, positive=True)
    return alpha**2 * squared_norm_mean_factor(beta)


def unit_variance_alpha(beta: float, name: str = "beta") -> float:
    """Scale alpha such that GN(0, alpha, beta) has per-coordinate variance 1;
    a ValueError naming `name` where it underflows (beta below 0.00777)."""
    beta = check_real(name, beta, positive=True)
    alpha = math.exp(0.5 * (log_gamma(1.0 / beta) - log_gamma(3.0 / beta)))
    if alpha < np.finfo(float).tiny:
        raise ValueError(f"{name} must be at least 0.00777 (below it GN's unit-variance "
                         f"scale underflows), got {beta!r}")
    return alpha


# -- generalized gamma ----------------------------------------------------


def gg_pdf(dist: GeneralizedGamma, x):
    x = np.asarray(x, dtype=float)
    if np.any(x < 0.0):
        raise ValueError("gg_pdf is supported on x >= 0")
    log_norm = (
        math.log(dist.p)
        - dist.d * math.log(dist.a)
        - log_gamma(dist.d / dist.p)
    )
    with np.errstate(divide="ignore"):
        log_pdf = log_norm + (dist.d - 1.0) * np.log(x) - (x / dist.a) ** dist.p
    return np.exp(log_pdf)


def gg_cdf(dist: GeneralizedGamma, x):
    """F(x) = P(d/p, (x/a)^p)."""
    x = np.asarray(x, dtype=float)
    if np.any(x < 0.0):
        raise ValueError("gg_cdf is supported on x >= 0")
    with np.errstate(over="ignore"):  # an overflow to inf gives P = 1
        t = (x / dist.a) ** dist.p
    return reg_lower_inc_gamma(dist.d / dist.p, t)


def gg_quantile(dist: GeneralizedGamma, q):
    """Quantile a * (Pinv(d/p, q))^{1/p} for q in [0, 1).

    q is a scalar or an array; a scalar gives a float. The power is numpy's
    for both, so an array call equals its elementwise scalar calls bit for
    bit.
    """
    x = dist.a * np.power(inv_reg_lower_inc_gamma(dist.d / dist.p, q), 1.0 / dist.p)
    return float(x) if np.ndim(q) == 0 else x


def gg_raw_moment(dist: GeneralizedGamma, r: int) -> float:
    """E[X^r] = a^r Gamma((d+r)/p) / Gamma(d/p)."""
    if (dist.d + r) / dist.p <= 0.0:
        raise ValueError(f"moment of order {r} does not exist for {dist}")
    if r == 0:
        return 1.0
    return dist.a**r * math.exp(
        log_gamma((dist.d + r) / dist.p) - log_gamma(dist.d / dist.p)
    )


def gg_sample(dist: GeneralizedGamma, rng: np.random.Generator, count) -> np.ndarray:
    """Draw from GG(a, d, p) as a W^{1/p}, W ~ Gamma(d/p, 1), with W^{1/p}
    from _gamma_root, which does not underflow onto 0 at small d/p."""
    return dist.a * _gamma_root(rng, dist.d / dist.p, dist.p, count)


# -- squared-norm model ---------------------------------------------------


def squared_norm_mean_factor(beta: float) -> float:
    """Gamma(3/beta) / Gamma(1/beta): unit-scale mean of a squared GN coordinate."""
    beta = check_real("beta", beta, positive=True)
    return math.exp(log_gamma(3.0 / beta) - log_gamma(1.0 / beta))


def squared_norm_var_factor(beta: float) -> float:
    """Gamma(5/beta)/Gamma(1/beta) - (Gamma(3/beta)/Gamma(1/beta))^2."""
    beta = check_real("beta", beta, positive=True)
    c1 = squared_norm_mean_factor(beta)
    return math.exp(log_gamma(5.0 / beta) - log_gamma(1.0 / beta)) - c1**2


def norm_model_skew(beta: float) -> float:
    """Closed-form skew of the GG squared-norm model; constant in dimension.

    C2^{-3/2} (Gamma(7/beta)/Gamma(1/beta) - 3 C1 C2 - C1^3). At beta = 1
    this equals 74 / 5^{3/2} exactly.
    """
    beta = check_real("beta", beta, positive=True)
    c1 = squared_norm_mean_factor(beta)
    c2 = squared_norm_var_factor(beta)
    third = math.exp(log_gamma(7.0 / beta) - log_gamma(1.0 / beta))
    return (third - 3.0 * c1 * c2 - c1**3) / c2**1.5


# The fewest Monte-Carlo draws empirical_norm_quantile accepts.
MIN_MC_COUNT = 10_000


def empirical_norm_quantile(
    n: int,
    sigma: float,
    beta: float,
    q,
    mc_count: int,
    rng: np.random.Generator,
):
    """Monte-Carlo q-quantile of the true squared norm sum_i X_i^2.

    X_i ~ GN(0, sigma, beta) i.i.d. (unit base scale). This is the honest
    n-fold-sum reference the scaled GG model approximates. Each X_i^2 is
    drawn directly as sigma^2 G^{2/beta}, G ~ Gamma(1/beta) (the n = 1
    norm model, which is exact), so one (mc_count, n) gamma draw serves
    every level in q: a scalar q gives a float, an array q an array.
    """
    if mc_count < MIN_MC_COUNT:
        raise ValueError(f"mc_count must be >= {MIN_MC_COUNT}, got {mc_count}")
    squares = gg_sample(NormModel(1, sigma, beta).gg, rng, (int(mc_count), int(n)))
    quantiles = np.quantile(squares.sum(axis=1), q)
    return float(quantiles) if np.ndim(q) == 0 else quantiles
