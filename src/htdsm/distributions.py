"""Generalized normal and generalized gamma distributions.

Covers densities, scores, sampling and moments for the GN noise family,
the GG model of the squared norm of a GN noise vector, and a Monte-Carlo
oracle for the true (n-fold sum) norm distribution. The GG norm model
treats the sum of n squared coordinates as n times a single squared
coordinate; that identity is false for sums, so the Monte-Carlo oracle is
kept alongside it to measure the discrepancy instead of hiding it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

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


def _require_positive(name: str, value: float) -> float:
    value = float(value)
    if not math.isfinite(value) or value <= 0.0:
        raise ValueError(f"{name} must be a finite positive real, got {value!r}")
    return value


@dataclass(frozen=True)
class GeneralizedNormal:
    """GN(mu, alpha, beta) with density proportional to exp{-(|x-mu|/alpha)^beta}.

    (alpha, beta) = (sqrt(2), 2) is the standard normal and (1, 1) the
    standard Laplace.
    """

    mu: float
    alpha: float
    beta: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "mu", float(self.mu))
        object.__setattr__(self, "alpha", _require_positive("alpha", self.alpha))
        object.__setattr__(self, "beta", _require_positive("beta", self.beta))
        if not math.isfinite(self.mu):
            raise ValueError(f"mu must be finite, got {self.mu!r}")


@dataclass(frozen=True)
class GeneralizedGamma:
    """GG(a, d, p) on x > 0 with density (p/a^d)/Gamma(d/p) x^{d-1} e^{-(x/a)^p}."""

    a: float
    d: float
    p: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "a", _require_positive("a", self.a))
        object.__setattr__(self, "d", float(self.d))
        object.__setattr__(self, "p", _require_positive("p", self.p))
        if self.d / self.p <= 0.0:
            raise ValueError(f"d/p must be positive, got d={self.d}, p={self.p}")


@dataclass(frozen=True)
class NormModel:
    """Scaled GG model of ||X||_2^2 for an n-dimensional GN(0, sigma, beta) vector.

    Models the squared norm as GG(a = n sigma^2, d = 1/2, p = beta/2). The
    model's variance scales as n^2 while the true sum's scales as n; see
    empirical_norm_quantile for the honest Monte-Carlo reference.
    """

    n: int
    sigma: float
    beta: float

    def __post_init__(self) -> None:
        if int(self.n) != self.n or self.n < 1:
            raise ValueError(f"n must be a positive integer, got {self.n!r}")
        object.__setattr__(self, "n", int(self.n))
        object.__setattr__(self, "sigma", _require_positive("sigma", self.sigma))
        object.__setattr__(self, "beta", _require_positive("beta", self.beta))

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
    """CDF of GN at x via the P(1/beta, (|x-mu|/alpha)^beta) representation."""
    x = np.asarray(x, dtype=float)
    t = (np.abs(x - dist.mu) / dist.alpha) ** dist.beta
    half_mass = 0.5 * reg_lower_inc_gamma(1.0 / dist.beta, t)
    return np.where(x >= dist.mu, 0.5 + half_mass, 0.5 - half_mass)


def gn_score(x_tilde, x, alpha: float, beta: float):
    """Per-coordinate conditional score of GN noise centered at x.

    d/dx~ log q(x~|x) = -(beta/alpha^beta) sign(x~-x) |x~-x|^{beta-1},
    applied elementwise. For beta < 1 the score is singular at x~ = x;
    an exact hit raises SingularScoreError and leaves clamping policy to
    the caller (training clamps |delta| to SCORE_DELTA_FLOOR).
    """
    alpha = _require_positive("alpha", alpha)
    beta = _require_positive("beta", beta)
    delta = np.asarray(x_tilde, dtype=float) - np.asarray(x, dtype=float)
    if beta < 1.0 and np.any(delta == 0.0):
        raise SingularScoreError(
            f"score of GN(beta={beta}) is singular at x_tilde == x"
        )
    coeff = beta / alpha**beta
    return -coeff * np.sign(delta) * np.abs(delta) ** (beta - 1.0)


def gn_sample(
    dist: GeneralizedNormal,
    rng: np.random.Generator,
    count,
    method: str = "gamma_power",
) -> np.ndarray:
    """Draw i.i.d. GN samples; `count` may be an int or a shape tuple.

    "gamma_power" (default): G ~ Gamma(1/beta, 1), return mu + s alpha G^{1/beta}
    with s a fair random sign. "uniform_mixture": draw a Gamma(1 + 1/beta)
    envelope with rate 2^{-beta/2}, then a uniform on [mu - d, mu + d] with
    d = alpha g^{1/beta} / sqrt(2); the two scale constants cancel exactly,
    so both methods target the same law (checked by a two-sample KS test).
    """
    shape = (count,) if np.isscalar(count) else tuple(count)
    if method == "gamma_power":
        g = rng.gamma(1.0 / dist.beta, 1.0, size=shape)
        sign = rng.integers(0, 2, size=shape) * 2.0 - 1.0
        return dist.mu + sign * dist.alpha * g ** (1.0 / dist.beta)
    if method == "uniform_mixture":
        g = rng.gamma(1.0 + 1.0 / dist.beta, 2.0 ** (dist.beta / 2.0), size=shape)
        half_width = dist.alpha * g ** (1.0 / dist.beta) / math.sqrt(2.0)
        return rng.uniform(dist.mu - half_width, dist.mu + half_width)
    raise ValueError(f"unknown gn_sample method {method!r}")


def gn_variance(alpha: float, beta: float) -> float:
    """Var of GN(., alpha, beta) = alpha^2 Gamma(3/beta) / Gamma(1/beta)."""
    alpha = _require_positive("alpha", alpha)
    beta = _require_positive("beta", beta)
    return alpha**2 * math.exp(log_gamma(3.0 / beta) - log_gamma(1.0 / beta))


def unit_variance_alpha(beta: float) -> float:
    """Scale alpha such that GN(0, alpha, beta) has per-coordinate variance 1."""
    beta = _require_positive("beta", beta)
    return math.exp(0.5 * (log_gamma(1.0 / beta) - log_gamma(3.0 / beta)))


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
    return reg_lower_inc_gamma(dist.d / dist.p, (x / dist.a) ** dist.p)


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
    """Draw from GG(a, d, p) as a W^{1/p} with W ~ Gamma(d/p, 1)."""
    shape = (count,) if np.isscalar(count) else tuple(count)
    w = rng.gamma(dist.d / dist.p, 1.0, size=shape)
    return dist.a * w ** (1.0 / dist.p)


# -- squared-norm model ---------------------------------------------------


def squared_norm_mean_factor(beta: float) -> float:
    """Gamma(3/beta) / Gamma(1/beta): unit-scale mean of a squared GN coordinate."""
    beta = _require_positive("beta", beta)
    return math.exp(log_gamma(3.0 / beta) - log_gamma(1.0 / beta))


def squared_norm_var_factor(beta: float) -> float:
    """Gamma(5/beta)/Gamma(1/beta) - (Gamma(3/beta)/Gamma(1/beta))^2."""
    beta = _require_positive("beta", beta)
    c1 = squared_norm_mean_factor(beta)
    return math.exp(log_gamma(5.0 / beta) - log_gamma(1.0 / beta)) - c1**2


def norm_model_skew(beta: float) -> float:
    """Closed-form skew of the GG squared-norm model; constant in dimension.

    C2^{-3/2} (Gamma(7/beta)/Gamma(1/beta) - 3 C1 C2 - C1^3). At beta = 1
    this equals 74 / 5^{3/2} exactly.
    """
    beta = _require_positive("beta", beta)
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
