"""Noise-scale sequence construction.

Two builders: the quantile-matching construction, where consecutive levels
share a fixed probability-mass overlap of their squared-norm distributions,
and the plain log-linear (geometric) baseline.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Annotated

import numpy as np

from htdsm._config import Config, Count, Positive, Real, check_field
from htdsm.distributions import empirical_norm_quantile
from htdsm.specfun import inv_reg_lower_inc_gamma

__all__ = ["ScheduleError", "NoiseSchedule", "quantile_matched_schedule", "geometric_schedule"]


class ScheduleError(ValueError):
    """Degenerate inputs produced a non-descending or empty schedule."""


@dataclass(frozen=True, kw_only=True)
class NoiseSchedule(Config):
    """Descending noise scales plus the parameters that generated them.

    sigmas is strictly descending; delta is the non-overlap proportion for
    quantile-matched schedules and None for geometric ones.
    """

    kind: str
    beta: Positive
    n: Count
    delta: Real | None = None
    sigmas: tuple[Positive, ...]

    def __post_init__(self) -> None:
        try:
            super().__post_init__()
        except ValueError as exc:
            raise ScheduleError(str(exc)) from None
        if not self.sigmas:
            raise ScheduleError("schedule needs at least one level")
        if any(a <= b for a, b in zip(self.sigmas, self.sigmas[1:])):
            raise ScheduleError(f"sigmas must be strictly descending: {self.sigmas}")
        if self.kind not in ("quantile_matched", "geometric"):
            raise ScheduleError(f"unknown schedule kind {self.kind!r}")

    def __len__(self) -> int:
        return len(self.sigmas)


def _matched_ratio_model(beta: float, delta: float) -> float:
    """sigma_{i+1}/sigma_i under the GG norm model.

    The upper quantile of level i is n sigma_i^2 u^{2/beta} with
    u = Pinv(1/beta, (1+delta)/2); equating it to the lower quantile of the
    next level gives sigma_{i+1} = sigma_i (u/l)^{1/beta}, a constant ratio.
    """
    levels = [(1.0 + delta) / 2.0, (1.0 - delta) / 2.0]
    upper, lower = inv_reg_lower_inc_gamma(1.0 / beta, levels).tolist()
    return (upper / lower) ** (1.0 / beta) if lower > 0.0 else math.inf


def _matched_ratio_empirical(
    beta: float, n: int, delta: float, mc_count: int, rng: np.random.Generator
) -> float:
    """Same ratio with quantiles taken from the true-sum Monte Carlo.

    The true squared-norm sum scales exactly as sigma^2, so two unit-scale
    quantiles determine the whole sequence. Both come from one sample: their
    errors are positively correlated, so the ratio varies less than with two
    independent samples.
    """
    levels = [(1.0 + delta) / 2.0, (1.0 - delta) / 2.0]
    upper, lower = empirical_norm_quantile(n, 1.0, beta, levels, mc_count, rng).tolist()
    return math.sqrt(upper / lower) if lower > 0.0 else math.inf


def quantile_matched_schedule(
    beta: float,
    n: int,
    delta: float,
    sigma_min: float,
    sigma_max: float,
    *,
    empirical: bool = False,
    mc_count: int = 100_000,
    rng: np.random.Generator | None = None,
) -> NoiseSchedule:
    """Build a descending schedule with equal-overlap adjacent norm distributions.

    Construction ascends from sigma_min, multiplying by the matched ratio
    until the next level would exceed sigma_max; the result is reversed for
    annealed sampling. With delta = 0.9 adjacent levels share 5% of
    probability mass in each tail (quantiles 0.95 / 0.05).

    With empirical=True the two defining quantiles come from the true-sum
    Monte Carlo rather than the scaled GG model.
    """
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must lie in (0, 1), got {delta}")
    if not 0.0 < sigma_min < sigma_max < math.inf:
        raise ValueError(
            f"need 0 < sigma_min < sigma_max < inf, got {sigma_min}, {sigma_max}"
        )
    n = check_field("n", Count, n)
    beta = check_field("beta", Positive, beta)

    if empirical:
        if rng is None:
            rng = np.random.default_rng(0)
        ratio = _matched_ratio_empirical(beta, n, delta, mc_count, rng)
    else:
        ratio = _matched_ratio_model(beta, delta)
    if not math.isfinite(ratio) or ratio <= 1.0:
        raise ScheduleError(f"degenerate level ratio {ratio} for delta={delta}")

    ascending = [float(sigma_min)]
    while True:
        nxt = ascending[-1] * ratio
        if nxt > sigma_max * (1.0 + 1e-12):
            break
        ascending.append(min(nxt, sigma_max))
    return NoiseSchedule(
        sigmas=tuple(reversed(ascending)),
        beta=beta,
        n=n,
        delta=float(delta),
        kind="quantile_matched",
    )


def geometric_schedule(
    sigma_max: float,
    sigma_min: float,
    count: int,
    *,
    n: int = 2,
    beta: float = 2.0,
) -> NoiseSchedule:
    """Descending schedule of count levels, sampled linearly in log space
    between the endpoints. count is an integer of at least 2 and n a Count
    (check_field): a float is refused by name, not truncated."""
    count = check_field("count", Annotated[int, 2], count)
    if not 0.0 < sigma_min < sigma_max:
        raise ValueError(
            f"need 0 < sigma_min < sigma_max, got {sigma_min}, {sigma_max}"
        )
    sigmas = np.exp(np.linspace(math.log(sigma_max), math.log(sigma_min), count))
    sigmas[0] = sigma_max
    sigmas[-1] = sigma_min
    return NoiseSchedule(
        sigmas=tuple(float(s) for s in sigmas),
        beta=beta,
        n=n,
        kind="geometric",
    )
