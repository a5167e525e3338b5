import math

import numpy as np
import pytest
from scipy import stats

from htdsm import distributions as dist
from htdsm.schedule import (
    NoiseSchedule,
    ScheduleError,
    geometric_schedule,
    quantile_matched_schedule,
)


def norm_model_gg(n, sigma, beta):
    return dist.GeneralizedGamma(n * sigma**2, 0.5, beta / 2.0)


class TestNoiseSchedule:
    def test_requires_descending(self):
        with pytest.raises(ScheduleError):
            NoiseSchedule(sigmas=(0.25, 1.0), beta=2.0, n=2, delta=None, kind="geometric")

    def test_requires_positive(self):
        with pytest.raises(ScheduleError):
            NoiseSchedule(sigmas=(1.0, 0.0), beta=2.0, n=2, delta=None, kind="geometric")

    def test_json_roundtrip(self):
        s = geometric_schedule(1.0, 0.25, 3)
        assert NoiseSchedule.from_dict(s.to_dict()) == s


class TestGeometric:
    def test_two_level_reference(self):
        assert geometric_schedule(1.0, 0.25, 2).sigmas == (1.0, 0.25)

    def test_equal_endpoints_rejected(self):
        with pytest.raises(ValueError):
            geometric_schedule(0.7, 0.7, 2)

    def test_constant_ratio(self):
        s = geometric_schedule(10.0, 0.01, 10)
        ratios = [b / a for a, b in zip(s.sigmas, s.sigmas[1:])]
        assert np.allclose(ratios, 0.001 ** (1 / 9), rtol=1e-12)

    def test_count_validation(self):
        with pytest.raises(ValueError):
            geometric_schedule(1.0, 0.5, 1)


class TestQuantileMatched:
    def test_reference_span_within_bounds(self):
        s = quantile_matched_schedule(2.0, 2, 0.9, 0.25, 1.0)
        assert all(0.25 <= x <= 1.0 for x in s.sigmas)
        assert s.kind == "quantile_matched"
        assert s.sigmas[-1] == 0.25

    def test_pairs_match_chi_squared_quantiles(self):
        # At beta = 2 the norm model is (n sigma^2 / 2) chi^2(1), so the
        # matching identity can be cross-checked with a chi-squared oracle.
        s = quantile_matched_schedule(2.0, 2, 0.9, 0.25, 50.0)
        assert len(s) >= 2
        asc = sorted(s.sigmas)
        chi = stats.chi2(1)
        for lo, hi in zip(asc, asc[1:]):
            upper_lo = (2 * lo**2 / 2.0) * chi.ppf(0.95)
            lower_hi = (2 * hi**2 / 2.0) * chi.ppf(0.05)
            assert lower_hi == pytest.approx(upper_lo, abs=1e-8)

    @pytest.mark.parametrize("beta", [1.0, 2.0])
    def test_adjacent_identity_via_gg_quantile(self, beta):
        s = quantile_matched_schedule(beta, 16, 0.6, 0.1, 10.0)
        assert len(s) >= 3
        asc = sorted(s.sigmas)
        for lo, hi in zip(asc, asc[1:]):
            up = dist.gg_quantile(norm_model_gg(16, lo, beta), 0.8)
            down = dist.gg_quantile(norm_model_gg(16, hi, beta), 0.2)
            assert down == pytest.approx(up, abs=1e-8)

    def test_monte_carlo_tail_mass(self):
        rng = np.random.default_rng(0)
        s = quantile_matched_schedule(1.0, 32, 0.9, 0.25, 1.0)
        for sigma in s.sigmas:
            gg = norm_model_gg(32, sigma, 1.0)
            upper = dist.gg_quantile(gg, 0.95)
            frac = (dist.gg_sample(gg, rng, 100_000) > upper).mean()
            assert frac == pytest.approx(0.05, abs=0.01)

    def test_length_monotone_in_delta(self):
        for beta in (0.7, 1.0, 2.0):
            lengths = [
                len(quantile_matched_schedule(beta, 32, d, 0.1, 5.0))
                for d in (0.3, 0.5, 0.7, 0.9)
            ]
            assert all(b <= a for a, b in zip(lengths, lengths[1:]))

    def test_bounds_always_respected(self):
        for beta in (0.5, 1.0, 1.5, 2.0):
            s = quantile_matched_schedule(beta, 8, 0.4, 0.05, 3.0)
            assert all(0.05 <= x <= 3.0 for x in s.sigmas)
            assert all(a > b for a, b in zip(s.sigmas, s.sigmas[1:]))

    def test_empirical_mode_gives_more_levels(self):
        # The true sum concentrates (variance ~ n, not n^2), so its matched
        # ratio is smaller and the schedule denser than the GG model's.
        rng = np.random.default_rng(1)
        model = quantile_matched_schedule(1.0, 32, 0.9, 0.25, 4.0)
        empirical = quantile_matched_schedule(
            1.0, 32, 0.9, 0.25, 4.0, empirical=True, mc_count=50_000, rng=rng
        )
        assert len(empirical) >= len(model)
        assert empirical.sigmas[-1] == 0.25

    @pytest.mark.parametrize("n", [2, 16])
    def test_empirical_ratio_matches_chi_squared(self, n):
        # At beta = 2 with sigma = 1 each squared coordinate is chi^2(1) / 2,
        # so the true-sum quantile ratio is the chi^2(n) one. The bound is
        # four Monte-Carlo standard errors of log(ratio), from the asymptotic
        # variance q(1-q) / (m f(x)^2) of each sample quantile (their
        # positive covariance is ignored, which only widens it).
        delta, mc_count = 0.9, 100_000
        s = quantile_matched_schedule(2.0, n, delta, 0.25, 50.0, empirical=True,
                                      mc_count=mc_count, rng=np.random.default_rng(n))
        chi = stats.chi2(n)
        levels = ((1.0 + delta) / 2.0, (1.0 - delta) / 2.0)
        upper, lower = (chi.ppf(q) for q in levels)
        rel_sd = [math.sqrt(q * (1.0 - q) / mc_count) / (chi.pdf(x) * x)
                  for q, x in zip(levels, (upper, lower))]
        log_ratio_sd = 0.5 * math.hypot(*rel_sd)
        assert math.log(s.sigmas[-2] / s.sigmas[-1]) == pytest.approx(
            0.5 * math.log(upper / lower), abs=4.0 * log_ratio_sd)

    def test_empirical_schedule_draws_one_gamma_sample(self):
        beta, n, mc_count = 1.3, 4, 20_000
        rng = np.random.default_rng(3)
        quantile_matched_schedule(beta, n, 0.9, 0.25, 4.0, empirical=True,
                                  mc_count=mc_count, rng=rng)
        reference = np.random.default_rng(3)
        reference.gamma(1.0 / beta, 1.0, size=(mc_count, n))
        assert rng.bit_generator.state == reference.bit_generator.state

    @pytest.mark.parametrize("empirical", [False, True])
    def test_underflowing_lower_quantile_is_a_schedule_error(self, empirical):
        # At beta = 1000 the model's lower quantile of G^(2/beta), G ~
        # Gamma(1e-3), underflows to 0: the ratio is reported as degenerate.
        # The Monte-Carlo oracle draws G^(2/beta) by the gamma root's
        # small-shape rule, which does not underflow, so its schedule is valid.
        def build():
            return quantile_matched_schedule(1000.0, 2, 0.9, 0.25, 100.0, empirical=empirical,
                                             mc_count=10_000, rng=np.random.default_rng(0))

        if not empirical:
            with pytest.raises(ScheduleError, match="degenerate level ratio inf"):
                build()
            return
        sigmas = np.array(build().sigmas)
        # GN(0, 1, 1000) is nearly uniform on [-1, 1], so the ratio is close
        # to sqrt(q95 / q05) of U1^2 + U2^2, U uniform on [0, 1]: about 4.7.
        squares = np.random.default_rng(1).uniform(size=(1_000_000, 2)) ** 2
        lower, upper = np.quantile(squares.sum(axis=1), [0.05, 0.95])
        assert sigmas[-1] == 0.25 and len(sigmas) >= 3
        assert sigmas[:-1] / sigmas[1:] == pytest.approx(math.sqrt(upper / lower), rel=0.1)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            quantile_matched_schedule(1.0, 2, 0.0, 0.1, 1.0)
        with pytest.raises(ValueError):
            quantile_matched_schedule(1.0, 2, 1.0, 0.1, 1.0)
        with pytest.raises(ValueError):
            quantile_matched_schedule(1.0, 2, 0.5, 1.0, 0.1)
        with pytest.raises(ValueError):
            quantile_matched_schedule(-1.0, 2, 0.5, 0.1, 1.0)
        with pytest.raises(ValueError):
            quantile_matched_schedule(1.0, 0, 0.5, 0.1, 1.0)
