import ast
import math
import sys
import warnings
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, stats

from htdsm import distributions as dist
from htdsm import scorenet


class TestGeneralizedNormalDensity:
    def test_standard_normal_at_zero(self):
        g = dist.GeneralizedNormal(0.0, math.sqrt(2.0), 2.0)
        assert dist.gn_log_pdf(g, 0.0) == pytest.approx(
            -0.5 * math.log(2.0 * math.pi), abs=1e-12
        )

    def test_standard_laplace(self):
        g = dist.GeneralizedNormal(0.0, 1.0, 1.0)
        assert dist.gn_log_pdf(g, 1.0) == pytest.approx(math.log(0.5) - 1.0, abs=1e-12)

    def test_intermediate_shape_vs_quadrature_normalization(self):
        # Normalize exp(-(|x|/alpha)^beta) by quadrature and compare.
        g = dist.GeneralizedNormal(0.0, 1.0, 1.5)
        norm, _ = integrate.quad(lambda x: math.exp(-abs(x) ** 1.5), -np.inf, np.inf)
        want = math.log(math.exp(-0.7**1.5) / norm)
        assert dist.gn_log_pdf(g, 0.7) == pytest.approx(want, abs=1e-10)

    @pytest.mark.parametrize("alpha,beta", [(1.0, 0.7), (0.5, 1.0), (2.0, 1.5), (1.3, 2.5)])
    def test_pdf_integrates_to_one(self, alpha, beta):
        g = dist.GeneralizedNormal(0.3, alpha, beta)
        total, _ = integrate.quad(
            lambda x: math.exp(dist.gn_log_pdf(g, x)), -np.inf, np.inf, limit=200
        )
        assert total == pytest.approx(1.0, abs=1e-6)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            dist.GeneralizedNormal(0.0, 0.0, 1.0)
        with pytest.raises(ValueError):
            dist.GeneralizedNormal(0.0, 1.0, -2.0)
        with pytest.raises(ValueError):
            dist.GeneralizedNormal(math.inf, 1.0, 1.0)


class TestScore:
    def test_gaussian_reduction(self):
        # (alpha, beta) = (sqrt(2), 2) gives the unit Gaussian score -delta.
        deltas = np.array([-2.0, -0.5, 0.1, 1.7])
        got = dist.gn_score(deltas, 0.0, math.sqrt(2.0), 2.0)
        assert np.allclose(got, -deltas, atol=1e-12)

    def test_laplace_sign_only(self):
        assert dist.gn_score(0.3, 0.0, 1.0, 1.0) == pytest.approx(-1.0)
        assert dist.gn_score(-0.3, 0.0, 1.0, 1.0) == pytest.approx(1.0)

    @pytest.mark.parametrize("beta", [0.7, 1.0, 1.3, 1.5, 2.0, 2.5])
    def test_matches_log_pdf_finite_difference(self, beta):
        alpha = 1.2
        g = dist.GeneralizedNormal(0.0, alpha, beta)
        h = 1e-7
        for delta in (-2.5, -1.0, -0.01, 0.004, 0.3, 1.9):
            if abs(delta) <= 1e-3:
                continue
            fd = (dist.gn_log_pdf(g, delta + h) - dist.gn_log_pdf(g, delta - h)) / (2 * h)
            got = float(dist.gn_score(delta, 0.0, alpha, beta))
            assert got == pytest.approx(float(fd), abs=1e-6)

    def test_singularity_signaled_below_one(self):
        with pytest.raises(dist.SingularScoreError):
            dist.gn_score(np.array([0.5, 0.0]), 0.0, 1.0, 0.7)

    @pytest.mark.parametrize("beta", [1.0, 2.0])
    def test_exact_forms_equal_the_power_form_bitwise(self, beta):
        rng = np.random.default_rng(5)
        x = rng.standard_normal(4000) * 10.0 ** rng.uniform(-300, 300, 4000)
        x_tilde = x + rng.standard_normal(4000) * 10.0 ** rng.uniform(-9, 9, 4000)
        x_tilde[:6] = [x[0], np.inf, -np.inf, np.nan, x[4] + 5e-324, -0.0]
        for alpha in (0.3, 1.0, 7.5):
            delta = x_tilde - x
            coeff = beta / alpha**beta
            want = -coeff * np.sign(delta) * np.abs(delta) ** (beta - 1.0)
            with np.errstate(invalid="ignore"):
                got = dist.gn_score(x_tilde, x, alpha, beta)
            assert got.tobytes() == want.tobytes()

    def test_no_singularity_at_one_and_above(self):
        assert float(dist.gn_score(0.0, 0.0, 1.0, 1.0)) == 0.0
        assert float(dist.gn_score(0.0, 0.0, 1.0, 2.0)) == 0.0


class TestSampling:
    def test_mean_within_three_standard_errors(self):
        g = dist.GeneralizedNormal(1.7, 1.1, 1.4)
        draws = dist.gn_sample(g, np.random.default_rng(0), 100_000)
        se = draws.std() / math.sqrt(draws.size)
        assert abs(draws.mean() - 1.7) < 3 * se

    def test_laplace_variance(self):
        g = dist.GeneralizedNormal(0.0, 1.0, 1.0)
        draws = dist.gn_sample(g, np.random.default_rng(1), 100_000)
        assert draws.var() == pytest.approx(2.0, rel=0.03)

    def test_methods_agree_two_sample_ks(self, monkeypatch):
        # The gamma root's two branches, rng.gamma(k) ** (1/r) and
        # Gamma(k + 1)^(1/r) U^(1/(k r)), are two algorithms for one law.
        g = dist.GeneralizedNormal(0.3, 1.2, 1.4)
        rng = np.random.default_rng(2)
        a = dist.gn_sample(g, rng, 100_000)
        monkeypatch.setattr(dist, "_SMALL_SHAPE", 1.0)
        b = dist.gn_sample(g, rng, 100_000)
        assert stats.ks_2samp(a, b).pvalue > 0.01

    def test_sample_vs_analytic_cdf(self):
        g = dist.GeneralizedNormal(0.0, 1.0, 1.5)
        draws = dist.gn_sample(g, np.random.default_rng(3), 50_000)
        res = stats.kstest(draws, lambda x: dist.gn_cdf(g, x))
        assert res.pvalue > 0.01

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(beta=st.floats(0.05, 100.0), log10_q=st.floats(-300.0, math.log10(0.5)),
           alpha=st.floats(0.1, 10.0))
    def test_cdf_matches_scipy_gennorm_in_both_tails(self, beta, log10_q, alpha):
        # The lower tail comes from Q, so it keeps its relative precision
        # down to the smallest normal double.
        g = dist.GeneralizedNormal(0.0, alpha, beta)
        ref = stats.gennorm(beta, scale=alpha)
        x = ref.ppf(10.0**log10_q)
        for point in (x, -x):
            want = ref.cdf(point)
            if want >= 2.2250738585072014e-308:
                assert abs(float(dist.gn_cdf(g, point)) - want) <= 1e-12 * want

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(beta=st.floats(0.05, 100.0), log10_q=st.floats(-300.0, math.log10(1.0 - 1e-16)),
           alpha=st.floats(0.1, 10.0))
    def test_log_pdf_matches_scipy_gennorm(self, beta, log10_q, alpha):
        # Relative where |log pdf| > 1, absolute elsewhere.
        g = dist.GeneralizedNormal(0.0, alpha, beta)
        ref = stats.gennorm(beta, scale=alpha)
        x = ref.ppf(10.0**log10_q)
        for point in (x, -x):
            want = ref.logpdf(point)
            assert abs(float(dist.gn_log_pdf(g, point)) - want) <= 1e-13 * max(1.0, abs(want))

    @pytest.mark.parametrize("call", ["gn_cdf", "gn_cdf_inf", "gg_cdf"])
    def test_cdf_where_the_power_overflows(self, call):
        # (|x - mu| / alpha)^beta overflows to inf, where P = 1 and Q = 0.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            if call == "gn_cdf":
                g = dist.GeneralizedNormal(0.0, 1.0, 100.0)
                assert dist.gn_cdf(g, np.array([1e4, -1e4])).tolist() == [1.0, 0.0]
                assert dist.gn_cdf(g, 1e4) == 1.0
            elif call == "gn_cdf_inf":
                g = dist.GeneralizedNormal(0.0, 1.0, 2.0)
                assert dist.gn_cdf(g, np.array([np.inf, -np.inf])).tolist() == [1.0, 0.0]
            else:
                assert dist.gg_cdf(dist.NormModel(2, 1.0, 100.0).gg, 1e9) == 1.0

    @pytest.mark.parametrize("beta, seed", [(30.0, 11), (100.0, 12)])
    def test_large_beta_matches_scipy_gennorm(self, beta, seed):
        # Above beta 26.94 numpy's Gamma(1/beta) alone would put about
        # 2^(-1074/beta) of the draws on mu (0.06% at beta 100).
        g = dist.GeneralizedNormal(0.5, 1.3, beta)
        draws = dist.gn_sample(g, np.random.default_rng(seed), 200_000)
        assert not np.any(draws == g.mu)
        assert stats.kstest(draws, stats.gennorm(beta, loc=g.mu, scale=g.alpha).cdf).pvalue > 0.01

    @pytest.mark.parametrize("beta", [1e3, 1e300])
    def test_no_draw_lands_on_mu(self, beta):
        # scipy's gennorm CDF forms x^beta, which underflows here, so there
        # is no KS oracle; at beta 1e300 the law is uniform on mu +- alpha.
        g = dist.GeneralizedNormal(0.5, 1.3, beta)
        draws = dist.gn_sample(g, np.random.default_rng(13), 200_000)
        assert not np.any(draws == g.mu)
        assert np.all(np.abs(draws - g.mu) <= g.alpha * 1.01)

    def test_every_gamma_draw_is_in_the_kernel(self):
        def gammas(tree):
            return sum(isinstance(n, ast.Attribute) and n.attr == "gamma" for n in ast.walk(tree))

        trees = [ast.parse(p.read_text()) for p in Path(dist.__file__).parent.glob("*.py")]
        kernel = next(n for tree in trees for n in ast.walk(tree)
                      if isinstance(n, ast.FunctionDef) and n.name == "_gamma_root")
        assert sum(map(gammas, trees)) == gammas(kernel) == 2


def generators(n, seed=0):
    return [np.random.default_rng([seed, i]) for i in range(n)]


class TestGaussianDraw:
    """At beta = 2 every GN draw is alpha/sqrt(2) times standard_normal;
    at the doubles either side of 2 it still goes through _gamma_root."""

    NEAR_TWO = [np.nextafter(2.0, 0.0), np.nextafter(2.0, 3.0)]

    @staticmethod
    def spy_on_gamma_root(monkeypatch):
        calls = []
        real = dist._gamma_root

        def spy(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(dist, "_gamma_root", spy)
        return calls

    @pytest.mark.parametrize("shape", [1, 7, (300, 2), (4, 5, 3)])
    @pytest.mark.parametrize("mu, alpha", [(0.0, math.sqrt(2.0)), (-1.25, 0.3), (4.0, 7.5)])
    def test_bit_equal_to_scaled_standard_normal(self, monkeypatch, shape, mu, alpha):
        calls = self.spy_on_gamma_root(monkeypatch)
        g = dist.GeneralizedNormal(mu, alpha, 2.0)
        rng, ref = np.random.default_rng(41), np.random.default_rng(41)
        got = dist._gn_draw(g, rng, shape)
        want = g.mu + g.alpha / math.sqrt(2.0) * ref.standard_normal(shape)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
        # The generator is left where standard_normal alone leaves it.
        assert rng.bit_generator.state == ref.bit_generator.state
        assert calls == []

    @staticmethod
    def draws(path, g):
        """About 40k draws from g through one of the three draw paths."""
        if path == "gn_sample":
            return dist.gn_sample(g, np.random.default_rng(51), 40_000)
        if path == "block_noise":
            return dist._block_noise(g, generators(3, seed=52), 20_000, 2)[:, 1].ravel()
        # One chunk of 64 training steps at a 312 x 2 batch, drawn inline.
        (chunk,) = scorenet._training_draws(np.random.default_rng(53), [g], 100, 312, 2, 64)
        return chunk["noise"].ravel()

    @pytest.mark.parametrize("path", ["gn_sample", "block_noise", "training_chunk"])
    @pytest.mark.parametrize("beta", [2.0, *NEAR_TWO])
    def test_matches_scipy_gennorm(self, monkeypatch, path, beta):
        calls = self.spy_on_gamma_root(monkeypatch)
        g = dist.GeneralizedNormal(0.7, 1.9, beta)
        draws = self.draws(path, g)
        assert draws.size >= 39_000
        assert (len(calls) > 0) == (beta != 2.0)
        ref = stats.gennorm(beta, loc=g.mu, scale=g.alpha)
        assert stats.kstest(draws, ref.cdf).pvalue > 0.01


class TestBlockNoise:
    """_block_noise against one gn_sample call per generator, in the
    sampler's step-major (steps, n, dim) layout."""

    # (steps, dim, generators), drawn on THREADS threads in uneven shares:
    # 70 = 23 + 23 + 24 and 5 = 1 + 2 + 2. The thread tests set
    # _INLINE_DRAW to 0, so every draw goes to the pool whatever its length.
    CASES = [(700, 3, 70), (50_001, 1, 5)]
    THREADS = 3

    @staticmethod
    def per_generator(g, steps, dim, n):
        return np.stack([dist.gn_sample(g, r, (steps, dim)) for r in generators(n)], axis=1)

    @pytest.mark.parametrize("steps, dim, n", CASES)
    @pytest.mark.parametrize("beta", [0.5, 1.0, 2.0, 2.5, 30.0])
    def test_bit_equal_to_per_generator_calls(self, monkeypatch, beta, steps, dim, n):
        monkeypatch.setattr(dist, "_draw_threads", lambda: self.THREADS)
        monkeypatch.setattr(dist, "_INLINE_DRAW", 0)
        g = dist.GeneralizedNormal(0.25, 1.5, beta)
        assert self.THREADS < n and n % self.THREADS
        got = dist._block_noise(g, generators(n), steps, dim)
        want = self.per_generator(g, steps, dim, n)
        assert got.shape == want.shape == (steps, n, dim) and got.flags.c_contiguous
        assert got.tobytes() == want.tobytes()

    def test_one_and_no_generators(self):
        g = dist.GeneralizedNormal(0.0, 1.0, 1.0)
        one = dist._block_noise(g, generators(1), 4, 3)
        assert one.shape == (4, 1, 3)
        assert one.tobytes() == self.per_generator(g, 4, 3, 1).tobytes()
        assert dist._block_noise(g, [], 4, 3).shape == (4, 0, 3)

    @pytest.mark.parametrize("threads", [1, 3])
    def test_bits_do_not_depend_on_thread_count(self, monkeypatch, threads):
        laplace, gauss = (dist.GeneralizedNormal(0.0, 1.0, beta) for beta in (1.0, 2.0))
        want = [dist._block_noise(g, generators(70), 700, 3) for g in (laplace, gauss)]
        monkeypatch.setattr(dist, "_draw_threads", lambda: threads)
        monkeypatch.setattr(dist, "_INLINE_DRAW", 0)
        # More threads than cores, switching as often as the interpreter allows.
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            got = [dist._block_noise(g, generators(70), 700, 3) for g in (laplace, gauss)]
        finally:
            sys.setswitchinterval(interval)
        assert [a.tobytes() for a in got] == [a.tobytes() for a in want]

    @pytest.mark.parametrize("cores, n, short, pools",
                             [(3, 1, False, []), (1, 70, False, []), (3, 2, False, [2]),
                              (3, 70, True, [])],
                             ids=["one-generator", "one-core", "two-generators", "short-draws"])
    def test_pool_only_for_two_threads_or_more(self, monkeypatch, cores, n, short, pools):
        started = []

        class Spy(ThreadPoolExecutor):
            def __init__(self, max_workers):
                started.append(max_workers)
                super().__init__(max_workers)

        monkeypatch.setattr(dist, "ThreadPoolExecutor", Spy)
        monkeypatch.setattr(dist, "_draw_threads", lambda: cores)
        g = dist.GeneralizedNormal(0.0, 1.0, 2.0)
        # At dim 2: the shortest draws that go to the pool, or one step less.
        steps = dist._INLINE_DRAW // 2 - short
        got = dist._block_noise(g, generators(n), steps, 2)
        assert started == pools
        assert got.tobytes() == self.per_generator(g, steps, 2, n).tobytes()

    def test_worker_error_reaches_the_caller(self, monkeypatch):
        monkeypatch.setattr(dist, "_draw_threads", lambda: 2)
        monkeypatch.setattr(dist, "_INLINE_DRAW", 0)
        rngs = generators(70)
        rngs[65] = None
        with pytest.raises(AttributeError):
            dist._block_noise(dist.GeneralizedNormal(0.0, 1.0, 1.0), rngs, 700, 3)


class TestVariance:
    def test_standard_members(self):
        assert dist.gn_variance(math.sqrt(2.0), 2.0) == pytest.approx(1.0, abs=1e-12)
        assert dist.gn_variance(1.0, 1.0) == pytest.approx(2.0, abs=1e-12)

    def test_intermediate_vs_monte_carlo(self):
        want = dist.gn_variance(1.0, 1.5)
        assert want == pytest.approx(0.7384881116216487, abs=1e-12)
        draws = dist.gn_sample(
            dist.GeneralizedNormal(0.0, 1.0, 1.5), np.random.default_rng(4), 200_000
        )
        assert draws.var() == pytest.approx(want, rel=0.03)

    def test_unit_variance_alpha_of_standard_members(self):
        for beta, want in ((2.0, math.sqrt(2.0)), (1.0, math.sqrt(0.5))):
            assert abs(dist.unit_variance_alpha(beta) - want) <= math.ulp(want)

    def test_unit_variance_alpha(self):
        for beta in (0.5, 1.0, 1.5, 2.0, 2.5):
            alpha = dist.unit_variance_alpha(beta)
            assert dist.gn_variance(alpha, beta) == pytest.approx(1.0, rel=1e-12)


class TestGeneralizedGamma:
    def test_quantile_matches_scaled_chi_squared(self):
        # At d = 1/2, p = 1 the model is (a/2) chi^2(1); with a = 2n this is
        # n chi^2(1).
        n = 7
        g = dist.GeneralizedGamma(2.0 * n, 0.5, 1.0)
        for q in (0.05, 0.37, 0.5, 0.9, 0.99):
            want = n * stats.chi2(1).ppf(q)
            assert dist.gg_quantile(g, q) == pytest.approx(want, rel=1e-8)

    def test_quantile_zero(self):
        g = dist.GeneralizedGamma(3.0, 0.5, 0.5)
        assert dist.gg_quantile(g, 0.0) == 0.0

    def test_quantile_array_equals_scalar_calls(self):
        g = dist.NormModel(2, 1.0, 1.3).gg
        levels = [0.0, *np.linspace(0.001, 0.999, 200).tolist()]
        got = dist.gg_quantile(g, np.array(levels))
        one_by_one = [dist.gg_quantile(g, q) for q in levels]
        assert all(type(v) is float for v in one_by_one)
        assert got.tolist() == one_by_one

    def test_cdf_quantile_roundtrip(self):
        g = dist.GeneralizedGamma(2.5, 0.5, 0.75)
        for q in (0.05, 0.37, 0.8):
            x = dist.gg_quantile(g, q)
            assert float(dist.gg_cdf(g, x)) == pytest.approx(q, abs=1e-8)
            assert dist.gg_quantile(g, float(dist.gg_cdf(g, x))) == pytest.approx(
                x, rel=1e-8
            )

    def test_pdf_matches_scipy_gengamma(self):
        g = dist.GeneralizedGamma(2.0, 0.5, 0.75)
        xs = np.array([0.1, 0.5, 1.5, 4.0])
        want = stats.gengamma(a=g.d / g.p, c=g.p, scale=g.a).pdf(xs)
        assert np.allclose(dist.gg_pdf(g, xs), want, rtol=1e-10)

    @pytest.mark.parametrize("beta", [0.05, 0.2, 0.5, 1.0, 1.3, 2.0, 2.5, 5.0, 20.0, 100.0])
    def test_norm_model_pdf_cdf_quantile_match_scipy_gengamma(self, beta):
        q = np.concatenate([np.logspace(-12, -1, 12), 1.0 - np.logspace(-1, -12, 12)])
        for n in (1, 2, 16):
            g = dist.NormModel(n, 1.0, beta).gg
            ref = stats.gengamma(a=g.d / g.p, c=g.p, scale=g.a)
            x = ref.ppf(q)
            np.testing.assert_allclose(dist.gg_pdf(g, x), ref.pdf(x), rtol=1e-12, atol=0.0)
            np.testing.assert_allclose(dist.gg_cdf(g, x), ref.cdf(x), rtol=1e-12, atol=0.0)
            np.testing.assert_allclose(dist.gg_quantile(g, q), x, rtol=1e-12, atol=0.0)

    def test_sampler_matches_cdf(self):
        g = dist.GeneralizedGamma(2.0, 0.5, 0.5)
        draws = dist.gg_sample(g, np.random.default_rng(5), 50_000)
        res = stats.kstest(draws, lambda x: dist.gg_cdf(g, x))
        assert res.pvalue > 0.01

    @pytest.mark.parametrize("beta, seed", [(30.0, 14), (100.0, 15)])
    def test_norm_model_sampler_at_large_beta_matches_scipy_gengamma(self, beta, seed):
        g = dist.NormModel(1, 1.0, beta).gg
        draws = dist.gg_sample(g, np.random.default_rng(seed), 200_000)
        assert np.all(draws > 0.0)
        want = stats.gengamma(a=g.d / g.p, c=g.p, scale=g.a)
        assert stats.kstest(draws, want.cdf).pvalue > 0.01

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            dist.GeneralizedGamma(1.0, -0.5, 1.0)
        with pytest.raises(ValueError):
            dist.GeneralizedGamma(0.0, 0.5, 1.0)


class TestNormModelMoments:
    def test_raw_moment_order_zero(self):
        g = dist.GeneralizedGamma(2.0, 0.5, 0.75)
        assert dist.gg_raw_moment(g, 0) == 1.0

    def test_laplace_mean_and_variance_factors(self):
        assert dist.squared_norm_mean_factor(1.0) == pytest.approx(2.0, abs=1e-12)
        assert dist.squared_norm_var_factor(1.0) == pytest.approx(20.0, abs=1e-12)

    @pytest.mark.parametrize("n", [4, 16])
    def test_model_moments(self, n):
        model = dist.NormModel(n, 1.0, 1.0)
        assert dist.gg_raw_moment(model.gg, 1) == pytest.approx(2.0 * n, rel=1e-12)
        second = dist.gg_raw_moment(model.gg, 2)
        var = second - dist.gg_raw_moment(model.gg, 1) ** 2
        assert var == pytest.approx(20.0 * n**2, rel=1e-10)
        assert model.mean() == pytest.approx(2.0 * n, rel=1e-12)
        assert model.variance() == pytest.approx(20.0 * n**2, rel=1e-10)

    def test_scaled_model_moment_identity(self):
        # E[Y] = n sigma^2 C1 and Var[Y] = n^2 sigma^4 C2, exactly.
        for beta in (0.5, 1.0, 1.7, 2.0):
            model = dist.NormModel(9, 1.3, beta)
            c1 = dist.squared_norm_mean_factor(beta)
            c2 = dist.squared_norm_var_factor(beta)
            assert model.mean() == pytest.approx(9 * 1.3**2 * c1, rel=1e-10)
            assert model.variance() == pytest.approx(81 * 1.3**4 * c2, rel=1e-10)


class TestNormModelSkew:
    def test_laplace_exact_value(self):
        # 74 / 5^(3/2); the printed decimal shorthand elsewhere rounds badly,
        # the closed form is authoritative.
        assert dist.norm_model_skew(1.0) == pytest.approx(74.0 / 5.0**1.5, abs=1e-10)

    def test_gaussian_reduces_to_gamma_skew(self):
        # Shape-1/2 gamma skew is 2 / sqrt(1/2).
        assert dist.norm_model_skew(2.0) == pytest.approx(2.0 * math.sqrt(2.0), abs=1e-10)

    def test_monte_carlo_skew_of_model(self):
        g = dist.NormModel(5, 1.0, 1.0).gg
        draws = dist.gg_sample(g, np.random.default_rng(6), 400_000)
        assert stats.skew(draws) == pytest.approx(dist.norm_model_skew(1.0), rel=0.05)

    def test_finite_and_decreasing_in_beta(self):
        grid = np.linspace(0.5, 2.5, 21)
        vals = [dist.norm_model_skew(float(b)) for b in grid]
        assert all(math.isfinite(v) for v in vals)
        assert all(b < a for a, b in zip(vals, vals[1:]))


class TestEmpiricalNormQuantile:
    def test_gaussian_case_matches_chi_squared(self):
        # sigma = sqrt(2) makes each coordinate standard normal.
        got = dist.empirical_norm_quantile(
            16, math.sqrt(2.0), 2.0, 0.5, 100_000, np.random.default_rng(7)
        )
        assert got == pytest.approx(stats.chi2(16).ppf(0.5), rel=0.02)

    def test_low_quantile_approaches_zero(self):
        got = dist.empirical_norm_quantile(
            4, 1.0, 1.0, 0.001, 20_000, np.random.default_rng(8)
        )
        assert 0.0 < got < 1.0

    def test_sum_mean_scales_linearly(self):
        rng = np.random.default_rng(9)
        draws = dist.gn_sample(dist.GeneralizedNormal(0.0, 1.0, 1.0), rng, (50_000, 64))
        total = (draws**2).sum(axis=1)
        assert total.mean() == pytest.approx(128.0, rel=0.02)

    def test_array_levels_share_one_sample(self):
        levels = [0.05, 0.5, 0.95]
        got = dist.empirical_norm_quantile(4, 1.0, 1.3, np.array(levels), 20_000,
                                           np.random.default_rng(4))
        one_by_one = [dist.empirical_norm_quantile(4, 1.0, 1.3, q, 20_000, np.random.default_rng(4))
                      for q in levels]
        assert isinstance(got, np.ndarray) and all(type(v) is float for v in one_by_one)
        assert got.tolist() == one_by_one

    def test_requires_enough_samples(self):
        with pytest.raises(ValueError):
            dist.empirical_norm_quantile(4, 1.0, 1.0, 0.5, 100, np.random.default_rng(0))

    @pytest.mark.parametrize("n", [16, 64])
    def test_model_variance_overstates_true_sum_by_factor_n(self, n):
        # True sum variance is n sigma^4 C2; the scaled model says n^2 sigma^4 C2.
        rng = np.random.default_rng(10)
        draws = dist.gn_sample(dist.GeneralizedNormal(0.0, 1.0, 1.0), rng, (100_000, n))
        mc_var = (draws**2).sum(axis=1).var()
        model_var = dist.NormModel(n, 1.0, 1.0).variance()
        assert model_var / mc_var == pytest.approx(n, rel=0.2)
