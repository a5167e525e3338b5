import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, special

from htdsm import specfun


def quad_reg_lower_inc_gamma(s, x):
    """Independent oracle: adaptive quadrature of the defining integral."""
    val, _ = integrate.quad(
        lambda t: t ** (s - 1.0) * math.exp(-t), 0.0, x, limit=200
    )
    return val / math.exp(special.gammaln(s))


class TestLogGamma:
    def test_known_values(self):
        assert specfun.log_gamma(1.0) == pytest.approx(0.0, abs=1e-12)
        assert specfun.log_gamma(0.5) == pytest.approx(math.log(math.sqrt(math.pi)), rel=1e-13)
        assert specfun.log_gamma(5.0) == pytest.approx(math.log(24.0), rel=1e-13)

    def test_exact_at_one_and_two(self):
        assert specfun.log_gamma(1.0) == specfun.log_gamma(2.0) == 0.0

    def test_accuracy_over_range(self):
        rng = np.random.default_rng(0)
        xs = 10.0 ** rng.uniform(-3, 3, 2000)
        for x in xs:
            want = special.gammaln(x)
            err = abs(specfun.log_gamma(float(x)) - want) / max(1.0, abs(want))
            assert err <= 1e-12

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.inf, math.nan])
    def test_domain_errors(self, bad):
        with pytest.raises(ValueError):
            specfun.log_gamma(bad)


class TestRegLowerIncGamma:
    def test_exponential_case(self):
        assert specfun.reg_lower_inc_gamma(1.0, 1.0) == pytest.approx(
            1.0 - math.exp(-1.0), abs=1e-12
        )

    def test_zero_is_zero(self):
        assert specfun.reg_lower_inc_gamma(0.5, 0.0) == 0.0

    def test_half_shape_vs_quadrature(self):
        # P(1/2, 2) equals erf(sqrt(2)); the oracle is the defining integral.
        want = quad_reg_lower_inc_gamma(0.5, 2.0)
        assert want == pytest.approx(math.erf(math.sqrt(2.0)), abs=1e-10)
        assert specfun.reg_lower_inc_gamma(0.5, 2.0) == pytest.approx(want, abs=1e-10)

    @pytest.mark.parametrize("s", [0.25, 0.4, 1.0, 2.0, 5.0])
    def test_quadrature_grid(self, s):
        for x in (0.01, 0.3, s, s + 1.5, 4 * s + 6):
            want = quad_reg_lower_inc_gamma(s, x)
            assert specfun.reg_lower_inc_gamma(s, x) == pytest.approx(want, abs=1e-10)

    def test_exponential_closed_form_range(self):
        for x in np.linspace(0.0, 50.0, 201):
            want = 1.0 - math.exp(-x)
            assert abs(specfun.reg_lower_inc_gamma(1.0, float(x)) - want) <= 1e-10

    @pytest.mark.parametrize("s", [0.25, 0.5, 1.0, 2.0, 5.0])
    def test_strictly_increasing(self, s):
        xs = np.concatenate([np.linspace(1e-4, 2 * s + 1, 60), [5 * s + 10]])
        vals = [specfun.reg_lower_inc_gamma(s, float(x)) for x in xs]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            specfun.reg_lower_inc_gamma(0.0, 1.0)
        with pytest.raises(ValueError):
            specfun.reg_lower_inc_gamma(1.0, -0.1)
        with pytest.raises(ValueError):
            specfun.reg_lower_inc_gamma(math.nan, 1.0)


class TestInverse:
    def test_exponential_inverse(self):
        got = specfun.inv_reg_lower_inc_gamma(1.0, 1.0 - math.exp(-1.0))
        assert got == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("s", [0.3, 1.0, 4.0])
    def test_q_zero(self, s):
        assert specfun.inv_reg_lower_inc_gamma(s, 0.0) == 0.0

    def test_half_shape_roundtrip(self):
        x = specfun.inv_reg_lower_inc_gamma(0.5, 0.95)
        assert specfun.reg_lower_inc_gamma(0.5, x) == pytest.approx(0.95, abs=1e-9)

    @pytest.mark.parametrize("s", [0.25, 0.5, 1.0, 2.0, 5.0])
    def test_roundtrip_grid(self, s):
        for q in np.linspace(0.01, 0.99, 99):
            x = specfun.inv_reg_lower_inc_gamma(s, float(q))
            assert abs(specfun.reg_lower_inc_gamma(s, x) - q) <= 1e-8

    def test_matches_scipy(self):
        for s in (0.4, 1.7, 3.0):
            for q in (0.05, 0.5, 0.99):
                want = special.gammaincinv(s, q)
                got = specfun.inv_reg_lower_inc_gamma(s, q)
                assert got == pytest.approx(want, rel=1e-8)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            specfun.inv_reg_lower_inc_gamma(1.0, 1.0)
        with pytest.raises(ValueError):
            specfun.inv_reg_lower_inc_gamma(1.0, -0.01)
        with pytest.raises(ValueError):
            specfun.inv_reg_lower_inc_gamma(-2.0, 0.5)


# The inverse's stated relative bound against scipy.special.gammaincinv over
# the supported domain (measured worst on a dense grid: 3e-13, at s = 0.01
# where the root's condition number is 1/s). Roots below the smallest
# normal double are compared absolutely at that scale.
INVERSE_RTOL = 1e-11
TINY = 2.2250738585072014e-308

shapes = st.floats(min_value=0.01, max_value=1e3)
levels = st.floats(min_value=1e-12, max_value=1.0 - 1e-12)


def assert_close_to_scipy(s, q, got):
    want = special.gammaincinv(s, q)
    assert np.all(np.abs(got - want) <= INVERSE_RTOL * np.maximum(want, TINY)), (s, q, got, want)


class TestInverseProperties:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(s=shapes, q=levels)
    def test_relative_error_against_scipy(self, s, q):
        assert_close_to_scipy(s, q, specfun.inv_reg_lower_inc_gamma(s, q))

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(s=shapes, qs=st.lists(st.one_of(levels, st.just(0.0)), min_size=1, max_size=12))
    def test_array_equals_elementwise_scalar_calls_bitwise(self, s, qs):
        got = specfun.inv_reg_lower_inc_gamma(s, np.array(qs))
        scalars = [specfun.inv_reg_lower_inc_gamma(s, q) for q in qs]
        assert all(type(x) is float for x in scalars)
        assert np.array_equal(bits(got), bits(scalars))

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(s=shapes, qs=st.lists(levels, min_size=2, max_size=12))
    def test_monotone_in_q(self, s, qs):
        qs = np.sort(qs)
        x = specfun.inv_reg_lower_inc_gamma(s, qs)
        assert np.all(np.diff(x) >= 0.0)
        assert_close_to_scipy(s, qs, x)

    @pytest.mark.parametrize("s, q", [(0.01, 0.5), (10.0, 1e-12), (0.5, 1.0 - 1e-15),
                                      (0.01, 1.0 - 1e-15)])
    def test_tail_regressions(self, s, q):
        # The bisection-Newton inverse this replaced returned 2.2e-16 (true
        # 4.5e-31), was off by 2.3e-3 relative, returned 48 (true 32.2) and
        # 24 (true 26.7) at these points.
        assert_close_to_scipy(s, q, specfun.inv_reg_lower_inc_gamma(s, q))

    @pytest.mark.parametrize("factor", [1e-6, 1e-2, 1e2, 1e6])
    def test_converges_from_poor_starting_values(self, monkeypatch, factor):
        # Capped steps and bisection of the bracket carry a start that is
        # off by orders of magnitude to the root.
        monkeypatch.setattr(specfun, "_inverse_start",
                            lambda s, p, log_gamma_s: factor * special.gammaincinv(s, p))
        q = np.array([1e-12, 0.3, 0.7, 1.0 - 1e-12])
        for s in (0.1, 1.0, 30.0, 1000.0):
            assert_close_to_scipy(s, q, specfun.inv_reg_lower_inc_gamma(s, q))

    def test_shape_and_type(self):
        q = np.array([[0.0, 0.1, 0.5], [0.9, 0.99, 1e-300]])
        got = specfun.inv_reg_lower_inc_gamma(0.7, q)
        assert got.shape == (2, 3) and got[0, 0] == 0.0
        assert specfun.inv_reg_lower_inc_gamma(0.7, np.empty((0, 2))).shape == (0, 2)
        assert type(specfun.inv_reg_lower_inc_gamma(0.7, np.float64(0.3))) is float

    @pytest.mark.parametrize("bad", [1.0, -1e-300, math.nan, math.inf])
    def test_bad_element_anywhere_raises(self, bad):
        q = np.linspace(0.0, 0.9, 6)
        q[4] = bad
        with pytest.raises(ValueError, match="0 <= q < 1"):
            specfun.inv_reg_lower_inc_gamma(0.5, q)


def scalar_reference(s, x):
    """The incomplete gamma as one scalar loop per value (series below
    s + 1, Lentz continued fraction above), with the float operations in
    the order the array code must reproduce bit for bit."""
    if x == 0.0:
        return 0.0
    log_gamma_s = specfun.log_gamma(s)
    if x < s + 1.0:
        term = total = 1.0 / s
        denom = s
        while True:
            denom += 1.0
            term *= x / denom
            total += term
            if abs(term) < abs(total) * specfun._EPS:
                p = total * math.exp(-x + s * math.log(x) - log_gamma_s)
                break
    else:
        tiny = 1e-300
        b = x + 1.0 - s
        c = 1.0 / tiny
        d = h = 1.0 / b
        i = 0
        while True:
            i += 1
            an = -i * (i - s)
            b += 2.0
            d = an * d + b
            if abs(d) < tiny:
                d = tiny
            c = b + an / c
            if abs(c) < tiny:
                c = tiny
            d = 1.0 / d
            delta = d * c
            h *= delta
            if abs(delta - 1.0) < specfun._EPS:
                p = 1.0 - math.exp(-x + s * math.log(x) - log_gamma_s) * h
                break
    return min(max(p, 0.0), 1.0)


def mixed_points(s, count=300, seed=3):
    """x = 0, x exactly s + 1 and its neighbours, tiny and large x, and a
    log-uniform spread: both branches, each element converging at its own
    iteration."""
    edge = s + 1.0
    special_points = [0.0, edge, np.nextafter(edge, 0.0), np.nextafter(edge, 1e9), 1e-300, 5e-324,
                      s, 60.0 * s + 40.0]
    rng = np.random.default_rng(seed)
    return np.concatenate([special_points, 10.0 ** rng.uniform(-8, 2.5, count)])


def bits(values):
    return np.asarray(values, dtype=float).view(np.int64)


class TestArrayContract:
    @pytest.mark.parametrize("s", [0.01, 0.4, 0.5, 1.0, 2.0, 5.0, 40.0])
    def test_array_equals_per_element_calls_bitwise(self, s):
        x = mixed_points(s)
        got = specfun.reg_lower_inc_gamma(s, x)
        assert isinstance(got, np.ndarray) and got.shape == x.shape
        per_element = [specfun.reg_lower_inc_gamma(s, v) for v in x.tolist()]
        reference = [scalar_reference(s, v) for v in x.tolist()]
        assert np.array_equal(bits(got), bits(per_element))
        assert np.array_equal(bits(got), bits(reference))

    @pytest.mark.parametrize("s", [0.4, 1.0 / 1.3])
    def test_many_points_match_scalar_reference(self, s):
        # Enough points that a 1-ulp change in the prefactor's exp shows.
        x = mixed_points(s, count=20_000, seed=11)
        reference = [scalar_reference(s, v) for v in x.tolist()]
        assert np.array_equal(bits(specfun.reg_lower_inc_gamma(s, x)), bits(reference))

    def test_points_sensitive_to_the_log_rounding(self):
        # At these x, numpy's SIMD log (AVX-512 builds) is 1 ulp off math.log,
        # and the ulp survives into P(0.5, x).
        hexes = ("0x1.75ce6148b2869p-1", "0x1.3ba05c2bbd25bp+0", "0x1.2ec7e2251d9dbp-8",
                 "0x1.241a2f315562fp-4", "0x1.f792028ca9474p-5", "0x1.a044186eecc37p+0",
                 "0x1.a88fcf1da2aa4p-4", "0x1.f42cf1d36c692p-5")
        x = np.array([float.fromhex(h) for h in hexes])
        reference = [scalar_reference(0.5, v) for v in x.tolist()]
        assert np.array_equal(bits(specfun.reg_lower_inc_gamma(0.5, x)), bits(reference))

    def test_two_dimensional_input_keeps_its_shape(self):
        x = mixed_points(0.7, count=92).reshape(10, 10)
        got = specfun.reg_lower_inc_gamma(0.7, x)
        assert got.shape == (10, 10)
        assert np.array_equal(bits(got.ravel()), bits(specfun.reg_lower_inc_gamma(0.7, x.ravel())))
        assert np.array_equal(bits(got.T), bits(specfun.reg_lower_inc_gamma(0.7, x.T)))

    def test_empty_array(self):
        got = specfun.reg_lower_inc_gamma(0.5, np.empty((0, 3)))
        assert got.shape == (0, 3)

    @pytest.mark.parametrize("x", [2.0, np.float64(2.0), np.array(2.0), 0.0, 7])
    def test_scalar_input_returns_float(self, x):
        got = specfun.reg_lower_inc_gamma(0.5, x)
        assert type(got) is float
        assert got == scalar_reference(0.5, float(x))

    def test_one_element_array_stays_an_array(self):
        got = specfun.reg_lower_inc_gamma(0.5, [2.0])
        assert isinstance(got, np.ndarray) and got.shape == (1,)

    @pytest.mark.parametrize("bad", [math.nan, -math.inf, -1e-300, -2.0])
    def test_bad_element_anywhere_raises(self, bad):
        x = np.linspace(0.0, 5.0, 12)
        x[7] = bad
        with pytest.raises(ValueError, match="x >= 0"):
            specfun.reg_lower_inc_gamma(0.5, x)
        with pytest.raises(ValueError, match="x >= 0"):
            specfun.reg_lower_inc_gamma(0.5, x.reshape(3, 4))

    @pytest.mark.parametrize("s", [0.01, 0.5, 2.0, 1e3])
    def test_infinite_x_gives_p_one_and_q_zero(self, s):
        x = np.array([0.0, 1.5, np.inf, np.inf])
        complement = np.array([False, False, False, True])
        got = specfun.reg_lower_inc_gamma(s, x, complement=complement)
        assert got[2:].tolist() == [1.0, 0.0]
        assert got[1] == specfun.reg_lower_inc_gamma(s, 1.5)
        assert specfun.reg_lower_inc_gamma(s, math.inf) == 1.0
        assert specfun.reg_lower_inc_gamma(s, math.inf, complement=True) == 0.0

    @pytest.mark.parametrize("x", [[0.75], [1.5], [0.75, 1e-300], [1.5, 1e6]],
                             ids=["series", "fraction", "series-mixed", "fraction-mixed"])
    def test_iteration_cap_raises_convergence_error(self, monkeypatch, x):
        # At s = 0.5, x = 0.75 needs more than two series terms and x = s + 1
        # more than two fraction steps; 1e-300 and 1e6 converge within two.
        monkeypatch.setattr(specfun, "_MAX_ITER", 2)
        with pytest.raises(specfun.ConvergenceError):
            specfun.reg_lower_inc_gamma(0.5, np.array(x))

    def test_iteration_cap_leaves_quick_elements_alone(self, monkeypatch):
        monkeypatch.setattr(specfun, "_MAX_ITER", 2)
        assert specfun.reg_lower_inc_gamma(0.5, np.array([1e-300, 1e6])).shape == (2,)


# gn_cdf and gg_cdf outputs recorded as float.hex, first from the scalar
# np.vectorize implementation the array code replaced. The x < mu gn_cdf
# values were re-recorded when that half became Q/2, and the values that
# moved at beta 1.3 and 2.5 when log_gamma became the C library's lgamma.
# Inputs are GN draws (mu = 0, alpha = 1) and squared norms of 2-D GN vectors.
GOLDEN = {
    0.5: (
        ["-0x1.92ccc2ae6f030p+4", "-0x1.b669b6b822d96p+5", "-0x1.f28a90cac0f2bp+0",
         "-0x1.30d3f78e41367p+1", "-0x1.3d1ed7d900be7p-3", "0x1.6202eae439261p-2"],
        ["0x1.466562c992e70p-6", "0x1.4fa9e7c8a3180p-9", "0x1.2fd0596d634e8p-2",
         "0x1.1641f16e422e6p-2", "0x1.e15f8120ab41ep-2", "0x1.1e3279e84bc25p-1"],
        ["0x1.c8259416486a2p+2", "0x1.17d65128c0163p+2", "0x1.f10de2d6a5209p+9",
         "0x1.71a3ba9d2a0dbp+0", "0x1.44b90877342a8p+9", "0x1.52f654d7cf6dcp+2"],
        ["0x1.98b92c5641f98p-2", "0x1.5f5f9058a8004p-2", "0x1.e5ed87a52b1c2p-1",
         "0x1.e24bb7c681077p-3", "0x1.d9809d30454c9p-1", "0x1.7547601217a9cp-2"],
    ),
    1.3: (
        ["-0x1.11db9d1201e71p+0", "0x1.25d476f5616b6p-1", "-0x1.085575dfb9060p-1",
         "0x1.41c28758ec3e0p-1", "0x1.ea7536a197081p-5", "-0x1.fb2e58137cf7cp-3"],
        ["0x1.eef55580095b8p-4", "0x1.821ef33354fe8p-1", "0x1.1008f8ded74e6p-2",
         "0x1.8b2590f70a38ap-1", "0x1.10693429ee7f0p-1", "0x1.7ff37d92bd961p-2"],
        ["0x1.becdb9575483cp+2", "0x1.4bdff1b642309p-1", "0x1.9926105687299p+1",
         "0x1.983361abab5f5p+0", "0x1.039c44831566ep+4", "0x1.409810379877dp+0"],
        ["0x1.dd87e2e87f6edp-1", "0x1.02abfb6eaa59fp-1", "0x1.a41676a0f2089p-1",
         "0x1.5f3f2343a68f9p-1", "0x1.f9fbb385cb0f1p-1", "0x1.45ec37164b547p-1"],
    ),
    2.5: (
        ["0x1.ddb0206ddeef7p-3", "-0x1.8af021ef20502p-1", "-0x1.c9402de7f383fp-5",
         "-0x1.0862d8e235927p-4", "0x1.1725faa47adb5p-1", "0x1.1bf51292a8f18p+0"],
        ["0x1.42cbeaa881a24p-1", "0x1.f15c9b39626dcp-4", "0x1.dfcc257e13690p-2",
         "0x1.dac38ccafa327p-2", "0x1.940b364766acep-1", "0x1.eb7cdc9db4f06p-1"],
        ["0x1.6b0bd3b53b959p-1", "0x1.e9cd9ecb80689p-4", "0x1.1e1578367f398p+1",
         "0x1.4f902d2c740b2p-4", "0x1.f76d0ddb0489dp+0", "0x1.779017848c01dp-1"],
        ["0x1.3ec0465b9c129p-1", "0x1.17d7273a4afdcp-2", "0x1.ce1ba0133a867p-1",
         "0x1.d0b7aba272443p-3", "0x1.c1068b1fc29d6p-1", "0x1.43312a750deb3p-1"],
    ),
}


@pytest.mark.parametrize("beta", sorted(GOLDEN))
def test_gn_cdf_and_gg_cdf_match_recorded_bits(beta):
    from htdsm import distributions

    draws, cdf, sq_norms, gg_cdf = (
        np.array([float.fromhex(h) for h in column]) for column in GOLDEN[beta]
    )
    gn = distributions.GeneralizedNormal(0.0, 1.0, beta)
    gg = distributions.NormModel(2, 1.0, beta).gg
    assert [v.hex() for v in distributions.gn_cdf(gn, draws).tolist()] == [v.hex() for v in cdf]
    assert [v.hex() for v in distributions.gg_cdf(gg, sq_norms).tolist()] == [v.hex() for v in gg_cdf]
