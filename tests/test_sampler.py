import dataclasses
import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from htdsm import distributions as dist
from htdsm.experiments import write_endpoints_csv
from htdsm.sampler import (
    CONVERGED,
    DIVERGED,
    SamplerConfig,
    _coordinate_bound,
    _within,
    ald_run,
    forward_chain,
    particle_rng,
)
from htdsm.schedule import NoiseSchedule, geometric_schedule
from htdsm.scorenet import MixtureSpec, TrainConfig, train


def detect_divergence(positions, divergence_radius: float = 100.0) -> str:
    """Oracle for a recorded path: diverged iff any position is non-finite or
    leaves the given radius."""
    positions = np.atleast_2d(np.asarray(positions, dtype=float))
    if not np.all(np.isfinite(positions)):
        return DIVERGED
    if np.any(np.linalg.norm(positions, axis=-1) > divergence_radius):
        return DIVERGED
    return CONVERGED


def single_level(sigma=1.0, n=2):
    return NoiseSchedule(sigmas=(sigma,), beta=2.0, n=n, delta=None, kind="geometric")


class TestSamplerConfig:
    def test_divergence_radius_must_exceed_box(self):
        with pytest.raises(ValueError):
            SamplerConfig(schedule=single_level(), divergence_radius=5.0)

    def test_steps_per_level_length_checked(self):
        with pytest.raises(ValueError):
            SamplerConfig(schedule=geometric_schedule(1.0, 0.25, 2),
                          steps_per_level=(10, 10, 10))

    def test_negative_step_size_rejected(self):
        with pytest.raises(ValueError):
            SamplerConfig(schedule=single_level(), step_size=-0.1)

    def test_infinite_divergence_radius_rejected(self):
        with pytest.raises(ValueError):
            SamplerConfig(schedule=single_level(), divergence_radius=math.inf)

    @pytest.mark.parametrize("key, value", [
        ("step_size", math.nan), ("step_size", math.inf), ("init_half_width", math.nan),
        ("beta_diff", math.inf), ("steps_per_level", 1.5), ("steps_per_level", (5.0,)),
        ("seed", 1.5), ("seed", True),
    ])
    def test_non_finite_or_non_integer_value_rejected(self, key, value):
        with pytest.raises(ValueError, match=key.replace("_", "[_ ]")):
            SamplerConfig(schedule=single_level(), **{key: value})

    def test_zero_step_size_allowed(self):
        cfg = SamplerConfig(schedule=single_level(), step_size=0.0)
        assert cfg.step_size == 0.0

    def test_json_roundtrip(self):
        cfg = SamplerConfig(schedule=geometric_schedule(1.0, 0.25, 2),
                            steps_per_level=(5, 7), beta_diff=1.0, seed=3)
        assert SamplerConfig.from_dict(cfg.to_dict()) == cfg


class TestLangevinDynamics:
    def test_zero_step_paths_constant(self):
        cfg = SamplerConfig(schedule=single_level(), steps_per_level=10,
                            step_size=0.0, record_paths=True, seed=5)
        paths = ald_run(lambda x, ls: -x, cfg, 6)
        for p in paths:
            assert p.status == CONVERGED
            assert np.array_equal(p.positions[0], p.positions[-1])

    def test_init_from_particle_stream(self):
        cfg = SamplerConfig(schedule=single_level(), steps_per_level=1,
                            step_size=0.0, record_paths=True, seed=7)
        paths = ald_run(lambda x, ls: -x, cfg, 3)
        for pid, p in enumerate(paths):
            want = particle_rng(7, pid).uniform(-6.0, 6.0, 2)
            assert np.array_equal(p.positions[0], want)

    def test_update_rule_reconstructed(self):
        # x_{t+1} = (1 - eps) x_t + sqrt(2 eps) z_t for score -x; replaying
        # the per-particle stream recovers z_t exactly, and the noiseless
        # recurrence contracts geometrically by (1 - eps).
        eps = 0.13
        cfg = SamplerConfig(schedule=single_level(), steps_per_level=50,
                            step_size=eps, record_paths=True, seed=11)
        paths = ald_run(lambda x, ls: -x, cfg, 4)
        alpha_v = dist.unit_variance_alpha(2.0)
        for pid, p in enumerate(paths):
            rng = particle_rng(11, pid)
            rng.uniform(-6.0, 6.0, 2)
            z = dist.gn_sample(dist.GeneralizedNormal(0.0, alpha_v, 2.0), rng, (50, 2))
            x = p.positions[0]
            for t in range(50):
                x = (1 - eps) * x + math.sqrt(2 * eps) * z[t]
                assert np.allclose(p.positions[t + 1], x, atol=1e-12)

    def test_stationary_variance_of_quadratic_score(self):
        # Exact discrete-chain variance: 2 eps / (1 - (1-eps)^2).
        eps = 0.05
        cfg = SamplerConfig(schedule=single_level(), steps_per_level=500,
                            step_size=eps, seed=1)
        paths = ald_run(lambda x, ls: -x, cfg, 10_000)
        finals = np.array([p.final for p in paths])
        exact = 2 * eps / (1 - (1 - eps) ** 2)
        # Coordinates are i.i.d.; pooling them halves the Monte Carlo error.
        assert finals.ravel().var(ddof=1) == pytest.approx(exact, rel=0.05)

    def test_all_diverged_reported_not_raised(self):
        cfg = SamplerConfig(schedule=single_level(), steps_per_level=300,
                            step_size=0.1, seed=2)
        paths = ald_run(lambda x, ls: 5.0 * x, cfg, 20)
        assert all(p.status == DIVERGED for p in paths)


class TestAnnealedLangevinDynamics:
    def test_score_evaluation_count_and_conditioning(self):
        calls = []

        def probe(x, log_sigma):
            calls.append((x.shape[0], log_sigma))
            return -x

        cfg = SamplerConfig(schedule=geometric_schedule(1.0, 0.25, 2),
                            steps_per_level=3, step_size=0.05, seed=4)
        ald_run(probe, cfg, 5)
        assert len(calls) == 6
        assert [c[1] for c in calls] == [0.0] * 3 + [math.log(0.25)] * 3

    def test_step_size_rule(self):
        # With zero score the per-level displacement variance is 2 eps_i T,
        # so the level ratio recovers eps * [1, 0.0625].
        sched = geometric_schedule(1.0, 0.25, 2)
        cfg = SamplerConfig(schedule=sched, steps_per_level=200, step_size=0.1,
                            record_paths=True, seed=6)
        paths = ald_run(lambda x, ls: np.zeros_like(x), cfg, 400)
        deltas_1 = np.array([p.positions[200] - p.positions[0] for p in paths])
        deltas_2 = np.array([p.positions[400] - p.positions[200] for p in paths])
        var_1 = deltas_1.var()
        var_2 = deltas_2.var()
        assert var_1 == pytest.approx(2 * 0.1 * 200, rel=0.1)
        assert var_2 == pytest.approx(2 * 0.1 * 0.0625 * 200, rel=0.1)

    def test_per_level_step_counts(self):
        calls = []

        def probe(x, log_sigma):
            calls.append(log_sigma)
            return -x

        cfg = SamplerConfig(schedule=geometric_schedule(1.0, 0.25, 2),
                            steps_per_level=(2, 5), step_size=0.05, seed=4)
        ald_run(probe, cfg, 3)
        assert len(calls) == 7

    def test_bitwise_determinism_and_block_invariance(self):
        cfg = SamplerConfig(schedule=geometric_schedule(1.0, 0.25, 2),
                            steps_per_level=25, step_size=0.1, seed=9)
        a = ald_run(lambda x, ls: -x, cfg, 64)
        b = ald_run(lambda x, ls: -x, cfg, 64)
        big = ald_run(lambda x, ls: -x, cfg, 200)
        for pa, pb, pc in zip(a, b, big[:64]):
            assert np.array_equal(pa.final, pb.final)
            assert np.array_equal(pa.final, pc.final)


def unstable_score(x, log_sigma):
    """Pulls particles within radius 5 to the origin and pushes the rest out;
    escapes to the right turn non-finite before they reach the radius."""
    r = np.linalg.norm(x, axis=1, keepdims=True)
    score = np.where(r > 5.0, 0.5 * x, -x)
    score[x[:, 0] > 50.0] = np.nan
    return score


class TestMidRunDivergence:
    CFG = SamplerConfig(schedule=geometric_schedule(1.0, 0.25, 2),
                        steps_per_level=100, step_size=0.1, beta_diff=1.0, seed=21)

    @staticmethod
    def same(a, b):
        return all(pa.status == pb.status and pa.final.tobytes() == pb.final.tobytes()
                   for pa, pb in zip(a, b))

    def test_block_invariance(self):
        small = ald_run(unstable_score, self.CFG, 64)
        big = ald_run(unstable_score, self.CFG, 200)
        diverged = [p for p in small if p.status == DIVERGED]
        assert 0 < len(diverged) < len(small)
        assert any(np.isnan(p.final).any() for p in diverged)
        assert any(np.linalg.norm(p.final) > self.CFG.divergence_radius for p in diverged)
        assert self.same(small, big[:64])

    def test_matches_per_particle_reference(self):
        # Each particle replayed alone from its own stream, frozen at the
        # first position outside the radius or non-finite.
        cfg = self.CFG
        sigmas = cfg.schedule.sigmas
        alpha_v = dist.unit_variance_alpha(cfg.beta_diff)
        paths = ald_run(unstable_score, cfg, 64)
        for pid, p in enumerate(paths):
            rng = particle_rng(cfg.seed, pid)
            x = rng.uniform(-6.0, 6.0, 2)
            z = dist.gn_sample(dist.GeneralizedNormal(0.0, alpha_v, cfg.beta_diff), rng,
                               (sum(cfg.steps_per_level), 2))
            status, step = CONVERGED, 0
            for sigma, t_level in zip(sigmas, cfg.steps_per_level):
                eps = cfg.step_size * sigma**2 / sigmas[0] ** 2
                for _ in range(t_level):
                    if status == CONVERGED:
                        with np.errstate(invalid="ignore"):
                            score = unstable_score(x[None], math.log(sigma))[0]
                            x = x + eps * score + math.sqrt(2.0 * eps) * z[step]
                        if not np.linalg.norm(x[None], axis=1)[0] <= cfg.divergence_radius:
                            status = DIVERGED
                    step += 1
            assert p.status == status
            assert p.final.tobytes() == x.tobytes()

    def test_record_paths_does_not_change_finals(self):
        plain = ald_run(unstable_score, self.CFG, 64)
        recorded = ald_run(unstable_score, dataclasses.replace(self.CFG, record_paths=True), 64)
        assert self.same(plain, recorded)
        for p in recorded:
            assert p.positions[-1].tobytes() == p.final.tobytes()
            assert p.status == detect_divergence(p.positions, self.CFG.divergence_radius)
            if p.status == DIVERGED:
                # Frozen at the first position outside the radius or non-finite.
                outside = ~(np.linalg.norm(p.positions, axis=1) <= self.CFG.divergence_radius)
                first = np.flatnonzero(outside)[0]
                assert all(q.tobytes() == p.final.tobytes() for q in p.positions[first:])


# sha256 of the endpoint CSV below, recorded when each particle's noise came
# from its own gn_sample call, and re-recorded when log_gamma became the C
# library's lgamma, which moves the training and diffusion scales
# unit_variance_alpha(2.0) and (1.0). Re-recorded again, with 6 divergences
# in place of 8, when beta 2 draws came from standard_normal: the network
# trains on beta 2 noise, so its weights and the endpoints moved. The
# network's rounding depends on the BLAS kernel, so the pin holds per host
# and BLAS build (x86-64 OpenBLAS).
NETWORK_ENDPOINTS_SHA256 = "ff08d387ef5c203cb972669667e5c855659576d9a9184c38411aeb673e2386ea"


def test_network_score_endpoints_are_pinned(tmp_path):
    # 400 particles x 400 steps x 2 coordinates, and a radius of 12 makes 6
    # particles diverge mid-run.
    sched = geometric_schedule(1.0, 0.25, 2)
    data = MixtureSpec.two_mode(10.0).sample(np.random.default_rng(3), 2000)
    net, _ = train(data, TrainConfig(schedule=sched, steps=300, seed=4), np.random.default_rng(4))
    cfg = SamplerConfig(schedule=sched, steps_per_level=200, step_size=0.1, beta_diff=1.0,
                        divergence_radius=12.0, seed=5)
    paths = ald_run(lambda x, ls: net.forward(x, ls), cfg, 400)
    assert sum(p.status == DIVERGED for p in paths) == 6
    out = tmp_path / "endpoints.csv"
    write_endpoints_csv(out, [p.final for p in paths], [p.status == DIVERGED for p in paths])
    assert hashlib.sha256(out.read_bytes()).hexdigest() == NETWORK_ENDPOINTS_SHA256


class TestDiffusionShapes:
    @pytest.mark.parametrize("beta", [0.5, 1.0, 1.5, 2.0, 2.5])
    def test_unit_variance_injection(self, beta):
        g = dist.GeneralizedNormal(0.0, dist.unit_variance_alpha(beta), beta)
        z = dist.gn_sample(g, np.random.default_rng(10), 1_000_000)
        assert z.var() == pytest.approx(1.0, rel=0.01)

    def test_laplace_diffusion_runs(self):
        cfg = SamplerConfig(schedule=single_level(), steps_per_level=100,
                            step_size=0.05, beta_diff=1.0, seed=12)
        paths = ald_run(lambda x, ls: -x, cfg, 100)
        assert all(p.status == CONVERGED for p in paths)


class TestForwardChain:
    def test_single_level_is_gaussian_increment(self):
        rng = np.random.default_rng(13)
        x0 = np.zeros((100_000, 1))
        states = forward_chain(x0, [0.7], rng)
        inc = states[1] - states[0]
        assert inc.mean() == pytest.approx(0.0, abs=0.01)
        assert inc.var() == pytest.approx(0.49, rel=0.02)

    def test_marginal_variance_telescopes(self):
        rng = np.random.default_rng(14)
        states = forward_chain(np.zeros((100_000, 1)), [0.3, 0.5, 1.0], rng)
        assert (states[-1] - states[0]).var() == pytest.approx(1.0, rel=0.02)

    def test_heavy_tailed_increments_keep_variance(self):
        rng = np.random.default_rng(15)
        states = forward_chain(np.zeros((100_000, 1)), [0.3, 0.5, 1.0], rng, beta=1.0)
        assert (states[-1] - states[0]).var() == pytest.approx(1.0, rel=0.02)

    def test_non_ascending_rejected(self):
        with pytest.raises(ValueError):
            forward_chain(np.zeros(2), [1.0, 0.5], np.random.default_rng(0))
        with pytest.raises(ValueError):
            forward_chain(np.zeros(2), [-1.0, 0.5], np.random.default_rng(0))


class TestDivergenceDetection:
    def test_constant_origin_converged(self):
        assert detect_divergence(np.zeros((10, 2))) == CONVERGED

    def test_large_value_diverged(self):
        path = np.array([[0.0, 0.0], [1e6, 0.0]])
        assert detect_divergence(path) == DIVERGED

    def test_non_finite_diverged(self):
        path = np.array([[0.0, 0.0], [math.nan, 0.0]])
        assert detect_divergence(path) == DIVERGED

    def test_threshold_respected(self):
        path = np.array([[99.0, 0.0]])
        assert detect_divergence(path, 100.0) == CONVERGED
        assert detect_divergence(path, 98.0) == DIVERGED

    def test_matches_online_flag(self):
        cfg = SamplerConfig(schedule=single_level(), steps_per_level=200,
                            step_size=0.1, record_paths=True, seed=16)
        paths = ald_run(lambda x, ls: 3.0 * x, cfg, 30)
        for p in paths:
            assert p.status == detect_divergence(p.positions, cfg.divergence_radius)


class TestWithinRadius:
    """_within, the sampler's divergence test, is the mask
    np.linalg.norm(xa, axis=1) <= radius bit for bit."""

    @staticmethod
    def rows(dim, radius, rng):
        """Rows far inside and outside, at a few ulps of the radius in random
        directions, on the radius and one ulp either side of it along an
        axis, and rows holding NaN, +-inf or squares that overflow."""
        u = rng.standard_normal((30, dim))
        u /= np.linalg.norm(u, axis=1, keepdims=True)
        near = [u * (radius * (1.0 + j * 2.0**-52)) for j in range(-4, 5)]
        far = u * (radius * rng.uniform(0.25, 4.0, (30, 1)))
        on_axis = np.zeros((3, dim))
        on_axis[:, rng.integers(dim)] = [np.nextafter(radius, 0.0), radius,
                                         np.nextafter(radius, np.inf)]
        special = rng.standard_normal((6, dim))
        special[0, rng.integers(dim)] = np.nan
        special[1, rng.integers(dim)] = np.inf
        special[2, rng.integers(dim)] = -np.inf
        special[3, rng.integers(dim)] = 1e200
        special[4] = 1.3e154  # each square is finite, their sum overflows at d > 1
        special[5, 0] = -0.0
        xa = np.concatenate([*near, far, on_axis, special])
        return xa[rng.permutation(len(xa))]

    @settings(max_examples=300, deadline=None)
    @given(dim=st.integers(1, 64),
           radius=st.one_of(st.floats(1e-3, 1e6), st.sampled_from([1e-170, 1e160])),
           seed=st.integers(0, 2**32 - 1))
    def test_mask_equals_linalg_norm(self, dim, radius, seed):
        xa = self.rows(dim, radius, np.random.default_rng(seed))
        with np.errstate(over="ignore", invalid="ignore"):
            want = np.linalg.norm(xa, axis=1) <= radius
            got = _within(xa, radius)
        assert want.any() and not want.all()
        assert got.dtype == bool and np.array_equal(got, want)

    @settings(max_examples=300, deadline=None)
    @given(dim=st.integers(1, 64), radius=st.floats(1e-3, 1e6), seed=st.integers(0, 2**32 - 1))
    def test_rows_within_the_coordinate_bound_are_inside(self, dim, radius, seed):
        # _run_block keeps a block without a norm test while every
        # coordinate lies within the bound; the corners are the worst rows.
        rng = np.random.default_rng(seed)
        bound = _coordinate_bound(radius, dim)
        rows = bound * rng.choice([-1.0, 1.0], (50, dim))
        rows[25:] *= rng.uniform(0.99, 1.0, (25, dim))
        assert (np.linalg.norm(rows, axis=1) <= radius).all()
        assert bound * math.sqrt(dim) > radius * (1.0 - 1e-10 * dim)

    def test_rows_on_the_radius_are_inside(self):
        xa = np.array([[3.0, 4.0], [np.nextafter(5.0, 6.0), 0.0], [0.0, -5.0], [np.nan, 0.0]])
        assert _within(xa, 5.0).tolist() == [True, False, True, False]
