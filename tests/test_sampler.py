import dataclasses
import hashlib
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from htdsm import distributions as dist
from htdsm import sampler
from htdsm.experiments import _sample_network, write_endpoints_csv
from htdsm.sampler import (
    CONVERGED,
    DIVERGED,
    SamplerConfig,
    _coordinate_bound,
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

    @pytest.mark.parametrize("beta", [0.0077, 0.005])
    def test_beta_whose_unit_variance_scale_underflows_rejected(self, beta):
        with pytest.raises(ValueError, match=f"beta_diff must be at least 0.00777 .*got {beta}"):
            SamplerConfig(schedule=single_level(), beta_diff=beta)

    def test_beta_0_008_runs(self):
        cfg = SamplerConfig(schedule=single_level(), steps_per_level=20, beta_diff=0.008)
        assert (ald_run(lambda x, ls: -x, cfg, 5).status == CONVERGED).all()

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

    @staticmethod
    def replay(score_fn, cfg, pid, steps=None):
        """Particle pid run alone from its own stream, frozen at the first
        position outside the radius or non-finite: its status and position
        after its first `steps` steps (all of them by default)."""
        sigmas = cfg.schedule.sigmas
        plan = [(cfg.step_size * sigma**2 / sigmas[0] ** 2, math.log(sigma))
                for sigma, t_level in zip(sigmas, cfg.steps_per_level) for _ in range(t_level)]
        alpha_v = dist.unit_variance_alpha(cfg.beta_diff)
        rng = particle_rng(cfg.seed, pid)
        x = rng.uniform(-6.0, 6.0, 2)
        z = dist.gn_sample(dist.GeneralizedNormal(0.0, alpha_v, cfg.beta_diff), rng,
                           (len(plan), 2))
        status = CONVERGED
        for step, (eps, log_sigma) in enumerate(plan[:steps]):
            if status == CONVERGED:
                with np.errstate(over="ignore", invalid="ignore"):
                    score = score_fn(x[None], log_sigma)[0]
                    x = x + eps * score + math.sqrt(2.0 * eps) * z[step]
                    if not np.linalg.norm(x[None], axis=1)[0] <= cfg.divergence_radius:
                        status = DIVERGED
        return status, x

    # Beta 30 draws through _gamma_root's small-shape branch.
    @pytest.mark.parametrize("beta_diff", [0.5, 1.0, 2.0, 2.5, 30.0])
    def test_matches_per_particle_reference(self, monkeypatch, beta_diff):
        cfg = dataclasses.replace(self.CFG, beta_diff=beta_diff)
        # 200 steps x 2 values a particle: four blocks of 16.
        monkeypatch.setattr(sampler, "_BLOCK_BUDGET", 21 * 200 * 2)
        paths = ald_run(unstable_score, cfg, 64)
        for pid, p in enumerate(paths):
            status, x = self.replay(unstable_score, cfg, pid)
            assert p.status == status
            assert p.final.tobytes() == x.tobytes()

    def test_rows_that_overflow_mid_run_diverge_where_they_land(self):
        # Four particles that converge under unstable_score are driven, at
        # one step each, to a row with +inf, with -inf, with a 1e200
        # coordinate, or with squares of 1.3e154 whose sum overflows. The
        # score recognises each by its exact position before that step.
        cfg = dataclasses.replace(self.CFG, record_paths=True)
        sigmas, t_level = cfg.schedule.sigmas, cfg.steps_per_level[0]
        survivors = [pid for pid in range(64)
                     if self.replay(unstable_score, cfg, pid)[0] == CONVERGED]
        chosen = dict(zip(survivors[::7], [40, 99, 100, 170]))
        assert len(chosen) == 4
        landing = [[np.inf, 0.0], [0.0, -np.inf], [0.0, 1e200], [1.3e154, 1.3e154]]
        drives = {}
        for (pid, step), row in zip(chosen.items(), landing):
            sigma = sigmas[step // t_level]
            eps = cfg.step_size * sigma**2 / sigmas[0] ** 2
            before = self.replay(unstable_score, cfg, pid, steps=step)[1]
            drives[before.tobytes()] = np.array(row) / eps

        def driven(x, log_sigma):
            score = unstable_score(x, log_sigma)
            for i, row in enumerate(x):
                score[i] = drives.get(row.tobytes(), score[i])
            return score

        paths = ald_run(driven, cfg, 64)
        for pid, p in enumerate(paths):
            if pid not in chosen:
                status, x = self.replay(unstable_score, cfg, pid)
                assert p.status == status and p.final.tobytes() == x.tobytes()
                continue
            step = chosen[pid]
            assert p.status == DIVERGED
            assert np.linalg.norm(p.positions[step]) <= cfg.divergence_radius
            assert all(q.tobytes() == p.final.tobytes() for q in p.positions[step + 1:])
            assert p.final.tobytes() == self.replay(driven, cfg, pid)[1].tobytes()
        finals = [paths[pid].final for pid in chosen]
        assert finals[0][0] == np.inf and finals[1][1] == -np.inf
        assert np.isfinite(finals[2]).all() and abs(finals[2][1]) > 1e199
        with np.errstate(over="ignore"):
            assert np.isfinite(finals[3] ** 2).all() and np.linalg.norm(finals[3]) == np.inf

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
# trains on beta 2 noise, so its weights and the endpoints moved. Re-recorded,
# still with 6 divergences, when train came to draw each 64-step chunk's
# levels, rows and noise in three calls, which moved the weights.
# Re-recorded, still with 6 divergences, when forward came to pad its batch
# to a multiple of 4 rows: each row's rounding no longer moves with the
# number of particles alive. The network's rounding depends on the BLAS
# kernel, so the pin holds per host and BLAS build (x86-64 OpenBLAS).
NETWORK_ENDPOINTS_SHA256 = "bdda8b9db58c58ae08013e6ee198917364052323919385a98ee427efc2329e5b"


@pytest.fixture(scope="module")
def pinned_net():
    data = MixtureSpec.two_mode(10.0).sample(np.random.default_rng(3), 2000)
    cfg = TrainConfig(schedule=geometric_schedule(1.0, 0.25, 2), steps=300, seed=4)
    return train(data, cfg, np.random.default_rng(4))[0]


def test_network_score_endpoints_are_pinned(tmp_path, pinned_net):
    # 400 particles x 400 steps x 2 coordinates, and a radius of 12 makes 6
    # particles diverge mid-run.
    net = pinned_net
    cfg = SamplerConfig(schedule=geometric_schedule(1.0, 0.25, 2), steps_per_level=200,
                        step_size=0.1, beta_diff=1.0, divergence_radius=12.0, seed=5)
    paths = ald_run(lambda x, ls: net.forward(x, ls), cfg, 400)
    assert sum(p.status == DIVERGED for p in paths) == 6
    out = tmp_path / "endpoints.csv"
    write_endpoints_csv(out, paths)
    assert hashlib.sha256(out.read_bytes()).hexdigest() == NETWORK_ENDPOINTS_SHA256


class TestNetworkScoreCuts:
    """ald_run with a network score: a particle's final position and status
    depend only on (seed, index), however the particles are cut into blocks
    and whichever others diverge on the way."""

    # 300 steps; a radius of 8 makes 172 of 1,000 particles diverge mid-run,
    # 3 of them among the first 10.
    CFG = SamplerConfig(schedule=geometric_schedule(1.0, 0.25, 2), steps_per_level=150,
                        step_size=0.1, beta_diff=1.0, divergence_radius=8.0, seed=5)

    @staticmethod
    def same(a, b):
        return all(a[name].tobytes() == b[name].tobytes() for name in a.dtype.names)

    def test_first_particles_of_a_big_run_equal_a_small_run(self, pinned_net):
        big = _sample_network(pinned_net, self.CFG, 1000)
        small = _sample_network(pinned_net, self.CFG, 10)
        assert (big.status == DIVERGED).sum() == 172
        assert (small.status == DIVERGED).sum() == 3
        assert self.same(big[:10], small)

    def test_two_block_budgets_give_identical_records(self, monkeypatch, pinned_net):
        cfg = dataclasses.replace(self.CFG, record_paths=True)
        whole = _sample_network(pinned_net, cfg, 100)
        # 300 steps x 2 values a particle: 15 blocks of 6 or 7.
        monkeypatch.setattr(sampler, "_BLOCK_BUDGET", 7 * 300 * 2)
        cut = _sample_network(pinned_net, cfg, 100)
        assert (whole.status == DIVERGED).any()
        assert self.same(whole, cut)


class TestBlocks:
    @settings(max_examples=300, deadline=None)
    @given(count=st.integers(1, 5000), steps=st.integers(1, 4000), dim=st.integers(1, 3),
           budget=st.integers(1, 10**7))
    def test_block_sizes_differ_by_at_most_one(self, count, steps, dim, budget):
        cfg = SamplerConfig(schedule=single_level(n=dim), steps_per_level=steps)
        blocks = []

        def record(score_fn, cfg, start, out):
            blocks.append((start, len(out)))

        with mock.patch.object(sampler, "_run_block", record), \
                mock.patch.object(sampler, "_BLOCK_BUDGET", budget):
            ald_run(None, cfg, count)
        starts, sizes = zip(*blocks)
        assert list(starts) == [sum(sizes[:i]) for i in range(len(sizes))]
        assert sum(sizes) == count and max(sizes) - min(sizes) <= 1
        assert len(sizes) == min(count, math.ceil(count * steps * dim / budget))
        # Fewer than the budget's noise values plus one particle's.
        assert (max(sizes) - 1) * steps * dim < budget

    def test_sample_eval_runs_four_blocks_of_1000(self):
        cfg = SamplerConfig(schedule=geometric_schedule(1.0, 0.25, 2), steps_per_level=1500)
        sizes = []
        with mock.patch.object(sampler, "_run_block", lambda f, c, s, out: sizes.append(len(out))):
            ald_run(None, cfg, 4000)
            ald_run(None, cfg, 1000)
        assert sizes == [1000] * 5


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


class TestCoordinateBound:
    """_coordinate_bound, below which _run_block skips the norm test."""

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
