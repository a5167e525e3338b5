import math

import numpy as np
import pytest

from htdsm import distributions as dist
from htdsm import scorenet as sn
from htdsm.schedule import geometric_schedule


@pytest.fixture(scope="module")
def two_level_schedule():
    return geometric_schedule(1.0, 0.25, 2)


class TestMixtureSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            sn.MixtureSpec(means=((0.0, 0.0),), stds=(1.0,), weights=(0.5,))
        with pytest.raises(ValueError):
            sn.MixtureSpec(means=((0.0, 0.0),), stds=(-1.0,), weights=(1.0,))
        with pytest.raises(ValueError):
            sn.MixtureSpec(means=((0.0,),), stds=(1.0, 1.0), weights=(1.0,))

    def test_two_mode_weights(self):
        mix = sn.MixtureSpec.two_mode(10.0)
        assert mix.weights[0] == pytest.approx(10.0 / 11.0)
        assert mix.means == ((2.5, 2.5), (-2.5, -2.5))

    def test_sample_exact_counts(self):
        mix = sn.MixtureSpec.two_mode(10.0)
        data = sn.MixtureSpec.sample(mix, np.random.default_rng(0), 22_000)
        near_major = (np.linalg.norm(data - 2.5, axis=1) <
                      np.linalg.norm(data + 2.5, axis=1)).sum()
        assert near_major == 20_000

    def test_json_roundtrip(self):
        mix = sn.MixtureSpec.two_mode(3.0)
        assert sn.MixtureSpec.from_dict(mix.to_dict()) == mix


class TestScoreNetworkForward:
    def test_zero_final_layer_outputs_zero(self):
        net = sn.ScoreNetwork([3, 16, 16, 2], np.random.default_rng(42))
        net.weights[-1][:] = 0.0
        net.biases[-1][:] = 0.0
        x = np.random.default_rng(0).standard_normal((7, 2))
        assert np.array_equal(sn.forward(net, x, 0.0), np.zeros((7, 2)))

    def test_deterministic(self):
        net = sn.ScoreNetwork([3, 16, 16, 2], np.random.default_rng(1))
        x = np.random.default_rng(2).standard_normal((5, 2))
        assert np.array_equal(net.forward(x, -0.5), net.forward(x.copy(), -0.5))

    def test_single_vector_input(self):
        net = sn.ScoreNetwork([3, 8, 2], np.random.default_rng(3))
        x = np.array([0.3, -1.2])
        batched = net.forward(x[None, :], 0.1)[0]
        assert np.array_equal(net.forward(x, 0.1), batched)

    def test_dimension_mismatch(self):
        net = sn.ScoreNetwork([3, 8, 2], np.random.default_rng(3))
        with pytest.raises(ValueError):
            net.forward(np.zeros((4, 3)), 0.0)

    def test_input_width_validation(self):
        with pytest.raises(ValueError):
            sn.ScoreNetwork([2, 8, 2])

    def test_checkpoint_roundtrip(self):
        net = sn.ScoreNetwork([3, 4, 2], np.random.default_rng(4))
        clone = sn.ScoreNetwork.from_dict(net.to_dict())
        x = np.random.default_rng(5).standard_normal((6, 2))
        assert np.array_equal(net.forward(x, 0.2), clone.forward(x, 0.2))

    def test_params_finite_sees_every_layer(self):
        net = sn.ScoreNetwork([3, 4, 4, 2], np.random.default_rng(4))
        assert net.params_finite()
        for arr in net.weights + net.biases:
            arr.flat[-1], old = np.nan, arr.flat[-1]
            assert not net.params_finite()
            arr.flat[-1] = old
        assert net.params_finite()

    def test_checkpoint_shapes_validated(self):
        ckpt = sn.ScoreNetwork([3, 16, 16, 2], np.random.default_rng(4)).to_dict()
        ckpt["weights"][1] = np.zeros((16, 5)).tolist()
        with pytest.raises(ValueError, match="layer 1 weight has shape"):
            sn.ScoreNetwork.from_dict(ckpt)
        ckpt = sn.ScoreNetwork([3, 16, 16, 2], np.random.default_rng(4)).to_dict()
        del ckpt["biases"][-1]
        with pytest.raises(ValueError, match="2 bias arrays for 3 layers"):
            sn.ScoreNetwork.from_dict(ckpt)


class TestBackward:
    def test_gradients_match_finite_differences(self):
        net = sn.ScoreNetwork([3, 4, 2], np.random.default_rng(6))
        rng = np.random.default_rng(7)
        x = rng.standard_normal((5, 2))
        grad_out = rng.standard_normal((5, 2))
        _, activations = net.forward_cached(x, 0.3)
        wg, bg = net.views(net.backward(activations, grad_out))

        def objective():
            return float((net.forward(x, 0.3) * grad_out).sum())

        h = 1e-6
        for params, grads in ((net.weights, wg), (net.biases, bg)):
            for p, g in zip(params, grads):
                it = np.nditer(p, flags=["multi_index"])
                for _ in it:
                    i = it.multi_index
                    old = p[i]
                    p[i] = old + h
                    up = objective()
                    p[i] = old - h
                    down = objective()
                    p[i] = old
                    fd = (up - down) / (2 * h)
                    assert g[i] == pytest.approx(fd, rel=1e-5, abs=1e-7)


def linear_score_network(alpha: float) -> sn.ScoreNetwork:
    """Exact network for the beta=2 conditional score -2 delta / alpha^2.

    relu(t) - relu(-t) = t recovers a linear map through the hidden layer,
    so the DSM loss at clean data fixed to the origin is exactly zero.
    """
    net = sn.ScoreNetwork([3, 4, 2])
    net.weights[0][...] = np.array(
        [
            [1.0, -1.0, 0.0, 0.0],
            [0.0, 0.0, 1.0, -1.0],
            [0.0, 0.0, 0.0, 0.0],
        ]
    )
    coeff = -2.0 / alpha**2
    net.weights[1][...] = np.array(
        [
            [coeff, 0.0],
            [-coeff, 0.0],
            [0.0, coeff],
            [0.0, -coeff],
        ]
    )
    return net


class TestDsmLoss:
    def test_oracle_network_zero_loss(self):
        sigma, alpha_unit = 0.7, math.sqrt(2.0)
        net = linear_score_network(sigma * alpha_unit)
        batch = np.zeros((64, 2))
        loss, _ = sn.dsm_loss(net, batch, sigma, alpha_unit, 2.0, np.random.default_rng(8))
        assert loss == pytest.approx(0.0, abs=1e-24)

    def test_gaussian_target_matches_intuitive_score(self):
        # With alpha_unit = sqrt(2), the target is (x - x~)/sigma^2.
        rng = np.random.default_rng(9)
        sigma = 0.6
        noise = dist.gn_sample(
            dist.GeneralizedNormal(0.0, sigma * math.sqrt(2.0), 2.0), rng, (100, 2)
        )
        target = dist.gn_score(noise, 0.0, sigma * math.sqrt(2.0), 2.0)
        assert np.allclose(target, -noise / sigma**2, atol=1e-12)

    def test_gradients_match_finite_differences(self):
        net = sn.ScoreNetwork([3, 4, 2], np.random.default_rng(10))
        batch = np.random.default_rng(11).standard_normal((8, 2))

        def loss_at():
            value, _ = sn.dsm_loss(net, batch, 0.7, math.sqrt(2.0), 2.0,
                                   np.random.default_rng(123))
            return value

        _, grad = sn.dsm_loss(net, batch, 0.7, math.sqrt(2.0), 2.0,
                              np.random.default_rng(123))
        wg, bg = net.views(grad)
        h = 1e-6
        for params, grads in ((net.weights, wg), (net.biases, bg)):
            for p, g in zip(params, grads):
                it = np.nditer(p, flags=["multi_index"])
                for _ in it:
                    i = it.multi_index
                    old = p[i]
                    p[i] = old + h
                    up = loss_at()
                    p[i] = old - h
                    down = loss_at()
                    p[i] = old
                    fd = (up - down) / (2 * h)
                    assert g[i] == pytest.approx(fd, rel=1e-4, abs=1e-8)

    def test_laplace_constant_predictor_minimizer_is_target_mean(self):
        # Quadratic in a constant predictor c: argmin E|c - target|^2 is
        # E[target] = -E[sign(noise)]/alpha = 0 for one point at the origin.
        rng = np.random.default_rng(12)
        sigma, alpha_unit = 0.5, 1.0
        noise = dist.gn_sample(
            dist.GeneralizedNormal(0.0, sigma * alpha_unit, 1.0), rng, (200_000, 1)
        )
        target = dist.gn_score(noise, 0.0, sigma * alpha_unit, 1.0)
        scale = 1.0 / (sigma * alpha_unit)
        assert abs(target.mean()) < 3 * scale / math.sqrt(target.size)

    @pytest.mark.parametrize("beta", [2.0, 1.0])
    def test_matches_explicit_objective_across_levels(self, beta):
        net = sn.ScoreNetwork([3, 8, 2], np.random.default_rng(25))
        batch = np.random.default_rng(26).standard_normal((32, 2))
        for sigma in (1.0, 0.25, 1.0, 0.5):
            loss, grad = sn.dsm_loss(net, batch, sigma, 1.3, beta, np.random.default_rng(27))
            kernel = dist.GeneralizedNormal(0.0, sigma * 1.3, beta)
            noisy = batch + dist.gn_sample(kernel, np.random.default_rng(27), batch.shape)
            target = dist.gn_score(noisy, batch, sigma * 1.3, beta)
            pred, activations = net.forward_cached(noisy, math.log(sigma))
            err = pred - target
            assert loss == sigma**2 * 0.5 * float((err**2).sum(axis=1).mean())
            want = net.backward(activations, (sigma**2 / len(batch)) * err)
            assert np.array_equal(grad, want)

    def test_subunit_shape_clamps_singularity(self):
        net = sn.ScoreNetwork([2, 4, 1], np.random.default_rng(13))
        batch = np.zeros((16, 1))
        loss, _ = sn.dsm_loss(net, batch, 0.5, 1.0, 0.7, np.random.default_rng(14))
        assert math.isfinite(loss)


def reference_train(data, cfg, rng):
    """train() spelled out from public pieces: the same draws in the same
    order, dsm_loss, and plain SGD on each layer's arrays."""
    dim = data.shape[1]
    net = sn.ScoreNetwork([dim + 1, *cfg.hidden, dim], rng)
    params = net.weights + net.biases
    sigmas = cfg.schedule.sigmas
    losses = []
    for step in range(cfg.steps):
        sigma = sigmas[int(rng.integers(len(sigmas)))]
        batch = data[rng.integers(0, data.shape[0], cfg.batch_size)]
        loss, grad = sn.dsm_loss(net, batch, sigma, cfg.resolved_alpha_unit(),
                                 cfg.beta_noise, rng)
        wg, bg = net.views(grad)
        grads = list(wg + bg)
        if cfg.loss_weight_exponent != 2.0:
            rescale = sigma ** (cfg.loss_weight_exponent - 2.0)
            loss *= rescale
            grads = [g * rescale for g in grads]
        for p, g in zip(params, grads):
            p -= cfg.learning_rate * g
        losses.append(loss)
        if not math.isfinite(loss) or not all(np.isfinite(p).all() for p in params):
            raise sn.TrainingDivergedError(step, sigma)
    return net, np.array(losses)


class TestTrain:
    @pytest.mark.parametrize("beta, exponent", [(2.0, 2.0), (2.0, 1.0), (1.0, 1.0)])
    def test_matches_reference_loop_bitwise(self, two_level_schedule, beta, exponent):
        data = sn.MixtureSpec.two_mode(10.0).sample(np.random.default_rng(30), 1000)
        cfg = sn.TrainConfig(schedule=two_level_schedule, beta_noise=beta, steps=300,
                             loss_weight_exponent=exponent)
        net, losses = sn.train(data, cfg, np.random.default_rng(31))
        ref_net, ref_losses = reference_train(data, cfg, np.random.default_rng(31))
        assert np.array_equal(losses, ref_losses)
        assert np.array_equal(net.params, ref_net.params)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_step_and_level_match_reference_loop(self, two_level_schedule):
        data = sn.MixtureSpec.two_mode(1.0).sample(np.random.default_rng(19), 1000)
        cfg = sn.TrainConfig(schedule=two_level_schedule, steps=500, learning_rate=1e12)
        with pytest.raises(sn.TrainingDivergedError) as got:
            sn.train(data, cfg, np.random.default_rng(20))
        with pytest.raises(sn.TrainingDivergedError) as want:
            reference_train(data, cfg, np.random.default_rng(20))
        assert (got.value.step, got.value.sigma) == (want.value.step, want.value.sigma)

    def test_loss_decreases(self, two_level_schedule):
        mix = sn.MixtureSpec.two_mode(1.0)
        data = mix.sample(np.random.default_rng(15), 4000)
        cfg = sn.TrainConfig(schedule=two_level_schedule, beta_noise=2.0, steps=3000)
        _, losses = sn.train(data, cfg, np.random.default_rng(16))
        n10 = len(losses) // 10
        assert losses[-n10:].mean() < losses[:n10].mean()

    def test_deterministic(self, two_level_schedule):
        mix = sn.MixtureSpec.two_mode(1.0)
        data = mix.sample(np.random.default_rng(17), 1000)
        cfg = sn.TrainConfig(schedule=two_level_schedule, steps=200)
        net_a, loss_a = sn.train(data, cfg, np.random.default_rng(18))
        net_b, loss_b = sn.train(data, cfg, np.random.default_rng(18))
        assert np.array_equal(loss_a, loss_b)
        for wa, wb in zip(net_a.weights, net_b.weights):
            assert np.array_equal(wa, wb)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_raises_with_diagnostics(self, two_level_schedule):
        mix = sn.MixtureSpec.two_mode(1.0)
        data = mix.sample(np.random.default_rng(19), 1000)
        cfg = sn.TrainConfig(
            schedule=two_level_schedule, steps=500, learning_rate=1e12
        )
        with pytest.raises(sn.TrainingDivergedError) as err:
            sn.train(data, cfg, np.random.default_rng(20))
        assert err.value.step >= 0
        assert err.value.sigma in two_level_schedule.sigmas

    def test_weighted_level_losses_comparable_at_convergence(self, two_level_schedule):
        mix = sn.MixtureSpec.two_mode(1.0)
        data = mix.sample(np.random.default_rng(21), 8000)
        cfg = sn.TrainConfig(schedule=two_level_schedule, beta_noise=2.0, steps=6000)
        net, _ = sn.train(data, cfg, np.random.default_rng(22))
        rng = np.random.default_rng(23)
        per_level = []
        for sigma in two_level_schedule.sigmas:
            vals = [
                sn.dsm_loss(net, data[rng.integers(0, len(data), 512)], sigma,
                            cfg.resolved_alpha_unit(), 2.0, rng)[0]
                for _ in range(8)
            ]
            per_level.append(np.mean(vals))
        ratio = max(per_level) / min(per_level)
        assert ratio < 10.0

    def test_empty_data_rejected(self, two_level_schedule):
        cfg = sn.TrainConfig(schedule=two_level_schedule, steps=10)
        with pytest.raises(ValueError):
            sn.train(np.zeros((0, 2)), cfg, np.random.default_rng(0))

    def test_config_roundtrip(self, two_level_schedule):
        cfg = sn.TrainConfig(schedule=two_level_schedule, beta_noise=1.0,
                             alpha_unit=1.0, steps=77, learning_rate=0.5)
        assert sn.TrainConfig.from_dict(cfg.to_dict()) == cfg


class TestAnalyticMixtureScore:
    def test_single_component_closed_form(self):
        mix = sn.MixtureSpec(means=((1.0, -2.0),), stds=(0.7,), weights=(1.0,))
        x = np.array([0.3, 0.4])
        want = -(x - np.array([1.0, -2.0])) / (0.7**2 + 0.2**2)
        assert np.allclose(sn.analytic_mixture_score(x, mix, 0.2), want, atol=1e-12)

    def test_symmetric_midpoint_is_zero(self):
        mix = sn.MixtureSpec.two_mode(1.0)
        got = sn.analytic_mixture_score(np.zeros(2), mix, 0.5)
        assert np.linalg.norm(got) < 1e-12

    def test_matches_log_density_finite_differences(self):
        mix = sn.MixtureSpec.two_mode(3.0)
        rng = np.random.default_rng(24)
        h = 1e-6
        for _ in range(20):
            x = rng.uniform(-4, 4, 2)
            got = sn.analytic_mixture_score(x, mix, 0.4)
            fd = np.array(
                [
                    (sn.mixture_log_density(x + h * e, mix, 0.4)
                     - sn.mixture_log_density(x - h * e, mix, 0.4)) / (2 * h)
                    for e in np.eye(2)
                ]
            )
            assert np.allclose(got, fd, atol=1e-6)
