import hashlib
import math
import multiprocessing
import os
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
        assert np.array_equal(net.forward(x, 0.0), np.zeros((7, 2)))

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

    @pytest.mark.parametrize("sizes, need", [
        ([3.9, 8.7, 2.2], "layer_sizes must be an integer, got 3.9"),
        ([2, True], "layer_sizes must be an integer, got True"),
        ("32", "layer_sizes must be a list, got '32'"),
        ([3, 0, 2], "layer_sizes must be >= 1, got 0"),
        (32, "layer_sizes must be a list, got 32"),
    ], ids=["floats", "bool", "string", "zero-width", "scalar"])
    def test_checkpoint_layer_sizes_are_checked_integers(self, sizes, need):
        # Each was truncated or iterated into a network, divided by zero, or
        # failed naming no field.
        ckpt = {**sn.ScoreNetwork([3, 8, 2], np.random.default_rng(4)).to_dict(),
                "layer_sizes": sizes}
        with pytest.raises(ValueError, match=re.escape(need)):
            sn.ScoreNetwork.from_dict(ckpt)

    @pytest.mark.parametrize("key, value, need", [
        (None, [], "checkpoint must be an object, got list"),
        ("weights", 5, "weights must be a list, got 5"),
        ("biases", 7, "biases must be a list, got 7"),
    ], ids=["list", "scalar-weights", "scalar-biases"])
    def test_malformed_checkpoint_names_its_field(self, key, value, need):
        ckpt = sn.ScoreNetwork([3, 8, 2], np.random.default_rng(4)).to_dict()
        with pytest.raises((TypeError, ValueError), match=re.escape(need)):
            sn.ScoreNetwork.from_dict(value if key is None else {**ckpt, key: value})

    def test_checkpoint_non_finite_values_rejected(self):
        cases = (("weights", 0, np.nan), ("biases", 2, np.inf), ("weights", 1, -np.inf))
        for key, layer, bad in cases:
            ckpt = sn.ScoreNetwork([3, 16, 16, 2], np.random.default_rng(4)).to_dict()
            arrays = ckpt[key]
            arrays[layer] = np.asarray(arrays[layer], dtype=float)
            arrays[layer].flat[-1] = bad
            arrays[layer] = arrays[layer].tolist()
            kind = "weight" if key == "weights" else "bias"
            with pytest.raises(ValueError, match=f"layer {layer} {kind} has non-finite"):
                sn.ScoreNetwork.from_dict(ckpt)


def broadcast_forward(net, x, log_sigma):
    """The forward pass with each bias broadcast over the rows and ReLU
    against the scalar 0.0, as it was before forward took buffers, run on x
    padded with zero points to a multiple of 4 rows, as forward pads it."""
    rows = len(x)
    padded = np.zeros((-(-rows // 4) * 4, x.shape[1]))
    padded[:rows] = x
    h = np.column_stack([padded, np.full(len(padded), log_sigma)])
    last = len(net.weights) - 1
    for i, (w, b) in enumerate(zip(net.weights, net.biases)):
        h = h @ w
        h += b
        if i < last:
            np.maximum(h, 0.0, out=h)
    return h[:rows]


class TestForwardBuffers:
    """forward on private buffers (pre-tiled bias rows, zero ReLU tiles,
    reused arrays) is bit-equal to forward without them and to the
    broadcast forward on the zero-padded batch."""

    ROWS = (*range(1, 65), 999, 1000, 1333)

    @staticmethod
    def _net_and_points(seed=11, rows=1333):
        net = sn.ScoreNetwork([3, 16, 16, 2], np.random.default_rng(seed))
        for b in net.biases:
            b[...] = np.random.default_rng(seed + 1).standard_normal(b.shape)
        x = np.random.default_rng(seed + 2).standard_normal((rows, 2)) * 3.0
        return net, x

    def test_bit_equal_to_unbuffered_and_broadcast(self):
        net, x = self._net_and_points()
        buffers = sn._ForwardBuffers(net)
        for rows in self.ROWS:
            want = broadcast_forward(net, x[:rows], -0.7)
            assert np.array_equal(net.forward(x[:rows], -0.7), want), rows
            assert np.array_equal(net.forward(x[:rows], -0.7, buffers=buffers), want), rows

    def test_shrinking_rows_on_one_buffer_set(self):
        # ald_run's row counts as particles diverge: the buffers keep their
        # 1336 rows (1333 padded to a multiple of 4) and later calls use the
        # leading rows.
        net, x = self._net_and_points()
        buffers = sn._ForwardBuffers(net)
        for rows in (1333, 1200, 7, 1200, 1333):
            got = net.forward(x[:rows], 0.25, buffers=buffers)
            assert got.shape == (rows, 2)
            assert np.array_equal(got, broadcast_forward(net, x[:rows], 0.25)), rows

    def test_buffers_made_after_a_parameter_change_see_it(self):
        net, x = self._net_and_points(rows=50)
        before = net.forward(x, 0.0, buffers=sn._ForwardBuffers(net)).copy()
        net.params += 0.125
        got = net.forward(x, 0.0, buffers=sn._ForwardBuffers(net))
        assert np.array_equal(got, broadcast_forward(net, x, 0.0))
        assert not np.array_equal(got, before)

    def test_single_point_returns_one_row(self):
        net, x = self._net_and_points(rows=3)
        buffers = sn._ForwardBuffers(net)
        got = net.forward(x[1], 0.4, buffers=buffers)
        assert got.shape == (2,)
        assert np.array_equal(got, broadcast_forward(net, x[1:2], 0.4)[0])
        assert np.array_equal(net.forward(x[1], 0.4), got)


    @pytest.mark.parametrize("dim", [1, 2, 5])
    @pytest.mark.parametrize("layout", ["point", "column-slice", "fortran", "integer"])
    def test_any_input_layout_is_copied_row_by_row(self, layout, dim):
        # The stacked input copies each point as one element from a C-ordered
        # float copy of x; that must equal column_stack's float copy.
        net = sn.ScoreNetwork([dim + 1, 16, dim], np.random.default_rng(dim))
        rng = np.random.default_rng(20 + dim)
        wide = rng.standard_normal((40, 2 * dim)) * 3.0
        x = {"point": wide[7, :dim],
             "column-slice": wide[:, ::2],
             "fortran": np.asfortranarray(wide[:, :dim]),
             "integer": rng.integers(-9, 10, (40, dim))}[layout]
        assert x.dtype == float or layout == "integer"
        want = broadcast_forward(net, np.atleast_2d(x).astype(float), 0.6)
        if layout == "point":
            want = want[0]
        assert np.array_equal(net.forward(x, 0.6), want)
        assert np.array_equal(net.forward(x, 0.6, buffers=sn._ForwardBuffers(net)), want)


class TestRowStability:
    """Each row of forward's result has the same bits whatever the batch's
    row count and the row's place in it: forward pads the batch to a
    multiple of 4 rows."""

    @pytest.fixture(scope="class")
    def big_batch(self):
        net, x = TestForwardBuffers._net_and_points(rows=2000)
        return net, x, net.forward(x, -0.7).copy()

    @settings(max_examples=150, deadline=None)
    @given(rows=st.sampled_from(TestForwardBuffers.ROWS), start=st.integers(0, 2000))
    def test_every_row_equals_its_row_in_a_2000_row_batch(self, big_batch, rows, start):
        net, x, full = big_batch
        start = min(start, 2000 - rows)
        want = full[start : start + rows].tobytes()
        assert net.forward(x[start : start + rows], -0.7).tobytes() == want
        # The buffer set has held more rows and fewer before the last call.
        buffers = sn._ForwardBuffers(net)
        for cut in (2000, rows, 1, rows):
            got = net.forward(x[start : start + cut], -0.7, buffers=buffers)
        assert got.tobytes() == want

    def test_the_leading_rows_of_every_cut_equal_the_big_batch(self, big_batch):
        # One buffer set through every row count, as an ALD block sees
        # them while its particles diverge.
        net, x, full = big_batch
        buffers = sn._ForwardBuffers(net)
        for rows in (*TestForwardBuffers.ROWS, *range(1399, 1330, -1)):
            assert net.forward(x[:rows], -0.7).tobytes() == full[:rows].tobytes(), rows
            got = net.forward(x[:rows], -0.7, buffers=buffers)
            assert got.tobytes() == full[:rows].tobytes(), rows

    @pytest.mark.parametrize("sizes", [[2, 16, 1], [3, 8, 2], [3, 32, 32, 2], [4, 16, 16, 3],
                                       [3, 16, 16, 16, 2]], ids=str)
    def test_every_network_shape_is_row_stable(self, sizes):
        rng = np.random.default_rng(len(sizes) * 100 + sizes[1])
        net = sn.ScoreNetwork(sizes, rng)
        for b in net.biases:
            b[...] = rng.standard_normal(b.shape)
        x = rng.standard_normal((2000, sizes[-1])) * 3.0
        full = net.forward(x, -0.7).copy()
        buffers = sn._ForwardBuffers(net)
        for rows in (*range(1, 70), 255, 256, 257, 999, 1000, 1001, 1333, 1399):
            for start in (0, 1, 3, 7):
                want = full[start : start + rows].tobytes()
                assert net.forward(x[start : start + rows], -0.7).tobytes() == want, (rows, start)
                got = net.forward(x[start : start + rows], -0.7, buffers=buffers)
                assert got.tobytes() == want, (rows, start)

    def test_shrinking_past_inf_and_nan_rows_does_not_warn(self):
        net, x = TestForwardBuffers._net_and_points(rows=8)
        x[5:] = [[np.inf, 0.0], [np.nan, 1.0], [-np.inf, np.nan]]
        buffers = sn._ForwardBuffers(net)
        with np.errstate(over="ignore", invalid="ignore"):
            net.forward(x, 0.1, buffers=buffers)
        # Rows 5 to 7 are padding now, and no stale inf or NaN is left there.
        with warnings.catch_warnings(), np.errstate(all="warn"):
            warnings.simplefilter("error", RuntimeWarning)
            got = net.forward(x[:5], 0.1, buffers=buffers)
        assert got.tobytes() == broadcast_forward(net, x[:5], 0.1).tobytes()

    @pytest.mark.parametrize("rows", [1, 5, 1333])
    def test_relu_floor_is_bit_equal_to_the_scalar_zero(self, rows):
        net = sn.ScoreNetwork([3, 16, 16, 2])
        floor = sn._ForwardBuffers(net).views(rows)[4][0]
        rng = np.random.default_rng(rows)
        h = rng.standard_normal(floor.shape)
        specials = [np.nan, -np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, -5e-324]
        spots = rng.choice(h.size, 4 * len(specials), replace=False)
        h.flat[spots] = np.resize(specials, len(spots))
        want = np.maximum(h, 0.0)
        assert np.maximum(h, floor, out=h).tobytes() == want.tobytes()
        assert np.signbit(want).any() and np.isnan(want).any()


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


    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(rows=st.integers(1, 300), hidden=st.integers(1, 32), width=st.integers(1, 32),
           seed=st.integers(0, 2**32 - 1))
    def test_bias_gradients_equal_axis0_add_reduce(self, rows, hidden, width, seed):
        rng = np.random.default_rng(seed)
        net = sn.ScoreNetwork([width + 1, hidden, width], rng)
        net.biases[0][:] = rng.standard_normal(hidden)
        x = rng.standard_normal((rows, width))
        grad_out = rng.standard_normal((rows, width)) * 10.0 ** rng.uniform(-9, 9, (rows, width))
        _, activations = net.forward_cached(x, 0.1)
        _, bias_grads = net.views(net.backward(activations, grad_out))
        hidden_grad = (grad_out @ net.weights[1].T) * (activations[1] > 0.0)
        for got, want in zip(bias_grads, (hidden_grad, grad_out)):
            assert got.tobytes() == np.add.reduce(want, axis=0).tobytes()


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


def dsm_noise(sigma, alpha_unit, beta, rng, shape):
    """The noise dsm_loss takes: GN(0, sigma * alpha_unit, beta) draws."""
    return dist.gn_sample(dist.GeneralizedNormal(0.0, sigma * alpha_unit, beta), rng, shape)


class TestDsmLoss:
    def test_oracle_network_zero_loss(self):
        sigma, alpha_unit = 0.7, math.sqrt(2.0)
        net = linear_score_network(sigma * alpha_unit)
        batch = np.zeros((64, 2))
        noise = dsm_noise(sigma, alpha_unit, 2.0, np.random.default_rng(8), batch.shape)
        loss, _ = sn.dsm_loss(net, batch, sigma, alpha_unit, 2.0, noise)
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
        noise = dsm_noise(0.7, math.sqrt(2.0), 2.0, np.random.default_rng(123), batch.shape)

        def loss_at():
            value, _ = sn.dsm_loss(net, batch, 0.7, math.sqrt(2.0), 2.0, noise)
            return value

        _, grad = sn.dsm_loss(net, batch, 0.7, math.sqrt(2.0), 2.0, noise)
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
            noise = dsm_noise(sigma, 1.3, beta, np.random.default_rng(27), batch.shape)
            loss, grad = sn.dsm_loss(net, batch, sigma, 1.3, beta, noise)
            noisy = batch + noise
            target = dist.gn_score(noisy, batch, sigma * 1.3, beta)
            pred, activations = net.forward_cached(noisy, math.log(sigma))
            err = pred - target
            assert loss == sigma**2 * 0.5 * float((err**2).sum(axis=1).mean())
            want = net.backward(activations, (sigma**2 / len(batch)) * err)
            assert np.array_equal(grad, want)

    def test_successive_gradients_do_not_share_memory(self):
        net = sn.ScoreNetwork([3, 8, 2], np.random.default_rng(25))
        batch = np.random.default_rng(26).standard_normal((32, 2))
        noise = dsm_noise(0.5, 1.3, 2.0, np.random.default_rng(27), batch.shape)
        _, first = sn.dsm_loss(net, batch, 0.5, 1.3, 2.0, noise)
        kept = first.copy()
        noise = dsm_noise(1.0, 1.3, 2.0, np.random.default_rng(28), batch.shape)
        _, second = sn.dsm_loss(net, batch, 1.0, 1.3, 2.0, noise)
        assert not np.shares_memory(first, second)
        assert np.array_equal(first, kept)
        assert not np.array_equal(first, second)

    def test_exact_singularity_hits_are_clamped_by_sign(self):
        # Below beta 1 the target's |delta|^(beta - 1) is infinite at 0, so
        # noise entries below SCORE_DELTA_FLOOR in magnitude become
        # +-SCORE_DELTA_FLOOR: + for 0.0 and -0.0, else the entry's sign.
        floor = dist.SCORE_DELTA_FLOOR
        net = sn.ScoreNetwork([3, 8, 2], np.random.default_rng(15))
        batch = np.random.default_rng(16).standard_normal((8, 2))
        noise = dsm_noise(0.5, 1.0, 0.7, np.random.default_rng(17), batch.shape)
        assert np.abs(noise).min() >= floor
        clamped = noise.copy()
        for spot, (hit, moved) in zip((0, 3, 8, 13), [(0.0, floor), (-0.0, floor),
                                                    (1e-12, floor), (-1e-12, -floor)]):
            noise.flat[spot], clamped.flat[spot] = hit, moved
        loss, grad = sn.dsm_loss(net, batch, 0.5, 1.0, 0.7, noise)
        want_loss, want_grad = sn.dsm_loss(net, batch, 0.5, 1.0, 0.7, clamped)
        assert math.isfinite(loss) and loss == want_loss
        assert np.array_equal(grad, want_grad)

    def test_subunit_shape_clamps_singularity(self):
        net = sn.ScoreNetwork([2, 4, 1], np.random.default_rng(13))
        batch = np.zeros((16, 1))
        noise = dsm_noise(0.5, 1.0, 0.7, np.random.default_rng(14), batch.shape)
        loss, _ = sn.dsm_loss(net, batch, 0.5, 1.0, 0.7, noise)
        assert math.isfinite(loss)


def reference_train(data, cfg, rng):
    """train() spelled out from public pieces. Each chunk of up to 64 steps
    draws its levels, its batch rows and one unit GN noise draw, in that
    order; each step scales its noise by sigma * alpha_unit, takes
    dsm_loss, and runs plain SGD on each layer's arrays."""
    dim = data.shape[1]
    net = sn.ScoreNetwork([dim + 1, *cfg.hidden, dim], rng)
    params = net.weights + net.biases
    sigmas = cfg.schedule.sigmas
    alpha_unit = cfg.resolved_alpha_unit()
    unit = dist.GeneralizedNormal(0.0, 1.0, cfg.beta_noise)
    losses = []
    for start in range(0, cfg.steps, 64):
        n = min(64, cfg.steps - start)
        levels = rng.integers(len(sigmas), size=n)
        rows = rng.integers(0, data.shape[0], (n, cfg.batch_size))
        noise = dist.gn_sample(unit, rng, (n, cfg.batch_size, dim))
        for i in range(n):
            step, sigma = start + i, sigmas[levels[i]]
            loss, grad = sn.dsm_loss(net, data[rows[i]], sigma, alpha_unit, cfg.beta_noise,
                                     noise[i] * (sigma * alpha_unit))
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


def train_losses(steps):
    data = sn.MixtureSpec.two_mode(1.0).sample(np.random.default_rng(19), 1000)
    cfg = sn.TrainConfig(schedule=geometric_schedule(1.0, 0.25, 2), steps=steps)
    return sn.train(data, cfg, np.random.default_rng(20))[1]


class TestTrain:
    @pytest.mark.parametrize("beta, exponent, dim, hidden", [
        pytest.param(2.0, 2.0, 2, (16, 16), id="2.0-2.0"),
        pytest.param(2.0, 1.0, 2, (16, 16), id="2.0-1.0"),
        pytest.param(1.0, 1.0, 2, (16, 16), id="1.0-1.0"),
        pytest.param(0.7, 1.0, 2, (16, 16), id="0.7-1.0"),
        pytest.param(1.0, 2.0, 3, (8,), id="1.0-2.0-dim3-hidden8"),
    ])
    def test_matches_reference_loop_bitwise(self, two_level_schedule, beta, exponent, dim,
                                            hidden):
        mix = sn.MixtureSpec.two_mode(10.0)
        if dim == 3:
            mix = sn.MixtureSpec(means=((1.0, 0.0, -1.0), (-2.0, 0.5, 2.0)),
                                 stds=(0.5, 0.8), weights=(0.7, 0.3))
        data = mix.sample(np.random.default_rng(30), 1000)
        # 130 steps: two whole chunks of 64 and a partial one of 2.
        cfg = sn.TrainConfig(schedule=two_level_schedule, beta_noise=beta, steps=130,
                             loss_weight_exponent=exponent, hidden=hidden)
        rng, ref_rng = np.random.default_rng(31), np.random.default_rng(31)
        net, losses = sn.train(data, cfg, rng)
        ref_net, ref_losses = reference_train(data, cfg, ref_rng)
        assert np.array_equal(losses, ref_losses)
        assert np.array_equal(net.params, ref_net.params)
        # The generator ends where the reference loop leaves it.
        assert rng.random() == ref_rng.random()

    @pytest.mark.parametrize("steps", [1, 63, 64, 65, 129])
    @pytest.mark.parametrize("beta", [2.0, 1.0])
    def test_chunk_boundaries_match_reference_loop(self, two_level_schedule, beta, steps):
        # One partial chunk, one whole chunk, a whole chunk and one step, and
        # two whole chunks and one step; beta 2 draws through standard_normal
        # and beta 1 through the gamma route.
        data = sn.MixtureSpec.two_mode(1.0).sample(np.random.default_rng(32), 500)
        cfg = sn.TrainConfig(schedule=two_level_schedule, beta_noise=beta, steps=steps,
                             batch_size=16)
        rng, ref_rng = np.random.default_rng(33), np.random.default_rng(33)
        net, losses = sn.train(data, cfg, rng)
        ref_net, ref_losses = reference_train(data, cfg, ref_rng)
        assert len(losses) == steps
        assert np.array_equal(losses, ref_losses)
        assert np.array_equal(net.params, ref_net.params)
        assert rng.random() == ref_rng.random()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("learning_rate", [1e12, 3.7], ids=["first-chunk", "later-chunk"])
    def test_divergence_step_and_level_match_reference_loop(self, two_level_schedule,
                                                            learning_rate):
        data = sn.MixtureSpec.two_mode(1.0).sample(np.random.default_rng(19), 1000)
        cfg = sn.TrainConfig(schedule=two_level_schedule, steps=500,
                             learning_rate=learning_rate)
        with pytest.raises(sn.TrainingDivergedError) as got:
            sn.train(data, cfg, np.random.default_rng(20))
        with pytest.raises(sn.TrainingDivergedError) as want:
            reference_train(data, cfg, np.random.default_rng(20))
        assert (got.value.step, got.value.sigma) == (want.value.step, want.value.sigma)
        # The case's learning rate puts the divergence in the chunk it names.
        assert (want.value.step >= sn._CHUNK_STEPS) == (learning_rate == 3.7)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("learning_rate", [1e-3, 1e12], ids=["returns", "diverges"])
    def test_starts_no_process(self, two_level_schedule, monkeypatch, learning_rate):
        def refuse(*args, **kwargs):
            raise AssertionError("train started a process")

        monkeypatch.setattr(os, "fork", refuse)
        monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", refuse)
        data = sn.MixtureSpec.two_mode(1.0).sample(np.random.default_rng(19), 1000)
        # A run long enough to be worth drawing on a second core.
        cfg = sn.TrainConfig(schedule=two_level_schedule, steps=2000,
                             learning_rate=learning_rate)
        try:
            _, losses = sn.train(data, cfg, np.random.default_rng(20))
            assert np.isfinite(losses).all()
        except sn.TrainingDivergedError:
            assert learning_rate == 1e12
        assert multiprocessing.active_children() == []

    def test_trains_inside_a_daemonic_pool_worker(self):
        # A Pool worker is daemonic and may start no child; train draws in
        # the calling process, so it runs there and gives the same bits.
        with multiprocessing.get_context("fork").Pool(1) as pool:
            got = pool.apply(train_losses, (300,))
        assert np.array_equal(got, train_losses(300))

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
            vals = []
            for _ in range(8):
                batch = data[rng.integers(0, len(data), 512)]
                noise = dsm_noise(sigma, cfg.resolved_alpha_unit(), 2.0, rng, batch.shape)
                vals.append(sn.dsm_loss(net, batch, sigma, cfg.resolved_alpha_unit(), 2.0,
                                        noise)[0])
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

    @pytest.mark.parametrize("beta", [0.0077, 0.005])
    def test_beta_whose_unit_variance_scale_underflows_rejected(self, two_level_schedule, beta):
        with pytest.raises(ValueError, match=f"beta_noise must be at least 0.00777 .*got {beta}"):
            sn.TrainConfig(schedule=two_level_schedule, beta_noise=beta)
        # A given alpha_unit is used in place of the unit-variance scale.
        sn.TrainConfig(schedule=two_level_schedule, beta_noise=beta, alpha_unit=1.0)

    def test_beta_0_008_accepted(self, two_level_schedule):
        cfg = sn.TrainConfig(schedule=two_level_schedule, beta_noise=0.008)
        assert cfg.resolved_alpha_unit() == dist.unit_variance_alpha(0.008) > 0.0


# sha256 of net.params bytes followed by the loss array's bytes, recorded
# before the training step moved onto per-run buffers. The beta 2 and beta 1
# pins were re-recorded when log_gamma became the C library's lgamma, which
# moves their variance-matched alpha_unit (beta 0.7's does not move). The
# beta 2 pin was re-recorded when beta 2 noise came from standard_normal
# (GN(0, alpha, 2) drawn as alpha/sqrt(2) times a standard normal). All
# three were re-recorded when train came to draw each chunk of 64 steps'
# levels, rows and unit noise in three calls.
# reference_train shares dsm_loss with train, so only a recorded digest sees
# a change to the bits.
# The network's rounding depends on the BLAS kernel, so the pins hold per
# host and BLAS build (x86-64 OpenBLAS). Keys: (beta, loss weight exponent,
# batch size); beta = 0.7 runs the clamp check of the singular score.
TRAIN_SHA256 = {
    (2.0, 2.0, 256): "c35d49312ac0eca4cf2f82d7beb99182ff59755186f8df75b6d5defa76b0cab4",
    (1.0, 1.0, 37): "b04e9a4d691f12155b44f6979ccd292d0db6d41a9b019e2f32cfc292b1827f85",
    (0.7, 1.0, 37): "e0ef8fbd7c752c037144505f9f15ef1ba199091d4649d3edb184612943bcec6f",
}


@pytest.mark.parametrize("key", sorted(TRAIN_SHA256))
def test_train_bits_are_pinned(two_level_schedule, key):
    beta, exponent, batch_size = key
    data = sn.MixtureSpec.two_mode(10.0).sample(np.random.default_rng(30), 1000)
    cfg = sn.TrainConfig(schedule=two_level_schedule, beta_noise=beta, steps=300,
                         batch_size=batch_size, loss_weight_exponent=exponent)
    net, losses = sn.train(data, cfg, np.random.default_rng(31))
    digest = hashlib.sha256(net.params.tobytes() + losses.tobytes()).hexdigest()
    assert digest == TRAIN_SHA256[key]


@pytest.mark.parametrize("dim", [1, 3])
def test_score_field_cosine_refuses_a_mixture_that_is_not_2d(dim):
    mix = sn.MixtureSpec(means=((1.0,) * dim, (-1.0,) * dim), stds=(0.5, 0.5),
                         weights=(0.5, 0.5))
    net = sn.ScoreNetwork([dim + 1, 8, dim], np.random.default_rng(0))
    with pytest.raises(ValueError, match=f"needs a 2-D mixture, got dim {dim}"):
        sn.score_field_cosine(net, mix, 0.25)


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


# float.hex values recorded before the two functions shared their
# log-component code; the sharing must not change a single bit.
# Keys: smoothing sigma. Values: (log density at X1, at XB, score at X1,
# score at XB flattened row by row).
MIXTURE_GOLDEN = {
    0.0: (
        ["-0x1.06ed5b1e0bdb0p+2"],
        ["-0x1.c84be69533b76p+0", "-0x1.471c4e72a43edp+1", "-0x1.6ced2957fb4bap+2",
         "-0x1.ec0daba6f4610p+5"],
        ["0x1.3ffe7d2fd85fcp-2", "0x1.17ffdbeee2747p+0"],
        ["0x1.fffff32b37862p+0", "-0x1.9999a6dfd0810p+0", "0x1.3333a3e563abbp+1",
         "-0x1.33325c4a8f536p+0", "0x1.4035742f61543p-3", "-0x1.3ffbe8289f9fbp+1",
         "-0x1.5dfffffffffffp+3", "0x1.f3ffffffffffep+2"],
    ),
    0.4: (
        ["-0x1.0fe43d1e5c844p+2"],
        ["-0x1.f504a30d04a45p+0", "-0x1.5978b14868700p+1", "-0x1.614c2e175395dp+2",
         "-0x1.9156ab236e0acp+5"],
        ["0x1.fc2fe85252189p-3", "0x1.bf9e9476a3190p-1"],
        ["0x1.38316e3ba6ffcp+0", "-0x1.f3846f1bfb494p-1", "0x1.76a99ab11f88dp+0",
         "-0x1.7697aa8046da3p-1", "0x1.21a75e9b63109p-3", "-0x1.fa6a3c46dc81fp+0",
         "-0x1.17fffffffffffp+3", "0x1.8ffffffffffffp+2"],
    ),
}


@pytest.mark.parametrize("smoothing", sorted(MIXTURE_GOLDEN))
def test_mixture_density_and_score_match_recorded_bits(smoothing):
    mix = sn.MixtureSpec(means=((2.5, 2.5), (-2.5, -2.5), (0.5, -1.0)),
                         stds=(0.5, 0.5, 0.8), weights=(0.6, 0.3, 0.1))
    x1 = np.array([0.3, -1.7])
    xb = np.array([[2.0, 2.9], [-3.1, -2.2], [0.4, 0.6], [7.5, -6.0]])
    got = (
        [float(sn.mixture_log_density(x1, mix, smoothing)).hex()],
        [v.hex() for v in sn.mixture_log_density(xb, mix, smoothing).tolist()],
        [v.hex() for v in sn.analytic_mixture_score(x1, mix, smoothing).tolist()],
        [v.hex() for v in sn.analytic_mixture_score(xb, mix, smoothing).ravel().tolist()],
    )
    assert got == tuple(MIXTURE_GOLDEN[smoothing])
