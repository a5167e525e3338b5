"""Dense score network with explicit forward/backward passes, the DSM
training objective for generalized-normal noise, and analytic score oracles
used to evaluate trained models.

The network is a small ReLU MLP over [x, log sigma] with a linear output
head; parameters and gradients are flat numpy vectors, viewed per layer,
so the backward pass can be checked against finite differences directly.

Training's random draws (levels, batch rows, noise) do not depend on the
network, so train draws them a chunk of steps at a time, in three
vectorized calls, ahead of those steps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from htdsm._config import Config, Count, Index, Positive, Real, check_int, check_list
from htdsm.distributions import (
    SCORE_DELTA_FLOOR,
    GeneralizedNormal,
    _row_view,
    _score_of_delta,
    gn_sample,
    unit_variance_alpha,
)
from htdsm.schedule import NoiseSchedule

__all__ = [
    "TrainingDivergedError",
    "MixtureSpec",
    "TrainConfig",
    "ScoreNetwork",
    "dsm_loss",
    "train",
    "analytic_mixture_score",
    "mixture_log_density",
    "score_field_cosine",
]


class TrainingDivergedError(RuntimeError):
    """Loss or parameters became non-finite during training."""

    def __init__(self, step: int, sigma: float):
        super().__init__(
            f"non-finite loss/parameters at step {step}, noise level {sigma}"
        )
        self.step = step
        self.sigma = sigma


@dataclass(frozen=True)
class MixtureSpec(Config):
    """Isotropic Gaussian mixture: component means, stds and weights."""

    means: tuple[tuple[Real, ...], ...]
    stds: tuple[Positive, ...]
    weights: tuple[Positive, ...]

    def __post_init__(self) -> None:
        super().__post_init__()
        if not (len(self.means) == len(self.stds) == len(self.weights)):
            raise ValueError("means, stds and weights must have equal length")
        dims = sorted({len(m) for m in self.means})
        if len(dims) > 1 or dims == [0]:
            raise ValueError(f"means must all have one length >= 1, got lengths {dims}")
        if abs(sum(self.weights) - 1.0) > 1e-9:
            raise ValueError(f"weights must sum to 1, got {sum(self.weights)}")

    @property
    def dim(self) -> int:
        return len(self.means[0])

    def mean_array(self) -> np.ndarray:
        return np.asarray(self.means, dtype=float)

    def sample(self, rng: np.random.Generator, count: int) -> np.ndarray:
        """Draw `count` points with exact per-component counts (largest
        remainder), shuffled. Exact counts keep the realized imbalance equal
        to the configured ratio."""
        weights = np.asarray(self.weights)
        raw = weights * count
        counts = np.floor(raw).astype(int)
        for _ in range(count - counts.sum()):
            counts[int(np.argmax(raw - counts))] += 1
        parts = []
        for (mean, std, c) in zip(self.mean_array(), self.stds, counts):
            parts.append(mean + std * rng.standard_normal((c, self.dim)))
        data = np.concatenate(parts, axis=0)
        rng.shuffle(data, axis=0)
        return data

    @classmethod
    def two_mode(cls, ratio: float = 1.0) -> "MixtureSpec":
        """The 2D benchmark mixture: modes at (2.5, 2.5) and (-2.5, -2.5),
        component std 0.5, majority weight ratio:1 on the upper-right mode."""
        if ratio < 1.0:
            raise ValueError(f"ratio must be >= 1, got {ratio}")
        w1 = ratio / (ratio + 1.0)
        return cls(
            means=((2.5, 2.5), (-2.5, -2.5)),
            stds=(0.5, 0.5),
            weights=(w1, 1.0 - w1),
        )


@dataclass(frozen=True)
class TrainConfig(Config):
    """Hyperparameters for DSM training.

    alpha_unit is the GN scale at sigma = 1; None picks the variance-matched
    scale sqrt(Gamma(1/beta)/Gamma(3/beta)) so the injected noise has
    per-coordinate variance sigma^2 for every shape (at beta = 2 this is
    sqrt(2), i.e. plain N(0, sigma^2) noise). loss_weight_exponent w sets
    lambda(sigma) = sigma^w.
    """

    schedule: NoiseSchedule
    beta_noise: Positive = 2.0
    alpha_unit: Positive | None = None
    batch_size: Count = 256
    steps: Count = 20_000
    learning_rate: Positive = 1e-3
    loss_weight_exponent: Real = 2.0
    hidden: tuple[Count, ...] = (16, 16)
    seed: Index = 0

    def __post_init__(self) -> None:
        super().__post_init__()
        self.resolved_alpha_unit()  # raises where the unit-variance scale underflows

    def resolved_alpha_unit(self) -> float:
        if self.alpha_unit is not None:
            return self.alpha_unit
        return unit_variance_alpha(self.beta_noise, "beta_noise")


class ScoreNetwork:
    """ReLU MLP scoring s(x, log sigma); input width = data dim + 1.

    Every parameter lives in one flat vector, `params`. `weights` and
    `biases` are tuples of views into it, so writing into a layer's array
    changes `params`; gradients from `backward` share the same layout.
    """

    def __init__(self, layer_sizes, rng: np.random.Generator | None = None):
        layer_sizes = [check_int("layer_sizes", s, 1)
                       for s in check_list("layer_sizes", layer_sizes)]
        if len(layer_sizes) < 2:
            raise ValueError("need at least input and output layers")
        if layer_sizes[0] != layer_sizes[-1] + 1:
            raise ValueError(
                "input width must be data dim + 1 conditioning feature, got "
                f"{layer_sizes[0]} -> {layer_sizes[-1]}"
            )
        self.layer_sizes = layer_sizes
        pairs = list(zip(layer_sizes, layer_sizes[1:]))
        self.params = np.zeros(sum((n_in + 1) * n_out for n_in, n_out in pairs))
        self.weights, self.biases = self.views(self.params)
        if rng is not None:
            for w, (n_in, n_out) in zip(self.weights, pairs):
                w[...] = rng.standard_normal((n_in, n_out)) * math.sqrt(2.0 / n_in)

    def views(self, flat: np.ndarray) -> tuple:
        """Split a vector laid out like `params` into (weights, biases),
        tuples of per-layer views into it."""
        weights, biases = [], []
        start = 0
        for n_in, n_out in zip(self.layer_sizes, self.layer_sizes[1:]):
            weights.append(flat[start : start + n_in * n_out].reshape(n_in, n_out))
            start += n_in * n_out
            biases.append(flat[start : start + n_out])
            start += n_out
        return tuple(weights), tuple(biases)

    @property
    def data_dim(self) -> int:
        return self.layer_sizes[-1]

    def _stack_input(self, x: np.ndarray, log_sigma, out: np.ndarray,
                     out_rows: np.ndarray) -> tuple:
        """(out holding [x, log sigma] row by row, whether x was one (d,)
        point). out_rows is `_row_view(out[:n, :d])` for x's n points, made
        with the buffers: each point is copied as one element, where a float
        copy would run an inner loop per point."""
        x = np.asarray(x, dtype=float)
        squeeze = x.ndim == 1
        if squeeze:
            x = x[None, :]
        dim = self.data_dim
        if x.shape[1] != dim:
            raise ValueError(f"expected data dim {dim}, got {x.shape[1]}")
        out_rows[...] = np.ascontiguousarray(x).view(out_rows.dtype)
        out[:, dim] = log_sigma
        return out, squeeze

    def forward(self, x, log_sigma, *, buffers: "_ForwardBuffers | None" = None):
        """Evaluate s(x, log sigma); accepts (d,) or (N, d) inputs.

        The batch runs padded with zero points to a multiple of _ROW_GROUP
        rows, so each row's result is the same bits whatever the batch's row
        count: the result is row-stable. With `buffers` (see _ForwardBuffers),
        the stacked input and every layer's output are written into the
        leading rows of its arrays, and the result is a view that the next
        call with the same buffers overwrites. Without them every call makes
        its own. Each bias is added from a pre-tiled (rows, width) copy and
        ReLU takes the maximum against a zero tile: the same IEEE operations
        as broadcasting the bias and the scalar 0.0, so the bits are the
        same either way.
        """
        x = np.asarray(x, dtype=float)
        if buffers is None:
            buffers = _ForwardBuffers(self)
        rows = 1 if x.ndim == 1 else len(x)
        stacked, stacked_rows, layers, bias_rows, floors = buffers.views(rows)
        h, squeeze = self._stack_input(x, log_sigma, stacked, stacked_rows)
        h = self._layers(h, layers, bias_rows, floors)
        return h[0] if squeeze else h[:rows]

    def forward_cached(self, x, log_sigma, *, buffers: "_StepBuffers | None" = None):
        """Forward pass keeping the input and post-activations for backprop.

        With `buffers`, the input and every activation are written into
        its arrays, which the next call with the same buffers overwrites;
        those arrays are the returned activations.
        """
        if buffers is None:
            buffers = _StepBuffers(self, np.atleast_2d(x).shape)
        h, _ = self._stack_input(x, log_sigma, buffers.input, buffers.input_rows)
        floors = (0.0,) * (len(self.weights) - 1)
        return self._layers(h, buffers.layers, self.biases, floors), [h, *buffers.layers]

    def _layers(self, h, outs, biases, floors) -> np.ndarray:
        """The layers on the stacked input h: each writes h @ W into its
        array of `outs` and adds its bias, of `biases`, in place; all but the
        last then apply ReLU in place as the maximum against their entry of
        `floors`, 0.0 or a zero array. Returns the last output."""
        last = len(self.weights) - 1
        for i, (w, out, b) in enumerate(zip(self.weights, outs, biases)):
            h = np.matmul(h, w, out=out)
            h += b
            if i < last:
                np.maximum(h, floors[i], out=h)
        return h

    def backward(self, activations, grad_out, *, buffers: "_StepBuffers | None" = None):
        """Gradient of sum(grad_out * output) w.r.t. every parameter.

        Returns a vector laid out like `params`; `views` splits it into
        per-layer weight and bias gradients. Without `buffers` the vector
        is new; with them it is `buffers.grad`, overwritten by the next
        call with the same buffers. Each bias gradient is the column sum
        of the layer's output gradient, bit-equal to
        `np.add.reduce(grad, axis=0)`.
        """
        grad = np.asarray(grad_out, dtype=float)
        if buffers is None:
            buffers = _StepBuffers(self, grad.shape)
        weight_grads, bias_grads = buffers.grad_views
        for i in range(len(self.weights) - 1, -1, -1):
            np.matmul(activations[i].T, grad, out=weight_grads[i])
            _column_sums(grad, bias_grads[i])
            if i > 0:
                grad = np.matmul(grad, self.weights[i].T, out=buffers.back[i - 1])
                grad *= np.greater(activations[i], 0.0, out=buffers.masks[i - 1])
        return buffers.grad

    def sgd_step(self, grad: np.ndarray, lr: float) -> None:
        """One plain SGD update from a gradient laid out like `params`."""
        self.params -= lr * grad

    def params_finite(self) -> bool:
        return bool(np.isfinite(self.params).all())

    def to_dict(self) -> dict:
        return {
            "layer_sizes": list(self.layer_sizes),
            "weights": [w.tolist() for w in self.weights],
            "biases": [b.tolist() for b in self.biases],
        }

    @classmethod
    def from_dict(cls, d) -> "ScoreNetwork":
        """Load a checkpoint: an object whose layer_sizes, weights and biases
        are lists. Every array must match its layer's shape and hold finite
        values."""
        if not isinstance(d, dict):
            raise TypeError(f"checkpoint must be an object, got {type(d).__name__}")
        net = cls(d["layer_sizes"])
        for kind, params, key in (("weight", net.weights, "weights"),
                                  ("bias", net.biases, "biases")):
            values = check_list(key, d[key])
            if len(values) != len(params):
                raise ValueError(
                    f"{len(values)} {kind} arrays for {len(params)} layers "
                    f"of layer_sizes {net.layer_sizes}"
                )
            for layer, (param, value) in enumerate(zip(params, values)):
                value = np.asarray(value, dtype=float)
                if value.shape != param.shape:
                    raise ValueError(
                        f"layer {layer} {kind} has shape {value.shape}, expected "
                        f"{param.shape} for layer_sizes {net.layer_sizes}"
                    )
                if not np.isfinite(value).all():
                    raise ValueError(f"layer {layer} {kind} has non-finite entries")
                param[...] = value
        return net


def _column_sums(a: np.ndarray, out: np.ndarray) -> None:
    """out = np.add.reduce(a, axis=0), bit for bit. On a C-ordered array of
    two or more columns both add each column in row order, and einsum skips
    the reduction's set-up; on one column add.reduce sums pairwise."""
    if a.shape[1] == 1 or not a.flags.c_contiguous:
        np.add.reduce(a, axis=0, out=out)
    else:
        np.einsum("ij->j", a, out=out)


# forward pads its batch to a multiple of this many rows. OpenBLAS rounds a
# matmul row by where it falls in the kernel's row blocks; padded to a
# multiple of 4, every row of a [3, 16, 16, 2] network matched its row in a
# 2,000-row batch for each of 1 to 1,399 rows (x86-64 OpenBLAS).
_ROW_GROUP = 4


class _ForwardBuffers:
    """The arrays `forward` writes, for one network: the stacked input,
    each layer's output, each layer's bias tiled into a C-contiguous
    (rows, width) array, so adding it is a same-shape add and not a
    broadcast, and a zero array per hidden layer for ReLU's maximum, which
    runs faster than against the scalar 0.0.

    Every array holds a multiple of _ROW_GROUP rows; a call for n points
    uses the leading rows, n rounded up, and the points fill the first n.
    The padding rows of the stacked input are zeroed whenever the row count
    changes, so no stale point, such as the inf of a particle that has
    since diverged, is left there to warn. The arrays grow to the most rows
    asked for. The tiles copy the biases when the arrays are made, so the
    buffers serve only while the network's parameters stay fixed: make new
    ones after changing them. experiments._sample_network makes one set per
    ALD run.
    """

    def __init__(self, net: ScoreNetwork):
        self.net = net
        self.capacity = -1
        self.cut = (None, ())

    def views(self, rows: int) -> tuple:
        """(stacked input, its points' row view, layer outputs, bias rows,
        ReLU floors): the row view cut to `rows` rows, the rest to `rows`
        rounded up to a multiple of _ROW_GROUP. The cut is kept while the
        row count stays the same, as it does between divergences in an ALD
        block."""
        padded = -(-rows // _ROW_GROUP) * _ROW_GROUP
        if padded > self.capacity:
            sizes = self.net.layer_sizes
            self.stacked = np.empty((padded, sizes[0]))
            self.stacked_rows = _row_view(self.stacked[:, :-1])
            self.layers = [np.empty((padded, n)) for n in sizes[1:]]
            self.bias_rows = [np.tile(b, (padded, 1)) for b in self.net.biases]
            self.floors = [np.zeros((padded, n)) for n in sizes[1:-1]]
            self.capacity = padded
        if self.cut[0] != rows:
            self.stacked[rows:padded] = 0.0
            self.cut = (rows, (self.stacked[:padded], self.stacked_rows[:rows],
                               [a[:padded] for a in self.layers],
                               [t[:padded] for t in self.bias_rows],
                               [z[:padded] for z in self.floors]))
        return self.cut[1]


class _StepBuffers:
    """Every array one DSM step writes, for one network and batch shape,
    and the constants of each noise level it has seen.

    train makes one per run and hands it to dsm_loss, forward_cached and
    backward, which fill it with `out=`; each step overwrites all of it,
    the returned gradient included. A call without buffers makes its own.
    """

    def __init__(self, net: ScoreNetwork, data_shape: tuple):
        rows, sizes = data_shape[0], net.layer_sizes
        self.input = np.empty((rows, sizes[0]))
        self.input_rows = _row_view(self.input[:, :-1])
        self.layers = [np.empty((rows, n)) for n in sizes[1:]]
        self.back = [np.empty((rows, n)) for n in sizes[1:-1]]
        self.masks = [np.empty((rows, n), dtype=bool) for n in sizes[1:-1]]
        self.grad = np.empty_like(net.params)
        self.grad_views = net.views(self.grad)
        self.noisy, self.target, self.squares = (np.empty(data_shape) for _ in range(3))
        self.row_sums = np.empty(rows)
        self.levels: dict[tuple, tuple] = {}

    def level(self, sigma, alpha_unit, beta_noise) -> tuple:
        """(noise kernel, log sigma, sigma^2 / 2, sigma^2 / rows, score
        coefficient beta / alpha^beta), computed on the level's first step."""
        key = (sigma, alpha_unit, beta_noise)
        if key not in self.levels:
            sigma = float(sigma)
            kernel = GeneralizedNormal(0.0, sigma * float(alpha_unit), float(beta_noise))
            coeff = kernel.beta / kernel.alpha**kernel.beta
            self.levels[key] = (kernel, math.log(sigma), sigma**2 * 0.5,
                                sigma**2 / len(self.row_sums), coeff)
        return self.levels[key]


def dsm_loss(
    net: ScoreNetwork,
    batch,
    sigma: float,
    alpha_unit: float,
    beta_noise: float,
    noise: np.ndarray,
    *,
    buffers: _StepBuffers | None = None,
):
    """One DSM step at a fixed level: perturb, score-match, return gradients.

    Each clean point is perturbed elementwise with GN(0, sigma * alpha_unit,
    beta_noise) noise; the target is the conditional score of that kernel,
    and the loss is sigma^2 * mean over the batch of half the squared error.
    The sigma^2 weight cancels the ~1/sigma growth of the target so all
    levels contribute at a comparable scale. Returns (loss, gradient), the
    gradient laid out like `net.params`.

    `noise` is an array of the batch's shape drawn from that kernel, as
    `gn_sample(GeneralizedNormal(0, sigma * alpha_unit, beta_noise), rng,
    batch.shape)` draws it; train passes a unit GN(0, 1, beta_noise) draw
    times sigma * alpha_unit, which has the same law. Below beta 1 the
    noise's exact hits of the score singularity are clamped here.

    Without `buffers` every call returns a new gradient vector; with
    train's (see _StepBuffers) it returns `buffers.grad`, valid until the
    next call with them. The bits are the same either way.
    """
    batch = np.asarray(batch, dtype=float)
    if buffers is None:
        buffers = _StepBuffers(net, batch.shape)
    kernel, log_sigma, half_weight, grad_scale, coeff = buffers.level(
        sigma, alpha_unit, beta_noise
    )
    if kernel.beta < 1.0:
        # Clamp exact hits of the score singularity (distributions policy).
        tiny = np.abs(noise) < SCORE_DELTA_FLOOR
        if np.any(tiny):
            safe = np.where(noise >= 0.0, SCORE_DELTA_FLOOR, -SCORE_DELTA_FLOOR)
            noise = np.where(tiny, safe, noise)
    noisy = np.add(batch, noise, out=buffers.noisy)
    delta = np.subtract(noisy, batch, out=buffers.target)
    target = _score_of_delta(delta, coeff, kernel.beta, out=delta)

    pred, activations = net.forward_cached(noisy, log_sigma, buffers=buffers)
    err = np.subtract(pred, target, out=target)
    row_sums = np.add.reduce(np.square(err, out=buffers.squares), axis=1, out=buffers.row_sums)
    # The batch mean as ndarray.mean forms it: one sum, then one division.
    loss = half_weight * (float(np.add.reduce(row_sums)) / len(row_sums))
    grad_out = np.multiply(err, grad_scale, out=err)
    return loss, net.backward(activations, grad_out, buffers=buffers)


# Steps per chunk of training draws. The chunk size fixes the stream: each
# chunk draws all its levels, then all its batch rows, then all its noise,
# so another size gives other draws of the same law. 64 steps are 256 KiB
# of noise and 128 KiB of batch rows at the default 256 x 2 batch.
_CHUNK_STEPS = 64


def train(data, cfg: TrainConfig, rng: np.random.Generator):
    """Plain SGD over uniformly drawn noise levels.

    Returns (trained network, per-step loss array). Raises
    TrainingDivergedError with the offending step and level if the loss or
    any parameter goes non-finite; rng's state after that error is
    unspecified. The step's arrays (see _StepBuffers) are allocated once
    per call, as the batch shape is fixed, and every step overwrites them;
    the params and losses are bit-equal to allocating them afresh on each
    step.

    rng first draws the network's initial weights. Then each chunk of n <=
    _CHUNK_STEPS steps makes these calls, in this order:
    `rng.integers(len(sigmas), size=n)` (the levels),
    `rng.integers(0, N, (n, batch_size))` (the batch rows) and
    `gn_sample(GeneralizedNormal(0, 1, beta_noise), rng, (n, batch_size, d))`,
    a unit draw that each step's sigma * alpha_unit scales in place into the
    GN(0, sigma * alpha_unit, beta_noise) noise dsm_loss takes.
    """
    data = np.asarray(data, dtype=float)
    if data.ndim != 2 or data.shape[0] == 0:
        raise ValueError("data must be a nonempty (N, d) array")
    dim = data.shape[1]
    net = ScoreNetwork([dim + 1, *cfg.hidden, dim], rng)
    sigmas = cfg.schedule.sigmas
    alpha_unit = cfg.resolved_alpha_unit()
    # lambda(sigma) = sigma^w; dsm_loss weights by sigma^2.
    rescales = None
    if cfg.loss_weight_exponent != 2.0:
        rescales = [float(s) ** (cfg.loss_weight_exponent - 2.0) for s in sigmas]
    buffers = _StepBuffers(net, (cfg.batch_size, dim))
    unit = GeneralizedNormal(0.0, 1.0, cfg.beta_noise)
    scales = np.array(sigmas, dtype=float) * alpha_unit
    losses = np.empty(cfg.steps)
    for start in range(0, cfg.steps, _CHUNK_STEPS):
        n = min(_CHUNK_STEPS, cfg.steps - start)
        levels = rng.integers(len(sigmas), size=n)
        rows = rng.integers(0, data.shape[0], (n, cfg.batch_size))
        noise = gn_sample(unit, rng, (n, cfg.batch_size, dim))
        noise *= scales[levels][:, None, None]
        for step, level, index, step_noise in zip(range(start, start + n), levels.tolist(),
                                                  rows, noise):
            sigma = sigmas[level]
            batch = data.take(index, axis=0)
            loss, grad = dsm_loss(net, batch, sigma, alpha_unit, cfg.beta_noise, step_noise,
                                  buffers=buffers)
            if rescales is not None:
                loss *= rescales[level]
                grad *= rescales[level]
            net.sgd_step(grad, cfg.learning_rate)
            losses[step] = loss
            if not math.isfinite(loss) or not net.params_finite():
                raise TrainingDivergedError(step, sigma)
    return net, losses


def _log_components(x, mixture: MixtureSpec, smoothing_sigma: float):
    """(squeeze, diffs, variances, log_comp) of the smoothed mixture at x:
    log_comp[i, k] is the log of weight k times component k's density at
    row i, and squeeze says x was a single (d,) point."""
    x = np.asarray(x, dtype=float)
    squeeze = x.ndim == 1
    if squeeze:
        x = x[None, :]
    dim = mixture.dim
    variances = np.asarray(mixture.stds) ** 2 + float(smoothing_sigma) ** 2
    diffs = x[:, None, :] - mixture.mean_array()[None, :, :]
    sq = (diffs**2).sum(axis=2)
    log_comp = (
        np.log(np.asarray(mixture.weights))[None, :]
        - 0.5 * sq / variances[None, :]
        - 0.5 * dim * np.log(2.0 * math.pi * variances)[None, :]
    )
    return squeeze, diffs, variances, log_comp


def mixture_log_density(x, mixture: MixtureSpec, smoothing_sigma: float = 0.0):
    """Log density of the mixture smoothed by an isotropic Gaussian."""
    squeeze, _, _, log_comp = _log_components(x, mixture, smoothing_sigma)
    peak = log_comp.max(axis=1, keepdims=True)
    out = peak[:, 0] + np.log(np.exp(log_comp - peak).sum(axis=1))
    return out[0] if squeeze else out


def score_field_cosine(
    net,
    mixture: MixtureSpec,
    sigma: float,
    *,
    half_width: float = 4.0,
    points: int = 33,
    region_sigmas: float = 3.0,
):
    """Mean cosine similarity between the learned and analytic smoothed score.

    Evaluated on the lattice points of [-half_width, half_width]^2 lying
    within region_sigmas standard deviations of some sigma-smoothed mixture
    component. DSM fixes the score almost surely under the smoothed data
    distribution, so the comparison region is that distribution's support;
    outside it the objective says nothing and the network extrapolates
    freely.
    """
    if mixture.dim != 2:
        raise ValueError(f"score_field_cosine needs a 2-D mixture, got dim {mixture.dim}")
    axis = np.linspace(-half_width, half_width, points)
    grid = np.stack(np.meshgrid(axis, axis), axis=-1).reshape(-1, 2)
    means = mixture.mean_array()
    radii = region_sigmas * np.sqrt(np.asarray(mixture.stds) ** 2 + sigma**2)
    dists = np.linalg.norm(grid[:, None, :] - means[None], axis=2)
    keep = (dists <= radii[None, :]).any(axis=1)
    grid = grid[keep]
    pred = net.forward(grid, math.log(sigma))
    true = analytic_mixture_score(grid, mixture, sigma)
    num = (pred * true).sum(axis=1)
    den = np.linalg.norm(pred, axis=1) * np.linalg.norm(true, axis=1) + 1e-300
    return float((num / den).mean())


def analytic_mixture_score(x, mixture: MixtureSpec, smoothing_sigma: float = 0.0):
    """Exact score of the sigma-smoothed mixture, stable in the log domain.

    A Gaussian mixture convolved with N(0, sigma^2 I) is again a Gaussian
    mixture with inflated component variances, so the smoothed score is in
    closed form: a responsibility-weighted sum of component scores.
    """
    squeeze, diffs, variances, log_comp = _log_components(x, mixture, smoothing_sigma)
    peak = log_comp.max(axis=1, keepdims=True)
    resp = np.exp(log_comp - peak)
    resp /= resp.sum(axis=1, keepdims=True)
    score = -(resp[:, :, None] * diffs / variances[None, :, None]).sum(axis=1)
    return score[0] if squeeze else score
