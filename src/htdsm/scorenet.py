"""Dense score network with explicit forward/backward passes, the DSM
training objective for generalized-normal noise, and analytic score oracles
used to evaluate trained models.

The network is a small ReLU MLP over [x, log sigma] with a linear output
head; parameters and gradients are flat numpy vectors, viewed per layer,
so the backward pass can be checked against finite differences directly.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from htdsm._config import Config
from htdsm.distributions import (
    SCORE_DELTA_FLOOR,
    GeneralizedNormal,
    gn_sample,
    gn_score,
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

    means: tuple
    stds: tuple
    weights: tuple

    def __post_init__(self) -> None:
        means = tuple(tuple(float(v) for v in m) for m in self.means)
        stds = tuple(float(s) for s in self.stds)
        weights = tuple(float(w) for w in self.weights)
        if not (len(means) == len(stds) == len(weights)):
            raise ValueError("means, stds and weights must have equal length")
        if any(s <= 0 for s in stds):
            raise ValueError(f"component stds must be positive: {stds}")
        if any(w <= 0 for w in weights):
            raise ValueError(f"weights must be positive: {weights}")
        if abs(sum(weights) - 1.0) > 1e-9:
            raise ValueError(f"weights must sum to 1, got {sum(weights)}")
        object.__setattr__(self, "means", means)
        object.__setattr__(self, "stds", stds)
        object.__setattr__(self, "weights", weights)

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
    beta_noise: float = 2.0
    alpha_unit: float | None = None
    batch_size: int = 256
    steps: int = 20_000
    learning_rate: float = 1e-3
    loss_weight_exponent: float = 2.0
    hidden: tuple = (16, 16)
    seed: int = 0

    def __post_init__(self) -> None:
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.steps < 1:
            raise ValueError(f"steps must be >= 1, got {self.steps}")
        if self.beta_noise <= 0:
            raise ValueError(f"beta_noise must be positive, got {self.beta_noise}")
        object.__setattr__(self, "hidden", tuple(int(h) for h in self.hidden))
        if any(h < 1 for h in self.hidden):
            raise ValueError(f"hidden widths must be >= 1, got {list(self.hidden)}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")

    def resolved_alpha_unit(self) -> float:
        if self.alpha_unit is not None:
            return float(self.alpha_unit)
        return unit_variance_alpha(self.beta_noise)


class ScoreNetwork:
    """ReLU MLP scoring s(x, log sigma); input width = data dim + 1.

    Every parameter lives in one flat vector, `params`. `weights` and
    `biases` are tuples of views into it, so writing into a layer's array
    changes `params`; gradients from `backward` share the same layout.
    """

    def __init__(self, layer_sizes, rng: np.random.Generator | None = None):
        layer_sizes = [int(s) for s in layer_sizes]
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

    def _stack_input(self, x: np.ndarray, log_sigma) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        squeeze = x.ndim == 1
        if squeeze:
            x = x[None, :]
        dim = self.data_dim
        if x.shape[1] != dim:
            raise ValueError(f"expected data dim {dim}, got {x.shape[1]}")
        h = np.empty((x.shape[0], dim + 1))
        h[:, :dim] = x
        h[:, dim] = log_sigma
        return h, squeeze

    def forward(self, x, log_sigma):
        """Evaluate s(x, log sigma); accepts (d,) or (N, d) inputs."""
        h, squeeze = self._stack_input(x, log_sigma)
        last = len(self.weights) - 1
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            h = h @ w
            h += b
            if i < last:
                np.maximum(h, 0.0, out=h)
        return h[0] if squeeze else h

    def forward_cached(self, x, log_sigma):
        """Forward pass keeping pre/post activations for backprop."""
        h, _ = self._stack_input(x, log_sigma)
        activations = [h]
        last = len(self.weights) - 1
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            h = h @ w
            h += b
            if i < last:
                np.maximum(h, 0.0, out=h)
            activations.append(h)
        return h, activations

    def backward(self, activations, grad_out) -> np.ndarray:
        """Gradient of sum(grad_out * output) w.r.t. every parameter.

        Returns a new vector laid out like `params`; `views` splits it into
        per-layer weight and bias gradients.
        """
        grad = np.asarray(grad_out, dtype=float)
        flat = np.empty_like(self.params)
        weight_grads, bias_grads = self.views(flat)
        for i in range(len(self.weights) - 1, -1, -1):
            np.matmul(activations[i].T, grad, out=weight_grads[i])
            np.add.reduce(grad, axis=0, out=bias_grads[i])
            if i > 0:
                grad = grad @ self.weights[i].T
                grad *= activations[i] > 0.0
        return flat

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
    def from_dict(cls, d: dict) -> "ScoreNetwork":
        """Load a checkpoint; every array must match its layer's shape and
        hold finite values."""
        net = cls(d["layer_sizes"])
        for kind, params, values in (
            ("weight", net.weights, d["weights"]),
            ("bias", net.biases, d["biases"]),
        ):
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


@functools.lru_cache(maxsize=64)
def _noise_level(sigma: float, alpha_unit: float, beta_noise: float) -> tuple:
    """Per-level DSM constants: (noise kernel, log sigma, loss weight).

    Cached so a training run builds and validates each level's kernel once.
    """
    return (
        GeneralizedNormal(0.0, sigma * alpha_unit, beta_noise),
        math.log(sigma),
        sigma**2,
    )


def dsm_loss(
    net: ScoreNetwork,
    batch,
    sigma: float,
    alpha_unit: float,
    beta_noise: float,
    rng: np.random.Generator,
):
    """One DSM step at a fixed level: perturb, score-match, return gradients.

    Each clean point is perturbed elementwise with GN(0, sigma * alpha_unit,
    beta_noise) noise; the target is the conditional score of that kernel,
    and the loss is sigma^2 * mean over the batch of half the squared error.
    The sigma^2 weight cancels the ~1/sigma growth of the target so all
    levels contribute at a comparable scale. Returns (loss, gradient), the
    gradient laid out like `net.params`.
    """
    batch = np.asarray(batch, dtype=float)
    noise_dist, log_sigma, weight = _noise_level(
        float(sigma), float(alpha_unit), float(beta_noise)
    )
    noise = gn_sample(noise_dist, rng, batch.shape)
    noisy = batch + noise
    if beta_noise < 1.0:
        # Clamp exact hits of the score singularity (distributions policy).
        tiny = np.abs(noise) < SCORE_DELTA_FLOOR
        if np.any(tiny):
            safe = np.where(noise >= 0.0, SCORE_DELTA_FLOOR, -SCORE_DELTA_FLOOR)
            noise = np.where(tiny, safe, noise)
            noisy = batch + noise
    target = gn_score(noisy, batch, noise_dist.alpha, beta_noise)

    pred, activations = net.forward_cached(noisy, log_sigma)
    err = pred - target
    loss = weight * 0.5 * float((err**2).sum(axis=1).mean())
    grad_out = (weight / batch.shape[0]) * err
    return loss, net.backward(activations, grad_out)


def train(data, cfg: TrainConfig, rng: np.random.Generator):
    """Plain SGD over uniformly drawn noise levels.

    Returns (trained network, per-step loss array). Raises
    TrainingDivergedError with the offending step and level if the loss or
    any parameter goes non-finite.
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
    losses = np.empty(cfg.steps)
    for step in range(cfg.steps):
        level = int(rng.integers(len(sigmas)))
        sigma = sigmas[level]
        idx = rng.integers(0, data.shape[0], cfg.batch_size)
        loss, grad = dsm_loss(net, data[idx], sigma, alpha_unit, cfg.beta_noise, rng)
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
    axis = np.linspace(-half_width, half_width, points)
    grid = np.stack(np.meshgrid(axis, axis), axis=-1).reshape(-1, mixture.dim)
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
