"""Langevin dynamics, annealed Langevin dynamics with configurable
diffusion-noise shape, the forward noising chain, and divergence detection.

Particles are independent: every particle draws its initial position and
its entire diffusion-noise stream from a generator seeded by
(master seed, particle index). With an elementwise score (one that treats
each row on its own, like -x) results are therefore bitwise identical
however particles are batched or fanned across workers. A network score is
not yet row-stable: BLAS rounds a row differently with the batch's row
count, so its results move by ulps with the number of alive rows in a
block. Diffusion noise of any
shape is rescaled to unit per-coordinate variance, keeping the sqrt(2 eps)
coefficient of the update comparable across shapes.

A block's diffusion noise is drawn before its first step, step-major, by
`distributions._block_noise` over the block's generators, on a thread pool
with one thread per core the process may use. Each generator is drawn by one
thread only, so the bits do not depend on the thread count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from htdsm._config import Config
from htdsm.distributions import (
    GeneralizedNormal,
    _block_noise,
    gn_sample,
    unit_variance_alpha,
)
from htdsm.schedule import NoiseSchedule

__all__ = [
    "CONVERGED",
    "DIVERGED",
    "SamplerConfig",
    "ParticlePath",
    "particle_rng",
    "ld_run",
    "ald_run",
    "forward_chain",
    "detect_divergence",
]

CONVERGED = "converged"
DIVERGED = "diverged"

# Particles processed per block; keeps pregenerated noise under ~100 MB.
_BLOCK_BUDGET = 8_000_000


@dataclass(frozen=True)
class SamplerConfig(Config):
    """Langevin sampling parameters.

    steps_per_level may be a single int or one int per schedule level.
    step_size 0 is allowed (degenerate constant/drift-free runs used as
    oracles). beta_diff = 2 is Gaussian diffusion, 1 Laplace.
    """

    schedule: NoiseSchedule
    steps_per_level: int | tuple = 1000
    step_size: float = 0.1
    beta_diff: float = 2.0
    init_half_width: float = 6.0
    divergence_radius: float = 100.0
    record_paths: bool = False
    seed: int = 0

    def __post_init__(self) -> None:
        if self.step_size < 0.0:
            raise ValueError(f"step_size must be >= 0, got {self.step_size}")
        if self.beta_diff <= 0.0:
            raise ValueError(f"beta_diff must be positive, got {self.beta_diff}")
        if self.init_half_width <= 0.0:
            raise ValueError(
                f"init_half_width must be positive, got {self.init_half_width}"
            )
        if not math.isfinite(self.divergence_radius):
            raise ValueError(
                f"divergence_radius must be finite, got {self.divergence_radius}"
            )
        if self.divergence_radius <= self.init_half_width:
            raise ValueError(
                "divergence_radius must exceed init_half_width, got "
                f"{self.divergence_radius} <= {self.init_half_width}"
            )
        steps = self.steps_per_level
        if np.isscalar(steps):
            steps = (int(steps),) * len(self.schedule)
        else:
            steps = tuple(int(t) for t in steps)
            if len(steps) != len(self.schedule):
                raise ValueError(
                    f"steps_per_level has {len(steps)} entries for "
                    f"{len(self.schedule)} levels"
                )
        if any(t < 1 for t in steps):
            raise ValueError(f"steps per level must be >= 1, got {steps}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        object.__setattr__(self, "steps_per_level", steps)


@dataclass
class ParticlePath:
    """One particle's trajectory summary.

    positions has shape (total steps + 1, d) when paths were recorded, else
    it is None, and so is levels, which aligns positions with the schedule
    level that produced each step.
    """

    final: np.ndarray
    status: str
    positions: np.ndarray | None = None
    levels: np.ndarray | None = None


def particle_rng(seed: int, index: int) -> np.random.Generator:
    """Independent substream for one particle, derived from (seed, index)."""
    return np.random.default_rng(np.random.SeedSequence([int(seed), int(index)]))


def detect_divergence(positions, divergence_radius: float = 100.0) -> str:
    """Diverged iff any position is non-finite or leaves the given radius."""
    positions = np.atleast_2d(np.asarray(positions, dtype=float))
    if not np.all(np.isfinite(positions)):
        return DIVERGED
    if np.any(np.linalg.norm(positions, axis=-1) > divergence_radius):
        return DIVERGED
    return CONVERGED


def _run_block(score_fn, cfg: SamplerConfig, indices) -> list:
    """Simulate one block of particles through all schedule levels.

    The particles still alive are held compacted in `xa`, with their rows of
    `x` in `alive_rows`; a diverged particle's frozen position is written back
    to `x` when it diverges, the survivors' at the end (every step when paths
    are recorded).
    """
    sigmas = cfg.schedule.sigmas
    dim = cfg.schedule.n
    steps = cfg.steps_per_level
    total_steps = sum(steps)
    sigma_max_sq = sigmas[0] ** 2
    alpha_v = unit_variance_alpha(cfg.beta_diff)
    count = len(indices)

    x = np.empty((count, dim))
    rngs = []
    for row, pid in enumerate(indices):
        rng = particle_rng(cfg.seed, pid)
        x[row] = rng.uniform(-cfg.init_half_width, cfg.init_half_width, dim)
        rngs.append(rng)
    # Step-major, so one step's noise for the whole block is contiguous.
    noise = _block_noise(GeneralizedNormal(0.0, alpha_v, cfg.beta_diff), rngs, total_steps, dim)

    inside = cfg.divergence_radius / (2.0 * math.sqrt(dim))
    alive_rows = np.arange(count)
    xa = x.copy()
    if cfg.record_paths:
        positions = np.empty((count, total_steps + 1, dim))
        positions[:, 0] = x
        level_of_step = np.concatenate(
            [np.full(t, i, dtype=int) for i, t in enumerate(steps)]
        )
    step = 0
    for sigma, t_level in zip(sigmas, steps):
        eps = cfg.step_size * sigma**2 / sigma_max_sq
        kick = math.sqrt(2.0 * eps)
        log_sigma = math.log(sigma)
        for _ in range(t_level):
            if len(alive_rows):
                z = noise[step]
                if len(alive_rows) < count:
                    z = z.take(alive_rows, axis=0)
                # Near-divergent particles may overflow transiently; that is
                # the signal divergence detection freezes on, not an error.
                with np.errstate(over="ignore", invalid="ignore"):
                    score = np.asarray(score_fn(xa, log_sigma), dtype=float)
                    xa = xa + eps * score + kick * z
                    # While no coordinate exceeds `inside`, no norm exceeds
                    # radius / 2. NaN and inf fail both tests.
                    if not np.abs(xa).max() <= inside:
                        ok = np.linalg.norm(xa, axis=1) <= cfg.divergence_radius
                        if not ok.all():
                            x[alive_rows[~ok]] = xa[~ok]
                            alive_rows = alive_rows[ok]
                            xa = xa[ok]
            if cfg.record_paths:
                x[alive_rows] = xa
                positions[:, step + 1] = x
            step += 1
    x[alive_rows] = xa

    alive = np.zeros(count, dtype=bool)
    alive[alive_rows] = True
    out = []
    for row in range(count):
        status = CONVERGED if alive[row] else DIVERGED
        if cfg.record_paths:
            out.append(
                ParticlePath(
                    final=x[row].copy(),
                    status=status,
                    positions=positions[row].copy(),
                    levels=level_of_step.copy(),
                )
            )
        else:
            out.append(ParticlePath(final=x[row].copy(), status=status))
    return out


def _run(score_fn, cfg: SamplerConfig, count: int) -> list:
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    total_steps = sum(cfg.steps_per_level)
    per_particle = max(total_steps * cfg.schedule.n, 1)
    block = max(1, min(count, _BLOCK_BUDGET // per_particle))
    paths = []
    for start in range(0, count, block):
        indices = range(start, min(start + block, count))
        paths.extend(_run_block(score_fn, cfg, indices))
    return paths


def ld_run(score_fn, cfg: SamplerConfig, count: int) -> list:
    """Langevin dynamics at the schedule's single noise level.

    score_fn(x, log_sigma) maps an (N, d) batch to (N, d) scores. Particles
    start uniform in the init box; a particle that leaves the divergence
    radius (or goes non-finite) is frozen and reported as diverged rather
    than raising.
    """
    if len(cfg.schedule) != 1:
        raise ValueError(
            f"ld_run needs a single-level schedule, got {len(cfg.schedule)} levels"
        )
    return _run(score_fn, cfg, count)


def ald_run(score_fn, cfg: SamplerConfig, count: int) -> list:
    """Annealed Langevin dynamics over the descending schedule.

    Level i uses step size step_size * sigma_i^2 / sigma_1^2 and starts from
    the previous level's final positions; score_fn receives log sigma_i.
    """
    return _run(score_fn, cfg, count)


def forward_chain(x0, sigmas, rng: np.random.Generator, beta: float = 2.0):
    """Simulate the forward noising chain x_i = x_{i-1} + sqrt(s_i^2 - s_{i-1}^2) z.

    sigmas is the ascending sequence of marginal scales (sigma_0 = 0 is
    implicit); z has unit per-coordinate variance of the requested shape, so
    the marginal variance of x_N - x_0 is sigma_N^2 per coordinate for any
    shape. Returns an array of states stacked along a new leading axis,
    starting with x0.
    """
    sigmas = [float(s) for s in sigmas]
    if len(sigmas) == 0:
        raise ValueError("need at least one noise level")
    if sigmas[0] <= 0.0 or any(b <= a for a, b in zip(sigmas, sigmas[1:])):
        raise ValueError(f"sigmas must be positive and strictly ascending: {sigmas}")
    x = np.asarray(x0, dtype=float)
    noise = GeneralizedNormal(0.0, unit_variance_alpha(beta), beta)
    states = [x.copy()]
    prev = 0.0
    for sigma in sigmas:
        scale = math.sqrt(sigma**2 - prev**2)
        z = gn_sample(noise, rng, x.shape)
        x = x + scale * z
        states.append(x.copy())
        prev = sigma
    return np.stack(states, axis=0)
