"""Annealed Langevin dynamics (`ald_run`; a one-level schedule is plain
Langevin dynamics) with configurable diffusion-noise shape, and the forward
noising chain.

Particles are independent: every particle draws its initial position, then
its entire diffusion-noise stream in one `gn_sample` call, from a generator
seeded by (master seed, particle index); a block holds its particles'
streams in one step-major (steps, particles, d) array, drawn before its
first step. With a row-stable score (one whose value for a row does not
depend on the other rows or their number: an elementwise score like -x, or
ScoreNetwork.forward, which pads its batch) results are therefore bitwise
identical however particles are cut into blocks or fanned across workers,
and whichever particles of a block have diverged. Results, and the pins and
digests taken from them, are bit-exact per host and per BLAS kernel.
Diffusion noise of any shape is rescaled to unit per-coordinate variance,
keeping the sqrt(2 eps) coefficient of the update comparable across shapes.

A particle diverges when np.linalg.norm of its row exceeds the divergence
radius or is NaN. That is the one divergence test; `_coordinate_bound` skips
it on steps where every coordinate of the block lies well inside the radius.

`ald_run` returns one numpy record array with a row per particle: columns
`final` and `status`, plus `positions` when paths are recorded. The
particles run in ceil(count * steps * d / _BLOCK_BUDGET) blocks (at most
one per particle) whose sizes differ by at most one, so a block holds fewer
than _BLOCK_BUDGET noise values plus one particle's; each block writes its
slice of the result in place.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from htdsm._config import Config, Count, Index, Positive, Real, check_field
from htdsm.distributions import (
    GeneralizedNormal,
    _row_view,
    gn_sample,
    unit_variance_alpha,
)
from htdsm.schedule import NoiseSchedule

__all__ = [
    "CONVERGED",
    "DIVERGED",
    "SamplerConfig",
    "particle_rng",
    "ald_run",
    "forward_chain",
]

CONVERGED = "converged"
DIVERGED = "diverged"

# Noise values per block: 6M float64, a 48 MB buffer, which sets the peak
# memory of a long run (sample_eval's 4,000 x 3,000-step runs go as four
# blocks of 1,000 particles, the grid's 1,000 as one). It stays above
# glibc's 32 MiB ceiling on its mmap threshold, so every block's buffer is
# mapped and unmapped whole. Buffers under it come from the heap: one of
# three runs with 30.5 MiB blocks kept two resident and peaked at 106.3 MB.
# Blocks under about 750 rows also cost more per row-step.
_BLOCK_BUDGET = 6_000_000


@dataclass(frozen=True)
class SamplerConfig(Config):
    """Langevin sampling parameters.

    steps_per_level may be a single int or one int per schedule level.
    step_size 0 is allowed (degenerate constant/drift-free runs used as
    oracles). beta_diff = 2 is Gaussian diffusion, 1 Laplace.
    """

    schedule: NoiseSchedule
    steps_per_level: Count | tuple[Count, ...] = 1000
    step_size: Real = 0.1
    beta_diff: Positive = 2.0
    init_half_width: Positive = 6.0
    divergence_radius: Positive = 100.0
    record_paths: bool = False
    seed: Index = 0

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.step_size < 0.0:
            raise ValueError(f"step_size must be >= 0, got {self.step_size!r}")
        unit_variance_alpha(self.beta_diff, "beta_diff")  # raises where the scale underflows
        if self.divergence_radius <= self.init_half_width:
            raise ValueError(
                "divergence_radius must exceed init_half_width, got "
                f"{self.divergence_radius} <= {self.init_half_width}"
            )
        levels = len(self.schedule)
        if isinstance(self.steps_per_level, int):
            object.__setattr__(self, "steps_per_level", (self.steps_per_level,) * levels)
        if len(self.steps_per_level) != levels:
            raise ValueError(f"steps_per_level has {len(self.steps_per_level)} entries "
                             f"for {levels} levels")


def particle_rng(seed: int, index: int) -> np.random.Generator:
    """Independent substream for one particle, derived from (seed, index)."""
    return np.random.default_rng(np.random.SeedSequence([int(seed), int(index)]))


def _coordinate_bound(radius: float, dim: int) -> float:
    """A bound c such that every row whose coordinates all lie within +-c
    has a computed np.linalg.norm(row) <= radius, so _run_block may skip the
    norm: the row's exact norm is at most sqrt(d) c, below the radius by
    d 1e-12 relative, while the computed norm (d squares, their sum, a root)
    is off by at most about (d + 2) 2^-53 relative. Where r^2 is subnormal
    or overflows the squares carry no such bound, and c is r / (2 sqrt(d))
    with no promise."""
    normal = sys.float_info.min <= radius * radius < math.inf
    return radius / math.sqrt(dim) * (1.0 - dim * 1e-12 if normal else 0.5)


def _run_block(score_fn, cfg: SamplerConfig, start: int, out: np.recarray) -> None:
    """Simulate the particles start, start + 1, ... through all schedule
    levels, writing their rows of ald_run's result `out`.

    `x` is the `final` column of `out`. The particles still alive are held
    compacted in `xa`, with their rows of `x` in `alive_rows`; a diverged
    particle's frozen position is written back to `x` when it diverges, the
    survivors' at the end (every step when paths are recorded).
    """
    sigmas = cfg.schedule.sigmas
    dim = cfg.schedule.n
    steps = cfg.steps_per_level
    total_steps = sum(steps)
    sigma_max_sq = sigmas[0] ** 2
    count = len(out)

    x = out.final
    kernel = GeneralizedNormal(0.0, unit_variance_alpha(cfg.beta_diff), cfg.beta_diff)
    # Step-major, so one step's noise for the whole block is contiguous.
    noise = np.empty((total_steps, count, dim))
    noise_rows = _row_view(noise)
    for row in range(count):
        rng = particle_rng(cfg.seed, start + row)
        x[row] = rng.uniform(-cfg.init_half_width, cfg.init_half_width, dim)
        noise_rows[:, row] = _row_view(gn_sample(kernel, rng, (total_steps, dim)))

    radius = cfg.divergence_radius
    inside = _coordinate_bound(radius, dim)
    alive_rows = np.arange(count)
    xa = x.copy()
    if cfg.record_paths:
        # Row views: each particle's position is copied as one element.
        positions, x_rows = _row_view(out.positions), _row_view(x)
        positions[:, 0] = x_rows
    step = 0
    # Near-divergent particles may overflow transiently; that is the signal
    # divergence detection freezes on, not an error. One context covers
    # every step, score calls included.
    with np.errstate(over="ignore", invalid="ignore"):
        for sigma, t_level in zip(sigmas, steps):
            eps = cfg.step_size * sigma**2 / sigma_max_sq
            kick = math.sqrt(2.0 * eps)
            log_sigma = math.log(sigma)
            for _ in range(t_level):
                if len(alive_rows):
                    z = noise[step]
                    if len(alive_rows) < count:
                        z = z.take(alive_rows, axis=0)
                    # xa + eps * score + kick * z, in that order, in one new array.
                    moved = eps * np.asarray(score_fn(xa, log_sigma), dtype=float)
                    xa = np.add(xa, moved, out=moved)
                    xa += kick * z
                    # While every coordinate lies within +-inside, every
                    # norm is within the radius. NaN and inf fail both tests.
                    if not np.abs(xa).max() <= inside:
                        ok = np.linalg.norm(xa, axis=1) <= radius
                        if not ok.all():
                            x[alive_rows[~ok]] = xa[~ok]
                            alive_rows = alive_rows[ok]
                            xa = xa[ok]
                if cfg.record_paths:
                    x_rows[alive_rows] = np.ascontiguousarray(xa).view(x_rows.dtype)
                    positions[:, step + 1] = x_rows
                step += 1
    x[alive_rows] = xa
    out.status = DIVERGED
    out.status[alive_rows] = CONVERGED


def ald_run(score_fn, cfg: SamplerConfig, count: int) -> np.recarray:
    """Annealed Langevin dynamics over the descending schedule; a one-level
    schedule is plain Langevin dynamics. score_fn(x, log_sigma) maps an
    (N, d) batch to (N, d) scores. Level i uses step size
    step_size * sigma_i^2 / sigma_1^2, receives log sigma_i and starts from
    the previous level's final positions. Particles start uniform in the init
    box; one that leaves the divergence radius (or goes non-finite) is frozen
    and reported as diverged rather than raising.

    Returns a record array with one row per particle, in index order. Its
    fields: `final`, the (d,) end position; `status`, CONVERGED or DIVERGED;
    and, only when cfg.record_paths is set, `positions` of shape
    (total steps + 1, d), whose row 0 is the initial position and row k the
    position after step k. `result.final` is then the (count, d) array of
    end positions, and `result[i].status` particle i's status. count is a
    Count (check_field): a float or a bool is refused by name.
    """
    count = check_field("count", Count, count)
    total_steps = sum(cfg.steps_per_level)
    dim = cfg.schedule.n
    fields = [("final", float, (dim,)), ("status", "U9")]
    if cfg.record_paths:
        fields.append(("positions", float, (total_steps + 1, dim)))
    out = np.recarray(count, dtype=np.dtype(fields, align=True))
    blocks = min(count, -(-count * total_steps * dim // _BLOCK_BUDGET))
    cuts = [count * i // blocks for i in range(blocks + 1)]
    for start, stop in zip(cuts, cuts[1:]):
        _run_block(score_fn, cfg, start, out[start:stop])
    return out


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
