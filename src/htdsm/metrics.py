"""Generative-model metrics over (M, d) point matrices.

Precision/recall/density/coverage (kNN-ball form), polynomial-kernel
squared MMD (the KID form), Fréchet distance between moment-matched
Gaussians, percentile bootstrap confidence intervals, and the
mode-imbalance statistic for mixture experiments. Callers pass only the
points to score: the mode imbalance takes the non-diverged endpoints, so
the sampler's particle statuses stay with the caller.

The metrics take the raw points as their features (the identity feature
map); reports carry that label so downstream consumers know the values are
not classifier-feature metrics.

PRDC runs its independent passes on one thread per usable core
(`distributions._map_on_cores`), inline on one core. Each pass's result
depends only on its inputs, and the passes are combined by integer sums
and boolean ORs, so the values do not depend on the thread count. KID
takes its three kernel sums one after the other: on two threads they ran
no faster.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from htdsm._config import Config
from htdsm.distributions import _core_shares, _map_on_cores
from htdsm.scorenet import MixtureSpec

# Entries per row block of a pairwise matrix: prdc and kid never hold a full
# n x n matrix. 256 KiB of float64 keeps a block and its scratch arrays
# inside a core's 2 MiB L2 on every pass. Medians of 9 calls at 4000 x 4000
# 2D points (2 cores), PRDC / KID in seconds: 1 << 13, 0.35 / 0.24; 1 << 14,
# 0.32 / 0.18; 1 << 15, 0.28 / 0.18; 1 << 16, 0.28 / 0.18; 1 << 17, 0.45 /
# 0.21; the former 1 << 20 (8 MiB), 0.53 / 0.39.
_BLOCK_ENTRIES = 1 << 15

__all__ = [
    "MetricError",
    "MetricReport",
    "prdc",
    "kid",
    "kid_kernel",
    "fid",
    "bootstrap_ci",
    "mode_imbalance",
]


class MetricError(ValueError):
    """Degenerate inputs made a metric undefined. `point_set` is "real" or
    "fake" when one argument alone is at fault, else None."""

    def __init__(self, message: str, point_set: str | None = None):
        super().__init__(message)
        self.point_set = point_set


@dataclass
class MetricReport(Config):
    precision: float | None = None
    recall: float | None = None
    density: float | None = None
    coverage: float | None = None
    kid: float | None = None
    fid: float | None = None
    feature_map: str = "identity"


def _points(x) -> np.ndarray:
    pts = np.asarray(x, dtype=float)
    if pts.ndim != 2:
        raise ValueError(f"expected an (M, d) matrix, got shape {pts.shape}")
    return pts


def _row_blocks(rows: int, cols: int):
    """Slices of at most _BLOCK_ENTRIES // cols rows (at least one) covering
    range(rows)."""
    step = max(1, _BLOCK_ENTRIES // cols)
    for start in range(0, rows, step):
        yield slice(start, min(start + step, rows))


def _distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Euclidean distances between the rows of a and b.

    Each entry is sqrt(sum_j (a_j - b_j)^2), accumulated coordinate by
    coordinate, so its value depends only on the two points: not on the
    block it is computed in, nor on the BLAS tiling or thread count. Self
    distances are exactly 0.
    """
    out = np.subtract.outer(a[:, 0], b[:, 0])
    out *= out
    term = np.empty_like(out)
    for j in range(1, a.shape[1]):
        np.subtract.outer(a[:, j], b[:, j], out=term)
        term *= term
        out += term
    return np.sqrt(out, out=out)


def _knn_radii(pts: np.ndarray, k: int) -> np.ndarray:
    radii = np.empty(pts.shape[0])
    for rows in _row_blocks(pts.shape[0], pts.shape[0]):
        d = _distances(pts[rows], pts)
        # Each row holds its own zero self distance, so the k-th nearest
        # neighbor (self excluded) is the row's k-th order statistic.
        d.partition(k, axis=1)
        radii[rows] = d[:, k]
    return radii


def _cross_counts(real: np.ndarray, radii_real: np.ndarray, fake: np.ndarray,
                  radii_fake: np.ndarray) -> tuple:
    """prdc's cross pass over these real points and their radii:
    (fake_hit, memberships, covered, recalled). fake_hit marks the fake
    points inside some of these real balls; memberships counts the (real,
    fake) pairs in a real ball, covered the real balls holding a fake point,
    and recalled the real points inside some fake ball."""
    fake_hit = np.zeros(fake.shape[0], dtype=bool)
    memberships = recalled = covered = 0
    for rows in _row_blocks(real.shape[0], fake.shape[0]):
        d_rf = _distances(real[rows], fake)
        in_real_balls = d_rf <= radii_real[rows, None]
        fake_hit |= in_real_balls.any(axis=0)
        memberships += int(np.count_nonzero(in_real_balls))
        covered += int(np.count_nonzero(in_real_balls.any(axis=1)))
        recalled += int(np.count_nonzero((d_rf <= radii_fake).any(axis=1)))
    return fake_hit, memberships, covered, recalled


def prdc(real, fake, k: int):
    """Precision, recall, density, coverage with k-NN ball neighborhoods.

    Balls are closed, radii are k-th nearest-neighbor distances within each
    set (self excluded). Returns (precision, recall, density, coverage).
    Pairwise distances are taken in row blocks, so memory is
    O(_BLOCK_ENTRIES) per thread, not O(M_real * M_fake). The two sets'
    radii are taken on two threads, and the cross pass splits the real
    points into one contiguous share per usable core; the shares' counts
    are added and their fake-point hits ORed.
    """
    r = _points(real)
    f = _points(fake)
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if r.shape[0] <= k or f.shape[0] <= k:
        raise ValueError(
            f"both sets need more than k={k} points, got {r.shape[0]} and {f.shape[0]}"
        )
    if r.shape[1] != f.shape[1]:
        raise ValueError("feature dimensions differ")
    radii_r, radii_f = _map_on_cores(_knn_radii, (r, f), (k, k))
    for name, radii in (("real", radii_r), ("fake", radii_f)):
        if radii.max() == 0.0:
            raise MetricError(
                f"degenerate {name} points: every point has at least k={k} exact "
                "duplicates, so every k-NN radius is 0", name)

    m, n = r.shape[0], f.shape[0]
    shares = _core_shares(m)
    hits, memberships, covered, recalled = zip(*_map_on_cores(
        _cross_counts, [r[s] for s in shares], [radii_r[s] for s in shares],
        [f] * len(shares), [radii_f] * len(shares)))
    precision = int(np.count_nonzero(np.logical_or.reduce(hits))) / n
    return precision, sum(recalled) / m, sum(memberships) / (k * n), sum(covered) / m


def kid_kernel(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Cubic polynomial kernel (x.y / d + 1)^3 over rows of a and b.

    Each x.y is accumulated coordinate by coordinate, as _distances
    accumulates its squares, so an entry depends only on its two points:
    not on the block it is computed in, nor on a BLAS kernel.
    """
    scratch = np.empty((a.shape[0], b.shape[0]))
    return _kernel_block(a, np.ascontiguousarray(b.T), scratch, np.empty_like(scratch))


def _kernel_block(a: np.ndarray, b_cols: np.ndarray, scratch: np.ndarray,
                  out: np.ndarray) -> np.ndarray:
    """kid_kernel(a, b) written into out, with b_cols = b.T in C order and
    scratch an array of out's shape that it overwrites."""
    np.multiply(a[:, :1], b_cols[0], out=scratch)
    for j in range(1, a.shape[1]):
        np.multiply(a[:, j : j + 1], b_cols[j], out=out)
        scratch += out
    scratch /= a.shape[1]
    scratch += 1.0
    np.multiply(scratch, scratch, out=out)
    out *= scratch
    return out


def _kernel_sum(a: np.ndarray, b: np.ndarray, skip_diagonal: bool) -> float:
    """Sum of kid_kernel(a, b), without its diagonal if skip_diagonal.

    The kernel is taken in row blocks. Each row is summed on its own by
    np.add.reduce, and all row sums are combined exactly with math.fsum, so
    the sum does not depend on the block size.
    """
    m, n = a.shape[0], b.shape[0]
    b_cols = np.ascontiguousarray(b.T)
    block_rows = min(m, max(1, _BLOCK_ENTRIES // n))
    scratch, kernel = np.empty((block_rows, n)), np.empty((block_rows, n))
    row_sums = np.empty(m)
    for rows in _row_blocks(m, n):
        size = rows.stop - rows.start
        block = _kernel_block(a[rows], b_cols, scratch[:size], kernel[:size])
        if skip_diagonal:
            np.fill_diagonal(block[:, rows.start :], 0.0)
        np.add.reduce(block, axis=1, out=row_sums[rows])
    return math.fsum(row_sums.tolist())


def kid(real, fake) -> float:
    """Unbiased squared-MMD estimate with the cubic polynomial kernel.

    Diagonal terms are excluded from the within-set averages; for equal set
    sizes the cross term also excludes matched pairs (the full U-statistic),
    which makes kid(A, A) vanish identically: all three sums run through the
    same code. May be slightly negative. Kernel blocks are summed one at a
    time, so memory is O(_BLOCK_ENTRIES), not O(m * n), and the value is
    bit-identical for any block size (see _kernel_sum and kid_kernel). The
    three sums run one after the other: they are short ufunc passes, and
    on two threads they ran no faster (0.146-0.151 s a call at 4000 x 4000
    2D points on 2 cores, against 0.143-0.150 s serially).
    """
    x = _points(real)
    y = _points(fake)
    m, n = x.shape[0], y.shape[0]
    if m < 2 or n < 2:
        raise ValueError("kid needs at least 2 points per set")
    if x.shape[1] != y.shape[1]:
        raise ValueError("feature dimensions differ")
    sum_xx, sum_yy = _kernel_sum(x, x, True), _kernel_sum(y, y, True)
    sum_xy = _kernel_sum(x, y, m == n)
    if m == n:
        return float((sum_xx + sum_yy - 2.0 * sum_xy) / (m * (m - 1)))
    return float(
        sum_xx / (m * (m - 1)) + sum_yy / (n * (n - 1)) - 2.0 * (sum_xy / (m * n))
    )


def _sym_sqrt(mat: np.ndarray) -> np.ndarray:
    vals, vecs = np.linalg.eigh((mat + mat.T) / 2.0)
    vals = np.maximum(vals, 0.0)
    return (vecs * np.sqrt(vals)) @ vecs.T


def fid(real, fake) -> float:
    """Fréchet distance between moment-matched Gaussians of two feature sets.

    The cross covariance square root is computed through the symmetrized
    product S1^{1/2} S2 S1^{1/2} with negative eigenvalues clamped to zero.
    """
    x = _points(real)
    y = _points(fake)
    d = x.shape[1]
    if x.shape[0] <= d or y.shape[0] <= d:
        raise ValueError(
            f"fid needs more than d={d} points per set, got {x.shape[0]} and {y.shape[0]}"
        )
    if y.shape[1] != d:
        raise ValueError("feature dimensions differ")
    mu_x, mu_y = x.mean(axis=0), y.mean(axis=0)
    cov_x = np.cov(x, rowvar=False).reshape(d, d)
    cov_y = np.cov(y, rowvar=False).reshape(d, d)
    root_x = _sym_sqrt(cov_x)
    cross = _sym_sqrt(root_x @ cov_y @ root_x)
    value = float(
        ((mu_x - mu_y) ** 2).sum()
        + np.trace(cov_x)
        + np.trace(cov_y)
        - 2.0 * np.trace(cross)
    )
    if not math.isfinite(value):
        raise MetricError("fid produced a non-finite value")
    return max(value, 0.0)


def bootstrap_ci(
    values,
    resamples: int,
    level: float,
    rng: np.random.Generator,
):
    """Percentile bootstrap of the mean: returns (mean, lo, hi)."""
    values = np.asarray(values, dtype=float)
    if values.size == 0:
        raise ValueError("bootstrap_ci needs a nonempty sequence")
    if resamples < 1:
        raise ValueError(f"resamples must be >= 1, got {resamples}")
    if not 0.0 < level < 1.0:
        raise ValueError(f"level must lie in (0, 1), got {level}")
    idx = rng.integers(0, values.size, size=(int(resamples), values.size))
    means = values[idx].mean(axis=1)
    lo, hi = np.quantile(means, [(1.0 - level) / 2.0, (1.0 + level) / 2.0])
    return float(values.mean()), float(lo), float(hi)


def mode_imbalance(endpoints, mixture: MixtureSpec) -> float:
    """Percentage of endpoints assigned to the majority mode.

    Endpoints are assigned to the nearest mixture mean; the majority mode is
    the one with the largest training weight. Callers pass the non-diverged
    endpoints and report divergence separately; non-finite rows are dropped.
    """
    endpoints = np.atleast_2d(np.asarray(endpoints, dtype=float))
    endpoints = endpoints[np.isfinite(endpoints).all(axis=1)]
    if endpoints.size == 0:
        raise MetricError("no non-diverged endpoints to assign")
    means = mixture.mean_array()
    assign = np.linalg.norm(
        endpoints[:, None, :] - means[None, :, :], axis=2
    ).argmin(axis=1)
    majority = int(np.argmax(mixture.weights))
    return float(100.0 * np.mean(assign == majority))
