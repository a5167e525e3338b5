import math
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from htdsm import distributions, metrics
from htdsm.metrics import (
    MetricError,
    bootstrap_ci,
    fid,
    kid,
    kid_kernel,
    mode_imbalance,
    prdc,
)
from htdsm.scorenet import MixtureSpec


def prdc_brute_force(real, fake, k):
    """O(M^2) double-loop oracle, independent of the vectorized kNN path."""
    def dist(a, b):
        return math.dist(a, b)

    def kth_radius(points, i):
        ds = sorted(dist(points[i], points[j]) for j in range(len(points)) if j != i)
        return ds[k - 1]

    rad_real = [kth_radius(real, i) for i in range(len(real))]
    rad_fake = [kth_radius(fake, j) for j in range(len(fake))]
    precision = sum(
        any(dist(f, r) <= rad for r, rad in zip(real, rad_real)) for f in fake
    ) / len(fake)
    recall = sum(
        any(dist(r, f) <= rad for f, rad in zip(fake, rad_fake)) for r in real
    ) / len(real)
    density = sum(
        dist(f, r) <= rad for r, rad in zip(real, rad_real) for f in fake
    ) / (k * len(fake))
    coverage = sum(
        any(dist(r, f) <= rad for f in fake) for r, rad in zip(real, rad_real)
    ) / len(real)
    return precision, recall, density, coverage


def kid_brute_force(x, y):
    """Direct double-loop unbiased MMD^2 with the cubic kernel."""
    d = x.shape[1]

    def k(a, b):
        return (float(a @ b) / d + 1.0) ** 3

    m, n = len(x), len(y)
    xx = sum(k(x[i], x[j]) for i in range(m) for j in range(m) if i != j)
    yy = sum(k(y[i], y[j]) for i in range(n) for j in range(n) if i != j)
    if m == n:
        xy = sum(k(x[i], y[j]) for i in range(m) for j in range(n) if i != j)
        return (xx + yy - 2 * xy) / (m * (m - 1))
    xy = sum(k(x[i], y[j]) for i in range(m) for j in range(n))
    return xx / (m * (m - 1)) + yy / (n * (n - 1)) - 2 * xy / (m * n)


def kid_longdouble(x, y):
    """(kid, scale): the unbiased estimate in np.longdouble, and the sum of
    the magnitudes of its three normalized terms, the size against which
    float64 rounding in the kernel sums is measured."""
    d = x.shape[1]
    xl, yl = x.astype(np.longdouble), y.astype(np.longdouble)

    def total(a, b, skip_diagonal):
        k = (a @ b.T / d + 1) ** 3
        return k.sum() - (np.trace(k) if skip_diagonal else 0)

    m, n = len(x), len(y)
    sum_xx, sum_yy = total(xl, xl, True), total(yl, yl, True)
    if m == n:
        sum_xy = total(xl, yl, True)
        terms = (sum_xx / (m * (m - 1)), sum_yy / (m * (m - 1)), -2 * sum_xy / (m * (m - 1)))
    else:
        sum_xy = total(xl, yl, False)
        terms = (sum_xx / (m * (m - 1)), sum_yy / (n * (n - 1)), -2 * sum_xy / (m * n))
    return float(sum(terms)), float(sum(abs(t) for t in terms))


# A dense float64 matrix of 4000 x 4000 entries: 122 MiB.
DENSE_4000_BYTES = 4000 * 4000 * 8


class TestPrdc:
    def test_identical_sets(self):
        pts = np.random.default_rng(0).standard_normal((30, 2))
        p, r, d, c = prdc(pts, pts.copy(), 5)
        assert (p, r, c) == (1.0, 1.0, 1.0)
        assert d > 0

    def test_distant_fake(self):
        pts = np.random.default_rng(1).standard_normal((20, 2))
        assert prdc(pts, pts + 1e6, 3) == (0.0, 0.0, 0.0, 0.0)

    def test_matches_brute_force_on_random_instances(self):
        for trial in range(50):
            rng = np.random.default_rng(trial)
            real = rng.standard_normal((int(rng.integers(10, 31)), 2))
            fake = rng.standard_normal((int(rng.integers(10, 31)), 2)) * 1.4 + 0.3
            got = prdc(real, fake, 3)
            want = prdc_brute_force(real.tolist(), fake.tolist(), 3)
            assert got == pytest.approx(want, abs=1e-12)

    def test_degenerate_set_rejected(self):
        same = np.zeros((10, 2))
        other = np.random.default_rng(2).standard_normal((10, 2))
        with pytest.raises(MetricError, match="degenerate real points") as info:
            prdc(same, other, 3)
        assert info.value.point_set == "real"
        # Not all identical: every point of two 4-point clusters has 3
        # exact duplicates, so every 3-NN radius is 0.
        pairs = np.repeat([[0.0, 0.0], [1.0, 1.0]], 4, axis=0)
        with pytest.raises(MetricError, match="at least k=3 exact duplicates") as info:
            prdc(other, pairs, 3)
        assert info.value.point_set == "fake"
        assert prdc(other, pairs, 4)[0] >= 0.0

    def test_needs_more_than_k_points(self):
        pts = np.random.default_rng(3).standard_normal((4, 2))
        with pytest.raises(ValueError):
            prdc(pts, pts, 5)


class TestBlockedMetrics:
    """prdc and kid walk the pairwise matrices in row blocks of at most
    metrics._BLOCK_ENTRIES entries; results must not depend on the block."""

    # Rows per block is _BLOCK_ENTRIES // cols: 1 entry forces 1-row blocks,
    # the others leave 1-row and odd tails on the 37 x 29, 29 x 29 and
    # 37 x 37 passes.
    BLOCK_ENTRIES = (1, 29 * 2, 29 * 5, 29 * 36, 37 * 4, 37 * 36, 37 * 37 - 1)

    @staticmethod
    def _sets(m, n, d=3):
        rng = np.random.default_rng(m * 100 + n)
        return rng.standard_normal((m, d)), rng.standard_normal((n, d)) * 1.2 + 0.2

    @pytest.mark.parametrize("entries", BLOCK_ENTRIES)
    @pytest.mark.parametrize("m, n", [(37, 29), (29, 37), (37, 37)])
    def test_block_size_invariance(self, monkeypatch, entries, m, n):
        real, fake = self._sets(m, n)
        want_prdc, want_kid = prdc(real, fake, 4), kid(real, fake)
        monkeypatch.setattr(metrics, "_BLOCK_ENTRIES", entries)
        assert prdc(real, fake, 4) == want_prdc
        assert kid(real, fake) == want_kid
        assert kid(real, real.copy()) == 0.0

    @pytest.mark.parametrize("m, n", [(700, 650), (650, 700), (700, 700)])
    def test_default_blocks_match_one_row_blocks(self, monkeypatch, m, n):
        # At the default size these sets span several blocks, with a tail.
        assert m * n > metrics._BLOCK_ENTRIES
        real, fake = self._sets(m, n, d=2)
        want_prdc, want_kid = prdc(real, fake, 5), kid(real, fake)
        monkeypatch.setattr(metrics, "_BLOCK_ENTRIES", 1)
        assert prdc(real, fake, 5) == want_prdc
        assert kid(real, fake) == want_kid

    def test_kid_matches_longdouble_oracle(self):
        # Bound: 8 float64 epsilons of the summed term magnitudes (the
        # worst case seen over 40 random instances was 0.8 epsilons), which
        # at these separations is also a relative error below 1e-12.
        eps = np.finfo(float).eps
        for seed, (m, n) in enumerate([(300, 300), (300, 280), (290, 310)]):
            rng = np.random.default_rng(100 + seed)
            x = rng.standard_normal((m, 2)) + 2.5
            y = rng.standard_normal((n, 2)) * 1.1 + 2.8
            want, scale = kid_longdouble(x, y)
            got = kid(x, y)
            assert abs(got - want) <= 8 * eps * scale
            assert got == pytest.approx(want, rel=1e-12, abs=0.0)
            assert kid(x, x.copy()) == 0.0

    def test_prdc_ties_on_integer_grid(self):
        # Integer coordinates make every squared distance an exact integer,
        # so neighbors sit exactly on ball radii and closed balls matter.
        ties = 0
        for trial in range(20):
            rng = np.random.default_rng(200 + trial)
            real = rng.integers(-4, 5, size=(int(rng.integers(12, 40)), 2)).astype(float)
            fake = rng.integers(-3, 6, size=(int(rng.integers(12, 40)), 2)).astype(float)
            assert prdc(real, fake, 3) == prdc_brute_force(real.tolist(), fake.tolist(), 3)
            radii = metrics._knn_radii(real, 3)
            ties += sum(math.dist(f, r) == rad for r, rad in zip(real, radii) for f in fake)
        assert ties > 0

    @pytest.mark.parametrize("name", ["prdc", "kid"])
    def test_peak_memory_below_one_dense_matrix(self, name):
        rng = np.random.default_rng(22)
        real = rng.standard_normal((4000, 2))
        fake = rng.standard_normal((4000, 2)) + 0.1
        args = (real, fake, 5) if name == "prdc" else (real, fake)
        tracemalloc.start()
        try:
            getattr(metrics, name)(*args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < DENSE_4000_BYTES


def serial_prdc(real, fake, k):
    """prdc with its passes run one after the other on the calling thread,
    the cross pass as one share."""
    radii_r, radii_f = metrics._knn_radii(real, k), metrics._knn_radii(fake, k)
    hit, memberships, covered, recalled = metrics._cross_counts(real, radii_r, fake, radii_f)
    m, n = len(real), len(fake)
    return np.count_nonzero(hit) / n, recalled / m, memberships / (k * n), covered / m


def serial_kid(x, y):
    """kid with its three kernel sums taken one after the other."""
    m, n = len(x), len(y)
    sum_xx, sum_yy = metrics._kernel_sum(x, x, True), metrics._kernel_sum(y, y, True)
    sum_xy = metrics._kernel_sum(x, y, m == n)
    if m == n:
        return float((sum_xx + sum_yy - 2.0 * sum_xy) / (m * (m - 1)))
    return float(sum_xx / (m * (m - 1)) + sum_yy / (n * (n - 1)) - 2.0 * (sum_xy / (m * n)))


class TestMetricThreads:
    """prdc runs its passes on one thread per usable core and kid its sums
    on the calling thread; both are bit-equal to their passes run serially,
    for any thread count."""

    # (m, n, cross-pass blocks of 40 real rows): 10 blocks, 9 blocks, and
    # 9 blocks with m == n.
    CASES = [(400, 330, 10), (360, 330, 9), (330, 330, 9)]

    @pytest.mark.parametrize("threads", [1, 2, 3])
    @pytest.mark.parametrize("m, n, blocks", CASES)
    def test_bit_equal_to_serial_passes(self, monkeypatch, threads, m, n, blocks):
        rng = np.random.default_rng(m + 7 * n)
        real, fake = rng.standard_normal((m, 2)), rng.standard_normal((n, 2)) * 1.3 + 0.2
        monkeypatch.setattr(metrics, "_BLOCK_ENTRIES", 40 * n)
        assert len(list(metrics._row_blocks(m, n))) == blocks
        want = serial_prdc(real, fake, 5), serial_kid(real, fake)
        pools = []

        class Spy(ThreadPoolExecutor):
            def __init__(self, max_workers):
                pools.append(max_workers)
                super().__init__(max_workers)

        monkeypatch.setattr(distributions, "ThreadPoolExecutor", Spy)
        monkeypatch.setattr(distributions, "_draw_threads", lambda: threads)
        # Switching threads as often as the interpreter allows.
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            got = prdc(real, fake, 5), kid(real, fake)
        finally:
            sys.setswitchinterval(interval)
        assert got == want
        # prdc: the two radius passes, then one cross share per thread; kid
        # makes no pool. One thread makes no pool.
        assert pools == ([] if threads == 1 else [2, threads])

    def test_degenerate_real_points_are_reported_first(self):
        same = np.zeros((10, 2))
        with pytest.raises(MetricError) as info:
            prdc(same, same + 1.0, 3)
        assert info.value.point_set == "real"


class TestKid:
    def test_kernel_at_origin(self):
        assert kid_kernel(np.zeros((1, 3)), np.zeros((1, 3)))[0, 0] == 1.0

    def test_identical_sets_vanish(self):
        pts = np.random.default_rng(5).standard_normal((25, 3))
        assert abs(kid(pts, pts.copy())) <= 1e-9

    def test_matches_brute_force_equal_sizes(self):
        rng = np.random.default_rng(6)
        x = rng.standard_normal((5, 2))
        y = rng.standard_normal((5, 2)) + 0.5
        assert kid(x, y) == pytest.approx(kid_brute_force(x, y), rel=1e-12)

    def test_matches_brute_force_unequal_sizes(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal((6, 2))
        y = rng.standard_normal((9, 2)) * 1.3
        assert kid(x, y) == pytest.approx(kid_brute_force(x, y), rel=1e-12)

    def test_grows_with_separation(self):
        pts = np.random.default_rng(8).standard_normal((40, 2))
        vals = [kid(pts, pts + shift) for shift in (0.5, 1.0, 2.0, 4.0)]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_symmetry_and_permutation_invariance(self):
        rng = np.random.default_rng(9)
        x = rng.standard_normal((12, 3))
        y = rng.standard_normal((8, 3))
        assert kid(x, y) == pytest.approx(kid(y, x), rel=1e-12)
        perm = rng.permutation(12)
        assert kid(x[perm], y) == pytest.approx(kid(x, y), rel=1e-12)


class TestFid:
    def test_identical_sets(self):
        pts = np.random.default_rng(10).standard_normal((50, 3))
        assert fid(pts, pts.copy()) <= 1e-8

    def test_mean_separation_squared(self):
        rng = np.random.default_rng(11)
        a = rng.standard_normal((20_000, 3))
        b = rng.standard_normal((20_000, 3)) + np.array([2.0, 0.0, 0.0])
        assert fid(a, b) == pytest.approx(4.0, rel=0.05)

    def test_scalar_closed_form(self):
        rng = np.random.default_rng(12)
        u = rng.standard_normal(3000)
        v = rng.standard_normal(3000) * 2.5 + 3.0
        want = (u.mean() - v.mean()) ** 2 + (u.std(ddof=1) - v.std(ddof=1)) ** 2
        assert fid(u[:, None], v[:, None]) == pytest.approx(want, abs=1e-8)

    def test_rigid_shift_invariance(self):
        rng = np.random.default_rng(13)
        a = rng.standard_normal((200, 2))
        b = rng.standard_normal((200, 2)) * 1.3
        shift = np.array([5.0, -7.0])
        assert fid(a + shift, b + shift) == pytest.approx(fid(a, b), abs=1e-8)

    def test_needs_more_points_than_dims(self):
        pts = np.random.default_rng(14).standard_normal((3, 3))
        with pytest.raises(ValueError):
            fid(pts, pts)


class TestBootstrap:
    def test_constant_sequence(self):
        m, lo, hi = bootstrap_ci([4.2] * 8, 2000, 0.95, np.random.default_rng(15))
        assert m == lo == hi == 4.2

    def test_singleton(self):
        m, lo, hi = bootstrap_ci([7.0], 2000, 0.95, np.random.default_rng(16))
        assert m == lo == hi == 7.0

    def test_clt_width(self):
        values = np.arange(1, 101, dtype=float)
        m, lo, hi = bootstrap_ci(values, 10_000, 0.95, np.random.default_rng(17))
        assert lo < 50.5 < hi
        assert m == 50.5
        want_width = 2 * 1.96 * values.std() / 10.0
        assert (hi - lo) == pytest.approx(want_width, rel=0.15)

    def test_validation(self):
        rng = np.random.default_rng(18)
        with pytest.raises(ValueError):
            bootstrap_ci([], 100, 0.95, rng)
        with pytest.raises(ValueError):
            bootstrap_ci([1.0], 0, 0.95, rng)
        with pytest.raises(ValueError):
            bootstrap_ci([1.0], 100, 1.5, rng)


class TestModeImbalance:
    def test_all_majority(self):
        mix = MixtureSpec.two_mode(10.0)
        pts = np.tile([2.5, 2.5], (20, 1))
        assert mode_imbalance(pts, mix) == 100.0

    def test_even_split(self):
        mix = MixtureSpec.two_mode(10.0)
        pts = np.array([[2.5, 2.5], [-2.5, -2.5]] * 10)
        assert mode_imbalance(pts, mix) == 50.0

    def test_ten_to_one_training_set(self):
        mix = MixtureSpec.two_mode(10.0)
        data = mix.sample(np.random.default_rng(19), 22_000)
        assert mode_imbalance(data, mix) == pytest.approx(100 * 20 / 22, abs=1e-9)

    def test_diverged_excluded(self):
        mix = MixtureSpec.two_mode(10.0)
        pts = np.array([[2.5, 2.5], [2.5, 2.5], [-2.5, -2.5]])
        diverged = np.array([False, True, False])
        assert mode_imbalance(pts[~diverged], mix) == 50.0

    def test_no_valid_endpoints(self):
        mix = MixtureSpec.two_mode(10.0)
        for empty in (np.zeros((0, 2)), np.zeros(0)):
            with pytest.raises(MetricError):
                mode_imbalance(empty, mix)

    def test_between_half_and_full_for_majority_reporting(self):
        mix = MixtureSpec.two_mode(4.0)
        rng = np.random.default_rng(20)
        pts = mix.sample(rng, 5000)
        value = mode_imbalance(pts, mix)
        assert 50.0 <= value <= 100.0
