"""Special functions: log-gamma, the regularized lower incomplete gamma
function, and its numerical inverse.

log_gamma takes and returns scalars; it is the C library's lgamma (through
math.lgamma) behind a domain check. reg_lower_inc_gamma takes a scalar
shape s and a scalar or array x; inv_reg_lower_inc_gamma a scalar s and a
scalar or array q. Each element of an array gets the same float operations,
in the same order, as a scalar call, so the two agree bit for bit.

Everything here is stateless and reentrant. Accuracy targets: log_gamma
error <= 1e-12 on [1e-3, 1e3], relative where |log Gamma| > 1 and absolute
elsewhere; reg_lower_inc_gamma absolute error <= 1e-10. The inverse's
supported domain is s in [0.01, 1e3] and q = 0 or q in [1e-300, 1): there
its relative error is <= 1e-11 wherever the root is a normal double
(>= 2.2e-308), and |P(s, x) - q| <= 1e-9. Smaller roots come from the
leading term of the series, rounded to a subnormal or to 0."""

from __future__ import annotations

import math
from statistics import NormalDist

import numpy as np

from htdsm._config import check_real

__all__ = [
    "ConvergenceError",
    "log_gamma",
    "reg_lower_inc_gamma",
    "inv_reg_lower_inc_gamma",
]

_EPS = 2.220446049250313e-16
_MAX_ITER = 500
_EULER = 0.5772156649015329
# Smallest normal double; the inverse does not iterate on roots below it.
_TINY = 2.2250738585072014e-308
# The inverse stops once a Halley step changes x by at most this relative
# amount. Halley converges cubically: in log x the error after a step of
# size h is about K h^3 with K = (s - x)^2 / 12 + x / 6; for h = 1e-6 that
# is at most 5e-14 over the supported domain (s = 1e3, q = 1e-300).
_INV_RTOL = 1e-6
# For Q, reg_lower_inc_gamma keeps the series (Q = 1 - P) past s + 1 up to
# x = _SERIES_X wherever the prefactor r is at least _SERIES_R. There the
# continued fraction needs about 85 / x steps and the series about 3x + 15
# cheaper ones, and Q >= r / (x + 1) > 1e-3, so 1 - P, off by a few 1e-15
# absolute, is off by at most a few 1e-12 relative.
_SERIES_X = 8.0
_SERIES_R = 1e-2

class ConvergenceError(RuntimeError):
    """An iterative evaluation failed to converge within its iteration cap."""


def log_gamma(x: float) -> float:
    """Natural log of the gamma function for x > 0, from the C library's lgamma."""
    return math.lgamma(check_real("x", x, positive=True))


def _elementwise(fn, values: np.ndarray) -> np.ndarray:
    """fn applied to each element of a 1-D array, as a new float array.

    Used for math.log and math.exp: numpy's vectorized exp and log may
    differ from them in the last bit.
    """
    return np.fromiter(map(fn, values.tolist()), float, values.size)


def _prefactor(s: float, x: np.ndarray, log_gamma_s: float) -> np.ndarray:
    """exp(-x + s log x - log Gamma(s)) per element of x > 0."""
    return _elementwise(math.exp, -x + s * _elementwise(math.log, x) - log_gamma_s)


def _lower_series(s: float, x: np.ndarray, log_gamma_s: float) -> np.ndarray:
    """P(s, x) by the ascending series, accurate for 0 < x < s + 1.

    Elements still summing are held compacted in `xa`, with their positions
    in `rows`; each one stops as soon as its own term is negligible.
    """
    total = np.empty_like(x)
    rows = np.arange(x.size)
    xa = x
    term = np.full(x.size, 1.0 / s)
    acc = term.copy()
    denom = s
    for _ in range(_MAX_ITER):
        denom += 1.0
        term *= xa / denom
        acc += term
        # Terms and sums are positive here, so |term| < |acc| eps needs no abs.
        done = term < acc * _EPS
        n_done = np.count_nonzero(done)
        if n_done:
            total[rows[done]] = acc[done]
            if n_done == rows.size:
                return total * _prefactor(s, x, log_gamma_s)
            live = ~done
            rows, xa, term, acc = rows[live], xa[live], term[live], acc[live]
    raise ConvergenceError(f"incomplete gamma series stalled at s={s}, x={xa[0]}")


def _upper_continued_fraction(s: float, x: np.ndarray, log_gamma_s: float) -> np.ndarray:
    """Q(s, x) = 1 - P(s, x) by modified Lentz continued fraction, x >= s + 1.

    Compacted like _lower_series: each element stops at its own convergence.
    """
    tiny = 1e-300
    frac = np.empty_like(x)
    rows = np.arange(x.size)
    b = x + 1.0 - s
    c = np.full(x.size, 1.0 / tiny)
    d = 1.0 / b
    h = d.copy()
    for i in range(1, _MAX_ITER + 1):
        an = -i * (i - s)
        b += 2.0
        d *= an
        d += b
        np.copyto(d, tiny, where=np.abs(d) < tiny)
        np.divide(an, c, out=c)
        c += b
        np.copyto(c, tiny, where=np.abs(c) < tiny)
        np.divide(1.0, d, out=d)
        delta = d * c
        h *= delta
        done = np.abs(delta - 1.0) < _EPS
        n_done = np.count_nonzero(done)
        if n_done:
            frac[rows[done]] = h[done]
            if n_done == rows.size:
                return _prefactor(s, x, log_gamma_s) * frac
            live = ~done
            rows, b, c, d, h = rows[live], b[live], c[live], d[live], h[live]
    raise ConvergenceError(f"incomplete gamma fraction stalled at s={s}, x={x[rows[0]]}")


def reg_lower_inc_gamma(s: float, x, *, complement=False):
    """Regularized lower incomplete gamma P(s, x) = gamma(s, x) / Gamma(s).

    s is a scalar; x is a scalar or an array of any shape. A scalar x gives
    a float, an array x an array of its shape. Series representation for
    x < s + 1, continued fraction for the upper tail otherwise; both
    converge to machine precision over the shape range this package uses.

    complement, a bool or a boolean array broadcast against x, asks for
    Q(s, x) = 1 - P(s, x) instead where it is set. Q keeps its relative
    precision where it is small: it comes from the continued fraction in
    the tail, and from 1 - P only where Q is at least 1e-3 (see _SERIES_X).
    x = +inf gives P = 1 and Q = 0; NaN and negative x raise ValueError.
    """
    s = check_real("s", s, positive=True)
    x = np.asarray(x, dtype=float)
    bad = np.isnan(x) | (x < 0.0)
    if bad.any():
        raise ValueError(
            f"reg_lower_inc_gamma requires x >= 0, got {float(x[bad][0])!r}"
        )
    flat = x.ravel()
    want_q = np.broadcast_to(complement, x.shape).ravel()
    # P(s, 0) = 0 and Q(s, 0) = 1 here; P(s, inf) = 1 and Q(s, inf) = 0.
    out = want_q.astype(float)
    top = flat == np.inf
    out[top] = ~want_q[top]
    series = flat < s + 1.0
    fraction = ~series & ~top
    series &= flat != 0.0
    log_gamma_s = log_gamma(s)
    near = np.flatnonzero(want_q & fraction & (flat < _SERIES_X))
    if near.size:
        near = near[_prefactor(s, flat[near], log_gamma_s) >= _SERIES_R]
        series[near] = True
        fraction[near] = False
    if series.any():
        p = _lower_series(s, flat[series], log_gamma_s)
        out[series] = np.where(want_q[series], 1.0 - p, p)
    if fraction.any():
        q = _upper_continued_fraction(s, flat[fraction], log_gamma_s)
        out[fraction] = np.where(want_q[fraction], q, 1.0 - q)
    np.clip(out, 0.0, 1.0, out=out)
    if x.ndim == 0:
        return float(out[0])
    return out.reshape(x.shape)


def _didonato_morris_25(s: float, y: float) -> float:
    """DiDonato & Morris eq. 25: the root of Q(s, x) = e^-y / Gamma(s) for large y."""
    c1 = (s - 1.0) * math.log(y)
    c2 = (s - 1.0) * (1.0 + c1)
    c3 = (s - 1.0) * (-0.5 * c1 * c1 + (s - 2.0) * c1 + 0.5 * (3.0 * s - 5.0))
    c4 = (s - 1.0) * (
        c1**3 / 3.0 - 0.5 * (3.0 * s - 5.0) * c1 * c1 + (s * s - 6.0 * s + 7.0) * c1
        + (11.0 * s * s - 46.0 * s + 47.0) / 6.0
    )
    c5 = (s - 1.0) * (
        -0.25 * c1**4 + (11.0 * s - 17.0) * c1**3 / 6.0 + (-3.0 * s * s + 13.0 * s - 13.0) * c1 * c1
        + 0.5 * (2.0 * s**3 - 25.0 * s * s + 72.0 * s - 61.0) * c1
        + (25.0 * s**3 - 195.0 * s * s + 477.0 * s - 379.0) / 12.0
    )
    return y + c1 + c2 / y + c3 / y**2 + c4 / y**3 + c5 / y**4


def _inverse_start(s: float, p: float, log_gamma_s: float) -> float:
    """Starting value for P(s, x) = p, 0 < p < 1.

    DiDonato & Morris, ACM TOMS 12(4), 1986, eqs. 21-25 for s < 1 and
    31-36 for s > 1, in the arrangement of Boost's igamma_inverse, without
    its branches for s < 1e-4 and s > 3e5; the normal quantile of eq. 31
    is taken from statistics.NormalDist.
    """
    q = 1.0 - p
    if s == 1.0:
        return -math.log1p(-p)
    if s < 1.0:
        g = math.exp(log_gamma_s)
        b = q * g
        if b > 0.6 or (b >= 0.45 and s >= 0.3):
            u = (p * g * s) ** (1.0 / s)  # eq. 21
            return u / (1.0 - u / (s + 1.0))
        if s < 0.3 and b >= 0.35:
            t = math.exp(-_EULER - b)  # eq. 22
            return t * math.exp(t * math.exp(t))
        y = -math.log(b)
        if b > 0.15 or s >= 0.3:
            u = y - (1.0 - s) * math.log(y)  # eq. 23
            return y - (1.0 - s) * math.log(u) - math.log1p((1.0 - s) / (1.0 + u))
        if b > 0.1:
            u = y - (1.0 - s) * math.log(y)  # eq. 24
            ratio = (u * u + 2.0 * (3.0 - s) * u + (2.0 - s) * (3.0 - s)) / (u * u + (5.0 - s) * u + 2.0)
            return y - (1.0 - s) * math.log(u) - math.log(ratio)
        return _didonato_morris_25(s, y)
    z = NormalDist().inv_cdf(p)
    ra = math.sqrt(s)
    w = (  # eq. 31
        s + z * ra + (z * z - 1.0) / 3.0 + (z**3 - 7.0 * z) / (36.0 * ra)
        - (3.0 * z**4 + 7.0 * z * z - 16.0) / (810.0 * s)
        + (9.0 * z**5 + 256.0 * z**3 - 433.0 * z) / (38880.0 * s * ra)
    )
    if p > 0.5:
        if w < 3.0 * s:
            return w
        lb = math.log(q) + log_gamma_s
        if lb < -2.3 * max(2.0, s * (s - 1.0)):
            return _didonato_morris_25(s, -lb)
        u = -lb + (s - 1.0) * math.log(w) - math.log1p((1.0 - s) / (1.0 + w))  # eq. 33
        return -lb + (s - 1.0) * math.log(u) - math.log1p((1.0 - s) / (1.0 + u))
    v = math.log(p) + log_gamma_s + math.log(s)  # log(p Gamma(s + 1))
    if w < 0.15 * (s + 1.0):
        z = math.exp((v + w) / s)  # eq. 35
        for third in (0.0, 0.0, 1.0):
            series = 1.0 + z / (s + 2.0) * (1.0 + third * z / (s + 3.0))
            z = math.exp((v + z - math.log1p(z / (s + 1.0) * series)) / s)
    else:
        z = w
    if z <= 0.01 * (s + 1.0) or z > 0.7 * (s + 1.0):
        return z
    # Eq. 36, with S_N(s, z) = 1 + z/(s+1) + z^2/((s+1)(s+2)) + ... to 1e-4.
    total = partial = 1.0
    for i in range(1, 101):
        partial *= z / (s + i)
        total += partial
        if partial < 1e-4:
            break
    ls = math.log(total)
    z = math.exp((v + z - ls) / s)
    return z * (1.0 - (s * math.log(z) - z - v + ls) / (s - z))


def inv_reg_lower_inc_gamma(s: float, q):
    """Solve P(s, x) = q for x >= 0, with q in [0, 1).

    s is a scalar; q a scalar or an array of any shape, returned as a float
    or an array of its shape. Each element starts from DiDonato & Morris's
    approximation and takes safeguarded Halley steps in log x on the
    compacted set of unconverged elements: a step is capped at a factor e,
    and one that leaves the bracket found by earlier iterates bisects it.
    Above the median (q > 1/2) it solves Q(s, x) = 1 - q, with Q from the
    continued fraction in the tail, so upper-tail roots keep their relative
    accuracy. Each step evaluates P or Q once per element, and iteration
    stops on a relative step below _INV_RTOL.
    """
    s = check_real("s", s, positive=True)
    q = np.asarray(q, dtype=float)
    bad = ~((q >= 0.0) & (q < 1.0))
    if bad.any():
        raise ValueError(
            f"inv_reg_lower_inc_gamma requires 0 <= q < 1, got {float(q[bad][0])!r}"
        )
    flat = q.ravel()
    x = np.zeros(flat.size)
    log_gamma_s = log_gamma(s)
    positive = np.flatnonzero(flat != 0.0)
    x[positive] = [_inverse_start(s, p, log_gamma_s) for p in flat[positive].tolist()]
    rows = positive[x[positive] >= _TINY]
    if rows.size:
        _halley(s, flat[rows], x, rows, log_gamma_s)
    if q.ndim == 0:
        return float(x[0])
    return x.reshape(q.shape)


def _halley(s: float, p: np.ndarray, x: np.ndarray, rows: np.ndarray, log_gamma_s: float) -> None:
    """Refine x[rows] in place until P(s, x[rows]) = p."""
    upper = p > 0.5
    target = np.where(upper, 1.0 - p, p)
    u = _elementwise(math.log, x[rows])
    lo = np.full(rows.size, -math.inf)
    hi = np.full(rows.size, math.inf)
    for _ in range(_MAX_ITER):
        xa = _elementwise(math.exp, u)
        # P(x) - p, from P below the median and from Q above it.
        f = reg_lower_inc_gamma(s, xa, complement=upper) - target
        f[upper] *= -1.0
        r = _prefactor(s, xa, log_gamma_s)
        lo = np.where(f < 0.0, u, lo)
        hi = np.where(f > 0.0, u, hi)
        # In log x, dP/du is the prefactor r and d2P/du2 = r (s - x).
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            newton = f / r
            half_curv = 0.5 * newton * (s - xa)
            step = -np.where(np.abs(half_curv) < 0.5, newton / (1.0 - half_curv), newton)
        step[f == 0.0] = 0.0
        np.clip(step, -1.0, 1.0, out=step)
        nxt = u + step
        done = np.abs(step) <= _INV_RTOL
        n_done = np.count_nonzero(done)
        if n_done:
            x[rows[done]] = _elementwise(math.exp, nxt[done])
            if n_done == rows.size:
                return
            live = ~done
            rows, upper, target = rows[live], upper[live], target[live]
            u, lo, hi, nxt = u[live], lo[live], hi[live], nxt[live]
        outside = ~((nxt > lo) & (nxt < hi))
        u = np.where(outside, 0.5 * (lo + hi), nxt)
    raise ConvergenceError(f"inverse gamma did not converge at s={s}, x={x[rows[0]]}")
