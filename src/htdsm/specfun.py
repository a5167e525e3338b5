"""Special functions: log-gamma, the regularized lower incomplete gamma
function, and its numerical inverse.

log_gamma and the inverse take and return scalars. reg_lower_inc_gamma
takes a scalar shape s and a scalar or array x: each element of an array
gets the same float operations, in the same order, as a scalar call, so
the two agree bit for bit.

Everything here is stateless and reentrant. Accuracy targets: log_gamma
relative error <= 1e-12 on [1e-3, 1e3]; reg_lower_inc_gamma absolute error
<= 1e-10; the inverse satisfies |P(s, x) - q| <= 1e-9.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "ConvergenceError",
    "log_gamma",
    "reg_lower_inc_gamma",
    "inv_reg_lower_inc_gamma",
]

_EPS = 2.220446049250313e-16
_MAX_ITER = 500

# Lanczos coefficients for g = 7, n = 9 (double precision).
_LANCZOS_G = 7.0
_LANCZOS = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)


class ConvergenceError(RuntimeError):
    """An iterative evaluation failed to converge within its iteration cap."""


def log_gamma(x: float) -> float:
    """Natural log of the gamma function for x > 0."""
    x = float(x)
    if not math.isfinite(x) or x <= 0.0:
        raise ValueError(f"log_gamma requires finite x > 0, got {x!r}")
    if x < 0.5:
        # Reflection keeps the Lanczos sum well conditioned for tiny x.
        return math.log(math.pi / math.sin(math.pi * x)) - log_gamma(1.0 - x)
    z = x - 1.0
    acc = _LANCZOS[0]
    for k in range(1, len(_LANCZOS)):
        acc += _LANCZOS[k] / (z + k)
    t = z + _LANCZOS_G + 0.5
    return 0.5 * math.log(2.0 * math.pi) + (z + 0.5) * math.log(t) - t + math.log(acc)


def _prefactor(s: float, x: np.ndarray, log_gamma_s: float) -> np.ndarray:
    """exp(-x + s log x - log Gamma(s)) per element of x > 0.

    math.log and math.exp are applied element by element: numpy's
    vectorized exp and log may differ from them in the last bit.
    """
    n = x.size
    log_x = np.fromiter(map(math.log, x.tolist()), float, n)
    arg = -x + s * log_x - log_gamma_s
    return np.fromiter(map(math.exp, arg.tolist()), float, n)


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


def reg_lower_inc_gamma(s: float, x):
    """Regularized lower incomplete gamma P(s, x) = gamma(s, x) / Gamma(s).

    s is a scalar; x is a scalar or an array of any shape. A scalar x gives
    a float, an array x an array of its shape. Series representation for
    x < s + 1, continued fraction for the upper tail otherwise; both
    converge to machine precision over the shape range this package uses.
    """
    s = float(s)
    if not math.isfinite(s) or s <= 0.0:
        raise ValueError(f"reg_lower_inc_gamma requires s > 0, got {s!r}")
    x = np.asarray(x, dtype=float)
    bad = ~np.isfinite(x) | (x < 0.0)
    if bad.any():
        raise ValueError(
            f"reg_lower_inc_gamma requires finite x >= 0, got {float(x[bad][0])!r}"
        )
    flat = x.ravel()
    p = np.zeros(flat.size)
    lower = flat < s + 1.0
    upper = ~lower
    lower &= flat != 0.0
    log_gamma_s = log_gamma(s)
    if lower.any():
        p[lower] = _lower_series(s, flat[lower], log_gamma_s)
    if upper.any():
        p[upper] = 1.0 - _upper_continued_fraction(s, flat[upper], log_gamma_s)
    np.clip(p, 0.0, 1.0, out=p)
    if x.ndim == 0:
        return float(p[0])
    return p.reshape(x.shape)


def _log_gamma_pdf(s: float, x: float, log_gamma_s: float) -> float:
    return (s - 1.0) * math.log(x) - x - log_gamma_s


def inv_reg_lower_inc_gamma(s: float, q: float) -> float:
    """Solve P(s, x) = q for x >= 0, with q in [0, 1).

    Doubling search brackets the root, then Newton steps refine it with a
    bisection fallback whenever a step leaves the bracket. Robustness is
    preferred over speed: this is only called during schedule construction.
    """
    s = float(s)
    q = float(q)
    if not math.isfinite(s) or s <= 0.0:
        raise ValueError(f"inv_reg_lower_inc_gamma requires s > 0, got {s!r}")
    if not (0.0 <= q < 1.0):
        raise ValueError(f"inv_reg_lower_inc_gamma requires 0 <= q < 1, got {q!r}")
    if q == 0.0:
        return 0.0

    lo = 0.0
    hi = max(s, 1.0)
    for _ in range(_MAX_ITER):
        if reg_lower_inc_gamma(s, hi) >= q:
            break
        lo = hi
        hi *= 2.0
    else:
        raise ConvergenceError(f"could not bracket inverse gamma at s={s}, q={q}")

    log_gamma_s = log_gamma(s)
    x = 0.5 * (lo + hi)
    for _ in range(_MAX_ITER):
        f = reg_lower_inc_gamma(s, x) - q
        if f > 0.0:
            hi = x
        else:
            lo = x
        if abs(f) <= 1e-13 or (hi - lo) <= _EPS * max(hi, 1.0):
            return x
        log_pdf = _log_gamma_pdf(s, x, log_gamma_s)
        step_ok = log_pdf > -700.0
        if step_ok:
            x_newton = x - f * math.exp(-log_pdf)
            if lo < x_newton < hi:
                x = x_newton
                continue
        x = 0.5 * (lo + hi)
    raise ConvergenceError(f"inverse gamma did not converge at s={s}, q={q}")
