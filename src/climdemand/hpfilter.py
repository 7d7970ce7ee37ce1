"""Hodrick-Prescott detrending for weekly series.

The trend solves the penalized least-squares problem

    min_tau  sum_t (y_t - tau_t)^2 + smoothing * sum_t (d2 tau)_t^2

where d2 is the second difference K.  The first-order condition is the
symmetric pentadiagonal system (I + smoothing * K'K) tau = y.  It is solved
for the cycle y - tau by a banded LDL' factorization (Golub & Van Loan,
*Matrix Computations*, 4th ed., sec. 4.3) with one step of iterative
refinement whose residual is computed in double-double arithmetic, so the
result is within a few units in the last place of the exact solution.  The
smoothing default follows the standard frequency adjustment of the quarterly
value 1600 to weekly data: 1600 * (52/4)**4.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError, InsufficientDataError, integer_problem, real_problem
from .panel import WeeklySeries, finite_array

#: Weekly smoothing parameter, 1600 scaled by (52/4)**4.
WEEKLY_SMOOTHING = 1600.0 * 13.0**4

# 2**27 + 1: Dekker's constant that splits a double into two 26-bit halves.
_SPLITTER = 134217729.0


def _two_sum(a, b):
    """Knuth's TwoSum: ``a + b`` and its rounding error, exactly."""
    total = a + b
    b_part = total - a
    return total, (a - (total - b_part)) + (b - b_part)


def _split(a):
    """Dekker's split of ``a`` into halves whose products are exact."""
    scaled = _SPLITTER * a
    high = scaled - (scaled - a)
    return high, a - high


def _two_product(a, b):
    """Dekker's TwoProduct: ``a * b`` and its rounding error, exactly."""
    product = a * b
    a_high, a_low = _split(a)
    b_high, b_low = _split(b)
    error = ((a_high * b_high - product) + a_high * b_low + a_low * b_high) + a_low * b_low
    return product, error


def _second_difference(high, low):
    """K applied to the double-double vector ``high + low``, as a double-double
    pair.  Doubling is exact, so only the two sums round, and they keep their
    errors."""
    total, error = _two_sum(high[:-2], -2.0 * high[1:-1])
    error = error + (low[:-2] - 2.0 * low[1:-1])
    total, error2 = _two_sum(total, high[2:])
    error = error + error2 + low[2:]
    high = total + error
    return high, error - (high - total)


def _residual(y: np.ndarray, cycle: np.ndarray, smoothing: float) -> np.ndarray:
    """``s K'K y - (I + s K'K) c = s K'K (y - c) - c``, rounded once.

    K'K w is K applied to w padded by two zeros at each end.  The trend y - c
    is smooth, so K'K (y - c) cancels to about c / s.  In plain doubles that
    cancellation leaves an error of about s * eps * |y| in the residual, and
    the correction solve can pass up to sqrt(s) / 2 * eps * |y| of it on to
    the cycle.  Carried in double-double arithmetic until the last rounding,
    the residual keeps the refined cycle within rounding for any s.
    """
    high, low = _two_sum(y, -cycle)
    high, low = _second_difference(high, low)
    high, low = _second_difference(np.pad(high, 2), np.pad(low, 2))
    product, error = _two_product(smoothing, high)
    error = error + smoothing * low
    total, error2 = _two_sum(product, -cycle)
    return total + (error2 + error)


def _ldl_factor(n: int, smoothing: float):
    """Banded LDL' factor of I + s K'K: the diagonal D and the two sub-diagonals
    of the unit lower-triangular L, as Python float lists.  The sub-diagonals
    are padded with trailing zeros to length n."""
    gram = np.zeros(n)  # diagonal of K'K: 1, 5, 6, ..., 6, 5, 1
    gram[:-2] += 1.0
    gram[1:-1] += 4.0
    gram[2:] += 1.0
    first = np.zeros(n)  # first sub-diagonal of K'K: -2, -4, ..., -4, -2
    first[: n - 2] -= 2.0
    first[1 : n - 1] -= 2.0
    diagonal = (1.0 + smoothing * gram).tolist()
    first = (smoothing * first).tolist()
    second = [smoothing] * (n - 2) + [0.0, 0.0]
    d, l1, l2 = [], [], []
    d1 = d2 = m1 = q1 = q2 = 0.0  # d[i-1], d[i-2], l1[i-1], l2[i-1], l2[i-2]
    for a, b, c in zip(diagonal, first, second):
        di = a - m1 * m1 * d1 - q2 * q2 * d2
        m = (b - q1 * m1 * d1) / di
        q = c / di
        d.append(di)
        l1.append(m)
        l2.append(q)
        d2, d1, m1, q2, q1 = d1, di, m, q1, q
    return d, l1, l2


def _ldl_solve(factor, rhs: np.ndarray) -> np.ndarray:
    """Solve L D L' x = rhs by forward and back substitution."""
    d, l1, l2 = factor
    z = []
    z1 = z2 = m1 = q2 = q1 = 0.0
    for r, m, q in zip(rhs.tolist(), l1, l2):
        zi = r - m1 * z1 - q2 * z2
        z.append(zi)
        z2, z1, m1, q2, q1 = z1, zi, m, q1, q
    x = []
    x1 = x2 = 0.0
    for zi, di, m, q in zip(reversed(z), reversed(d), reversed(l1), reversed(l2)):
        xi = zi / di - m * x1 - q * x2
        x.append(xi)
        x2, x1 = x1, xi
    return np.array(x[::-1])


def _solve_cycle(values, smoothing: float) -> np.ndarray:
    """The cycle c = y - tau, from (I + s K'K) c = s K'K y.

    Solving for the cycle rather than the trend keeps the solve exact on the
    filter's null space: a linear series has K y = 0, so its right-hand side,
    and with it the cycle, is exactly zero.  The banded LDL' solve alone is
    off by up to cond * eps, about 16 s * eps ~ 1e-7 relative at the weekly
    smoothing; one refinement step against the double-double residual
    brings the cycle to within a few ulps of the exact solution.
    """
    if problem := real_problem(smoothing, "(0, inf)"):
        raise ConfigError({"smoothing": problem})
    y = finite_array(values, "hp filter: series")
    if y.size < 4:
        raise InsufficientDataError(
            f"hp filter needs at least 4 observations, got {y.size}"
        )
    smoothing = float(smoothing)  # a float32 would make the exact splits round
    factor = _ldl_factor(y.size, smoothing)
    cycle = _ldl_solve(factor, _residual(y, np.zeros(y.size), smoothing))
    return cycle + _ldl_solve(factor, _residual(y, cycle, smoothing))


def hp_trend(values, smoothing: float = WEEKLY_SMOOTHING) -> np.ndarray:
    """Return the smooth trend component of a series.

    Parameters
    ----------
    values : array_like
        Series of length at least 4 (two second differences).
    smoothing : float
        Penalty on the squared second difference of the trend.
    """
    y = np.asarray(values, dtype=float)
    return y - _solve_cycle(y, smoothing)


def _like(series, suffix: str, values: np.ndarray):
    """``values``, as a :class:`WeeklySeries` named ``series.name + suffix`` if ``series`` is."""
    if isinstance(series, WeeklySeries):
        return WeeklySeries(series.name + suffix, series.week_starts, values)
    return values


def hp_cycle(series, smoothing: float = WEEKLY_SMOOTHING):
    """Deviation of a series from its smooth trend (see :func:`hp_trend`).

    Accepts a :class:`WeeklySeries` (returned with ``_cycle`` appended to the
    name) or a plain array (returned as an array).
    """
    return _like(series, "_cycle", _solve_cycle(series, smoothing))


def seasonal_adjust(series, period: float = 52.0, harmonics: int = 3):
    """Remove the mean and a fixed periodic component by Fourier regression.

    The HP filter with the weekly smoothing default passes everything with a
    period up to roughly a decade, so an annual cycle survives into the
    cyclical component.  Two series sharing a deterministic annual cycle
    predict one another through it, which contaminates causality measures in
    both directions; projecting out a small Fourier basis removes that shared
    component while leaving irregular fluctuations untouched.

    Accepts a :class:`WeeklySeries` (returned with ``_deseasonalized``
    appended to the name) or a plain array (returned as an array).
    """
    y = finite_array(series, "seasonal adjustment: series")
    problems: dict[str, str] = {}
    if problem := real_problem(period, "(1, inf)"):
        problems["period"] = problem
    if problem := integer_problem(harmonics, 0):
        problems["harmonics"] = problem
    if problems:
        raise ConfigError(problems)
    n_params = 2 * harmonics + 1
    if y.size < n_params + 2:
        raise InsufficientDataError(
            f"seasonal adjustment with {harmonics} harmonics needs at least "
            f"{n_params + 2} observations, got {y.size}"
        )
    t = np.arange(y.size, dtype=float)
    columns = [np.ones(y.size)]
    for k in range(1, harmonics + 1):
        angle = 2.0 * np.pi * k * t / period
        columns.append(np.cos(angle))
        columns.append(np.sin(angle))
    design = np.column_stack(columns)
    beta, *_ = np.linalg.lstsq(design, y, rcond=None)
    return _like(series, "_deseasonalized", y - design @ beta)
