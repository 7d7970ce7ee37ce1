"""Piecewise-linear trend with sparse changepoints plus Fourier seasonality.

The univariate benchmark model: a base line whose slope may change at a
fixed grid of candidate weeks, a truncated Fourier series for the annual
cycle, and an l1 penalty that keeps most slope changes at exactly zero.
Writing the trend through the hinge basis ``max(t - s_j, 0)`` builds the
offset correction ``-s_j * delta_j`` into the parametrization, so the fitted
line is continuous at every changepoint by construction.

The penalized least-squares problem is solved exactly: the unpenalized block
(slope, offset, harmonics) is projected out, the slope changes solve the
lasso on the residualized problem (:func:`climdemand.lasso.solve_lasso`: the
homotopy path to the penalty, then an exact KKT solve on the final active
set, certified by the duality gap), and the unpenalized block is recovered
by back-substitution.
"""

from __future__ import annotations

import dataclasses
import warnings

import numpy as np

from .errors import (
    ConfigError, InsufficientDataError, InvalidInputError, integer_problem, real_problem
)
from .lasso import solve_lasso
from .panel import finite_array

__all__ = [
    "TrendFitConfig",
    "TrendModel",
    "changepoint_grid",
    "seasonal_design",
    "seasonal_shortfall",
    "fit_trend_model",
    "trend_component",
    "seasonal_component",
    "fitted_values",
    "forecast",
]

# The hinge columns are strongly correlated, so a slope change is pinned onto
# a single grid point only near the exact optimum: the certificate asks for a
# relative duality gap of 1e-12, well below a generic lasso's and still above
# the float64 floor.  The homotopy's exact active-set solve lands at 1e-13 or
# below; the iteration budget only matters if it has to fall back on
# coordinate descent.
_GAP_TOL = 1e-12
_MAX_ITER = 200_000


@dataclasses.dataclass(frozen=True)
class TrendFitConfig:
    """Settings for :func:`fit_trend_model`.

    ``changepoint_penalty=None`` resolves to ``10 * std(y)`` at fit time.
    ``n_harmonics=0`` drops the seasonal block entirely.
    """

    n_changepoints: int = 25
    n_harmonics: int = 10
    period: int = 52
    changepoint_penalty: float | None = None

    def __post_init__(self) -> None:
        floors = {"n_changepoints": 0, "n_harmonics": 0, "period": 2}
        problems = {
            f: p for f, floor in floors.items() if (p := integer_problem(getattr(self, f), floor))
        }
        penalty = self.changepoint_penalty
        if penalty is not None and (problem := real_problem(penalty, "[0, inf)")):
            problems["changepoint_penalty"] = problem
        if problems:
            raise ConfigError(problems)


@dataclasses.dataclass(frozen=True)
class TrendModel:
    """Fitted trend-plus-seasonality model.

    ``offset_corrections[j] == -changepoints[j] * rate_adjustments[j]``
    exactly, which is what keeps the trend continuous where the slope
    changes.  Week indices count from 0 at the first training week.
    """

    base_rate: float
    base_offset: float
    changepoints: np.ndarray
    rate_adjustments: np.ndarray
    offset_corrections: np.ndarray
    cos_coeffs: np.ndarray
    sin_coeffs: np.ndarray
    period: int
    noise_sigma: float
    changepoint_penalty: float
    n_obs: int
    duality_gap: float


def changepoint_grid(n_obs: int, n_changepoints: int) -> np.ndarray:
    """Candidate changepoint locations: evenly spaced over the first 80%.

    Locations are fractional week indices; the hinge basis does not need
    them to fall on observations.
    """
    if n_obs < 2:
        raise InsufficientDataError("need at least 2 observations for a grid")
    if n_changepoints == 0:
        return np.empty(0)
    upper = 0.8 * (n_obs - 1)
    return np.linspace(0.0, upper, n_changepoints + 1)[1:]


def seasonal_design(t: np.ndarray, n_harmonics: int, period: int) -> np.ndarray:
    """Fourier columns [cos 1..N | sin 1..N] evaluated at week indices t."""
    if n_harmonics == 0:
        return np.empty((len(t), 0))
    n = np.arange(1, n_harmonics + 1)
    angles = 2.0 * np.pi * np.outer(t, n) / period
    return np.hstack([np.cos(angles), np.sin(angles)])


def _hinge_design(t: np.ndarray, changepoints: np.ndarray) -> np.ndarray:
    return np.maximum(t[:, None] - changepoints[None, :], 0.0)


def seasonal_shortfall(n_obs: int, config: TrendFitConfig = TrendFitConfig()) -> str | None:
    """Why ``n_obs`` weeks leave ``config``'s seasonal coefficients
    unidentifiable (fewer weeks than one period), or None when they do not."""
    if config.n_harmonics > 0 and n_obs < config.period:
        return (
            f"series has {n_obs} weeks, shorter than one period of "
            f"{config.period}; seasonal coefficients are not identifiable"
        )
    return None


def fit_trend_model(series, config: TrendFitConfig = TrendFitConfig()) -> TrendModel:
    """Fit the penalized trend model by exact block minimization.

    Minimizes ``sum((y - trend - seasonal)^2) + penalty * sum(|delta|)``
    jointly over the base line, slope changes delta and Fourier
    coefficients.  Because only delta is penalized, projecting the
    unpenalized columns out of both target and hinge columns reduces the
    problem to a plain lasso whose solution is certified by duality gap.

    Parameters
    ----------
    series : WeeklySeries or ndarray
        Training observations, one per week.
    config : TrendFitConfig
        Grid size, harmonic count, period and penalty.

    Returns
    -------
    TrendModel

    Warns
    -----
    UserWarning
        When the series is shorter than one seasonal period, in which case
        the seasonal coefficients are not identifiable.
    """
    y = finite_array(series, "series values")
    n_obs = y.size
    if n_obs < 2:
        raise InsufficientDataError("need at least 2 observations to fit a trend")
    shortfall = seasonal_shortfall(n_obs, config)
    if shortfall:
        warnings.warn(shortfall, UserWarning, stacklevel=2)
    penalty = config.changepoint_penalty
    if penalty is None:
        penalty = 10.0 * float(np.std(y))

    t = np.arange(n_obs, dtype=float)
    unpenalized = np.column_stack(
        [t, np.ones(n_obs), seasonal_design(t, config.n_harmonics, config.period)]
    )
    changepoints = changepoint_grid(n_obs, config.n_changepoints)
    hinges = _hinge_design(t, changepoints)

    if changepoints.size:
        # Frisch-Waugh step: delta solves the lasso on data with the
        # unpenalized block projected out.
        q, _ = np.linalg.qr(unpenalized)
        y_resid = y - q @ (q.T @ y)
        hinges_resid = hinges - q @ (q.T @ hinges)
        gram = hinges_resid.T @ hinges_resid / n_obs
        moment = hinges_resid.T @ y_resid / n_obs
        y_sq_mean = float(y_resid @ y_resid) / n_obs
        # Objective scaling: sum-of-squares + penalty*l1 equals 2n times the
        # mean-of-squares form the solver works in.
        delta, gap, _ = solve_lasso(
            gram,
            moment,
            y_sq_mean,
            penalty / (2.0 * n_obs),
            _GAP_TOL,
            _MAX_ITER,
        )
    else:
        delta = np.empty(0)
        gap = 0.0

    theta, *_ = np.linalg.lstsq(unpenalized, y - hinges @ delta, rcond=None)
    base_rate = float(theta[0])
    base_offset = float(theta[1])
    cos_coeffs = theta[2 : 2 + config.n_harmonics]
    sin_coeffs = theta[2 + config.n_harmonics :]
    fitted = unpenalized @ theta + hinges @ delta
    return TrendModel(
        base_rate=base_rate,
        base_offset=base_offset,
        changepoints=changepoints,
        rate_adjustments=delta,
        offset_corrections=-changepoints * delta,
        cos_coeffs=cos_coeffs,
        sin_coeffs=sin_coeffs,
        period=config.period,
        noise_sigma=float(np.std(y - fitted)),
        changepoint_penalty=penalty,
        n_obs=n_obs,
        duality_gap=gap,
    )


def trend_component(model: TrendModel, t) -> np.ndarray:
    """Piecewise-linear trend evaluated at week indices ``t``."""
    t = np.asarray(t, dtype=float)
    return (
        model.base_rate * t
        + model.base_offset
        + _hinge_design(t, model.changepoints) @ model.rate_adjustments
    )


def seasonal_component(model: TrendModel, t) -> np.ndarray:
    """Fourier seasonality evaluated at week indices ``t``."""
    t = np.asarray(t, dtype=float)
    design = seasonal_design(t, model.cos_coeffs.size, model.period)
    return design @ np.concatenate([model.cos_coeffs, model.sin_coeffs])


def fitted_values(model: TrendModel, t) -> np.ndarray:
    """Trend plus seasonality at the requested week indices."""
    return trend_component(model, t) + seasonal_component(model, t)


def forecast(model: TrendModel, horizon: int) -> np.ndarray:
    """Extrapolate ``horizon`` weeks past the training sample.

    All candidate changepoints live inside the training range, so the
    extrapolation continues the final trend segment's slope and repeats the
    seasonal cycle.
    """
    if problem := integer_problem(horizon, 1):
        raise InvalidInputError(f"horizon {problem}")
    t = np.arange(model.n_obs, model.n_obs + horizon, dtype=float)
    return fitted_values(model, t)
