"""Forecast accuracy metrics.

All scale-dependent and scale-free measures are computed from the same error
sums inside :func:`evaluate_forecast`, so the algebraic ties between them
(``r2 == 1 - rsr**2`` in particular) hold to machine precision rather than to
whatever rounding separate implementations would introduce.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from .errors import (
    ConfigError,
    InsufficientDataError,
    InvalidInputError,
    MetricUndefinedError,
    integer_problem,
)
from .panel import finite_array

__all__ = [
    "MetricReport",
    "ComparisonTable",
    "mape",
    "rmse",
    "rsr",
    "mase",
    "evaluate_forecast",
    "compare_models",
]

METRIC_COLUMNS = ("mape", "rmse", "rsr", "r2", "mase")

# Lower is better for every column except the coefficient of determination.
_HIGHER_IS_BETTER = frozenset({"r2"})


@dataclasses.dataclass(frozen=True)
class MetricReport:
    """Accuracy summary for one forecast against one test window."""

    mape: float
    rmse: float
    rsr: float
    r2: float
    mase: float
    seasonal_lag: int
    train_mean: float

    def values(self) -> tuple[float, ...]:
        return tuple(getattr(self, c) for c in METRIC_COLUMNS)


def _paired_arrays(actual, predicted) -> tuple[np.ndarray, np.ndarray]:
    a = finite_array(actual, "actual")
    p = finite_array(predicted, "predicted")
    if a.shape != p.shape:
        raise InvalidInputError(
            f"actual has {a.shape[0]} values but predicted has {p.shape[0]}"
        )
    if a.size == 0:
        raise InvalidInputError("cannot score an empty forecast")
    return a, p


def mape(actual, predicted) -> float:
    """Mean absolute percentage error, in percent."""
    a, p = _paired_arrays(actual, predicted)
    zeros = np.flatnonzero(a == 0.0)
    if zeros.size:
        raise MetricUndefinedError(
            f"mape is undefined: actual value at index {zeros[0]} is zero"
        )
    return float(100.0 * np.mean(np.abs(a - p) / np.abs(a)))


def rmse(actual, predicted) -> float:
    """Root mean squared error."""
    a, p = _paired_arrays(actual, predicted)
    return math.sqrt(float(np.mean((a - p) ** 2)))


def rsr(actual, predicted, train_mean: float) -> float:
    """RMSE divided by the spread of the test window around the training mean.

    Values below one mean the forecast beats the constant training-mean
    predictor on the test window.
    """
    a, p = _paired_arrays(actual, predicted)
    denom = float(np.mean((a - float(train_mean)) ** 2))
    if denom == 0.0:
        raise MetricUndefinedError(
            "rsr is undefined: every test value equals the training mean"
        )
    return math.sqrt(float(np.mean((a - p) ** 2)) / denom)


def _seasonal_denominator(train: np.ndarray, seasonal_lag: int) -> float:
    if problem := integer_problem(seasonal_lag, 1):
        raise ConfigError({"seasonal_lag": problem})
    if train.size <= seasonal_lag:
        raise InsufficientDataError(
            f"mase needs a training series longer than the seasonal lag "
            f"({seasonal_lag}), got {train.size} values"
        )
    denom = float(np.mean(np.abs(train[seasonal_lag:] - train[:-seasonal_lag])))
    if denom == 0.0:
        raise MetricUndefinedError(
            "mase is undefined: the seasonal differences of the training "
            "series are all zero"
        )
    return denom


def mase(actual, predicted, train_series, seasonal_lag: int = 52) -> float:
    """Mean absolute error scaled by the training seasonal-naive error.

    The denominator is the in-sample mean absolute error of the seasonal
    random walk on the training series alone, so the test window never
    influences its own scaling.
    """
    a, p = _paired_arrays(actual, predicted)
    denom = _seasonal_denominator(finite_array(train_series, "training series"), seasonal_lag)
    return float(np.mean(np.abs(a - p))) / denom


def evaluate_forecast(
    actual, predicted, train_series, seasonal_lag: int = 52
) -> MetricReport:
    """Score a forecast on every supported metric at once."""
    a, p = _paired_arrays(actual, predicted)
    train = finite_array(train_series, "training series")
    denom = _seasonal_denominator(train, seasonal_lag)
    zeros = np.flatnonzero(a == 0.0)
    if zeros.size:
        raise MetricUndefinedError(
            f"mape is undefined: actual value at index {zeros[0]} is zero"
        )
    train_mean = float(np.mean(train))
    err = a - p
    mse = float(np.mean(err**2))
    spread = float(np.mean((a - train_mean) ** 2))
    if spread == 0.0:
        raise MetricUndefinedError(
            "rsr is undefined: every test value equals the training mean"
        )
    ratio = mse / spread
    return MetricReport(
        mape=float(100.0 * np.mean(np.abs(err) / np.abs(a))),
        rmse=math.sqrt(mse),
        rsr=math.sqrt(ratio),
        r2=1.0 - ratio,
        mase=float(np.mean(np.abs(err))) / denom,
        seasonal_lag=int(seasonal_lag),
        train_mean=train_mean,
    )


@dataclasses.dataclass(frozen=True)
class ComparisonTable:
    """Metric matrix across models with per-column best-value flags."""

    model_names: tuple[str, ...]
    columns: tuple[str, ...]
    values: np.ndarray
    best: np.ndarray

    def to_rows(self) -> list[tuple]:
        """Rows of (model, metric values..., best flags...) for writing out."""
        rows = []
        for i, name in enumerate(self.model_names):
            rows.append(
                (name,)
                + tuple(float(v) for v in self.values[i])
                + tuple(bool(b) for b in self.best[i])
            )
        return rows


def compare_models(reports: dict[str, MetricReport]) -> ComparisonTable:
    """Tabulate reports side by side and flag the best value per metric.

    Ties are flagged on every row that attains the best value, so callers
    can see when models are indistinguishable on a metric.
    """
    if len(reports) < 2:
        raise InvalidInputError("model comparison needs at least two reports")
    names = tuple(reports)
    values = np.array([reports[n].values() for n in names], dtype=float)
    best = np.zeros_like(values, dtype=bool)
    for j, column in enumerate(METRIC_COLUMNS):
        col = values[:, j]
        target = col.max() if column in _HIGHER_IS_BETTER else col.min()
        best[:, j] = col == target
    return ComparisonTable(
        model_names=names,
        columns=METRIC_COLUMNS,
        values=values,
        best=best,
    )
