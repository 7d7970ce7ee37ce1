"""The two input rules every module shares: ``errors.integer_problem`` for
integer settings and ``panel.finite_array`` for numeric arrays.

Each table row is one call site.  A config field rejects a float, a bool
and its floor less one with a :class:`ConfigError` naming the field; a
function argument rejects a float and a bool with its own error class; an
array site rejects a wrong shape with :class:`ShapeError` and a NaN with
``"... must be finite"``.
"""

from __future__ import annotations

import datetime as dt

import numpy as np
import pytest

from climdemand.diagnostics import arch_lm_statistics, portmanteau_statistic
from climdemand.errors import ConfigError, InvalidInputError, ShapeError, integer_problem
from climdemand.features import derive_wind_speed, weekly_extreme_rainfall, weekly_wet_days
from climdemand.forest import (
    ForestConfig,
    SupervisedDataset,
    lagged_design_matrix,
    moving_block_plan,
    predict,
    train_forest,
)
from climdemand.hpfilter import hp_cycle, seasonal_adjust
from climdemand.metrics import SplitSpec, evaluate_forecast, mase, rmse
from climdemand.panel import PanelDataset, WeeklySeries, finite_array
from climdemand.spectral import GcBootstrapConfig, unconditional_gc_spectrum
from climdemand.synth import SynthConfig
from climdemand.trend import TrendFitConfig, fit_trend_model
from climdemand.trend import forecast as trend_forecast
from climdemand.varbase import fit_var
from climdemand.varx import (
    ExogenousDesign,
    build_exogenous,
    fevd,
    fit_varx,
    forecast_recursive,
    irf,
)

N = 60
WEEKS = tuple(dt.date(2020, 1, 6) + dt.timedelta(weeks=i) for i in range(N))
RNG = np.random.default_rng(3)
SERIES = RNG.normal(size=N)
PANEL = PanelDataset(WEEKS, {"a": RNG.normal(size=N), "b": RNG.normal(size=N)})
VARX = fit_varx(RNG.normal(size=(N, 2)), max_order=1)
TREND = fit_trend_model(np.arange(N, dtype=float) + RNG.normal(size=N), TrendFitConfig(5, 0))
ROWS = SupervisedDataset(("x",), RNG.normal(size=(N, 1)), RNG.normal(size=N))
FOREST = train_forest(ROWS, ForestConfig(n_trees=2, block_length=10))


# (config class, field, floor)
CONFIG_FIELDS = [
    (SynthConfig, "n_weeks", 10),
    (SynthConfig, "seed", 0),
    (SplitSpec, "train_length", 1),
    (SplitSpec, "horizon", 1),
    (SplitSpec, "window", 1),
    (SplitSpec, "step", 1),
    (ForestConfig, "n_trees", 1),
    (ForestConfig, "mtry", 1),
    (ForestConfig, "min_node_size", 1),
    (ForestConfig, "block_length", 1),
    (ForestConfig, "seed", 0),
    (GcBootstrapConfig, "n_replicates", 100),
    (GcBootstrapConfig, "max_var_order", 1),
    (GcBootstrapConfig, "seed", 0),
    (TrendFitConfig, "n_changepoints", 0),
    (TrendFitConfig, "n_harmonics", 0),
    (TrendFitConfig, "period", 2),
]


@pytest.mark.parametrize("value", [2.5, True, np.True_, "floor - 1"])
@pytest.mark.parametrize(
    "config, field, floor", CONFIG_FIELDS, ids=[f"{c.__name__}.{f}" for c, f, _ in CONFIG_FIELDS]
)
def test_config_integer_field(config, field, floor, value):
    value = floor - 1 if isinstance(value, str) else value
    with pytest.raises(ConfigError) as excinfo:
        config(**{field: value})
    assert excinfo.value.fields == {field: f"must be an integer >= {floor}, got {value!r}"}
    config(**{field: np.int64(max(floor, 400))})  # a numpy integer is one


# (id, call with the value, error class, ConfigError field or None)
INTEGER_ARGUMENTS = [
    ("fit_var.order", lambda v: fit_var(PANEL, order=v), InvalidInputError, None),
    ("fit_var.max_order", lambda v: fit_var(PANEL, max_order=v), InvalidInputError, None),
    ("fit_varx.max_order", lambda v: fit_varx(PANEL, max_order=v), InvalidInputError, None),
    ("trend.forecast.horizon", lambda v: trend_forecast(TREND, v), InvalidInputError, None),
    ("forecast_recursive.horizon", lambda v: forecast_recursive(VARX, v), InvalidInputError, None),
    ("irf.horizon", lambda v: irf(VARX, horizon=v), InvalidInputError, None),
    ("fevd.horizons", lambda v: fevd(VARX, horizons=(4, v)), InvalidInputError, None),
    ("build_exogenous.harmonics", lambda v: build_exogenous(WEEKS, harmonics=v),
     InvalidInputError, None),
    ("build_exogenous.period", lambda v: build_exogenous(WEEKS, period=v),
     InvalidInputError, None),
    ("lagged_design_matrix.lags", lambda v: lagged_design_matrix(PANEL, "a", lags=v),
     InvalidInputError, None),
    ("moving_block_plan.n_rows", lambda v: moving_block_plan(v, 1), InvalidInputError, None),
    ("moving_block_plan.block_length", lambda v: moving_block_plan(N, v),
     ConfigError, "block_length"),
    ("mase.seasonal_lag", lambda v: mase([1.0], [1.0], SERIES, seasonal_lag=v),
     ConfigError, "seasonal_lag"),
    ("portmanteau.lags", lambda v: portmanteau_statistic(SERIES, v), ConfigError, "lags"),
    ("arch_lm.lags", lambda v: arch_lm_statistics(SERIES, v), ConfigError, "lags"),
    ("seasonal_adjust.harmonics", lambda v: seasonal_adjust(SERIES, harmonics=v),
     ConfigError, "harmonics"),
]


@pytest.mark.parametrize("value", [2.5, True])
@pytest.mark.parametrize(
    "call, error, field", [row[1:] for row in INTEGER_ARGUMENTS],
    ids=[row[0] for row in INTEGER_ARGUMENTS],
)
def test_integer_argument(call, error, field, value):
    with pytest.raises(error) as excinfo:
        call(value)
    if field is not None:
        assert set(excinfo.value.fields) == {field}
    assert "must be an integer" in str(excinfo.value)
    assert repr(value) in str(excinfo.value)


def _week(values):
    return np.broadcast_to(values, (7,)).copy()


# (id, call with the array, an input of the wrong shape, a valid input); the
# extreme-rainfall cutoff broadcasts against the block, so has no wrong shape.
ARRAY_SITES = [
    ("WeeklySeries", lambda x: WeeklySeries("s", WEEKS, x), SERIES[:, None], SERIES),
    ("PanelDataset", lambda x: PanelDataset(WEEKS, {"a": x}), SERIES[:, None], SERIES),
    ("unconditional_gc_spectrum.cause",
     lambda x: unconditional_gc_spectrum(x, SERIES, GcBootstrapConfig(n_replicates=100)),
     SERIES[:, None], SERIES),
    ("fit_trend_model", fit_trend_model, SERIES[:, None], SERIES),
    ("hp_cycle", hp_cycle, SERIES[:, None], SERIES),
    ("seasonal_adjust", seasonal_adjust, SERIES[:, None], SERIES),
    ("rmse.actual", lambda x: rmse(x, SERIES), SERIES[:, None], SERIES),
    ("rmse.predicted", lambda x: rmse(SERIES, x), SERIES[:, None], SERIES),
    ("evaluate_forecast.train", lambda x: evaluate_forecast([1.0], [2.0], x),
     SERIES[:, None], SERIES),
    ("portmanteau.residuals", lambda x: portmanteau_statistic(x, 1),
     SERIES[:, None, None], SERIES),
    ("fit_var.data", fit_var, SERIES[:, None, None], SERIES),
    ("ExogenousDesign", lambda x: ExogenousDesign(("x",), x), SERIES[:, None, None], SERIES),
    ("fit_varx.exog", lambda x: fit_varx(PANEL, x, max_order=1), SERIES[:, None, None], SERIES),
    ("SupervisedDataset.features", lambda x: SupervisedDataset(("x",), x, SERIES),
     SERIES[:, None, None], SERIES),
    ("SupervisedDataset.target", lambda x: SupervisedDataset(("x",), SERIES, x),
     SERIES[:, None], SERIES),
    ("predict", lambda x: predict(FOREST, x), SERIES[:2, None, None], SERIES[:1]),
    ("weekly_wet_days", weekly_wet_days, np.float64(1.0), _week(1.0)),
    ("weekly_extreme_rainfall.cutoff", lambda x: weekly_extreme_rainfall(_week(1.0), x),
     None, np.float64(1.0)),
    ("derive_wind_speed.u10", lambda x: derive_wind_speed(x, SERIES), SERIES[:3], SERIES),
    ("derive_wind_speed.v10", lambda x: derive_wind_speed(SERIES, x), SERIES[:3], SERIES),
]


@pytest.mark.parametrize(
    "call, wrong_shape, valid", [row[1:] for row in ARRAY_SITES],
    ids=[row[0] for row in ARRAY_SITES],
)
def test_array_site(call, wrong_shape, valid):
    if wrong_shape is not None:
        with pytest.raises(ShapeError):
            call(wrong_shape)
    with_nan = np.array(valid, dtype=float)
    with_nan.reshape(-1)[0] = np.nan
    with pytest.raises(InvalidInputError, match="must be finite"):
        call(with_nan)


def test_integer_rule():
    assert integer_problem(3, 3) is None
    assert integer_problem(np.int32(3), 0) is None
    for value in (2, 3.0, True, np.True_, "3", None):
        assert integer_problem(value, 3) == f"must be an integer >= 3, got {value!r}"


def test_array_rule():
    assert finite_array([1, 2], "x").dtype == float
    assert finite_array(WeeklySeries("s", WEEKS[:2], [1.0, 2.0]), "s").tolist() == [1.0, 2.0]
    assert finite_array([1.0, 2.0], "x", ndim=2).shape == (2, 1)
    with pytest.raises(ShapeError, match=r"x must be 2-dimensional, got shape \(2, 1, 1\)"):
        finite_array(np.ones((2, 1, 1)), "x", ndim=2)
    with pytest.raises(InvalidInputError, match=r"^x must be finite \(position 1, 0\)$"):
        finite_array([[1.0, 2.0], [np.inf, 3.0]], "x", ndim=2)
    with pytest.raises(InvalidInputError, match=r"^x must be finite \(position 2\)$"):
        finite_array([1.0, 2.0, np.nan], "x")
