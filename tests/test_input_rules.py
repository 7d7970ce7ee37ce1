"""The three input rules every module shares: ``errors.integer_problem``
for integer settings, ``errors.real_problem`` for real-valued settings and
``panel.finite_array`` for numeric arrays.

Each table row is one call site.  A config field rejects a bad value with a
:class:`ConfigError` naming the field; a function argument rejects it with
its own error class and its name in front of the rule's message.  An
integer setting rejects a float, a bool and its floor less one.  A real
setting rejects NaN, infinities, bools, strings, ``None`` (unless that is
its default) and the values just outside its interval, and accepts a numpy
float and a Python int.  An array site rejects a wrong shape with
:class:`ShapeError` and a NaN with ``"... must be finite"``.
"""

from __future__ import annotations

import datetime as dt

import numpy as np
import pytest

from climdemand._rng import _stationary_paths
from climdemand.diagnostics import arch_lm_test, portmanteau_test
from climdemand.errors import (
    ConfigError,
    InvalidInputError,
    ShapeError,
    integer_problem,
    real_problem,
)
from climdemand.features import (
    FeatureConfig,
    derive_wind_speed,
    regional_extreme_threshold,
    weekly_extreme_rainfall,
    weekly_wet_days,
)
from climdemand.forest import (
    ForestConfig,
    SupervisedDataset,
    lagged_design_matrix,
    lagged_feature_rows,
    moving_block_plan,
    predict,
    train_forest,
)
from climdemand.hpfilter import hp_cycle, hp_trend, seasonal_adjust
from climdemand.metrics import evaluate_forecast, mase, rmse
from climdemand.panel import PanelDataset, WeeklySeries, finite_array
from climdemand.sparsevar import fit_lasso_var, select_lambda
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
EXOG_VARX = fit_varx(PANEL, SERIES, max_order=1)
TREND = fit_trend_model(np.arange(N, dtype=float) + RNG.normal(size=N), TrendFitConfig(5, 0))
ROWS = SupervisedDataset(("x",), RNG.normal(size=(N, 1)), RNG.normal(size=N))
FOREST = train_forest(ROWS, ForestConfig(n_trees=2, block_length=10))


# (config class, field, floor)
CONFIG_FIELDS = [
    (SynthConfig, "n_weeks", 10),
    (SynthConfig, "seed", 0),
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


@pytest.mark.parametrize("value", [5, None, {30}, (30.5,), (True,)])
def test_synth_break_weeks_are_a_tuple_of_integers(value):
    with pytest.raises(ConfigError) as excinfo:
        SynthConfig(break_weeks=value, level_shifts=(-1.0,))
    assert excinfo.value.fields == {
        "break_weeks": f"must be a tuple of integers >= 1, got {value!r}"
    }


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
    ("lagged_feature_rows.lags", lambda v: lagged_feature_rows(PANEL, "a", np.array([5]), v),
     InvalidInputError, None),
    ("select_lambda.n_origins", lambda v: select_lambda(PANEL, order=1, n_origins=v),
     InvalidInputError, None),
    ("fit_lasso_var.order", lambda v: fit_lasso_var(PANEL, order=v, lam=0.1),
     InvalidInputError, None),
    ("select_lambda.order", lambda v: select_lambda(PANEL, order=v, grid=(0.1,)),
     InvalidInputError, None),
    ("moving_block_plan.n_rows", lambda v: moving_block_plan(v, 1), InvalidInputError, None),
    ("moving_block_plan.block_length", lambda v: moving_block_plan(N, v),
     ConfigError, "block_length"),
    ("mase.seasonal_lag", lambda v: mase([1.0], [1.0], SERIES, seasonal_lag=v),
     ConfigError, "seasonal_lag"),
    ("portmanteau.lags", lambda v: portmanteau_test(SERIES, v), ConfigError, "lags"),
    ("arch_lm.lags", lambda v: arch_lm_test(SERIES, v), ConfigError, "lags"),
    ("seasonal_adjust.harmonics", lambda v: seasonal_adjust(SERIES, harmonics=v),
     ConfigError, "harmonics"),
]


@pytest.mark.parametrize("value", [2.5, True, "2"])
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


# The lag-order settings whose default is not None (fit_var's ``order=None``
# is its BIC choice).
NO_NONE_ORDERS = ["fit_var.max_order", "fit_varx.max_order", "fit_lasso_var.order",
                  "select_lambda.order"]


@pytest.mark.parametrize("name", NO_NONE_ORDERS)
def test_order_is_not_none(name):
    call = {row[0]: row[1] for row in INTEGER_ARGUMENTS}[name]
    argument = name.split(".")[1]
    with pytest.raises(InvalidInputError, match=f"^{argument} must be an integer >= 1, got None$"):
        call(None)


# (id, call with the value, interval, a valid value, error class, the
# ConfigError field or the argument's name in front of the message, whether
# None is the default)
REAL_SETTINGS = [
    ("hp_cycle.smoothing", lambda v: hp_cycle(SERIES, v), "(0, inf)", 1600,
     ConfigError, "smoothing", False),
    ("hp_trend.smoothing", lambda v: hp_trend(SERIES, v), "(0, inf)", 1600,
     ConfigError, "smoothing", False),
    ("seasonal_adjust.period", lambda v: seasonal_adjust(SERIES, period=v), "(1, inf)", 52,
     ConfigError, "period", False),
    ("FeatureConfig.wet_day_threshold_mm", lambda v: FeatureConfig(wet_day_threshold_mm=v),
     "[0, inf)", 1, ConfigError, "wet_day_threshold_mm", False),
    ("FeatureConfig.extreme_quantile", lambda v: FeatureConfig(extreme_quantile=v),
     "(0, 1)", 0.9, ConfigError, "extreme_quantile", False),
    ("GcBootstrapConfig.alpha", lambda v: GcBootstrapConfig(alpha=v), "(0, 0.5]", 0.1,
     ConfigError, "alpha", False),
    ("GcBootstrapConfig.expected_block_length",
     lambda v: GcBootstrapConfig(expected_block_length=v), "[1, inf)", 3,
     ConfigError, "expected_block_length", True),
    ("TrendFitConfig.changepoint_penalty", lambda v: TrendFitConfig(changepoint_penalty=v),
     "[0, inf)", 1, ConfigError, "changepoint_penalty", True),
    *(
        (f"SynthConfig.{field}", lambda v, f=field: SynthConfig(**{f: v}), interval, valid,
         ConfigError, field, False)
        for field, interval, valid in [
            ("base_demand", "(-inf, inf)", 1000),
            ("seasonal_amplitude", "[0, inf)", 1000),
            ("seasonal_phase_weeks", "(-inf, inf)", 2),
            ("demand_noise_sd", "[0, inf)", 1000),
            ("temperature_noise_sd", "[0, inf)", 2),
            ("temperature_noise_persistence", "[0, 1)", 0),
        ]
    ),
    ("SynthConfig.demand_lag_coefficients",
     lambda v: SynthConfig(demand_lag_coefficients=(0.1, v)), "(-inf, inf)", 0,
     ConfigError, "demand_lag_coefficients", False),
    ("SynthConfig.temperature_coupling",
     lambda v: SynthConfig(temperature_coupling=(-1.0, v)), "(-inf, 0]", -1,
     ConfigError, "temperature_coupling", False),
    ("SynthConfig.level_shifts", lambda v: SynthConfig(level_shifts=(-1.0, v)),
     "(-inf, inf)", 5, ConfigError, "level_shifts", False),
    ("fit_lasso_var.lam", lambda v: fit_lasso_var(PANEL, order=1, lam=v), "[0, inf)", 0,
     InvalidInputError, "lam", False),
    ("select_lambda.grid", lambda v: select_lambda(PANEL, order=1, grid=(0.1, v), n_origins=2),
     "[0, inf)", 0, InvalidInputError, "every grid value", False),
    ("_stationary_paths.block_length",
     lambda v: _stationary_paths(np.zeros((1, N), np.intp), np.zeros((1, N)), v), "[1, inf)", 3,
     InvalidInputError, "block_length", False),
]


def _rejected(interval, optional):
    """The values a real setting on ``interval`` rejects, by id."""
    values = {"nan": np.nan, "inf": np.inf, "True": True, "np.True_": np.True_, "str": "1"}
    if not optional:
        values["None"] = None
    low, high = (float(end) for end in interval[1:-1].split(","))
    if np.isfinite(low):
        values["below"] = low if interval[0] == "(" else np.nextafter(low, -np.inf)
    if np.isfinite(high):
        values["above"] = high if interval[-1] == ")" else np.nextafter(high, np.inf)
    return values


@pytest.mark.parametrize(
    "call, interval, error, name, value",
    [
        pytest.param(call, interval, error, name, value, id=f"{row_id}-{value_id}")
        for row_id, call, interval, _, error, name, optional in REAL_SETTINGS
        for value_id, value in _rejected(interval, optional).items()
    ],
)
def test_real_setting_rejects(call, interval, error, name, value):
    expected = f"must be a finite number in {interval}, got {value!r}"
    with pytest.raises(error) as excinfo:
        call(value)
    if error is ConfigError:
        assert set(excinfo.value.fields) == {name}
        assert excinfo.value.fields[name].endswith(expected)
    else:
        assert str(excinfo.value) == f"{name} {expected}"


@pytest.mark.parametrize(
    "call, valid",
    [(row[1], row[3]) for row in REAL_SETTINGS],
    ids=[row[0] for row in REAL_SETTINGS],
)
def test_real_setting_accepts_numpy_floats_and_ints(call, valid):
    call(np.float64(valid))
    if valid == int(valid):
        call(int(valid))


def _week(values):
    return np.broadcast_to(values, (7,)).copy()


# (id, call with the array, an input of the wrong shape, a valid input); the
# extreme-rainfall cutoff must broadcast to the block's leading shape.
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
    ("portmanteau.residuals", lambda x: portmanteau_test(x, 1),
     SERIES[:, None, None], SERIES),
    ("fit_var.data", fit_var, SERIES[:, None, None], SERIES),
    ("ExogenousDesign", lambda x: ExogenousDesign(("x",), x), SERIES[:, None, None], SERIES),
    ("fit_varx.exog", lambda x: fit_varx(PANEL, x, max_order=1), SERIES[:, None, None], SERIES),
    ("forecast_recursive.exog_future", lambda x: forecast_recursive(EXOG_VARX, 3, x),
     SERIES[:, None, None], SERIES),
    ("SupervisedDataset.features", lambda x: SupervisedDataset(("x",), x, SERIES),
     SERIES[:, None, None], SERIES),
    ("SupervisedDataset.target", lambda x: SupervisedDataset(("x",), SERIES, x),
     SERIES[:, None], SERIES),
    ("lagged_feature_rows.target",
     lambda x: lagged_feature_rows(PANEL, "a", np.array([5]), 2, target=x), np.ones((N, 2)),
     SERIES),
    ("predict", lambda x: predict(FOREST, x), SERIES[:2, None, None], SERIES[:1]),
    ("weekly_wet_days", weekly_wet_days, np.float64(1.0), _week(1.0)),
    ("weekly_extreme_rainfall.cutoff",
     lambda x: weekly_extreme_rainfall(np.ones((2, 7)), x), np.ones(3), np.ones(2)),
    ("regional_extreme_threshold", lambda x: regional_extreme_threshold(x, FeatureConfig()),
     SERIES[:, None], SERIES),
    ("derive_wind_speed.u10", lambda x: derive_wind_speed(x, SERIES), SERIES[:3], SERIES),
    ("derive_wind_speed.v10", lambda x: derive_wind_speed(SERIES, x), SERIES[:3], SERIES),
]


@pytest.mark.parametrize(
    "call, wrong_shape, valid", [row[1:] for row in ARRAY_SITES],
    ids=[row[0] for row in ARRAY_SITES],
)
def test_array_site(call, wrong_shape, valid):
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


def test_real_rule():
    assert real_problem(0.5, "(0, 0.5]") is None
    assert real_problem(np.float32(0.0), "[0, 1)") is None
    assert real_problem(-3, "(-inf, inf)") is None
    for value, interval in [(0.0, "(0, 1]"), (1.0, "[0, 1)"), (np.nextafter(2.0, 3.0), "[1, 2]")]:
        assert real_problem(value, interval) == (
            f"must be a finite number in {interval}, got {value!r}"
        )
    for value in (np.nan, -np.inf, np.inf, True, np.False_, "3", None, [1.0]):
        assert real_problem(value, "(-inf, inf)") == (
            f"must be a finite number in (-inf, inf), got {value!r}"
        )
    assert real_problem(np.inf, "[0, inf]") is not None  # even where the interval ends at inf
