"""Tests for forecast accuracy metrics."""

import math

import numpy as np
import pytest
from numpy.testing import assert_array_equal

from climdemand.errors import (
    ConfigError,
    InsufficientDataError,
    InvalidInputError,
    MetricUndefinedError,
)
from climdemand.metrics import (
    METRIC_COLUMNS,
    MetricReport,
    compare_models,
    evaluate_forecast,
    mape,
    mase,
    rmse,
    rsr,
)


def report_with(**overrides):
    base = dict(
        mape=10.0, rmse=5.0, rsr=0.5, r2=0.75, mase=0.9,
        seasonal_lag=52, train_mean=100.0,
    )
    base.update(overrides)
    return MetricReport(**base)


class TestHandValues:
    def test_mape_percentage(self):
        assert mape([100.0, 200.0], [110.0, 190.0]) == pytest.approx(7.5)

    def test_rmse(self):
        assert rmse([1.0, 2.0, 3.0], [1.0, 2.0, 7.0]) == pytest.approx(
            math.sqrt(16.0 / 3.0)
        )

    def test_rsr_against_explicit_ratio(self):
        actual = np.array([4.0, 6.0, 8.0])
        predicted = np.array([5.0, 5.0, 9.0])
        train_mean = 5.0
        expected = math.sqrt((1 + 1 + 1) / (1 + 1 + 9))
        assert rsr(actual, predicted, train_mean) == pytest.approx(expected)

    def test_mase_with_seasonal_lag_two(self):
        train = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]
        # Seasonal differences at lag 2 all equal 2, MAE of the forecast
        # is 1.5, so the ratio is 0.75.
        assert mase([7.0, 8.0], [6.0, 10.0], train, seasonal_lag=2) == (
            pytest.approx(0.75)
        )

    def test_perfect_forecast(self):
        actual = np.array([10.0, 20.0, 30.0])
        train = np.array([5.0, 7.0, 9.0, 11.0])
        report = evaluate_forecast(actual, actual.copy(), train, seasonal_lag=2)
        assert report.mape == 0.0
        assert report.rmse == 0.0
        assert report.rsr == 0.0
        assert report.r2 == 1.0
        assert report.mase == 0.0
        assert report.train_mean == pytest.approx(8.0)


class TestIdentities:
    def test_r2_equals_one_minus_rsr_squared(self):
        for s in range(200):
            rng = np.random.default_rng(1_000 + s)
            actual = rng.normal(100.0, 20.0, size=60)
            predicted = actual + rng.normal(0.0, 5.0, size=60)
            train = rng.normal(100.0, 20.0, size=120)
            report = evaluate_forecast(actual, predicted, train, seasonal_lag=4)
            assert abs(report.r2 - (1.0 - report.rsr**2)) < 1e-14

    def test_report_agrees_with_standalone_functions(self):
        rng = np.random.default_rng(2)
        actual = rng.normal(200.0, 30.0, size=52)
        predicted = actual + rng.normal(0.0, 10.0, size=52)
        train = rng.normal(200.0, 30.0, size=338)
        report = evaluate_forecast(actual, predicted, train)
        assert report.mape == pytest.approx(mape(actual, predicted), rel=1e-12)
        assert report.rmse == pytest.approx(rmse(actual, predicted), rel=1e-12)
        assert report.rsr == pytest.approx(
            rsr(actual, predicted, train.mean()), rel=1e-12
        )
        assert report.mase == pytest.approx(
            mase(actual, predicted, train), rel=1e-12
        )
        assert report.seasonal_lag == 52

    def test_mase_affine_invariance(self):
        rng = np.random.default_rng(3)
        actual = rng.normal(50.0, 8.0, size=30)
        predicted = actual + rng.normal(0.0, 3.0, size=30)
        train = rng.normal(50.0, 8.0, size=80)
        base = mase(actual, predicted, train, seasonal_lag=7)
        a, b = 3.7, 120.0
        shifted = mase(
            a * actual + b, a * predicted + b, a * train + b, seasonal_lag=7
        )
        assert shifted == pytest.approx(base, rel=1e-12)


class TestUndefinedCases:
    def test_zero_actual_names_index(self):
        with pytest.raises(MetricUndefinedError) as exc:
            mape([5.0, 0.0, 3.0], [4.0, 1.0, 3.0])
        assert "index 1" in str(exc.value)

    def test_rsr_zero_spread(self):
        with pytest.raises(MetricUndefinedError):
            rsr([5.0, 5.0], [4.0, 6.0], train_mean=5.0)

    def test_mase_constant_train(self):
        with pytest.raises(MetricUndefinedError):
            mase([1.0, 2.0], [1.0, 2.0], np.full(10, 3.0), seasonal_lag=2)

    def test_mase_train_too_short(self):
        with pytest.raises(InsufficientDataError):
            mase([1.0], [1.0], np.arange(5.0), seasonal_lag=5)

    def test_bad_seasonal_lag(self):
        with pytest.raises(ConfigError):
            mase([1.0], [1.0], np.arange(10.0), seasonal_lag=0)

    def test_shape_mismatches(self):
        with pytest.raises(InvalidInputError):
            rmse([1.0, 2.0], [1.0])
        with pytest.raises(InvalidInputError):
            rmse([], [])
        with pytest.raises(InvalidInputError):
            mape([np.nan, 1.0], [1.0, 1.0])
        with pytest.raises(InvalidInputError):
            evaluate_forecast([1.0], [1.0], [[1.0, 2.0]])

class TestComparison:
    def test_best_flags_direction(self):
        table = compare_models(
            {
                "baseline": report_with(mape=12.0, rmse=36924.92, rsr=0.7395,
                                        r2=0.4531, mase=1.1207),
                "varx": report_with(mape=10.8102, rmse=33243.92, rsr=0.6658,
                                    r2=0.5567, mase=1.0081),
                "forest": report_with(mape=10.5861, rmse=33361.86, rsr=0.6681,
                                      r2=0.5536, mase=0.9892),
            }
        )
        assert table.columns == METRIC_COLUMNS
        by_model = dict(zip(table.model_names, table.best))
        # Lowest RMSE and RSR, highest R2 belong to varx; the forest wins
        # the relative-error columns.
        assert_array_equal(by_model["varx"], [False, True, True, True, False])
        assert_array_equal(by_model["forest"], [True, False, False, False, True])
        assert_array_equal(by_model["baseline"], [False] * 5)

    def test_ties_flagged_everywhere(self):
        table = compare_models(
            {"a": report_with(), "b": report_with(), "c": report_with(rmse=6.0)}
        )
        rmse_col = table.columns.index("rmse")
        assert list(table.best[:, rmse_col]) == [True, True, False]
        mape_col = table.columns.index("mape")
        assert list(table.best[:, mape_col]) == [True, True, True]

    def test_needs_two_models(self):
        with pytest.raises(InvalidInputError):
            compare_models({"only": report_with()})

    def test_rows_round_trip(self):
        table = compare_models({"a": report_with(), "b": report_with(rmse=9.0)})
        rows = table.to_rows()
        assert rows[0][0] == "a"
        assert rows[0][1:6] == report_with().values()
        assert len(rows[0]) == 11
