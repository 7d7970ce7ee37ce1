import datetime as dt
import decimal

import numpy as np
import pytest
from numpy.testing import assert_allclose

from climdemand.errors import ConfigError, InsufficientDataError, InvalidInputError
from climdemand.hpfilter import (
    WEEKLY_SMOOTHING,
    hp_cycle,
    hp_trend,
    seasonal_adjust,
)
from climdemand.panel import WeeklySeries


def exact_hp_trend(y, smoothing):
    """Independent oracle: the trend-form system (I + s K'K) tau = y, built
    from the rows of K and solved by banded Gaussian elimination in 80-digit
    decimal arithmetic, then rounded once to floats.  Every float input is
    exact as a decimal, and the system's condition number is about 16 s, so
    the rounding is the only error that reaches the result."""
    n = len(y)
    with decimal.localcontext() as ctx:
        ctx.prec = 80
        s = decimal.Decimal(float(smoothing))
        zero = decimal.Decimal(0)
        system = [[zero] * n for _ in range(n)]
        for i in range(n):
            system[i][i] += 1
        for j in range(n - 2):
            row = ((j, 1), (j + 1, -2), (j + 2, 1))
            for a, ka in row:
                for b, kb in row:
                    system[a][b] += s * ka * kb
        rhs = [decimal.Decimal(float(v)) for v in y]
        for k in range(n):
            for i in range(k + 1, min(k + 3, n)):
                factor = system[i][k] / system[k][k]
                for j in range(k, min(k + 3, n)):
                    system[i][j] -= factor * system[k][j]
                rhs[i] -= factor * rhs[k]
        trend = [zero] * n
        for i in range(n - 1, -1, -1):
            acc = rhs[i]
            for j in range(i + 1, min(i + 3, n)):
                acc -= system[i][j] * trend[j]
            trend[i] = acc / system[i][i]
    return np.array([float(v) for v in trend])


def wandering_series(n):
    rng = np.random.default_rng(314)
    return np.cumsum(rng.normal(size=n)) + 5.0 * np.sin(np.arange(n) / 9.0)


def test_weekly_smoothing_value():
    assert WEEKLY_SMOOTHING == 45_697_600.0 == 1600.0 * (52.0 / 4.0) ** 4
    y = wandering_series(60)
    assert np.array_equal(hp_cycle(y), hp_cycle(y, WEEKLY_SMOOTHING))


def test_linear_series_has_no_cycle():
    t = np.arange(200, dtype=float)
    cycle = hp_cycle(3.0 + 0.5 * t)
    assert np.max(np.abs(cycle)) < 1e-8


@pytest.mark.parametrize("smoothing", [1600.0, WEEKLY_SMOOTHING])
def test_matches_dense_solve(smoothing):
    y = wandering_series(150)
    trend = hp_trend(y, smoothing)
    assert_allclose(trend, exact_hp_trend(y, smoothing), rtol=0, atol=1e-8)
    assert_allclose(hp_cycle(y, smoothing), y - trend, rtol=0, atol=1e-12)


@pytest.mark.parametrize("smoothing", [1600.0, WEEKLY_SMOOTHING])
@pytest.mark.parametrize("n", [4, 5, 150, 390])
def test_within_rounding_of_exact_solve(n, smoothing):
    # A plain solve is off by about cond * eps * |y|, with cond ~ 16 s; the
    # refined solve must be off by rounding only.
    y = wandering_series(n)
    assert_allclose(hp_trend(y, smoothing), exact_hp_trend(y, smoothing), rtol=0, atol=1e-12)


def test_filter_is_linear():
    rng = np.random.default_rng(42)
    y1 = np.cumsum(rng.normal(size=120))
    y2 = np.cumsum(rng.normal(size=120))
    c1 = hp_cycle(y1)
    c2 = hp_cycle(y2)
    assert_allclose(hp_cycle(2.5 * y1), 2.5 * c1, rtol=0, atol=1e-8)
    assert_allclose(hp_cycle(y1 + y2), c1 + c2, rtol=0, atol=1e-8)


def test_weekly_series_round_trip():
    weeks = tuple(
        dt.date(2021, 1, 4) + dt.timedelta(days=7 * i) for i in range(60)
    )
    rng = np.random.default_rng(1)
    series = WeeklySeries("demand", weeks, rng.uniform(100.0, 200.0, size=60))
    cycle = hp_cycle(series)
    assert isinstance(cycle, WeeklySeries)
    assert cycle.name == "demand_cycle"
    assert cycle.week_starts == weeks
    assert_allclose(cycle.values, hp_cycle(series.values), rtol=0, atol=0)


def test_too_short_series():
    with pytest.raises(InsufficientDataError):
        hp_trend([1.0, 2.0, 3.0])


def test_rejects_nan():
    with pytest.raises(InvalidInputError):
        hp_trend([1.0, np.nan, 3.0, 4.0])


def test_config_validation():
    with pytest.raises(ConfigError) as excinfo:
        hp_cycle(np.arange(10.0), -5.0)
    assert "smoothing" in excinfo.value.fields


@pytest.mark.parametrize("smoothing", [0.0, np.inf, np.nan, True, np.True_, "5", None])
def test_smoothing_must_be_a_finite_positive_number(smoothing):
    with pytest.raises(ConfigError) as excinfo:
        hp_cycle(np.arange(10.0), smoothing)
    assert "smoothing" in excinfo.value.fields
    with pytest.raises(ConfigError) as excinfo:
        hp_trend(np.arange(10.0), smoothing)
    assert "smoothing" in excinfo.value.fields


@pytest.mark.parametrize("smoothing", [1600, np.int64(1600), np.float32(1600.0)])
def test_any_real_smoothing_gives_the_float_result(smoothing):
    y = wandering_series(40)
    assert_allclose(hp_trend(y, smoothing), hp_trend(y, 1600.0), rtol=0, atol=0)


def test_cycle_takes_the_smoothing_as_the_trend_does():
    y = wandering_series(80)
    assert_allclose(hp_cycle(y, 1600.0), y - hp_trend(y, 1600.0), rtol=0, atol=1e-12)


class TestSeasonalAdjust:
    def test_removes_pure_seasonal_exactly(self):
        t = np.arange(260, dtype=float)
        y = (
            7.0
            + 3.0 * np.cos(2.0 * np.pi * t / 52.0 + 0.4)
            + 1.2 * np.sin(2.0 * np.pi * 2.0 * t / 52.0)
        )
        residual = seasonal_adjust(y)
        assert np.max(np.abs(residual)) < 1e-10

    def test_arbitrary_period_removed(self):
        # Any sinusoid whose period matches the basis is annihilated exactly,
        # including periods that are not an integer number of samples.
        period = 365.25 / 7.0
        t = np.arange(390, dtype=float)
        y = 10.0 * np.cos(2.0 * np.pi * t / period - 1.1)
        residual = seasonal_adjust(y, period=period, harmonics=1)
        assert np.max(np.abs(residual)) < 1e-10

    def test_residual_orthogonal_to_basis(self):
        rng = np.random.default_rng(7)
        y = rng.normal(size=208)
        residual = seasonal_adjust(y, harmonics=2)
        t = np.arange(208, dtype=float)
        assert abs(residual.sum()) < 1e-8
        for k in (1, 2):
            angle = 2.0 * np.pi * k * t / 52.0
            assert abs(residual @ np.cos(angle)) < 1e-7
            assert abs(residual @ np.sin(angle)) < 1e-7

    def test_noise_preserved(self):
        rng = np.random.default_rng(11)
        noise = rng.normal(size=312)
        seasonal = 5.0 * np.cos(2.0 * np.pi * np.arange(312) / 52.0)
        residual = seasonal_adjust(noise + seasonal)
        # Only 7 basis directions are projected out of 312, so the noise
        # should come back nearly unchanged.
        assert np.corrcoef(residual, noise)[0, 1] > 0.98

    def test_zero_harmonics_demeans(self):
        y = np.array([4.0, 6.0, 5.0, 5.0, 4.5, 5.5])
        assert_allclose(seasonal_adjust(y, harmonics=0), y - 5.0, rtol=0, atol=1e-12)

    def test_weekly_series_naming(self):
        weeks = tuple(
            dt.date(2020, 1, 6) + dt.timedelta(days=7 * i) for i in range(104)
        )
        rng = np.random.default_rng(3)
        series = WeeklySeries("demand_cycle", weeks, rng.normal(size=104))
        adjusted = seasonal_adjust(series)
        assert isinstance(adjusted, WeeklySeries)
        assert adjusted.name == "demand_cycle_deseasonalized"
        assert adjusted.week_starts == weeks
        assert_allclose(adjusted.values, seasonal_adjust(series.values), rtol=0, atol=0)

    def test_bad_period_and_harmonics(self):
        y = np.zeros(60)
        with pytest.raises(ConfigError) as excinfo:
            seasonal_adjust(y, period=1.0)
        assert "period" in excinfo.value.fields
        with pytest.raises(ConfigError) as excinfo:
            seasonal_adjust(y, harmonics=-1)
        assert "harmonics" in excinfo.value.fields

    @pytest.mark.parametrize("period", ["5", None, np.nan, True])
    def test_period_must_be_a_number(self, period):
        with pytest.raises(ConfigError) as excinfo:
            seasonal_adjust(np.zeros(60), period=period)
        assert "period" in excinfo.value.fields

    def test_too_short_for_basis(self):
        with pytest.raises(InsufficientDataError):
            seasonal_adjust(np.zeros(8), harmonics=3)

    def test_rejects_nan_and_matrix(self):
        with pytest.raises(InvalidInputError):
            seasonal_adjust(np.array([1.0, np.nan, 2.0] * 20))
        with pytest.raises(InvalidInputError):
            seasonal_adjust(np.zeros((60, 2)))
