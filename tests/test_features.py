import datetime as dt

import numpy as np
import pytest
from numpy.testing import assert_allclose

from climdemand.errors import (
    AlignmentError,
    ConfigError,
    InvalidInputError,
    ShapeError,
)
from climdemand.features import (
    NATIONAL_CLIMATE_COLUMNS,
    FeatureConfig,
    aggregate_weekly_national,
    derive_wind_speed,
    regional_extreme_threshold,
    weekly_extreme_rainfall,
    weekly_temperature_sd,
    weekly_wet_days,
)
from climdemand.panel import DAILY_MEASUREMENTS, DailyClimate
from climdemand.synth import SynthConfig, generate_synthetic_daily

MONDAY = dt.date(2016, 1, 4)


def make_region(n_days, **columns):
    """One region's ``DAILY_MEASUREMENTS`` columns over ``n_days``; columns
    not given hold a constant valid value."""
    fields = dict(
        temp_c=10.0,
        u10_ms=0.0,
        v10_ms=0.0,
        precip_mm=0.0,
        spec_humidity_gkg=5.0,
        cloud_cover=0.5,
        fwi=3.0,
    )
    fields.update(columns)
    return [np.broadcast_to(np.asarray(fields[n], dtype=float), (n_days,)) for n in DAILY_MEASUREMENTS]


def make_daily(regions, first=MONDAY):
    """DailyClimate from ``{region: columns}``, every region from ``first``."""
    return DailyClimate(tuple(regions), (first,) * len(regions), tuple(regions.values()))


class TestWindSpeed:
    def test_hand_examples(self):
        assert derive_wind_speed(3.0, 4.0) == 5.0
        assert derive_wind_speed(0.0, 0.0) == 0.0
        assert derive_wind_speed(-1.0, 0.0) == 1.0

    def test_vectorized(self):
        speed = derive_wind_speed([3.0, 0.0], [4.0, 0.0])
        assert_allclose(speed, [5.0, 0.0])

    def test_rotation_invariance(self):
        # Speed depends only on the magnitude of the wind vector.
        rng = np.random.default_rng(20240511)
        u = rng.normal(size=200)
        v = rng.normal(size=200)
        base = derive_wind_speed(u, v)
        for angle in rng.uniform(0.0, 2.0 * np.pi, size=8):
            ur = np.cos(angle) * u - np.sin(angle) * v
            vr = np.sin(angle) * u + np.cos(angle) * v
            assert_allclose(derive_wind_speed(ur, vr), base, rtol=0, atol=1e-12)

    def test_rejects_nan(self):
        with pytest.raises(InvalidInputError):
            derive_wind_speed(np.nan, 1.0)

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ShapeError):
            derive_wind_speed([1.0, 2.0], [1.0])


class TestWetDays:
    def test_hand_example(self):
        assert weekly_wet_days([0, 0, 2, 0.5, 3, 0, 0]) == 2

    def test_all_wet(self):
        assert weekly_wet_days([5.0] * 7) == 7

    def test_threshold_is_strict(self):
        # A day sitting exactly at the threshold is dry.
        assert weekly_wet_days([1.0] * 7) == 0

    def test_range_property(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            precip = rng.gamma(0.4, 3.0, size=7)
            count = weekly_wet_days(precip)
            assert 0 <= count <= 7
            assert count == sum(1 for p in precip if p > 1.0)

    def test_requires_seven_days(self):
        with pytest.raises(ShapeError):
            weekly_wet_days([0.0] * 6)

    def test_rejects_negative_precip(self):
        with pytest.raises(InvalidInputError):
            weekly_wet_days([0, 0, -1, 0, 0, 0, 0])


class TestExtremeRainfall:
    def test_hand_examples(self):
        assert weekly_extreme_rainfall([0, 0, 50, 0, 0, 0, 0], 40.0) == 50.0
        assert weekly_extreme_rainfall([45, 0, 60, 0, 0, 0, 0], 40.0) == 105.0

    def test_exceedance_is_strict(self):
        assert weekly_extreme_rainfall([40.0, 0, 0, 0, 0, 0, 0], 40.0) == 0.0

    def test_bounded_by_weekly_total(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            precip = rng.gamma(0.4, 8.0, size=7)
            cutoff = rng.uniform(0.0, 15.0)
            extreme = weekly_extreme_rainfall(precip, cutoff)
            assert 0.0 <= extreme <= precip.sum() + 1e-12

    def test_requires_seven_days(self):
        with pytest.raises(ShapeError):
            weekly_extreme_rainfall([1.0] * 8, 40.0)


class TestTemperatureSd:
    def test_hand_example(self):
        # mean 2, squared deviations 6*1 + 36, divided by 7 -> sqrt(6)
        assert_allclose(weekly_temperature_sd([1, 1, 1, 1, 1, 1, 8]), np.sqrt(6.0))

    def test_constant_week(self):
        assert weekly_temperature_sd([12.5] * 7) == 0.0

    def test_population_divisor(self):
        rng = np.random.default_rng(3)
        temp = rng.normal(10.0, 4.0, size=7)
        manual = np.sqrt(np.sum((temp - temp.mean()) ** 2) / 7.0)
        assert_allclose(weekly_temperature_sd(temp), manual, rtol=0, atol=1e-14)

    def test_rejects_nan(self):
        with pytest.raises(InvalidInputError):
            weekly_temperature_sd([1, 2, 3, np.nan, 5, 6, 7])


@pytest.mark.parametrize(
    "helper",
    [
        lambda w: weekly_wet_days(w),
        lambda w: weekly_extreme_rainfall(w, 4.0),
        weekly_temperature_sd,
    ],
    ids=["wet_days", "extreme_rainfall", "temperature_sd"],
)
def test_helpers_take_blocks_of_weeks(helper):
    block = np.random.default_rng(17).gamma(0.5, 6.0, size=(3, 5, 7))
    result = helper(block)
    assert result.shape == (3, 5)
    for index in np.ndindex(3, 5):
        assert result[index] == helper(block[index])
        assert type(helper(block[index])) in (int, float)
    with pytest.raises(ShapeError):
        helper(block[..., :6])
    with pytest.raises(ShapeError):
        helper(1.0)


class TestFeatureConfig:
    def test_defaults(self):
        cfg = FeatureConfig()
        assert cfg.wet_day_threshold_mm == 1.0
        assert cfg.extreme_quantile == 0.999

    def test_reports_every_bad_field(self):
        with pytest.raises(ConfigError) as excinfo:
            FeatureConfig(wet_day_threshold_mm=-1.0, extreme_quantile=1.5)
        assert set(excinfo.value.fields) == {"wet_day_threshold_mm", "extreme_quantile"}


def build_region(n_weeks, rng, wet_scale=3.0):
    n_days = 7 * n_weeks
    return make_region(
        n_days,
        temp_c=rng.normal(12.0, 5.0, n_days),
        u10_ms=rng.normal(0.0, 2.0, n_days),
        v10_ms=rng.normal(0.0, 2.0, n_days),
        precip_mm=rng.gamma(0.5, wet_scale, n_days),
        spec_humidity_gkg=rng.uniform(2.0, 12.0, n_days),
        cloud_cover=rng.uniform(0.0, 1.0, n_days),
        fwi=rng.gamma(2.0, 4.0, n_days),
    )


def helper_aggregation(daily, cfg):
    """The aggregation week by week through the per-week helpers, regional
    values combined across regions in sorted order."""
    n_weeks = daily.values[0].shape[1] // 7
    per_region = {}
    for region in daily.region_ids:
        temp, u10, v10, precip, humidity, cloud, fwi = (
            daily.column(region, n).reshape(n_weeks, 7) for n in DAILY_MEASUREMENTS
        )
        cutoff = regional_extreme_threshold(precip.ravel(), cfg)
        per_region[region] = {
            "temperature": temp.mean(axis=1),
            "wind_speed": derive_wind_speed(u10, v10).mean(axis=1),
            "cloud_cover": cloud.mean(axis=1),
            "specific_humidity": humidity.mean(axis=1),
            "precipitation": precip.sum(axis=1),
            "fwi": fwi.mean(axis=1),
            "temperature_sd": np.array([weekly_temperature_sd(w) for w in temp]),
            "extreme_rainfall": np.array([weekly_extreme_rainfall(w, cutoff) for w in precip]),
            "wet_days": np.array([float(weekly_wet_days(w, cfg)) for w in precip]),
        }
    columns = {}
    for name in NATIONAL_CLIMATE_COLUMNS:
        stack = np.vstack([per_region[r][name] for r in sorted(per_region)])
        summed = name in ("precipitation", "extreme_rainfall")
        columns[name] = stack.sum(axis=0) if summed else stack.mean(axis=0)
    return columns


class TestAggregateWeeklyNational:
    def test_matches_scalar_recomputation(self):
        # Independent oracle: recompute every column with plain Python loops.
        rng = np.random.default_rng(20230105)
        daily = make_daily({"north": build_region(6, rng), "south": build_region(6, rng)})
        cfg = FeatureConfig(wet_day_threshold_mm=1.0, extreme_quantile=0.9)
        panel = aggregate_weekly_national(daily, cfg)

        assert panel.n_weeks == 6
        assert panel.week_starts[0] == MONDAY
        assert panel.week_starts[1] == MONDAY + dt.timedelta(days=7)

        days = {
            region: [
                dict(zip(DAILY_MEASUREMENTS, values))
                for values in zip(*(daily.column(region, n).tolist() for n in DAILY_MEASUREMENTS))
            ]
            for region in daily.region_ids
        }
        cutoffs = {
            region: float(np.quantile([d["precip_mm"] for d in recs], 0.9))
            for region, recs in days.items()
        }
        for week in range(6):
            rows = {
                region: recs[7 * week : 7 * (week + 1)]
                for region, recs in days.items()
            }
            temp = np.mean(
                [np.mean([d["temp_c"] for d in recs]) for recs in rows.values()]
            )
            wind = np.mean(
                [
                    np.mean([np.hypot(d["u10_ms"], d["v10_ms"]) for d in recs])
                    for recs in rows.values()
                ]
            )
            precip = np.sum(
                [np.sum([d["precip_mm"] for d in recs]) for recs in rows.values()]
            )
            extreme = np.sum(
                [
                    np.sum(
                        [d["precip_mm"] for d in recs if d["precip_mm"] > cutoffs[region]]
                    )
                    for region, recs in rows.items()
                ]
            )
            wet = np.mean(
                [
                    np.sum([1.0 for d in recs if d["precip_mm"] > 1.0])
                    for recs in rows.values()
                ]
            )
            temp_sd = np.mean(
                [
                    np.sqrt(np.mean((np.array([d["temp_c"] for d in recs]) - np.mean([d["temp_c"] for d in recs])) ** 2))
                    for recs in rows.values()
                ]
            )
            assert_allclose(panel.column("temperature")[week], temp, rtol=1e-12)
            assert_allclose(panel.column("wind_speed")[week], wind, rtol=1e-12)
            assert_allclose(panel.column("precipitation")[week], precip, rtol=1e-12)
            assert_allclose(panel.column("extreme_rainfall")[week], extreme, rtol=1e-12)
            assert_allclose(panel.column("wet_days")[week], wet, rtol=1e-12)
            assert_allclose(panel.column("temperature_sd")[week], temp_sd, rtol=1e-12)

    @pytest.mark.parametrize("seed", [0, 7919, 104729])
    @pytest.mark.parametrize("quantile", [0.999, 0.9])
    def test_matches_per_week_helpers_bit_for_bit(self, seed, quantile):
        daily = generate_synthetic_daily(
            SynthConfig(n_weeks=60, seed=seed, break_weeks=(30,), level_shifts=(-1_000.0,))
        )
        cfg = FeatureConfig(extreme_quantile=quantile)
        panel = aggregate_weekly_national(daily, cfg)
        expected = helper_aggregation(daily, cfg)
        assert panel.column_names == NATIONAL_CLIMATE_COLUMNS
        for name in NATIONAL_CLIMATE_COLUMNS:
            np.testing.assert_array_equal(
                panel.column(name).view(np.int64), expected[name].view(np.int64), err_msg=name
            )

    def test_single_region_passthrough(self):
        rng = np.random.default_rng(99)
        daily = make_daily({"only": build_region(4, rng)})
        panel = aggregate_weekly_national(daily)
        weekly_precip = daily.column("only", "precip_mm").reshape(4, 7)
        assert_allclose(panel.column("precipitation"), weekly_precip.sum(axis=1))

    def test_extreme_quantile_uses_regional_history(self):
        # One region with a fat tail, one bone dry: only the wet region's
        # exceedances can contribute, judged against its own cutoff.
        precip_wet = np.zeros(28)
        precip_wet[5] = 80.0
        precip_wet[17] = 95.0
        daily = make_daily({
            "dry": make_region(28, precip_mm=0.0),
            "wet": make_region(28, precip_mm=precip_wet),
        })
        cfg = FeatureConfig(extreme_quantile=0.9)
        cutoff = float(np.quantile(precip_wet, 0.9))
        panel = aggregate_weekly_national(daily, cfg)
        expected = np.array(
            [
                np.sum(week[week > cutoff])
                for week in precip_wet.reshape(4, 7)
            ]
        )
        assert_allclose(panel.column("extreme_rainfall"), expected)

    def test_rejects_ragged_regions(self):
        rng = np.random.default_rng(5)
        daily = make_daily({"a": build_region(4, rng), "b": build_region(3, rng)})
        with pytest.raises(AlignmentError, match="different spans"):
            aggregate_weekly_national(daily)
        # Equal lengths on shifted calendars are different spans too.
        shifted = DailyClimate(("a", "b"), (MONDAY, MONDAY + dt.timedelta(days=7)),
                               (make_region(14), make_region(14)))
        with pytest.raises(AlignmentError, match="different spans"):
            aggregate_weekly_national(shifted)

    def test_rejects_non_monday_start(self):
        daily = make_daily({"a": make_region(7)}, first=dt.date(2016, 1, 5))
        with pytest.raises(AlignmentError, match="Monday"):
            aggregate_weekly_national(daily)

    def test_rejects_partial_week(self):
        daily = make_daily({"a": make_region(10)})
        with pytest.raises(AlignmentError, match="whole number of weeks"):
            aggregate_weekly_national(daily)

    def test_empty_input(self):
        with pytest.raises(InvalidInputError):
            aggregate_weekly_national(DailyClimate((), (), ()))


def test_regional_extreme_threshold_interpolates():
    history = np.arange(1001, dtype=float)
    assert_allclose(
        regional_extreme_threshold(history, FeatureConfig()), 999.0, rtol=1e-12
    )
