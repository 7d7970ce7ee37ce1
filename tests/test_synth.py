import dataclasses
import datetime as dt
import os
import subprocess
import sys

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

import climdemand
from climdemand.errors import ConfigError
from climdemand.features import NATIONAL_CLIMATE_COLUMNS
from climdemand.hpfilter import hp_cycle, seasonal_adjust
from climdemand.metrics import SplitSpec, evaluate_forecast, holdout_split
from climdemand.spectral import GcBootstrapConfig, unconditional_gc_spectrum
from climdemand.synth import (
    SynthConfig,
    _ar1,
    generate_synthetic_daily,
    generate_synthetic_panel,
)
from climdemand.varx import build_exogenous, fit_varx, forecast_recursive


def mean_demand_path(cfg):
    """Closed-form demand path when noise and coupling are switched off."""
    week = np.arange(cfg.n_weeks, dtype=float)
    level = np.full(cfg.n_weeks, cfg.base_demand)
    for break_week, shift in zip(cfg.break_weeks, cfg.level_shifts):
        level[break_week:] += shift
    seasonal = cfg.seasonal_amplitude * np.cos(
        2.0 * np.pi * (week - cfg.seasonal_phase_weeks) / 52.0
    )
    return level + seasonal


class TestConfigValidation:
    def test_defaults_are_valid(self):
        SynthConfig()

    def test_start_date_must_be_monday(self):
        with pytest.raises(ConfigError) as excinfo:
            SynthConfig(start_date=dt.date(2016, 1, 5))
        assert "start_date" in excinfo.value.fields

    def test_unstable_lag_coefficients(self):
        with pytest.raises(ConfigError) as excinfo:
            SynthConfig(demand_lag_coefficients=(0.7, 0.4))
        assert "demand_lag_coefficients" in excinfo.value.fields

    def test_positive_coupling_rejected(self):
        with pytest.raises(ConfigError) as excinfo:
            SynthConfig(temperature_coupling=(0.5,))
        assert "temperature_coupling" in excinfo.value.fields

    def test_breaks_and_shifts_must_pair_up(self):
        with pytest.raises(ConfigError) as excinfo:
            SynthConfig(break_weeks=(100, 200), level_shifts=(-1000.0,))
        assert "level_shifts" in excinfo.value.fields

    def test_breaks_must_be_increasing_and_interior(self):
        for breaks in [(200, 100), (0, 100), (100, 390)]:
            with pytest.raises(ConfigError) as excinfo:
                SynthConfig(break_weeks=breaks, level_shifts=(-1.0, 1.0))
            assert "break_weeks" in excinfo.value.fields

    def test_persistence_range(self):
        for phi in (-0.1, 1.0):
            with pytest.raises(ConfigError) as excinfo:
                SynthConfig(temperature_noise_persistence=phi)
            assert "temperature_noise_persistence" in excinfo.value.fields

    def test_negative_noise_rejected(self):
        with pytest.raises(ConfigError) as excinfo:
            SynthConfig(demand_noise_sd=-1.0)
        assert "demand_noise_sd" in excinfo.value.fields

    def test_tuple_fields_take_tuples(self):
        for field in ("demand_lag_coefficients", "temperature_coupling", "level_shifts"):
            with pytest.raises(ConfigError) as excinfo:
                SynthConfig(**{field: -0.5})
            assert excinfo.value.fields == {field: "must be a tuple of numbers, got -0.5"}
        SynthConfig(demand_lag_coefficients=[0.4], temperature_coupling=[-1.0])

    def test_problems_are_collected(self):
        with pytest.raises(ConfigError) as excinfo:
            SynthConfig(n_weeks=4, demand_noise_sd=-1.0, seed=-3)
        assert {"n_weeks", "demand_noise_sd", "seed"} <= set(excinfo.value.fields)


class TestDailyRecords:
    def test_two_regions_full_span(self):
        cfg = SynthConfig(n_weeks=20, break_weeks=(10,), level_shifts=(-5_000.0,))
        daily = generate_synthetic_daily(cfg)
        assert daily.region_ids == ("north", "south")
        assert daily.first_days == (cfg.start_date, cfg.start_date)
        assert [table.shape for table in daily.values] == [(7, 20 * 7)] * 2

    def test_records_are_deterministic(self):
        cfg = SynthConfig(n_weeks=15, seed=9, break_weeks=(8,), level_shifts=(2_000.0,))
        assert generate_synthetic_daily(cfg).equals(generate_synthetic_daily(cfg))
        other = dataclasses.replace(cfg, seed=10)
        assert not generate_synthetic_daily(cfg).equals(generate_synthetic_daily(other))

    def test_fields_within_physical_bounds(self):
        daily = generate_synthetic_daily(SynthConfig(n_weeks=60, break_weeks=(30,), level_shifts=(-1_000.0,)))
        cloud = np.concatenate([daily.column(r, "cloud_cover") for r in daily.region_ids])
        precip = np.concatenate([daily.column(r, "precip_mm") for r in daily.region_ids])
        fwi = np.concatenate([daily.column(r, "fwi") for r in daily.region_ids])
        assert np.all((cloud >= 0.0) & (cloud <= 1.0))
        assert np.all(precip >= 0.0)
        assert np.all(fwi >= 0.0)

    @pytest.mark.parametrize("phi", [0.3, 0.7, 0.93, -0.5])
    def test_ar1_matches_lfilter_bits(self, phi):
        from scipy.signal import lfilter

        eps = np.random.default_rng(5).normal(size=5000)
        assert_array_equal(_ar1(eps, phi), lfilter([1.0], [1.0, -phi], eps))

    def test_import_leaves_out_scipy_signal_and_stats(self):
        # scipy.signal costs about a second of import time and scipy.sparse
        # about a third of one; the package and its CLI need no scipy module.
        code = (
            "import sys, climdemand, climdemand.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
        )
        src = os.path.dirname(os.path.dirname(os.path.abspath(climdemand.__file__)))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src, *filter(None, [os.environ.get("PYTHONPATH")])]
        ))
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
        )
        assert out.stdout.strip() == "[]"

    def test_regions_have_distinct_climates(self):
        daily = generate_synthetic_daily(SynthConfig(n_weeks=104, break_weeks=(52,), level_shifts=(-1_000.0,)))
        north = daily.column("north", "temp_c")
        south = daily.column("south", "temp_c")
        assert south.mean() > north.mean() + 1.0


class TestPanel:
    def test_columns_and_axis(self):
        cfg = SynthConfig()
        panel = generate_synthetic_panel(cfg)
        assert panel.column_names == ("drug_demand", *NATIONAL_CLIMATE_COLUMNS)
        assert panel.n_weeks == cfg.n_weeks
        assert panel.week_starts[0] == cfg.start_date
        assert all(d.weekday() == 0 for d in panel.week_starts)
        gaps = {
            (b - a).days
            for a, b in zip(panel.week_starts, panel.week_starts[1:])
        }
        assert gaps == {7}

    def test_bit_identical_for_fixed_seed(self):
        first = generate_synthetic_panel(SynthConfig(seed=5))
        second = generate_synthetic_panel(SynthConfig(seed=5))
        for name in first.column_names:
            assert_array_equal(first.column(name), second.column(name))

    def test_seeds_differ(self):
        a = generate_synthetic_panel(SynthConfig(seed=0, n_weeks=60, break_weeks=(30,), level_shifts=(-1_000.0,)))
        b = generate_synthetic_panel(SynthConfig(seed=1, n_weeks=60, break_weeks=(30,), level_shifts=(-1_000.0,)))
        assert not np.array_equal(a.column("drug_demand"), b.column("drug_demand"))

    def test_representative_magnitudes(self):
        panel = generate_synthetic_panel(SynthConfig())
        demand = panel.column("drug_demand")
        temp = panel.column("temperature")
        assert np.all(demand > 0)
        assert 150_000 < demand.mean() < 230_000
        assert 10.0 < temp.mean() < 20.0
        assert temp.min() > -10.0 and temp.max() < 40.0
        assert 1.0 < panel.column("wind_speed").mean() < 4.0
        assert 0.25 < panel.column("cloud_cover").mean() < 0.6
        assert 5.0 < panel.column("specific_humidity").mean() < 10.0
        assert 0.5 < panel.column("wet_days").mean() < 4.0
        assert np.all(panel.column("precipitation") >= 0.0)

    def test_level_shift_moves_the_mean(self):
        cfg = SynthConfig()
        demand = generate_synthetic_panel(cfg).column("drug_demand")
        before = demand[cfg.break_weeks[0] - 52 : cfg.break_weeks[0]].mean()
        after = demand[cfg.break_weeks[0] : cfg.break_weeks[0] + 52].mean()
        # The first configured shift is -32,000; full-year windows average
        # out the seasonal cycle, so most of the shift must show up.
        assert after - before < -20_000

    def test_cold_weeks_raise_demand(self):
        panel = generate_synthetic_panel(SynthConfig())
        demand = panel.column("drug_demand")
        temp = panel.column("temperature")
        assert np.corrcoef(demand[1:], temp[:-1])[0, 1] < -0.8


class TestNoiselessWorld:
    def test_demand_equals_closed_form(self):
        cfg = SynthConfig(demand_noise_sd=0.0, temperature_coupling=(0.0, 0.0))
        demand = generate_synthetic_panel(cfg).column("drug_demand")
        assert_allclose(demand, mean_demand_path(cfg), rtol=0, atol=1e-9)

    def test_deterministic_demand_is_easy_to_forecast(self):
        cfg = SynthConfig(demand_noise_sd=0.0, temperature_coupling=(0.0, 0.0))
        panel = generate_synthetic_panel(cfg)
        train, test = holdout_split(panel, SplitSpec())
        y_train = train.column("drug_demand")
        design = build_exogenous(panel.week_starts, harmonics=3)
        model = fit_varx(y_train[:, None], design, max_order=4, names=("drug_demand",))
        predicted = forecast_recursive(model, 52, design.values[338:])[:, 0]
        report = evaluate_forecast(test.column("drug_demand"), predicted, y_train)
        assert report.mase < 0.5


def deseasonalized_cycle(panel, name):
    return seasonal_adjust(hp_cycle(panel.series(name))).values


class TestCouplingDetection:
    # A reduced-persistence variant keeps the small-block null resampling
    # well calibrated at this sample size; the coupling channel itself is
    # the default one.
    VARIANT = {
        "level_shifts": (0.0, 0.0),
        "demand_lag_coefficients": (0.30, 0.05),
        "temperature_noise_persistence": 0.7,
    }

    def spectrum(self, cfg, seed):
        panel = generate_synthetic_panel(cfg)
        temp = deseasonalized_cycle(panel, "temperature")
        demand = deseasonalized_cycle(panel, "drug_demand")
        boot = GcBootstrapConfig(n_replicates=500, seed=seed)
        result = unconditional_gc_spectrum(temp, demand, boot, threads=4)
        return int(result.significant_bonferroni.sum()) > 0

    def test_coupled_detected_uncoupled_not(self):
        detected = 0
        false_alarms = 0
        for seed in range(20):
            coupled = SynthConfig(seed=seed, **self.VARIANT)
            uncoupled = SynthConfig(
                seed=seed, temperature_coupling=(0.0, 0.0), **self.VARIANT
            )
            detected += self.spectrum(coupled, seed)
            false_alarms += self.spectrum(uncoupled, seed)
        assert detected >= 18
        assert false_alarms <= 2
