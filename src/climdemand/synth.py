"""Synthetic climate and demand data with a known causal structure.

The generator produces a regional daily climate table and a weekly national
panel in which demand responds to lagged temperature with configurable
negative coefficients, on top of its own autoregression, an annual seasonal
cycle, and permanent level shifts at configured break weeks.  Because the
coupling, the breaks, and every noise scale are explicit, the pipeline's
causality and forecasting claims can be tested against a known truth.

Magnitudes are chosen so that the weekly national aggregates land in
realistic ranges for a mid-latitude country: temperature averaging around
15.6 deg C with an annual swing of roughly 12 degrees, demand in the low
hundreds of thousands of packages per week, and the remaining climate
columns within everyday meteorological bounds.
"""

from __future__ import annotations

import dataclasses
import datetime as dt
import math

import numpy as np

from .errors import ConfigError, integer_problem
from .features import FeatureConfig, aggregate_weekly_national
from .panel import DailyClimate, PanelDataset
from ._rng import seed_problems, substream

__all__ = [
    "SynthConfig",
    "generate_synthetic_daily",
    "generate_synthetic_panel",
    "synthetic_panel_from_daily",
]

_DAYS_PER_WEEK = 7
_ANNUAL_PERIOD_DAYS = 365.25
# Day offset of the warm-season temperature peak, counted from the first
# generated Monday; 197 days after an early-January start lands mid-July.
_SUMMER_PEAK_DAY = 197.0
# Demand deviations are taken around this reference temperature so the
# coupling term has mean near zero and the base level keeps its meaning.
_TEMP_REFERENCE_C = 15.6


@dataclasses.dataclass(frozen=True)
class SynthConfig:
    """Knobs of the synthetic system.

    Parameters
    ----------
    n_weeks : int
        Length of the weekly panel; the daily table spans ``7 * n_weeks``
        days starting at ``start_date``.
    start_date : datetime.date
        First day of the first week; must be a Monday.
    base_demand : float
        Demand level before seasonality, shifts, and coupling.
    seasonal_amplitude : float
        Amplitude of the intrinsic annual demand cycle, in packages.
    seasonal_phase_weeks : float
        Week of the year at which the intrinsic cycle peaks.
    demand_lag_coefficients : tuple of float
        Autoregressive weights on past demand deviations; their absolute
        sum must stay below one so the process is stable.
    temperature_coupling : tuple of float
        Weights on lagged national temperature deviations.  Each must be
        less than or equal to zero: colder weeks raise demand.
    break_weeks, level_shifts : tuple of int, tuple of float
        Weeks at which the demand level permanently jumps and by how much.
    demand_noise_sd, temperature_noise_sd : float
        Innovation scales of the weekly demand noise and the daily
        regional temperature noise.
    temperature_noise_persistence : float
        Daily autoregressive coefficient of the temperature anomaly; higher
        values give longer-lived warm and cold spells.
    seed : int
        Master seed; every draw comes from named substreams of it.
    """

    n_weeks: int = 390
    start_date: dt.date = dt.date(2016, 1, 4)
    base_demand: float = 200_000.0
    seasonal_amplitude: float = 24_000.0
    seasonal_phase_weeks: float = 2.0
    demand_lag_coefficients: tuple[float, ...] = (0.45, 0.10)
    temperature_coupling: tuple[float, ...] = (-2_500.0, -1_000.0)
    break_weeks: tuple[int, ...] = (222, 298)
    level_shifts: tuple[float, ...] = (-32_000.0, 18_000.0)
    demand_noise_sd: float = 12_000.0
    temperature_noise_sd: float = 1.8
    temperature_noise_persistence: float = 0.85
    seed: int = 0

    def __post_init__(self):
        problems: dict[str, str] = {}
        if problem := integer_problem(self.n_weeks, 10):
            problems["n_weeks"] = problem
        if not isinstance(self.start_date, dt.date):
            problems["start_date"] = "must be a datetime.date"
        elif self.start_date.weekday() != 0:
            problems["start_date"] = (
                f"must be a Monday, got {self.start_date} "
                f"({self.start_date:%A})"
            )
        for field in (
            "base_demand",
            "seasonal_amplitude",
            "seasonal_phase_weeks",
        ):
            value = getattr(self, field)
            if not (np.isscalar(value) and math.isfinite(value)):
                problems[field] = f"must be a finite number, got {value!r}"
        if self.seasonal_amplitude < 0:
            problems["seasonal_amplitude"] = (
                f"must be non-negative, got {self.seasonal_amplitude!r}"
            )
        ar = self.demand_lag_coefficients
        if not all(math.isfinite(a) for a in ar):
            problems["demand_lag_coefficients"] = "must be finite numbers"
        elif sum(abs(a) for a in ar) >= 1.0:
            problems["demand_lag_coefficients"] = (
                "absolute values must sum to less than 1 for a stable "
                f"demand process, got {ar!r}"
            )
        coupling = self.temperature_coupling
        if not all(math.isfinite(b) for b in coupling):
            problems["temperature_coupling"] = "must be finite numbers"
        elif any(b > 0 for b in coupling):
            problems["temperature_coupling"] = (
                f"coefficients must be <= 0 (cold raises demand), got {coupling!r}"
            )
        if len(self.break_weeks) != len(self.level_shifts):
            problems["level_shifts"] = (
                f"need one shift per break week, got {len(self.level_shifts)} "
                f"shifts for {len(self.break_weeks)} breaks"
            )
        elif "n_weeks" not in problems:
            ordered = all(
                a < b for a, b in zip(self.break_weeks, self.break_weeks[1:])
            )
            in_range = all(
                not integer_problem(w, 1) and w < self.n_weeks
                for w in self.break_weeks
            )
            if not (ordered and in_range):
                problems["break_weeks"] = (
                    "must be strictly increasing integers inside "
                    f"(0, {self.n_weeks}), got {self.break_weeks!r}"
                )
            if not all(math.isfinite(s) for s in self.level_shifts):
                problems["level_shifts"] = "must be finite numbers"
        for field in ("demand_noise_sd", "temperature_noise_sd"):
            value = getattr(self, field)
            if not (np.isscalar(value) and math.isfinite(value) and value >= 0):
                problems[field] = (
                    f"must be a finite non-negative number, got {value!r}"
                )
        phi = self.temperature_noise_persistence
        if not (np.isscalar(phi) and math.isfinite(phi) and 0.0 <= phi < 1.0):
            problems["temperature_noise_persistence"] = (
                f"must lie in [0, 1), got {phi!r}"
            )
        problems.update(seed_problems(self.seed))
        if problems:
            raise ConfigError(problems)


@dataclasses.dataclass(frozen=True)
class _RegionClimate:
    """Fixed per-region parameters of the daily weather processes."""

    name: str
    temp_mean: float
    temp_amplitude: float
    wet_probability: float
    wind_east: float
    wind_north: float


_REGIONS = (
    _RegionClimate("north", 14.0, 11.6, 0.27, 1.05, 1.65, ),
    _RegionClimate("south", 17.2, 10.4, 0.17, 1.30, 1.40, ),
)


def _ar1(eps: np.ndarray, phi: float) -> np.ndarray:
    """AR(1) path ``x_t = e_t + phi * x_{t-1}`` from ``x_{-1} = 0``: the bits
    of ``scipy.signal.lfilter([1.0], [1.0, -phi], eps)`` without importing
    ``scipy.signal``, the package's slowest import."""
    out = []
    prev = 0.0
    for e in eps.tolist():
        prev = e + phi * prev
        out.append(prev)
    return np.array(out, dtype=float)


def _region_days(region: _RegionClimate, cfg: SynthConfig, index: int) -> np.ndarray:
    """One region's ``(7, n_days)`` measurement table, rows in daily CSV order."""
    n_days = _DAYS_PER_WEEK * cfg.n_weeks
    rng = substream(cfg.seed, "synth-climate", index)
    day = np.arange(n_days, dtype=float)
    angle = 2.0 * np.pi * (day - _SUMMER_PEAK_DAY) / _ANNUAL_PERIOD_DAYS
    annual = np.cos(angle)

    temp = (
        region.temp_mean
        + region.temp_amplitude * annual
        + _ar1(
            rng.normal(0.0, cfg.temperature_noise_sd, n_days),
            cfg.temperature_noise_persistence,
        )
    )
    u10 = region.wind_east + _ar1(rng.normal(0.0, 0.75, n_days), 0.5)
    v10 = region.wind_north + _ar1(rng.normal(0.0, 0.75, n_days), 0.5)
    cloud = np.clip(
        0.42 - 0.24 * annual + rng.normal(0.0, 0.10, n_days), 0.01, 0.97
    )
    # Wet days are more likely in winter; amounts are heavy-tailed so the
    # extreme-rainfall feature sees occasional large events.
    wet_chance = np.clip(region.wet_probability - 0.13 * annual, 0.02, 0.95)
    wet = rng.uniform(0.0, 1.0, n_days) < wet_chance
    precip = np.where(wet, rng.gamma(0.65, 11.0, n_days), 0.0)
    humidity = np.clip(
        4.0 + 0.24 * temp + rng.normal(0.0, 0.5, n_days), 0.3, None
    )
    fwi = 0.04 * np.clip(temp, 0.0, None) ** 2 * np.exp(
        rng.normal(0.0, 0.3, n_days)
    )

    return np.stack([temp, u10, v10, precip, humidity, cloud, fwi])


def generate_synthetic_daily(cfg: SynthConfig = SynthConfig()) -> DailyClimate:
    """Daily climate table of every synthetic region, each starting on
    ``cfg.start_date``.

    The same (seed, region) pair always produces the same values, whatever
    order regions are generated in.
    """
    return DailyClimate(
        tuple(region.name for region in _REGIONS),
        (cfg.start_date,) * len(_REGIONS),
        tuple(_region_days(region, cfg, index) for index, region in enumerate(_REGIONS)),
    )


def _demand_series(cfg: SynthConfig, temperature: np.ndarray) -> np.ndarray:
    n = cfg.n_weeks
    rng = substream(cfg.seed, "synth-demand")
    week = np.arange(n, dtype=float)

    level = np.full(n, cfg.base_demand)
    for break_week, shift in zip(cfg.break_weeks, cfg.level_shifts):
        level[break_week:] += shift
    seasonal = cfg.seasonal_amplitude * np.cos(
        2.0 * np.pi * (week - cfg.seasonal_phase_weeks) / 52.0
    )
    mean_path = level + seasonal

    temp_dev = temperature - _TEMP_REFERENCE_C
    noise = rng.normal(0.0, cfg.demand_noise_sd, n)

    demand = np.empty(n)
    deviations = np.zeros(n)
    for t in range(n):
        value = noise[t]
        for lag, a in enumerate(cfg.demand_lag_coefficients, start=1):
            if t - lag >= 0:
                value += a * deviations[t - lag]
        for lag, b in enumerate(cfg.temperature_coupling, start=1):
            if t - lag >= 0:
                value += b * temp_dev[t - lag]
        deviations[t] = value
        demand[t] = mean_path[t] + value
    # Demand counts packages; keep the series positive even under extreme
    # configurations so ratio metrics stay defined.
    return np.maximum(demand, 1.0)


def generate_synthetic_panel(cfg: SynthConfig = SynthConfig()) -> PanelDataset:
    """Weekly national panel with demand coupled to lagged temperature.

    The climate block is the weekly aggregation of the synthetic daily
    table; demand is then generated on top of the aggregated temperature,
    so the panel is exactly what the feature pipeline would produce from
    the daily files plus a demand column with known dynamics.
    """
    return synthetic_panel_from_daily(cfg, generate_synthetic_daily(cfg))


def synthetic_panel_from_daily(cfg: SynthConfig, daily: DailyClimate) -> PanelDataset:
    """The panel of :func:`generate_synthetic_panel`, built from
    ``daily = generate_synthetic_daily(cfg)`` already in hand."""
    climate = aggregate_weekly_national(daily, FeatureConfig())
    demand = _demand_series(cfg, climate.column("temperature"))
    columns = {"drug_demand": demand}
    columns.update({name: climate.column(name) for name in climate.column_names})
    return PanelDataset(climate.week_starts, columns)
