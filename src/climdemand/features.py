"""Weekly climate feature derivation and national aggregation.

A regional daily table (:class:`~climdemand.panel.DailyClimate`) is reduced
to one national weekly panel, each feature as one reduction over the
``(n_weeks, 7)`` day blocks of a region's columns.  Wind speed is derived
from the 10 m wind components before averaging.  Three features summarize
within-week structure: the count of wet days (daily precipitation
strictly above a fixed threshold), the total rainfall on days exceeding the
region's extreme quantile, and the population standard deviation of daily
temperature.  Intensive quantities are averaged across regions; precipitation
totals and extreme rainfall are summed, so they remain national amounts.
"""

from __future__ import annotations

import datetime as dt
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ._rng import quantile
from .errors import AlignmentError, ConfigError, InvalidInputError, ShapeError, real_problem
from .panel import DAILY_MEASUREMENTS, WEEK_DAYS, DailyClimate, PanelDataset, finite_array

#: Climate columns produced by :func:`aggregate_weekly_national`, in order.
NATIONAL_CLIMATE_COLUMNS = (
    "temperature",
    "wind_speed",
    "cloud_cover",
    "specific_humidity",
    "precipitation",
    "fwi",
    "temperature_sd",
    "extreme_rainfall",
    "wet_days",
)

# National aggregation rule: every column is averaged across regions except
# these two, which are extensive amounts and therefore summed.
_SUMMED_COLUMNS = frozenset({"precipitation", "extreme_rainfall"})


@dataclass(frozen=True)
class FeatureConfig:
    """Thresholds for the derived weekly features.

    Parameters
    ----------
    wet_day_threshold_mm : float
        A day is wet when its precipitation strictly exceeds this amount.
    extreme_quantile : float
        Per-region precipitation quantile above which a day counts as
        extreme rainfall.  Estimated from the region's full daily history
        with linear interpolation.
    """

    wet_day_threshold_mm: float = 1.0
    extreme_quantile: float = 0.999

    def __post_init__(self):
        intervals = {"wet_day_threshold_mm": "[0, inf)", "extreme_quantile": "(0, 1)"}
        problems = {
            f: p for f, span in intervals.items() if (p := real_problem(getattr(self, f), span))
        }
        if problems:
            raise ConfigError(problems)


def derive_wind_speed(u10, v10):
    """Wind speed from the zonal and meridional 10 m components.

    Accepts scalars or arrays; returns ``sqrt(u10**2 + v10**2)`` elementwise.
    """
    u = finite_array(u10, "wind component u10", np.ndim(u10))
    v = finite_array(v10, "wind component v10", np.ndim(v10))
    if u.shape != v.shape:
        raise ShapeError(f"wind components differ in shape: {u.shape} vs {v.shape}")
    speed = np.hypot(u, v)
    return float(speed) if speed.ndim == 0 else speed


def _seven_days(values, what: str, precipitation: bool = False) -> np.ndarray:
    arr = finite_array(values, f"{what}: daily values", max(np.ndim(values), 1))
    if arr.shape[-1] != WEEK_DAYS:
        raise ShapeError(f"{what} requires exactly {WEEK_DAYS} daily values, got shape {arr.shape}")
    if precipitation and np.any(arr < 0):
        raise InvalidInputError(f"{what}: precipitation must be non-negative")
    return arr


def _per_week(result: np.ndarray):
    """A Python scalar for one week, the array for a block of weeks."""
    return result.item() if result.ndim == 0 else result


def weekly_wet_days(daily_precip, cfg: FeatureConfig = FeatureConfig()):
    """Number of days in the week with precipitation strictly above threshold.

    A day exactly at the threshold is dry: the exceedance indicator is zero
    at zero argument.  Like every weekly feature, it takes one week of 7
    days (and returns a Python number) or a ``(..., 7)`` block of weeks
    (and returns an array of the leading shape).
    """
    precip = _seven_days(daily_precip, "weekly_wet_days", precipitation=True)
    return _per_week((precip > cfg.wet_day_threshold_mm).sum(axis=-1))


def weekly_extreme_rainfall(daily_precip, extreme_threshold_mm):
    """Total precipitation on days strictly exceeding the extreme threshold.

    For a block of weeks the threshold may be an array that broadcasts to
    the block's leading shape (else :class:`ShapeError`), such as one cutoff per region.
    """
    precip = _seven_days(daily_precip, "weekly_extreme_rainfall", precipitation=True)
    cutoff = finite_array(
        extreme_threshold_mm, "weekly_extreme_rainfall: threshold", np.ndim(extreme_threshold_mm)
    )
    try:
        cutoff = np.broadcast_to(cutoff, precip.shape[:-1])
    except ValueError:
        raise ShapeError(
            f"weekly_extreme_rainfall: threshold of shape {cutoff.shape} does not "
            f"broadcast to the block's leading shape {precip.shape[:-1]}"
        ) from None
    return _per_week(np.where(precip > cutoff[..., None], precip, 0.0).sum(axis=-1))


def weekly_temperature_sd(daily_temp):
    """Population standard deviation (divisor 7) of the week's daily temperature."""
    temp = _seven_days(daily_temp, "weekly_temperature_sd")
    return _per_week(np.std(temp, axis=-1))


def regional_extreme_threshold(daily_precip: Sequence[float], cfg: FeatureConfig) -> float:
    """Extreme-rainfall cutoff for one region from its full daily history."""
    precip = finite_array(daily_precip, "daily precipitation")
    if precip.size == 0:
        raise InvalidInputError("cannot take a quantile of an empty precipitation history")
    return float(quantile(precip, cfg.extreme_quantile))


def aggregate_weekly_national(
    daily: DailyClimate,
    cfg: FeatureConfig = FeatureConfig(),
) -> PanelDataset:
    """Reduce a regional daily table to the national weekly climate panel.

    Each feature is one reduction over the ``(n_weeks, 7)`` day blocks of
    every region at once; regions then combine in the sorted order of ids.

    Parameters
    ----------
    daily : DailyClimate
        Every region must cover the same span of whole weeks, starting on a
        Monday.
    cfg : FeatureConfig
        Thresholds for wet days and extreme rainfall.

    Returns
    -------
    PanelDataset
        Columns :data:`NATIONAL_CLIMATE_COLUMNS` on the common week axis.

    Raises
    ------
    AlignmentError
        If regions cover different spans, a span does not start on a Monday,
        or it does not consist of whole weeks.
    """
    if not daily.region_ids:
        raise InvalidInputError("no records to aggregate")
    spans = {
        region: (first, first + dt.timedelta(days=table.shape[1] - 1))
        for region, first, table in zip(daily.region_ids, daily.first_days, daily.values)
    }
    if len(set(spans.values())) != 1:
        detail = "; ".join(
            f"{region}: {first} to {last}"
            for region, (first, last) in sorted(spans.items())
        )
        raise AlignmentError(f"regions cover different spans ({detail})")
    first, last = next(iter(spans.values()))
    if first.weekday() != 0:
        raise AlignmentError(f"span must start on a Monday, got {first} ({first:%A})")
    n_days = (last - first).days + 1
    if n_days % WEEK_DAYS != 0:
        raise AlignmentError(
            f"span {first} to {last} is {n_days} days, not a whole number of weeks"
        )
    n_weeks = n_days // WEEK_DAYS
    week_starts = tuple(first + dt.timedelta(days=WEEK_DAYS * k) for k in range(n_weeks))

    regions = sorted(spans)
    days = np.stack([daily.values[daily.region_ids.index(r)] for r in regions])
    # One (regions, n_weeks, 7) block per measurement column.
    temp, u10, v10, precip, humidity, cloud, fwi = np.moveaxis(
        days.reshape(len(regions), len(DAILY_MEASUREMENTS), n_weeks, WEEK_DAYS), 1, 0
    )
    cutoffs = np.array([regional_extreme_threshold(p.ravel(), cfg) for p in precip])
    regional = (  # in NATIONAL_CLIMATE_COLUMNS order
        temp.mean(axis=-1),
        derive_wind_speed(u10, v10).mean(axis=-1),
        cloud.mean(axis=-1),
        humidity.mean(axis=-1),
        precip.sum(axis=-1),
        fwi.mean(axis=-1),
        weekly_temperature_sd(temp),
        weekly_extreme_rainfall(precip, cutoffs[:, None]),
        weekly_wet_days(precip, cfg).astype(float),
    )
    return PanelDataset(week_starts, {
        name: values.sum(axis=0) if name in _SUMMED_COLUMNS else values.mean(axis=0)
        for name, values in zip(NATIONAL_CLIMATE_COLUMNS, regional, strict=True)
    })
