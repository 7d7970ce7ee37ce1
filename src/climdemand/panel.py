"""Weekly panel data model and CSV ingestion.

The toolkit operates on two shapes of data, both columnar: regional *daily*
climate measurements (:class:`DailyClimate`: per region, a first day and one
array per measurement over gap-free days) and the national *weekly* panel
that the statistical modules consume.  Both have a canonical CSV form; the
daily one has a row per region and calendar day.  Ingestion is strict:
malformed cells, calendar gaps and duplicate keys are rejected with the
offending line number rather than repaired or imputed.
"""

from __future__ import annotations

import csv
import datetime as dt
import itertools
import math
import os
import tempfile
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import (
    AlignmentError,
    IngestionError,
    InvalidInputError,
    ShapeError,
    UnknownColumnError,
)

#: Header of the regional daily climate CSV, in canonical column order.
DAILY_CSV_HEADER = (
    "region_id",
    "date",
    "temp_c",
    "u10_ms",
    "v10_ms",
    "precip_mm",
    "spec_humidity_gkg",
    "cloud_cover",
    "fwi",
)

#: The daily CSV's measurement columns: the rows of each region's
#: :class:`DailyClimate` table.
DAILY_MEASUREMENTS = DAILY_CSV_HEADER[2:]

#: Canonical weekly panel columns (demand first when present).
PANEL_COLUMNS = (
    "drug_demand",
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

WEEK_DAYS = 7


def format_float(x: float) -> str:
    """Fixed 10-significant-digit rendering used by every CSV writer.

    The same float always renders to the same text, so emitted files are
    byte-stable, and text produced here parses back to a float that renders
    identically (the representation is a fixed point of write-then-read).
    """
    return "%.10g" % float(x)


def finite_array(values, what: str, ndim: int = 1) -> np.ndarray:
    """``values`` (array-like or :class:`WeeklySeries`) as a finite float
    array of ``ndim`` dimensions; at ``ndim=2`` a 1-D input is one column.

    A wrong shape is a :class:`ShapeError`; a non-finite value an
    :class:`InvalidInputError`, ``"{what} must be finite"`` and the first
    offending position.
    """
    if isinstance(values, WeeklySeries):
        values = values.values
    arr = np.asarray(values, dtype=float)
    if ndim == 2 and arr.ndim == 1:
        arr = arr[:, None]
    if arr.ndim != ndim:
        raise ShapeError(f"{what} must be {ndim}-dimensional, got shape {arr.shape}")
    finite = np.isfinite(arr)
    if not finite.all():
        bad = np.unravel_index(np.argmin(finite), arr.shape)
        position = f" (position {', '.join(map(str, bad))})" if bad else ""
        raise InvalidInputError(f"{what} must be finite{position}")
    return arr


def _check_week_axis(week_starts: Sequence[dt.date], what: str) -> tuple[dt.date, ...]:
    weeks = tuple(week_starts)
    for w in weeks:
        if not isinstance(w, dt.date) or isinstance(w, dt.datetime):
            raise InvalidInputError(f"{what}: week starts must be datetime.date values")
    for a, b in zip(weeks, weeks[1:]):
        if (b - a).days != WEEK_DAYS:
            raise AlignmentError(
                f"{what}: week starts must be exactly 7 days apart, found {a} -> {b}"
            )
    return weeks


def _day_problem(region: str, day: dt.date, values: list[float]) -> str | None:
    """The first rule that one region-day's measurements, in
    :data:`DAILY_MEASUREMENTS` order, break, as an error message."""
    _, _, _, precip, _, cloud, fwi = values
    if not all(map(math.isfinite, values)):
        problem = "non-finite measurement"
    elif not 0.0 <= cloud <= 1.0:
        problem = f"cloud_cover must lie in [0, 1], got {cloud!r}"
    elif precip < 0.0:
        problem = f"precip must be non-negative, got {precip!r}"
    elif fwi < 0.0:
        problem = f"fwi must be non-negative, got {fwi!r}"
    else:
        return None
    return f"{problem} for region {region} on {day}"


@dataclass(frozen=True)
class DailyClimate:
    """Regional daily climate measurements, one gap-free calendar per region.

    Region ``region_ids[r]`` covers consecutive days from ``first_days[r]``:
    ``values[r]`` is a read-only ``(7, n_days)`` float array whose rows are
    the daily CSV's :data:`DAILY_MEASUREMENTS` in its units (deg C, m/s, mm,
    g/kg, fraction of the sky, fire weather index).  Regions may cover
    different spans; aggregation requires equal ones.
    """

    region_ids: tuple[str, ...]
    first_days: tuple[dt.date, ...]
    values: tuple[np.ndarray, ...]

    def __post_init__(self):
        regions, firsts = tuple(self.region_ids), tuple(self.first_days)
        if not len(regions) == len(firsts) == len(self.values) == len(set(regions)):
            raise ShapeError("need one first day and one value table per distinct region id")
        tables = []
        for region, first, columns in zip(regions, firsts, self.values):
            if not isinstance(region, str) or not region:
                raise InvalidInputError("region_id must be a non-empty string")
            if not isinstance(first, dt.date) or isinstance(first, dt.datetime):
                raise InvalidInputError(f"region {region!r}: first day must be a datetime.date")
            columns = [np.asarray(c, dtype=float) for c in columns]
            lengths = {c.size if c.ndim == 1 else 0 for c in columns}
            if len(columns) != len(DAILY_MEASUREMENTS) or len(lengths) != 1 or 0 in lengths:
                raise ShapeError(f"region {region!r} needs 7 equal-length, non-empty 1-D columns")
            table = np.stack(columns)
            _, _, _, precip, _, cloud, fwi = table
            valid = (cloud >= 0.0) & (cloud <= 1.0) & (precip >= 0.0) & (fwi >= 0.0)
            bad = ~(np.isfinite(table).all(axis=0) & valid)
            if bad.any():
                d = int(np.argmax(bad))
                day = first + dt.timedelta(days=d)
                raise InvalidInputError(_day_problem(region, day, table[:, d].tolist()))
            table.flags.writeable = False
            tables.append(table)
        object.__setattr__(self, "region_ids", regions)
        object.__setattr__(self, "first_days", firsts)
        object.__setattr__(self, "values", tuple(tables))

    def column(self, region: str, name: str) -> np.ndarray:
        """One region's daily values of one :data:`DAILY_MEASUREMENTS` column."""
        if region not in self.region_ids or name not in DAILY_MEASUREMENTS:
            raise InvalidInputError(f"no column {name!r} for region {region!r}")
        return self.values[self.region_ids.index(region)][DAILY_MEASUREMENTS.index(name)]

    def equals(self, other: "DailyClimate") -> bool:
        return (
            self.region_ids == other.region_ids
            and self.first_days == other.first_days
            and all(np.array_equal(a, b) for a, b in zip(self.values, other.values))
        )


@dataclass(frozen=True)
class WeeklySeries:
    """A named weekly series on a contiguous Monday-indexed time axis."""

    name: str
    week_starts: tuple[dt.date, ...]
    values: np.ndarray

    def __post_init__(self):
        weeks = _check_week_axis(self.week_starts, f"series {self.name!r}")
        vals = finite_array(self.values, f"series {self.name!r} values")
        if len(weeks) != vals.size:
            raise ShapeError(
                f"series {self.name!r}: {len(weeks)} week starts but {vals.size} values"
            )
        object.__setattr__(self, "week_starts", weeks)
        vals = vals.copy()
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)

    def __len__(self) -> int:
        return self.values.size


@dataclass(frozen=True)
class PanelDataset:
    """National weekly panel: a shared week axis plus named value columns."""

    week_starts: tuple[dt.date, ...]
    columns: dict[str, np.ndarray]

    def __post_init__(self):
        weeks = _check_week_axis(self.week_starts, "panel")
        if not self.columns:
            raise InvalidInputError("panel must have at least one column")
        frozen: dict[str, np.ndarray] = {}
        for name, values in self.columns.items():
            vals = finite_array(values, f"panel column {name!r}")
            if vals.size != len(weeks):
                raise ShapeError(
                    f"panel column {name!r} has {vals.size} values "
                    f"for {len(weeks)} weeks"
                )
            vals = vals.copy()
            vals.flags.writeable = False
            frozen[name] = vals
        object.__setattr__(self, "week_starts", weeks)
        object.__setattr__(self, "columns", frozen)

    @property
    def n_weeks(self) -> int:
        return len(self.week_starts)

    @property
    def column_names(self) -> tuple[str, ...]:
        return tuple(self.columns)

    def column(self, name: str) -> np.ndarray:
        if name not in self.columns:
            raise UnknownColumnError([name], self.column_names)
        return self.columns[name]

    def series(self, name: str) -> WeeklySeries:
        return WeeklySeries(name, self.week_starts, self.column(name))

    def matrix(self, names: Sequence[str]) -> np.ndarray:
        """Column-stack the named columns into a (n_weeks, len(names)) array."""
        return np.column_stack([self.column(n) for n in names])

    def select(self, names: Sequence[str]) -> "PanelDataset":
        return PanelDataset(self.week_starts, {n: self.column(n) for n in names})

    def slice_weeks(self, start: int, stop: int) -> "PanelDataset":
        """Return the sub-panel for week positions [start, stop)."""
        if not 0 <= start < stop <= self.n_weeks:
            raise ShapeError(
                f"week slice [{start}, {stop}) out of range for {self.n_weeks} weeks"
            )
        return PanelDataset(
            self.week_starts[start:stop],
            {n: v[start:stop] for n, v in self.columns.items()},
        )

    def equals(self, other: "PanelDataset") -> bool:
        return (
            self.week_starts == other.week_starts
            and self.column_names == other.column_names
            and all(
                np.array_equal(self.columns[n], other.columns[n])
                for n in self.columns
            )
        )


def _atomic_write_text(path: str, text: str) -> None:
    """Write ``text`` to ``path`` via a temp file in the same directory."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix=".part")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_panel_csv(panel: PanelDataset, path: str) -> None:
    """Serialize a panel to CSV (``week_start`` first, 10 significant digits)."""
    lines = ["week_start," + ",".join(panel.column_names)]
    cols = [panel.columns[n] for n in panel.column_names]
    for i, week in enumerate(panel.week_starts):
        lines.append(week.isoformat() + "," + ",".join(format_float(c[i]) for c in cols))
    _atomic_write_text(path, "\n".join(lines) + "\n")


def _parse_date(cell: str, line: int) -> dt.date:
    try:
        return dt.date.fromisoformat(cell)
    except ValueError:
        raise IngestionError(f"unparseable ISO date {cell!r}", line) from None


def _parse_float(cell: str, column: str, line: int) -> float:
    try:
        value = float(cell)
    except ValueError:
        raise IngestionError(f"unparseable number {cell!r} in column {column!r}", line) from None
    if not math.isfinite(value):
        raise IngestionError(f"non-finite value {cell!r} in column {column!r}", line)
    return value


def read_panel_csv(path: str) -> PanelDataset:
    """Ingest a weekly panel CSV.

    The header must start with ``week_start``; week starts must be ISO-dated
    Mondays exactly seven days apart.  Any gap, duplicate column, ragged row
    or malformed cell raises :class:`IngestionError` with the line number.
    """
    with open(path, "r", encoding="utf-8", newline="") as handle:
        rows = list(csv.reader(handle))
    if not rows:
        raise IngestionError("empty file: no header row", 1)
    header = rows[0]
    if not header or header[0] != "week_start":
        raise IngestionError("header must start with 'week_start'", 1)
    names = header[1:]
    if not names:
        raise IngestionError("panel CSV must have at least one value column", 1)
    if len(set(names)) != len(names):
        dupes = sorted({n for n in names if names.count(n) > 1})
        raise IngestionError(f"duplicate column names: {', '.join(dupes)}", 1)

    weeks: list[dt.date] = []
    data: list[list[float]] = [[] for _ in names]
    for offset, row in enumerate(rows[1:]):
        line = offset + 2
        if len(row) != len(names) + 1:
            raise IngestionError(
                f"expected {len(names) + 1} cells, found {len(row)}", line
            )
        week = _parse_date(row[0], line)
        if week.weekday() != 0:
            raise IngestionError(f"week_start {week} is not a Monday", line)
        if weeks:
            expected = weeks[-1] + dt.timedelta(days=WEEK_DAYS)
            if week != expected:
                raise IngestionError(
                    f"gap in week axis: expected week {expected}, found {week}", line
                )
        weeks.append(week)
        for j, cell in enumerate(row[1:]):
            data[j].append(_parse_float(cell, names[j], line))
    if not weeks:
        raise IngestionError("no data rows", 1)
    return PanelDataset(
        tuple(weeks), {n: np.asarray(v, dtype=float) for n, v in zip(names, data)}
    )


def read_daily_csv(path: str) -> DailyClimate:
    """Ingest a regional daily climate CSV.

    Rows are checked in file order (header, cell count, ISO date, one row
    per region and day, finite numbers, :class:`DailyClimate`'s domains);
    then each region's days, in date order and regions in the order of their
    first row, must form a gap-free calendar.  Errors carry line numbers.
    """
    with open(path, "r", encoding="utf-8", newline="") as handle:
        rows = list(csv.reader(handle))
    if not rows:
        raise IngestionError("empty file: no header row", 1)
    if tuple(rows[0]) != DAILY_CSV_HEADER:
        raise IngestionError(
            "unexpected header; expected " + ",".join(DAILY_CSV_HEADER), 1
        )
    by_region: dict[str, dict[dt.date, tuple[int, list[float]]]] = {}
    for offset, row in enumerate(rows[1:]):
        line = offset + 2
        if len(row) != len(DAILY_CSV_HEADER):
            raise IngestionError(
                f"expected {len(DAILY_CSV_HEADER)} cells, found {len(row)}", line
            )
        region = row[0]
        date = _parse_date(row[1], line)
        days = by_region.setdefault(region, {})
        if date in days:
            raise IngestionError(
                f"duplicate record for region {region!r} on {date} "
                f"(first seen on line {days[date][0]})",
                line,
            )
        numbers = [_parse_float(c, n, line) for c, n in zip(row[2:], DAILY_MEASUREMENTS)]
        if not region:
            raise IngestionError("region_id must be a non-empty string", line)
        if problem := _day_problem(region, date, numbers):
            raise IngestionError(problem, line)
        days[date] = (line, numbers)
    if not by_region:
        raise IngestionError("no data rows", 1)

    firsts, tables = [], []
    for region, days in by_region.items():
        dates = sorted(days)
        for a, b in zip(dates, dates[1:]):
            if (b - a).days != 1:
                raise IngestionError(
                    f"gap in daily calendar for region {region!r}: "
                    f"missing {a + dt.timedelta(days=1)}",
                    days[b][0],
                )
        firsts.append(dates[0])
        tables.append(np.array([days[d][1] for d in dates]).T)
    return DailyClimate(tuple(by_region), tuple(firsts), tuple(tables))


def write_daily_csv(daily: DailyClimate, path: str) -> None:
    """Serialize a daily table in canonical column order, region by region
    and each region in date order."""
    lines = [",".join(DAILY_CSV_HEADER)]
    for region, first, table in zip(daily.region_ids, daily.first_days, daily.values):
        dates = (np.datetime64(first, "D") + np.arange(table.shape[1])).astype(str)
        cells = [list(map(format_float, column.tolist())) for column in table]
        lines.extend(map(",".join, zip(itertools.repeat(region), dates.tolist(), *cells)))
    _atomic_write_text(path, "\n".join(lines) + "\n")
