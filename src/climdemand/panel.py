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

import array
import csv
import datetime as dt
import math
import os
import re
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Sequence

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

WEEK_DAYS = 7

#: printf format of every float a CSV writer emits.
_FLOAT = "%.10g"


def format_float(x: float) -> str:
    """Fixed 10-significant-digit rendering used by every CSV writer.

    The same float always renders to the same text, so emitted files are
    byte-stable, and text produced here parses back to a float that renders
    identically (the representation is a fixed point of write-then-read).
    """
    return _FLOAT % float(x)


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
    if weeks and weeks[0].weekday() != 0:
        raise AlignmentError(f"{what}: week starts must be Mondays, got {weeks[0]:%Y-%m-%d (%A)}")
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


def quote_cell(text: str) -> str:
    """``text`` as one CSV cell, quoted as ``csv.QUOTE_MINIMAL`` would quote
    it: in double quotes, inner quotes doubled, when it holds a comma, a
    quote or a line break.  Numbers and ISO dates never need it."""
    if any(c in text for c in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


class TextLines:
    """A file's text, made a line at a time: iterating calls ``make(*args)``
    afresh and yields its lines (without newlines), so the whole text is
    never held.  :meth:`encode` joins the lines, a newline after each, and
    encodes them: the bytes :func:`_atomic_write_text` writes.  perfbench's
    tracer counts ``panel.bytes_written`` that way."""

    __slots__ = ("_make", "_args")

    def __init__(self, make: Callable[..., Iterable[str]], *args):
        self._make = make
        self._args = args

    def __iter__(self) -> Iterator[str]:
        return iter(self._make(*self._args))

    def encode(self, encoding: str = "utf-8") -> bytes:
        return "".join(line + "\n" for line in self).encode(encoding)


def _atomic_write_text(path: str, text: Iterable[str]) -> None:
    """Write each line of ``text`` (a :class:`TextLines` in the package's
    writers) followed by a newline to ``path``, via a temp file in the same
    directory made as ``open(path, "w")`` would make ``path`` (mode 0o666
    less the umask).  The lines are drawn one at a time while the temp file
    is open; if drawing or writing one fails, the temp file is removed and
    ``path`` is left as it was."""
    directory = os.path.dirname(os.path.abspath(path))
    tmp = os.path.join(directory, f".tmp-{os.urandom(8).hex()}.part")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as handle:
            for line in text:
                handle.write(line + "\n")
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _panel_lines(panel: PanelDataset) -> Iterator[str]:
    yield "week_start," + ",".join(map(quote_cell, panel.column_names))
    row = "%s," + ",".join([_FLOAT] * len(panel.column_names))
    matrix = panel.matrix(panel.column_names)
    for week, values in zip(panel.week_starts, matrix):
        yield row % (week.isoformat(), *values.tolist())


def write_panel_csv(panel: PanelDataset, path: str) -> None:
    """Serialize a panel to CSV (``week_start`` first, 10 significant digits)."""
    _atomic_write_text(path, TextLines(_panel_lines, panel))


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


#: A character that ``errors="surrogateescape"`` decoding put in place of
#: a byte that is not UTF-8.
_UNDECODED = re.compile("[\udc80-\udcff]")


def _utf8_lines(handle) -> Iterator[str]:
    """The lines of ``handle``, a text file opened with
    ``errors="surrogateescape"``; the first byte that is not UTF-8 is an
    IngestionError on its line (lines counted by ``\\n``)."""
    line = 1
    for text in handle:
        if not text.isascii() and (bad := _UNDECODED.search(text)):
            byte = ord(bad.group()) - 0xDC00
            raise IngestionError(f"byte {byte:#04x} is not UTF-8 text", line)
        line += text.endswith("\n")
        yield text


def _csv_rows(path: str) -> Iterator[list[str]]:
    """Yield the rows of a UTF-8 CSV file one at a time, the header first.

    A byte that is not UTF-8 and a cell over csv's field limit are
    IngestionErrors on their line, raised when the reader reaches it, so
    after every earlier row has been yielded.  An empty file is one on
    line 1."""
    with open(path, encoding="utf-8", errors="surrogateescape", newline="") as handle:
        reader = csv.reader(_utf8_lines(handle))
        try:
            yield from reader
        except csv.Error as exc:
            raise IngestionError(str(exc), reader.line_num) from None
        if reader.line_num == 0:
            raise IngestionError("empty file: no header row", 1)


def read_panel_csv(path: str) -> PanelDataset:
    """Ingest a weekly panel CSV.

    The header must start with ``week_start``; week starts must be ISO-dated
    Mondays exactly seven days apart.  Any gap, duplicate column, ragged row
    or malformed cell raises :class:`IngestionError` with the line number;
    rows are read and checked one at a time, in file order.
    """
    rows = _csv_rows(path)
    header = next(rows)
    if not header or header[0] != "week_start":
        raise IngestionError("header must start with 'week_start'", 1)
    names = header[1:]
    if not names:
        raise IngestionError("panel CSV must have at least one value column", 1)
    if len(set(names)) != len(names):
        dupes = sorted({n for n in names if names.count(n) > 1})
        raise IngestionError(f"duplicate column names: {', '.join(dupes)}", 1)

    weeks: list[dt.date] = []
    data = [array.array("d") for _ in names]
    for line, row in enumerate(rows, start=2):
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
        for column, name, cell in zip(data, names, row[1:]):
            column.append(_parse_float(cell, name, line))
    if not weeks:
        raise IngestionError("no data rows", 1)
    return PanelDataset(
        tuple(weeks), {n: np.frombuffer(v, dtype=float) for n, v in zip(names, data)}
    )


#: A day's key in :func:`read_daily_csv`'s duplicate check is its region's
#: index shifted past every ``date.toordinal()`` (at most 3,652,059).
_ORDINAL_BITS = 22


def read_daily_csv(path: str) -> DailyClimate:
    """Ingest a regional daily climate CSV.

    Rows are read and checked one at a time, in file order (header, cell
    count, ISO date, one row per region and day, finite numbers,
    :class:`DailyClimate`'s domains); then each region's days, in date
    order and regions in the order of their first row, must form a gap-free
    calendar.  Errors carry line numbers.
    """
    rows = _csv_rows(path)
    if tuple(next(rows)) != DAILY_CSV_HEADER:
        raise IngestionError(
            "unexpected header; expected " + ",".join(DAILY_CSV_HEADER), 1
        )
    # Row i (line i + 2) holds day ordinals[i] of region number regions[i],
    # and its measurements are values[7 * i : 7 * i + 7].
    region_index: dict[str, int] = {}
    regions, ordinals, values = array.array("q"), array.array("q"), array.array("d")
    seen: set[int] = set()
    for line, row in enumerate(rows, start=2):
        if len(row) != len(DAILY_CSV_HEADER):
            raise IngestionError(
                f"expected {len(DAILY_CSV_HEADER)} cells, found {len(row)}", line
            )
        region = row[0]
        date = _parse_date(row[1], line)
        r = region_index.setdefault(region, len(region_index))
        day = date.toordinal()
        key = r << _ORDINAL_BITS | day
        if key in seen:
            first = next(i for i, k in enumerate(zip(regions, ordinals)) if k == (r, day))
            raise IngestionError(
                f"duplicate record for region {region!r} on {date} "
                f"(first seen on line {first + 2})",
                line,
            )
        numbers = [_parse_float(c, n, line) for c, n in zip(row[2:], DAILY_MEASUREMENTS)]
        if not region:
            raise IngestionError("region_id must be a non-empty string", line)
        if problem := _day_problem(region, date, numbers):
            raise IngestionError(problem, line)
        seen.add(key)
        regions.append(r)
        ordinals.append(day)
        values.extend(numbers)
    if not region_index:
        raise IngestionError("no data rows", 1)
    del seen  # free the duplicate check's keys before the tables are copied

    region_of = np.frombuffer(regions, dtype=np.int64)
    ordinal_of = np.frombuffer(ordinals, dtype=np.int64)
    table = np.frombuffer(values, dtype=float).reshape(-1, len(DAILY_MEASUREMENTS))
    order = np.lexsort((ordinal_of, region_of))
    starts = np.searchsorted(region_of[order], np.arange(len(region_index) + 1))
    firsts, tables = [], []
    for r, region in enumerate(region_index):
        rows_r = order[starts[r] : starts[r + 1]]
        days = ordinal_of[rows_r]
        gaps = np.flatnonzero(np.diff(days) != 1)
        if gaps.size:
            g = gaps[0]
            raise IngestionError(
                f"gap in daily calendar for region {region!r}: "
                f"missing {dt.date.fromordinal(int(days[g]) + 1)}",
                int(rows_r[g + 1]) + 2,
            )
        firsts.append(dt.date.fromordinal(int(days[0])))
        tables.append(table[rows_r].T)
    return DailyClimate(tuple(region_index), tuple(firsts), tuple(tables))


def _daily_lines(daily: DailyClimate) -> Iterator[str]:
    yield ",".join(DAILY_CSV_HEADER)
    row = "%s,%s," + ",".join([_FLOAT] * len(DAILY_MEASUREMENTS))
    for region, first, table in zip(daily.region_ids, daily.first_days, daily.values):
        region, start = quote_cell(region), first.toordinal()
        for i, day in enumerate(table.T):
            yield row % (region, dt.date.fromordinal(start + i).isoformat(), *day.tolist())


def write_daily_csv(daily: DailyClimate, path: str) -> None:
    """Serialize a daily table in canonical column order, region by region
    and each region in date order."""
    _atomic_write_text(path, TextLines(_daily_lines, daily))
