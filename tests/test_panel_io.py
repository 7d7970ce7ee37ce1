import datetime as dt
import os
import stat

import numpy as np
import pytest
from numpy.testing import assert_allclose

from climdemand.errors import (
    AlignmentError,
    IngestionError,
    InvalidInputError,
    ShapeError,
)
from climdemand.panel import (
    DAILY_CSV_HEADER,
    DAILY_MEASUREMENTS,
    DailyClimate,
    PanelDataset,
    TextLines,
    WeeklySeries,
    _atomic_write_text,
    format_float,
    read_daily_csv,
    read_panel_csv,
    write_daily_csv,
    write_panel_csv,
)
from climdemand.synth import SynthConfig, generate_synthetic_daily
from memory_budget import traced_peak

MONDAY = dt.date(2020, 1, 6)


def weeks(n, start=MONDAY):
    return tuple(start + dt.timedelta(days=7 * i) for i in range(n))


def small_panel():
    rng = np.random.default_rng(2024)
    return PanelDataset(
        weeks(5),
        {
            "drug_demand": rng.uniform(1e5, 3e5, size=5),
            "temperature": rng.normal(12.0, 6.0, size=5),
        },
    )


class TestWeeklySeries:
    def test_rejects_gap(self):
        bad = (MONDAY, MONDAY + dt.timedelta(days=14))
        with pytest.raises(AlignmentError):
            WeeklySeries("x", bad, np.zeros(2))

    def test_rejects_length_mismatch(self):
        with pytest.raises(ShapeError):
            WeeklySeries("x", weeks(3), np.zeros(4))

    def test_rejects_nan(self):
        with pytest.raises(InvalidInputError):
            WeeklySeries("x", weeks(2), np.array([1.0, np.nan]))

    def test_values_read_only(self):
        series = WeeklySeries("x", weeks(2), np.array([1.0, 2.0]))
        with pytest.raises(ValueError):
            series.values[0] = 9.0


class TestPanelDataset:
    def test_column_lookup_error_names_available(self):
        panel = small_panel()
        with pytest.raises(KeyError, match="drug_demand"):
            panel.column("nope")

    def test_slice_and_select(self):
        panel = small_panel()
        part = panel.slice_weeks(1, 4)
        assert part.n_weeks == 3
        assert part.week_starts[0] == MONDAY + dt.timedelta(days=7)
        assert_allclose(part.column("temperature"), panel.column("temperature")[1:4])
        sub = panel.select(["temperature"])
        assert sub.column_names == ("temperature",)

    def test_matrix_stacks_in_given_order(self):
        panel = small_panel()
        mat = panel.matrix(["temperature", "drug_demand"])
        assert mat.shape == (5, 2)
        assert_allclose(mat[:, 0], panel.column("temperature"))

    def test_rejects_ragged_columns(self):
        with pytest.raises(ShapeError):
            PanelDataset(weeks(3), {"a": np.zeros(3), "b": np.zeros(2)})


def lines_that_fail_part_way():
    """Lines drawn while the temp file is open: the third raises after two
    were written."""
    yield "week_start,a"
    yield "2020-01-06,1"
    raise RuntimeError("formatting failed")


class TestPanelCsvRoundTrip:
    def test_serialize_ingest_is_identity(self, tmp_path):
        # After one serialization pass the written representation is a fixed
        # point: ingest -> serialize -> ingest returns an identical panel.
        path1 = tmp_path / "p1.csv"
        path2 = tmp_path / "p2.csv"
        write_panel_csv(small_panel(), str(path1))
        first = read_panel_csv(str(path1))
        write_panel_csv(first, str(path2))
        second = read_panel_csv(str(path2))
        assert first.equals(second)
        assert path1.read_bytes() == path2.read_bytes()

    def test_week_axes_the_reader_rejects_are_not_built(self, tmp_path):
        # The file format wants Monday week starts; so does every panel or
        # series in memory, so whatever can be written can be read back.
        tuesdays = weeks(3, MONDAY + dt.timedelta(days=1))
        for build in (
            lambda: PanelDataset(tuesdays, {"x": np.zeros(3)}),
            lambda: WeeklySeries("x", tuesdays, np.zeros(3)),
        ):
            with pytest.raises(AlignmentError, match=r"Mondays, got 2020-01-07 \(Tuesday\)"):
                build()
        path = tmp_path / "p.csv"
        write_panel_csv(small_panel(), str(path))
        assert read_panel_csv(str(path)).week_starts == small_panel().week_starts

    def test_writes_are_byte_stable(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        write_panel_csv(small_panel(), str(a))
        write_panel_csv(small_panel(), str(b))
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("umask", [0o022, 0o077], ids=["022", "077"])
    def test_written_files_follow_the_umask(self, tmp_path, umask):
        # A new file gets the mode open(path, "w") would give it.
        path = tmp_path / "p.csv"
        previous = os.umask(umask)
        try:
            write_panel_csv(small_panel(), str(path))
            write_panel_csv(small_panel(), str(path))  # replacing one too
        finally:
            os.umask(previous)
        assert stat.S_IMODE(path.stat().st_mode) == 0o666 & ~umask
        assert os.listdir(tmp_path) == ["p.csv"]

    @pytest.mark.parametrize(
        "existing, lines, error",
        [
            # A lone surrogate fails the UTF-8 encode inside the temp file's write.
            pytest.param(b"week_start,a\n", lambda: ["week_start,\ud800"], UnicodeEncodeError,
                         id="replace"),
            pytest.param(None, lambda: ["week_start,\ud800"], UnicodeEncodeError, id="new"),
            pytest.param(b"week_start,a\n", lines_that_fail_part_way, RuntimeError,
                         id="part-way-replace"),
            pytest.param(None, lines_that_fail_part_way, RuntimeError, id="part-way-new"),
        ],
    )
    def test_failed_write_leaves_the_directory_as_it_was(self, tmp_path, existing, lines, error):
        path = tmp_path / "p.csv"
        if existing is not None:
            path.write_bytes(existing)
        with pytest.raises(error):
            _atomic_write_text(str(path), lines())
        if existing is None:
            assert os.listdir(tmp_path) == []
        else:
            assert os.listdir(tmp_path) == ["p.csv"]
            assert path.read_bytes() == existing

    def test_text_lines_encode_to_the_bytes_written(self, tmp_path):
        # perfbench counts panel.bytes_written from the encoded text.
        text = TextLines(lambda n: (f"{i},\u00e9" for i in range(n)), 3)
        path = tmp_path / "t.csv"
        _atomic_write_text(str(path), text)
        assert text.encode("utf-8") == path.read_bytes() == "0,\u00e9\n1,\u00e9\n2,\u00e9\n".encode()

    def test_names_that_need_quoting_round_trip(self, tmp_path):
        names = ("demand, total", 'say "hi"', "two\nlines", "plain")
        panel = PanelDataset(weeks(3), {n: np.arange(3.0) + i for i, n in enumerate(names)})
        path = tmp_path / "p.csv"
        write_panel_csv(panel, str(path))
        assert path.read_bytes().split(b"\n2020-01-06")[0] == (
            b'week_start,"demand, total","say ""hi""","two\nlines",plain'
        )
        assert read_panel_csv(str(path)).equals(panel)

    @pytest.mark.parametrize("ending", ["\r\n", "\r"], ids=["crlf", "cr"])
    def test_reader_takes_any_line_ending(self, tmp_path, ending):
        path = tmp_path / "p.csv"
        write_panel_csv(small_panel(), str(path))
        other = tmp_path / "q.csv"
        other.write_bytes(path.read_bytes().replace(b"\n", ending.encode()))
        assert read_panel_csv(str(other)).equals(read_panel_csv(str(path)))

    def test_format_float_round_trips_its_own_output(self):
        rng = np.random.default_rng(8)
        for x in rng.normal(0.0, 1e5, size=500):
            text = format_float(x)
            assert format_float(float(text)) == text


class TestPanelCsvValidation:
    def write(self, tmp_path, text):
        path = tmp_path / "panel.csv"
        path.write_text(text)
        return str(path)

    def test_gap_names_missing_week(self, tmp_path):
        path = self.write(
            tmp_path,
            "week_start,x\n2020-01-06,1\n2020-01-20,2\n",
        )
        with pytest.raises(IngestionError, match="2020-01-13") as excinfo:
            read_panel_csv(path)
        assert excinfo.value.line == 3

    def test_non_monday_rejected(self, tmp_path):
        path = self.write(tmp_path, "week_start,x\n2020-01-07,1\n")
        with pytest.raises(IngestionError, match="Monday"):
            read_panel_csv(path)

    def test_bad_cell_reports_line_and_column(self, tmp_path):
        path = self.write(
            tmp_path,
            "week_start,x\n2020-01-06,1\n2020-01-13,oops\n",
        )
        with pytest.raises(IngestionError, match="'x'") as excinfo:
            read_panel_csv(path)
        assert excinfo.value.line == 3

    def test_ragged_row(self, tmp_path):
        path = self.write(tmp_path, "week_start,x,y\n2020-01-06,1\n")
        with pytest.raises(IngestionError, match="expected 3 cells"):
            read_panel_csv(path)

    def test_duplicate_columns(self, tmp_path):
        path = self.write(tmp_path, "week_start,x,x\n2020-01-06,1,2\n")
        with pytest.raises(IngestionError, match="duplicate"):
            read_panel_csv(path)

    def test_header_only(self, tmp_path):
        path = self.write(tmp_path, "week_start,x\n")
        with pytest.raises(IngestionError, match="no data rows"):
            read_panel_csv(path)

    def test_empty_file(self, tmp_path):
        path = self.write(tmp_path, "")
        with pytest.raises(IngestionError, match="empty"):
            read_panel_csv(path)

    def test_nan_cell_rejected(self, tmp_path):
        path = self.write(tmp_path, "week_start,x\n2020-01-06,nan\n")
        with pytest.raises(IngestionError, match="non-finite"):
            read_panel_csv(path)


# (reader, the file's text before the bad cell's line, that line's start)
UNREADABLE = [
    (read_panel_csv, "week_start,x\n2020-01-06,1\n", "2020-01-13,"),
    (read_daily_csv, ",".join(DAILY_CSV_HEADER) + "\n", "r1,"),
]


@pytest.mark.parametrize(
    "reader, before, start", UNREADABLE, ids=["read_panel_csv", "read_daily_csv"]
)
class TestUnreadableText:
    """A byte that is not UTF-8 and a cell over the csv module's field limit
    (131,072 characters) are IngestionErrors on their line."""

    def test_byte_that_is_not_utf8(self, tmp_path, reader, before, start):
        path = tmp_path / "bad.csv"
        path.write_bytes((before + start).encode() + b"caf\xe9\n")
        with pytest.raises(IngestionError, match="0xe9 is not UTF-8") as excinfo:
            reader(str(path))
        assert excinfo.value.line == before.count("\n") + 1

    def test_oversized_cell(self, tmp_path, reader, before, start):
        path = tmp_path / "bad.csv"
        path.write_text(before + start + "1" * 200_000 + "\n")
        with pytest.raises(IngestionError, match="field larger than field limit") as excinfo:
            reader(str(path))
        assert excinfo.value.line == before.count("\n") + 1


def panel_file(cells):
    """Six weeks of a one-column panel; the cell on line n is ``cells.get(n, "1")``."""
    rows = [f"{w.isoformat()},{cells.get(i + 2, '1')}" for i, w in enumerate(weeks(6))]
    return "week_start,x\n" + "\n".join(rows) + "\n"


def daily_file(cells):
    """Six days of one region; the temp_c cell on line n is ``cells.get(n, "10")``."""
    rows = [f"r1,{MONDAY + dt.timedelta(days=i)},{cells.get(i + 2, '10')},1,2,0,5,0.5,3"
            for i in range(6)]
    return ",".join(DAILY_CSV_HEADER) + "\n" + "\n".join(rows) + "\n"


@pytest.mark.parametrize(
    "reader, text", [(read_panel_csv, panel_file), (read_daily_csv, daily_file)],
    ids=["read_panel_csv", "read_daily_csv"],
)
class TestFileOrder:
    """Rows are read and checked one at a time: a byte that is not UTF-8 and
    a cell over the field limit are reported when the reader reaches their
    line, so a fault on an earlier line is reported first."""

    def read(self, tmp_path, reader, text, cells):
        path = tmp_path / "bad.csv"
        path.write_bytes(text(cells).encode("utf-8", "surrogateescape"))
        with pytest.raises(IngestionError) as excinfo:
            reader(str(path))
        return excinfo.value

    def test_bad_number_before_oversized_cell(self, tmp_path, reader, text):
        error = self.read(tmp_path, reader, text, {3: "oops", 5: "1" * 200_000})
        assert "unparseable number 'oops'" in str(error) and error.line == 3

    def test_bad_number_before_byte_that_is_not_utf8(self, tmp_path, reader, text):
        # "\udce9" writes the lone byte 0xe9 (surrogateescape).
        error = self.read(tmp_path, reader, text, {3: "oops", 5: "caf\udce9"})
        assert "unparseable number 'oops'" in str(error) and error.line == 3

    def test_byte_that_is_not_utf8_before_bad_number(self, tmp_path, reader, text):
        error = self.read(tmp_path, reader, text, {3: "caf\udce9", 5: "oops"})
        assert "byte 0xe9 is not UTF-8" in str(error) and error.line == 3


def daily_rows(region, start, precips):
    rows = []
    for i, p in enumerate(precips):
        date = start + dt.timedelta(days=i)
        rows.append(f"{region},{date.isoformat()},10,1,2,{p},5,0.5,3")
    return rows


class TestDailyCsv:
    def test_round_trip(self, tmp_path):
        columns = [[10.5] * 7, [1.25] * 7, [-0.5] * 7, np.arange(7.0), [4.5] * 7,
                   [0.25] * 7, [2.0] * 7]
        daily = DailyClimate(("r1", "r0"), (MONDAY, MONDAY + dt.timedelta(days=3)),
                             (columns, np.array(columns)[:, :5] * 2.0))
        path = tmp_path / "daily.csv"
        write_daily_csv(daily, str(path))
        lines = path.read_text().splitlines()
        assert lines[1] == "r1,2020-01-06,10.5,1.25,-0.5,0,4.5,0.25,2"
        assert lines[-1] == "r0,2020-01-13,21,2.5,-1,8,9,0.5,4"
        back = read_daily_csv(str(path))
        assert back.equals(daily)

    def test_region_ids_that_need_quoting_round_trip(self, tmp_path):
        regions = ("north, coast", 'the "south"')
        daily = DailyClimate(regions, (MONDAY, MONDAY), (one_region(2), one_region(3)))
        path = tmp_path / "daily.csv"
        write_daily_csv(daily, str(path))
        lines = path.read_text().splitlines()
        assert lines[1].startswith('"north, coast",2020-01-06,')
        assert lines[3].startswith('"the ""south""",2020-01-06,')
        assert read_daily_csv(str(path)).equals(daily)

    @pytest.mark.parametrize("io, budget_mib", [("write", 0.25), ("read", 2.0)])
    def test_io_within_a_memory_budget(self, tmp_path, io, budget_mib):
        # The default 390-week synthetic table: 5,460 region-days.  Built
        # whole in memory, the text peaked at 3.2 MiB to write and the rows
        # at 6.3 MiB to read; a row at a time, 0.03 and 1.2 MiB.
        daily = generate_synthetic_daily(SynthConfig())
        path = str(tmp_path / "daily.csv")
        write_daily_csv(daily, path)
        run = {"write": lambda: write_daily_csv(daily, path),
               "read": lambda: read_daily_csv(path)}[io]
        peak, _ = traced_peak(run)
        assert peak <= budget_mib * 2**20

    def test_reader_orders_days_and_keeps_region_order(self, tmp_path):
        rows = daily_rows("b", MONDAY, [0, 1, 2]) + daily_rows("a", MONDAY, [5, 6])
        rows[0], rows[2] = rows[2], rows[0]
        path = tmp_path / "daily.csv"
        path.write_text(",".join(DAILY_CSV_HEADER) + "\n" + "\n".join(rows) + "\n")
        back = read_daily_csv(str(path))
        assert back.region_ids == ("b", "a")
        assert back.first_days == (MONDAY, MONDAY)
        assert_allclose(back.column("b", "precip_mm"), [0, 1, 2])
        assert_allclose(back.column("a", "precip_mm"), [5, 6])

    def test_header_enforced(self, tmp_path):
        path = tmp_path / "daily.csv"
        path.write_text("region,date\nr1,2020-01-06\n")
        with pytest.raises(IngestionError, match="header") as excinfo:
            read_daily_csv(str(path))
        assert excinfo.value.line == 1

    def test_duplicate_region_day(self, tmp_path):
        rows = daily_rows("r1", MONDAY, [0] * 7)
        rows.append(rows[3])
        path = tmp_path / "daily.csv"
        path.write_text(",".join(DAILY_CSV_HEADER) + "\n" + "\n".join(rows) + "\n")
        with pytest.raises(IngestionError, match="duplicate record for region 'r1'"):
            read_daily_csv(str(path))

    def test_gap_names_region_and_date(self, tmp_path):
        rows = daily_rows("r1", MONDAY, [0] * 7)
        del rows[4]
        path = tmp_path / "daily.csv"
        path.write_text(",".join(DAILY_CSV_HEADER) + "\n" + "\n".join(rows) + "\n")
        with pytest.raises(IngestionError, match="missing 2020-01-10"):
            read_daily_csv(str(path))

    def test_domain_violation_carries_line(self, tmp_path):
        rows = daily_rows("r1", MONDAY, [0] * 7)
        rows[2] = rows[2].replace(",0.5,", ",1.5,")  # cloud cover above 1
        path = tmp_path / "daily.csv"
        path.write_text(",".join(DAILY_CSV_HEADER) + "\n" + "\n".join(rows) + "\n")
        with pytest.raises(IngestionError, match="cloud_cover") as excinfo:
            read_daily_csv(str(path))
        assert excinfo.value.line == 4

    def test_rows_are_checked_in_file_order(self, tmp_path):
        rows = daily_rows("r1", MONDAY, [0] * 7)
        rows[1] = rows[1].replace(",0.5,", ",-0.5,")  # cloud cover below 0
        rows[4] = rows[4].replace(",10,", ",warm,")
        rows.append(rows[0])
        path = tmp_path / "daily.csv"
        path.write_text(",".join(DAILY_CSV_HEADER) + "\n" + "\n".join(rows) + "\n")
        with pytest.raises(IngestionError, match="cloud_cover") as excinfo:
            read_daily_csv(str(path))
        assert excinfo.value.line == 3
        rows[1] = rows[0].replace("2020-01-06", "2020-01-07")
        path.write_text(",".join(DAILY_CSV_HEADER) + "\n" + "\n".join(rows) + "\n")
        with pytest.raises(IngestionError, match="unparseable number 'warm'") as excinfo:
            read_daily_csv(str(path))
        assert excinfo.value.line == 6


def one_region(n_days=7, **bad_days):
    """Columns of ``n_days`` valid days with ``{column: {day: value}}`` set."""
    columns = {name: np.full(n_days, 0.5) for name in DAILY_MEASUREMENTS}
    for name, days in bad_days.items():
        for day, value in days.items():
            columns[name][day] = value
    return list(columns.values())


class TestRecordValidation:
    def test_cloud_cover_range(self):
        with pytest.raises(InvalidInputError, match="cloud_cover") as excinfo:
            DailyClimate(("r",), (MONDAY,), (one_region(cloud_cover={2: 1.5}),))
        assert str(excinfo.value) == (
            "cloud_cover must lie in [0, 1], got 1.5 for region r on 2020-01-08"
        )

    def test_negative_precip(self):
        with pytest.raises(InvalidInputError, match="precip") as excinfo:
            DailyClimate(("r",), (MONDAY,), (one_region(precip_mm={0: -0.1}),))
        assert str(excinfo.value) == (
            "precip must be non-negative, got -0.1 for region r on 2020-01-06"
        )

    def test_negative_fwi(self):
        with pytest.raises(InvalidInputError, match="fwi") as excinfo:
            DailyClimate(("r",), (MONDAY,), (one_region(fwi={6: -2.0}),))
        assert str(excinfo.value) == (
            "fwi must be non-negative, got -2.0 for region r on 2020-01-12"
        )

    def test_first_offending_day_and_rule_are_named(self):
        # Day 3 breaks two rules and day 1 a third: the earliest day wins,
        # and on one day the non-finite value comes before the domains.
        table = one_region(fwi={1: -1.0, 3: -1.0}, temp_c={3: np.nan}, cloud_cover={1: 2.0})
        with pytest.raises(InvalidInputError, match="cloud_cover .* on 2020-01-07"):
            DailyClimate(("ok", "r"), (MONDAY, MONDAY), (one_region(), table))
        table = one_region(fwi={3: -1.0}, temp_c={3: np.inf})
        with pytest.raises(InvalidInputError) as excinfo:
            DailyClimate(("r",), (MONDAY,), (table,))
        assert str(excinfo.value) == "non-finite measurement for region r on 2020-01-09"

    def test_region_ids_and_columns(self):
        for region in ("", 5):
            with pytest.raises(InvalidInputError, match="non-empty string"):
                DailyClimate((region,), (MONDAY,), (one_region(),))
        with pytest.raises(InvalidInputError, match="datetime.date"):
            DailyClimate(("r",), (dt.datetime(2020, 1, 6),), (one_region(),))
        with pytest.raises(ShapeError, match="per distinct region id"):
            DailyClimate(("r", "r"), (MONDAY, MONDAY), (one_region(), one_region()))
        with pytest.raises(ShapeError, match="per distinct region id"):
            DailyClimate(("r", "s"), (MONDAY,), (one_region(),))
        ragged = one_region()
        ragged[4] = ragged[4][:6]
        emptied = one_region()
        emptied[2] = emptied[2][:0]
        for columns in (one_region()[:6], ragged, emptied, one_region(0)):
            with pytest.raises(ShapeError, match="7 equal-length, non-empty 1-D columns"):
                DailyClimate(("r",), (MONDAY,), (columns,))

    def test_values_read_only_and_equals(self):
        daily = DailyClimate(("r",), (MONDAY,), (one_region(),))
        with pytest.raises(ValueError):
            daily.values[0][0, 0] = 1.0
        assert daily.equals(DailyClimate(("r",), (MONDAY,), (one_region(),)))
        later = DailyClimate(("r",), (MONDAY + dt.timedelta(days=1),), (one_region(),))
        assert not daily.equals(later)
        assert not daily.equals(DailyClimate(("r",), (MONDAY,), (one_region(8),)))
