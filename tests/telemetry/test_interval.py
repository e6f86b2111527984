"""Tests for the interval time-series container and serialization."""

import pytest

from repro.telemetry.interval import (
    INTERVAL_COLUMNS,
    INTERVAL_FORMAT,
    IntervalSeries,
    load_timeseries,
)


def make_row(i):
    row = {name: 0 for name in INTERVAL_COLUMNS}
    row.update(cycle=(i + 1) * 500, cycles=500, committed=100 * (i + 1),
               ipc=0.2 * (i + 1), rob_occupancy=i)
    return row


def filled_series(rows=3):
    series = IntervalSeries(interval=500)
    for i in range(rows):
        series.append(make_row(i))
    return series


class TestSeries:
    def test_append_and_len(self):
        series = filled_series(4)
        assert len(series) == 4
        assert series.column("committed") == [100, 200, 300, 400]

    def test_append_requires_every_column(self):
        series = IntervalSeries()
        with pytest.raises(KeyError):
            series.append({"cycle": 1})

    def test_rows_follow_column_order(self):
        series = filled_series(1)
        row = series.rows()[0]
        assert row[INTERVAL_COLUMNS.index("cycle")] == 500
        assert row[INTERVAL_COLUMNS.index("committed")] == 100

    def test_summary(self):
        series = filled_series(3)
        summary = series.summary("committed")
        assert summary == {"min": 100, "mean": 200, "max": 300}

    def test_summary_empty(self):
        assert IntervalSeries().summary("ipc") == \
            {"min": 0.0, "mean": 0.0, "max": 0.0}


class TestSerialization:
    def test_jsonl_round_trip(self, tmp_path):
        series = filled_series(3)
        series.context["workload"] = "compress"
        path = tmp_path / "ts.jsonl"
        series.write(path)
        loaded = load_timeseries(path)
        assert loaded.rows() == series.rows()
        assert loaded.columns == series.columns
        assert loaded.context["workload"] == "compress"
        assert loaded.interval == 500

    def test_jsonl_header_is_versioned(self, tmp_path):
        path = tmp_path / "ts.jsonl"
        filled_series(1).write(path)
        first = path.read_text().splitlines()[0]
        assert INTERVAL_FORMAT in first

    def test_foreign_jsonl_rejected(self, tmp_path):
        path = tmp_path / "bogus.jsonl"
        path.write_text('{"format": "something-else"}\n')
        with pytest.raises(ValueError):
            load_timeseries(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        with pytest.raises(ValueError):
            load_timeseries(path)
