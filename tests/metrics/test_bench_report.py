"""Unit tests for the bench-history analyzer (repro-bench-report).

Pins the shared history hygiene both perf gates import
(:func:`bounded_history`, :func:`normalize_core_entry`), the
rolling-median flag semantics, and the CLI (tables, --html, --strict).
"""

import json

import pytest

from repro.metrics.bench_report import (
    HISTORY_LIMIT,
    bench_reports,
    bounded_history,
    classify,
    core_trend,
    latest_flags,
    main,
    normalize_core_entry,
    normalize_core_history,
    sweep_trend,
    trend_flag,
)


class TestHistoryHygiene:
    def test_bounded_history_appends_and_truncates(self):
        history = [{"current_ips": float(i)} for i in range(HISTORY_LIMIT)]
        entry = {"current_ips": 99.0}
        bounded = bounded_history(history, entry)
        assert len(bounded) == HISTORY_LIMIT
        assert bounded[-1] is entry
        assert bounded[0] == {"current_ips": 1.0}  # oldest dropped
        assert len(history) == HISTORY_LIMIT  # input untouched

    def test_bounded_history_from_none(self):
        assert bounded_history(None, {"x": 1}) == [{"x": 1}]

    def test_normalize_backfills_speedup(self):
        entry = normalize_core_entry({"current_ips": 30.0}, seed_ips=20.0)
        assert entry == {"current_ips": 30.0, "speedup_vs_seed": 1.5}
        # No seed: entry passes through unchanged.
        assert "speedup_vs_seed" not in \
            normalize_core_entry({"current_ips": 30.0}, seed_ips=0.0)

    def test_normalize_core_history_backfills_every_entry(self):
        record = normalize_core_history({
            "seed_ips": 10.0,
            "history": [{"current_ips": 15.0}, {"current_ips": 40.0}],
        })
        assert [entry["speedup_vs_seed"]
                for entry in record["history"]] == [1.5, 4.0]


class TestTrendFlag:
    def test_no_history_is_dash(self):
        assert trend_flag(10.0, []) == (None, "-")
        assert trend_flag(None, [10.0]) == (None, "-")

    def test_band_semantics_higher_is_better(self):
        previous = [100.0, 100.0, 100.0]
        assert trend_flag(100.0, previous) == (100.0, "ok")
        assert trend_flag(96.0, previous)[1] == "ok"  # inside 5%
        assert trend_flag(90.0, previous)[1] == "regress"
        assert trend_flag(110.0, previous)[1] == "improve"

    def test_lower_is_better_inverts(self):
        previous = [2.0, 2.0]
        assert trend_flag(2.5, previous,
                          higher_is_better=False)[1] == "regress"
        assert trend_flag(1.5, previous,
                          higher_is_better=False)[1] == "improve"

    def test_window_limits_the_median(self):
        previous = [1.0] * 10 + [100.0] * 5
        median, _ = trend_flag(100.0, previous, window=5)
        assert median == 100.0  # the old 1.0 era is outside the window


CORE_RECORD = {
    "seed_ips": 100.0,
    "current_ips": 150.0,
    "speedup_vs_seed": 1.5,
    "telemetry_overhead": 1.14,
    "tracing_overhead": 1.1,
    "history": [{"current_ips": 140.0}, {"current_ips": 145.0},
                {"current_ips": 148.0, "speedup_vs_seed": 1.48}],
}

SWEEP_RECORD = {
    "baseline_seconds": 4.0,
    "cold_seconds": 2.0,
    "warm_seconds": 1.5,
    "history": [
        {"cold_seconds": 2.0, "warm_seconds": 1.5,
         "speedup_vs_baseline": 2.0, "warm_speedup_vs_baseline": 2.67},
        {"cold_seconds": 2.5, "warm_seconds": 1.9,
         "speedup_vs_baseline": 1.6, "warm_speedup_vs_baseline": 2.11},
    ],
}


class TestTables:
    def test_core_trend_normalizes_and_annotates(self):
        table, = core_trend(CORE_RECORD)
        assert len(table.rows) == 3
        # Backfilled speedup for the entries that predate the field.
        assert table.rows[0][2] == 1.4
        assert table.rows[0][-1] == "-"  # first entry has no history
        assert table.rows[-1][-1] == "ok"
        notes = " ".join(table.notes)
        assert "telemetry_overhead 1.14x" in notes
        assert "tracing_overhead 1.1x" in notes

    def test_sweep_trend_flags_second_increase(self):
        table, = sweep_trend(SWEEP_RECORD)
        assert table.rows[0][-1] == "-"
        # Entry 1: cold 2.0 -> 2.5 s is a >5% increase on a
        # lower-is-better leg, so the combined verdict regresses.
        assert table.rows[1][-1] == "regress"
        assert latest_flags(table) == ["regress"]

    def test_classify(self):
        assert classify(CORE_RECORD) == "core"
        assert classify(SWEEP_RECORD) == "sweep"
        with pytest.raises(ValueError, match="not a BENCH"):
            classify({"something": 1})


class TestCli:
    def _write(self, tmp_path):
        core = tmp_path / "BENCH_core.json"
        sweep = tmp_path / "BENCH_sweep.json"
        core.write_text(json.dumps(CORE_RECORD))
        sweep.write_text(json.dumps(SWEEP_RECORD))
        return core, sweep

    def test_reports_tag_their_source_file(self, tmp_path):
        core, sweep = self._write(tmp_path)
        reports = bench_reports([core, sweep])
        assert [r.title for r in reports] == [
            "Core throughput history (interpreted) [BENCH_core.json]",
            "Sweep throughput history [BENCH_sweep.json]"]

    def test_main_renders_both_tables(self, tmp_path, capsys):
        core, sweep = self._write(tmp_path)
        assert main([str(core), str(sweep)]) == 0
        out = capsys.readouterr().out
        assert "Core throughput history" in out
        assert "Sweep throughput history" in out

    def test_main_missing_files_exit_1(self, tmp_path, capsys):
        assert main([str(tmp_path / "absent.json")]) == 1
        assert "no BENCH records" in capsys.readouterr().out

    def test_strict_exits_2_on_fresh_regression(self, tmp_path, capsys):
        _, sweep = self._write(tmp_path)
        assert main([str(sweep)]) == 0  # default: report only
        assert main([str(sweep), "--strict"]) == 2
        capsys.readouterr()

    def test_html_output(self, tmp_path, capsys):
        core, _ = self._write(tmp_path)
        html = tmp_path / "trends.html"
        assert main([str(core), "--html", str(html)]) == 0
        assert "Core throughput history" in html.read_text()
        capsys.readouterr()

    def test_committed_bench_files_parse_clean(self, capsys):
        """The repo's own BENCH files must stay renderable (and free of
        'regress' on their newest entries would be machine-dependent —
        only parseability is pinned here)."""
        repo = __import__("pathlib").Path(__file__).resolve().parents[2]
        core = repo / "BENCH_core.json"
        sweep = repo / "BENCH_sweep.json"
        assert main([str(core), str(sweep)]) == 0
        capsys.readouterr()
