"""Unit tests for the plain-text report renderer and the
``repro-report`` manifest/telemetry dashboard."""

import os
import subprocess
import sys
from pathlib import Path

from repro.metrics.report import (
    Report,
    main,
    render_dashboard_html,
    telemetry_dashboard,
)


class TestRendering:
    def make(self):
        report = Report("Demo", ["name", "value", "pct"])
        report.add_row("alpha", 1, 12.345)
        report.add_row("beta", None, 0.5)
        return report

    def test_title_and_rule(self):
        text = self.make().render()
        lines = text.splitlines()
        assert lines[0] == "Demo"
        assert lines[1] == "=" * 4

    def test_header_present(self):
        assert "name" in self.make().render()

    def test_float_formatting(self):
        assert "12.35" in self.make().render()

    def test_none_renders_dash(self):
        assert "-" in self.make().render()

    def test_notes_appended(self):
        report = self.make()
        report.add_note("hello world")
        assert report.render().endswith("note: hello world")

    def test_columns_aligned(self):
        text = self.make().render()
        lines = text.splitlines()
        header = lines[2]
        row = lines[4]
        assert len(header) == len(row)

    def test_str_equals_render(self):
        report = self.make()
        assert str(report) == report.render()


class TestHtmlRendering:
    def test_table_structure(self):
        report = Report("Demo", ["name", "value"])
        report.add_row("alpha", 1.5)
        report.add_note("a note")
        html = report.render_html()
        assert "<h2>Demo</h2>" in html
        assert "<th>name</th>" in html
        assert "<td>1.50</td>" in html
        assert "note: a note" in html

    def test_cells_are_escaped(self):
        report = Report("<Demo>", ["name"])
        report.add_row("<script>alert(1)</script>")
        html = report.render_html()
        assert "<script>" not in html
        assert "&lt;script&gt;" in html

    def test_page_wraps_all_reports(self):
        a = Report("First", ["x"])
        a.add_row(1)
        b = Report("Second", ["y"])
        b.add_row(2)
        page = render_dashboard_html([a, b], title="Sweep & co")
        assert page.startswith("<!DOCTYPE html>")
        assert "Sweep &amp; co" in page
        assert "First" in page and "Second" in page


def seed_artifacts(root):
    """A tiny but *real* results directory: one run manifest, one sweep
    manifest, one interval time-series."""
    from repro.telemetry import (
        IntervalSeries,
        run_manifest,
        sweep_manifest,
        write_manifest,
    )
    from repro.telemetry.interval import INTERVAL_COLUMNS
    from repro.uarch.config import base_config

    class FakeStats:
        cycles, committed, ipc = 1000, 2500, 2.5

    key = "v4-compress-base-i1000-c0-abcdefabcdef"
    write_manifest(root / "manifests" / f"{key}.json", run_manifest(
        cache_key=key, workload="compress", config=base_config(),
        program_digest="d" * 16, source_sha12="a" * 12,
        max_instructions=1000, max_cycles=0, cache_hit=False,
        checkpoint="captured", wallclock_seconds=0.5, stats=FakeStats()))
    write_manifest(root / "manifests" / "sweep-abc.json", sweep_manifest(
        run_keys=[key], simulated=1, cached=0, jobs=2,
        wallclock_seconds=0.6))

    series = IntervalSeries(interval=500)
    row = {name: 0 for name in INTERVAL_COLUMNS}
    row.update(cycle=500, cycles=500, committed=1200, ipc=2.4,
               rob_occupancy=17, squashes=3, reuse_hits=40)
    series.append(row)
    series.context.update(workload="compress", config="base")
    telemetry = root / "telemetry"
    telemetry.mkdir(parents=True)
    series.write(telemetry / f"{key}.jsonl")
    return key


class TestTelemetryDashboard:
    def test_joins_manifests_and_timeseries(self, tmp_path):
        key = seed_artifacts(tmp_path)
        reports = telemetry_dashboard(tmp_path)
        titles = [report.title for report in reports]
        assert titles == ["Run manifests", "Sweep manifests",
                          "Interval time-series"]
        text = "\n".join(report.render() for report in reports)
        assert key in text and "compress" in text

    def test_empty_directory_yields_nothing(self, tmp_path):
        assert telemetry_dashboard(tmp_path) == []

    def test_unreadable_timeseries_skipped(self, tmp_path):
        seed_artifacts(tmp_path)
        (tmp_path / "telemetry" / "junk.jsonl").write_text("{broken")
        reports = telemetry_dashboard(tmp_path)
        series = [r for r in reports
                  if r.title == "Interval time-series"][0]
        assert len(series.rows) == 1


class TestReportCli:
    def test_renders_real_artifacts(self, tmp_path, capsys):
        seed_artifacts(tmp_path)
        html_out = tmp_path / "dash.html"
        assert main([str(tmp_path), "--html", str(html_out)]) == 0
        out = capsys.readouterr().out
        assert "Run manifests" in out and "Interval time-series" in out
        assert html_out.read_text().startswith("<!DOCTYPE html>")

    def test_exit_1_when_nothing_found(self, tmp_path, capsys):
        assert main([str(tmp_path)]) == 1
        assert "no manifests" in capsys.readouterr().out

    def test_runs_as_a_module_without_warnings(self, tmp_path):
        # `python -m repro.metrics.report` is how CI runs it: importing
        # the package must not import the module runpy is about to run.
        env = dict(os.environ)
        env["PYTHONPATH"] = str(Path(__file__).resolve().parents[2]
                                / "src") + os.pathsep \
            + env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-m",
             "repro.metrics.report", str(tmp_path)],
            capture_output=True, text=True, env=env, timeout=60)
        assert proc.returncode == 1, proc.stderr
        assert "no manifests or telemetry found" in proc.stdout
