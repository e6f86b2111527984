"""Plain-text table rendering for the experiment harness.

Every experiment produces a :class:`Report` whose rows mirror the rows of
the corresponding table or figure in the paper, with paper-reported
values printed alongside measured values wherever the paper gives them.

This module also hosts the ``repro-report`` dashboard: it joins the run
manifests written by :class:`~repro.experiments.runner.ExperimentRunner`
with any interval time-series captured alongside them into one
provenance, timing and behaviour view, rendered as text or minimal
static HTML (see ``docs/telemetry.md``).
"""

from __future__ import annotations

import html as _html
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, List, Optional, Sequence, Union

Cell = Union[str, int, float, None]


def _format_cell(value: Cell) -> str:
    if value is None:
        return "-"
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        return f"{value:.2f}"
    return str(value)


@dataclass
class Report:
    """A titled table plus optional notes, renderable as text."""

    title: str
    headers: Sequence[str]
    rows: List[Sequence[Cell]] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)

    def add_row(self, *cells: Cell) -> None:
        self.rows.append(cells)

    def add_note(self, note: str) -> None:
        self.notes.append(note)

    def render(self) -> str:
        table = [list(map(_format_cell, self.headers))]
        table += [list(map(_format_cell, row)) for row in self.rows]
        widths = [max(len(row[col]) for row in table)
                  for col in range(len(self.headers))]
        lines = [self.title, "=" * len(self.title)]
        header, *body = table
        lines.append("  ".join(cell.ljust(width)
                               for cell, width in zip(header, widths)))
        lines.append("  ".join("-" * width for width in widths))
        for row in body:
            lines.append("  ".join(cell.rjust(width)
                                   for cell, width in zip(row, widths)))
        for note in self.notes:
            lines.append(f"note: {note}")
        return "\n".join(lines)

    def __str__(self) -> str:
        return self.render()

    def render_html(self) -> str:
        """The same table as a static HTML fragment."""
        esc = _html.escape
        parts = [f"<h2>{esc(self.title)}</h2>", "<table>", "<tr>"]
        parts += [f"<th>{esc(_format_cell(h))}</th>" for h in self.headers]
        parts.append("</tr>")
        for row in self.rows:
            parts.append("<tr>" + "".join(
                f"<td>{esc(_format_cell(cell))}</td>" for cell in row)
                + "</tr>")
        parts.append("</table>")
        parts += [f"<p class='note'>note: {esc(note)}</p>"
                  for note in self.notes]
        return "\n".join(parts)


# --------------------------------------------------------------- repro-report --

_HTML_PAGE = """<!DOCTYPE html>
<html><head><meta charset="utf-8"><title>{title}</title>
<style>
body {{ font-family: sans-serif; margin: 2em; }}
table {{ border-collapse: collapse; margin: 1em 0; }}
th, td {{ border: 1px solid #999; padding: 0.25em 0.6em;
          text-align: right; font-variant-numeric: tabular-nums; }}
th {{ background: #eee; }}
td:first-child, th:first-child {{ text-align: left; }}
.note {{ color: #555; font-size: 0.9em; }}
</style></head><body>
<h1>{title}</h1>
{body}
</body></html>
"""


def _manifest_reports(manifests: List[dict]) -> List[Report]:
    """Provenance tables: one for runs, one for sweeps."""
    runs = [m for m in manifests if m.get("kind") == "run"]
    sweeps = [m for m in manifests if m.get("kind") == "sweep"]
    reports = []

    run_table = Report(
        title="Run manifests",
        headers=("cache key", "workload", "config", "cached",
                 "checkpoint", "wall s", "cycles", "ipc"))
    for m in sorted(runs, key=lambda m: m.get("cache_key", "")):
        stats = m.get("stats") or {}
        run_table.add_row(
            m.get("cache_key"), m.get("workload"), m.get("config_name"),
            bool(m.get("cache_hit")), m.get("checkpoint"),
            m.get("wallclock_seconds"), stats.get("cycles"),
            stats.get("ipc"))
    if runs:
        hosts = sorted({m.get("host") for m in runs if m.get("host")})
        versions = sorted({m.get("git_describe") for m in runs
                           if m.get("git_describe")})
        run_table.add_note(f"hosts: {', '.join(hosts) or 'unknown'}")
        if versions:
            run_table.add_note(f"git: {', '.join(versions)}")
    reports.append(run_table)

    if sweeps:
        sweep_table = Report(
            title="Sweep manifests",
            headers=("sweep", "runs", "simulated", "cached", "jobs",
                     "wall s"))
        for m in sorted(sweeps,
                        key=lambda m: m.get("created_unix") or 0):
            sweep_table.add_row(
                m.get("sweep_digest"), m.get("total_runs"),
                m.get("simulated"), m.get("cached"), m.get("jobs"),
                m.get("wallclock_seconds"))
        reports.append(sweep_table)
    return reports


def _timeseries_report(paths: List[Path]) -> Optional[Report]:
    """Behaviour summary: one row per captured interval time-series."""
    from ..telemetry import load_timeseries
    table = Report(
        title="Interval time-series",
        headers=("file", "workload", "config", "rows", "mean ipc",
                 "max rob", "squashes", "reuse hits", "vp misp"))
    for path in paths:
        try:
            series = load_timeseries(path)
        except (OSError, ValueError):
            continue
        ctx = series.context
        table.add_row(
            path.name, ctx.get("workload") or "-",
            ctx.get("config") or "-", len(series),
            series.summary("ipc")["mean"],
            series.summary("rob_occupancy")["max"],
            sum(series.column("squashes")),
            sum(series.column("reuse_hits")),
            sum(series.column("vp_mispredicted")))
    return table if table.rows else None


def _job_reports(manifests: List[dict]) -> List[Report]:
    """The "where did the time go" phase breakdown and per-cell resource
    accounting, from the run manifests of simulated jobs."""
    from ..telemetry.manifest import PHASE_ORDER
    jobs = [m for m in manifests if m.get("kind") == "run"
            and not m.get("cache_hit")
            and isinstance(m.get("phase_seconds"), dict)]
    if not jobs:
        return []
    totals: dict = {}
    for manifest in jobs:
        for name, seconds in manifest["phase_seconds"].items():
            entry = totals.setdefault(name, {"count": 0, "seconds": 0.0})
            entry["count"] += 1
            entry["seconds"] += seconds or 0.0
    grand = sum(entry["seconds"] for entry in totals.values())
    phases = Report(
        title="Where did the time go (phase breakdown)",
        headers=("phase", "jobs", "total s", "mean s", "share %"))
    order = {name: i for i, name in enumerate(PHASE_ORDER)}
    for name in sorted(totals, key=lambda n: order.get(n, len(order))):
        entry = totals[name]
        phases.add_row(
            name, entry["count"], round(entry["seconds"], 3),
            round(entry["seconds"] / entry["count"], 4),
            round(100.0 * entry["seconds"] / grand, 1) if grand
            else None)
    hosts = sorted({m.get("host") for m in jobs} - {None})
    if hosts:
        phases.add_note(f"hosts: {', '.join(hosts)}")
    phases.add_note("durations are per-process monotonic; jobs from "
                    "parallel workers overlap in wallclock")

    resources = Report(
        title="Per-cell resources (run manifests)",
        headers=("cell", "wall s", "cpu user s", "cpu sys s",
                 "peak rss MB", "host"))
    for manifest in sorted(jobs, key=lambda m: m.get("cache_key") or ""):
        rss = manifest.get("rss_peak_kb")
        resources.add_row(
            f"{manifest.get('workload')}/{manifest.get('config_name')}",
            manifest.get("wallclock_seconds"),
            manifest.get("cpu_user_s"), manifest.get("cpu_sys_s"),
            round(rss / 1024.0, 1) if rss else None,
            manifest.get("host"))
    resources.add_note("peak RSS is the process's high-water "
                       "mark after the job (ru_maxrss), not a per-cell "
                       "delta")
    return [phases, resources]


def telemetry_dashboard(results_dir,
                        telemetry_dir=None) -> List[Report]:
    """Join manifests and time-series under *results_dir* into tables.

    *results_dir* is a result-cache directory (manifests are looked for
    in its ``manifests/`` subdirectory, then in the directory itself);
    *telemetry_dir* defaults to ``results_dir/telemetry``.  Either side
    may be missing — the dashboard renders whatever exists.
    """
    from ..telemetry import load_manifests
    results_dir = Path(results_dir)
    manifests = load_manifests(results_dir / "manifests")
    if not manifests:
        manifests = load_manifests(results_dir)
    reports = _manifest_reports(manifests) if manifests else []

    if telemetry_dir is None:
        telemetry_dir = results_dir / "telemetry"
    telemetry_dir = Path(telemetry_dir)
    if telemetry_dir.is_dir():
        paths = sorted(p for p in telemetry_dir.iterdir()
                       if p.suffix.lower() == ".jsonl"
                       and ".trace." not in p.name)
        series_report = _timeseries_report(paths)
        if series_report is not None:
            reports.append(series_report)
    reports.extend(_job_reports(manifests))
    return reports


def render_dashboard_html(reports: List[Report],
                          title: str = "repro sweep report") -> str:
    body = "\n".join(report.render_html() for report in reports)
    return _HTML_PAGE.format(title=_html.escape(title), body=body)


def main(argv: Optional[List[str]] = None) -> int:
    """``repro-report``: render the manifest + telemetry dashboard."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="repro-report",
        description="Join sweep run manifests and interval time-series "
                    "into a provenance/behaviour dashboard")
    parser.add_argument("results", type=Path,
                        help="result-cache directory of a sweep "
                             "(manifests live in its manifests/ "
                             "subdirectory)")
    parser.add_argument("--telemetry-dir", type=Path, default=None,
                        help="directory of interval time-series files "
                             "(default: RESULTS/telemetry)")
    parser.add_argument("--html", type=Path, default=None, metavar="OUT",
                        help="also write the dashboard as a static "
                             "HTML page")
    args = parser.parse_args(argv)

    reports = telemetry_dashboard(args.results, args.telemetry_dir)
    if not reports:
        print(f"no manifests or telemetry found under {args.results}")
        return 1
    print("\n\n".join(report.render() for report in reports))
    if args.html is not None:
        from ..util.locking import atomic_write_text
        atomic_write_text(args.html, render_dashboard_html(reports))
        print(f"\nwrote {args.html}")
    return 0


if __name__ == "__main__":
    import sys
    sys.exit(main())
