"""``repro-bench-report``: the perf trajectory as a first-class artifact.

The two perf gates (``benchmarks/test_core_throughput.py`` and
``benchmarks/test_sweep_throughput.py``) append one history entry per
committed measurement to ``BENCH_core.json`` / ``BENCH_sweep.json``.
Until now that history was raw JSON nobody read; this module parses
both files into normalized trend tables with regression flagging —
each entry compared against the rolling median of the entries before
it — and renders them as text or HTML, so CI can publish the perf
trajectory alongside the sweep dashboard.

It also owns the *shared* history hygiene both gates use:

* :func:`bounded_history` — the single append-and-truncate helper, so
  the two BENCH files cannot drift on history length;
* :func:`normalize_core_entry` — one entry schema (older entries carry
  only ``current_ips``; ``speedup_vs_seed`` is backfilled from
  ``seed_ips``, which never changes for a given kernel).

Flag semantics: ``regress``/``improve`` when the value moves more than
*tolerance* (default 5%, matching the gate's REGRESSION_TOLERANCE)
against the rolling median of the preceding *window* entries, ``ok``
inside the band, ``-`` when there is no history yet to compare with.
The committed core history deliberately contains cross-machine level
shifts, so the default exit code is 0; ``--strict`` turns any
``regress`` flag on the newest entry into a nonzero exit for CI use.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from .report import Report, render_dashboard_html

#: One bound for both BENCH files (satellite: previously each benchmark
#: hard-coded its own ``[-20:]`` slice).
HISTORY_LIMIT = 20

#: Rolling-median window and drift band for flagging.
DEFAULT_WINDOW = 5
DEFAULT_TOLERANCE = 0.05


def bounded_history(history: Optional[List[Dict]], entry: Dict,
                    limit: int = HISTORY_LIMIT) -> List[Dict]:
    """Append *entry* to *history*, keeping only the newest *limit*."""
    return (list(history or []) + [entry])[-limit:]


def normalize_core_entry(entry: Dict, seed_ips: float) -> Dict:
    """One schema for a ``BENCH_core.json`` history entry.

    Backfills ``speedup_vs_seed`` from ``seed_ips`` (older entries
    predate the field) and rounds it the way the gate does.
    """
    entry = dict(entry)
    ips = entry.get("current_ips")
    if isinstance(ips, (int, float)) and seed_ips:
        entry["speedup_vs_seed"] = round(ips / seed_ips, 2)
    return entry


def normalize_core_history(record: Dict) -> Dict:
    """Normalize every history entry of a ``BENCH_core.json`` record."""
    record = dict(record)
    seed = record.get("seed_ips") or 0.0
    if record.get("history"):
        record["history"] = [normalize_core_entry(entry, seed)
                             for entry in record["history"]]
    return record


def trend_flag(value: Optional[float], previous: Sequence[float],
               higher_is_better: bool = True,
               window: int = DEFAULT_WINDOW,
               tolerance: float = DEFAULT_TOLERANCE
               ) -> Tuple[Optional[float], str]:
    """(rolling median of the window before *value*, flag) for one
    point of a metric series."""
    if value is None:
        return None, "-"
    tail = [v for v in previous if v is not None][-window:]
    if not tail:
        return None, "-"
    median = statistics.median(tail)
    if median == 0:
        return median, "-"
    ratio = value / median
    if not higher_is_better:
        ratio = 1.0 / ratio
    if ratio < 1.0 - tolerance:
        return median, "regress"
    if ratio > 1.0 + tolerance:
        return median, "improve"
    return median, "ok"


def _metric_rows(history: List[Dict], metric: str,
                 higher_is_better: bool, window: int,
                 tolerance: float) -> List[Tuple]:
    """(index, value, rolling median, delta vs median, flag) rows."""
    values = [entry.get(metric) for entry in history]
    rows = []
    for i, value in enumerate(values):
        median, flag = trend_flag(value, values[:i],
                                  higher_is_better=higher_is_better,
                                  window=window, tolerance=tolerance)
        delta = (None if median in (None, 0) or value is None
                 else round((value / median - 1.0) * 100, 1))
        rows.append((i, value, median, delta, flag))
    return rows


def latest_flags(report: Report) -> List[str]:
    """The flag cells of a trend table's newest row (for --strict)."""
    if not report.rows:
        return []
    return [str(report.rows[-1][-1])]


def core_trend(record: Dict, window: int = DEFAULT_WINDOW,
               tolerance: float = DEFAULT_TOLERANCE) -> List[Report]:
    """Trend tables for a ``BENCH_core.json`` record."""
    record = normalize_core_history(record)
    seed = record.get("seed_ips")
    reports = []

    table = Report(
        title="Core throughput history (interpreted)",
        headers=("entry", "ips", "vs seed", "rolling median",
                 "delta %", "flag"))
    history = record.get("history") or []
    for i, value, median, delta, flag in _metric_rows(
            history, "current_ips", True, window, tolerance):
        table.add_row(i, value,
                      history[i].get("speedup_vs_seed"),
                      median, delta, flag)
    if seed:
        table.add_note(f"seed_ips {seed} (the fixed denominator of "
                       f"'vs seed')")
    overhead = record.get("telemetry_overhead")
    if overhead is not None:
        table.add_note(f"telemetry_overhead {overhead}x (budget 1.5x)")
    tracing = record.get("tracing_overhead")
    if tracing is not None:
        table.add_note(f"tracing_overhead {tracing}x (budget 1.5x)")
    table.add_note(f"flags: rolling median of previous {window}, "
                   f"band +-{tolerance:.0%}; history entries may span "
                   f"different machines")
    reports.append(table)
    return reports


#: (metric, header label, higher-is-better) legs of BENCH_sweep.json.
_SWEEP_METRICS = (
    ("cold_seconds", "cold s", False),
    ("warm_seconds", "warm s", False),
    ("speedup_vs_baseline", "cold speedup", True),
    ("warm_speedup_vs_baseline", "warm speedup", True),
)


def sweep_trend(record: Dict, window: int = DEFAULT_WINDOW,
                tolerance: float = DEFAULT_TOLERANCE) -> List[Report]:
    """Trend table for a ``BENCH_sweep.json`` record.

    Seconds-valued legs flag *increases* as regressions; speedup legs
    flag decreases, like the core table.
    """
    history = record.get("history") or []
    table = Report(
        title="Sweep throughput history",
        headers=("entry",) + tuple(label for _, label, _ in
                                   _SWEEP_METRICS) + ("flag",))
    for i, entry in enumerate(history):
        flags = []
        cells: List = [i]
        for metric, _, higher in _SWEEP_METRICS:
            cells.append(entry.get(metric))
            _, flag = trend_flag(entry.get(metric),
                                 [e.get(metric) for e in history[:i]],
                                 higher_is_better=higher,
                                 window=window, tolerance=tolerance)
            flags.append(flag)
        if "regress" in flags:
            verdict = "regress"
        elif "improve" in flags and "ok" not in flags:
            verdict = "improve"
        elif all(flag == "-" for flag in flags):
            verdict = "-"
        else:
            verdict = "ok"
        cells.append(verdict)
        table.add_row(*cells)
    baseline = record.get("baseline_seconds")
    if baseline is not None:
        table.add_note(f"baseline {baseline}s (uncheckpointed sweep "
                       f"the speedups divide into)")
    table.add_note(f"flags: rolling median of previous {window}, "
                   f"band +-{tolerance:.0%}; seconds legs flag "
                   f"increases, speedup legs flag decreases")
    return [table]


def classify(record: Dict) -> str:
    """Which BENCH schema a parsed record follows."""
    if "seed_ips" in record:
        return "core"
    if "baseline_seconds" in record:
        return "sweep"
    raise ValueError("not a BENCH_core/BENCH_sweep record "
                     "(no seed_ips or baseline_seconds)")


def bench_reports(paths: Sequence[Path],
                  window: int = DEFAULT_WINDOW,
                  tolerance: float = DEFAULT_TOLERANCE
                  ) -> List[Report]:
    reports: List[Report] = []
    for path in paths:
        try:
            record = json.loads(Path(path).read_text())
        except OSError:
            continue
        kind = classify(record)
        if kind == "core":
            tables = core_trend(record, window=window,
                                tolerance=tolerance)
        else:
            tables = sweep_trend(record, window=window,
                                 tolerance=tolerance)
        for table in tables:
            table.title = f"{table.title} [{Path(path).name}]"
        reports.extend(tables)
    return reports


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-bench-report",
        description="Render BENCH_core.json / BENCH_sweep.json history "
                    "as trend tables with regression flags")
    parser.add_argument("bench", nargs="*", type=Path,
                        default=[Path("BENCH_core.json"),
                                 Path("BENCH_sweep.json")],
                        help="BENCH json files (classified by content; "
                             "default: BENCH_core.json "
                             "BENCH_sweep.json)")
    parser.add_argument("--window", type=int, default=DEFAULT_WINDOW,
                        help="rolling-median window "
                             f"(default {DEFAULT_WINDOW})")
    parser.add_argument("--tolerance", type=float,
                        default=DEFAULT_TOLERANCE,
                        help="drift band before flagging "
                             f"(default {DEFAULT_TOLERANCE})")
    parser.add_argument("--html", type=Path, default=None, metavar="OUT",
                        help="also write the trend tables as a static "
                             "HTML page")
    parser.add_argument("--strict", action="store_true",
                        help="exit nonzero if the newest entry of any "
                             "table is flagged 'regress'")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    reports = bench_reports(args.bench, window=args.window,
                            tolerance=args.tolerance)
    if not reports:
        print(f"no BENCH records found in: "
              f"{', '.join(map(str, args.bench))}")
        return 1
    print("\n\n".join(report.render() for report in reports))
    if args.html is not None:
        from ..util.locking import atomic_write_text
        atomic_write_text(
            args.html,
            render_dashboard_html(reports, title="repro bench trends"))
        print(f"\nwrote {args.html}")
    if args.strict and any("regress" in latest_flags(report)
                           for report in reports):
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
