"""``repro-trace``: inspect a saved telemetry event trace.

Usage::

    repro-trace run.trace.jsonl                       # dump all events
    repro-trace run.trace.jsonl --kinds commit,squash # filter by kind
    repro-trace run.trace.jsonl --pc 0x400120         # one static inst
    repro-trace run.trace.jsonl --since 1000 --until 2000
    repro-trace run.trace.jsonl --counts              # events per kind
    repro-trace run.trace.jsonl --figure2             # pipeline view

``--figure2`` renders the Figure-2 pipeline table from the trace's
``commit`` events with :func:`~repro.telemetry.events.figure2_table`,
the renderer ``repro-sim --trace`` uses on its own event ring: for the
same run, ``--figure2 --since 200 --limit N`` prints the table
``repro-sim --trace N`` printed.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional

from .events import EVENT_KINDS, TraceEvent, figure2_table, load_trace


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-trace",
        description="Filter and render a saved repro telemetry event "
                    "trace (see docs/telemetry.md for the schema)")
    parser.add_argument("trace", type=Path,
                        help="trace file written by repro-sim "
                             "--trace-out or TelemetrySink.write_trace")
    parser.add_argument("--kinds", default=None,
                        help="comma-separated event kinds to keep "
                             f"(known: {', '.join(EVENT_KINDS)})")
    parser.add_argument("--pc", default=None,
                        help="keep events of one static instruction "
                             "(hex like 0x400120, or decimal)")
    parser.add_argument("--since", type=int, default=None, metavar="CYCLE",
                        help="keep events at or after this cycle")
    parser.add_argument("--until", type=int, default=None, metavar="CYCLE",
                        help="keep events at or before this cycle")
    parser.add_argument("--limit", type=int, default=None, metavar="N",
                        help="print at most the first N matching events")
    parser.add_argument("--counts", action="store_true",
                        help="print events-per-kind totals instead of "
                             "individual events")
    parser.add_argument("--figure2", action="store_true",
                        help="render the Figure-2 pipeline view from "
                             "the trace's commit events")
    return parser


def format_event(event: TraceEvent) -> str:
    """One event per line: cycle, kind, identity, then the payload."""
    parts = [f"{event.cycle:>8}", f"{event.kind:<18}"]
    if event.pc >= 0:
        parts.append(f"pc={event.pc:#010x}")
    if event.seq >= 0:
        parts.append(f"seq={event.seq}")
    for key in sorted(event.data):
        value = event.data[key]
        if key == "text":
            value = f"'{value}'"
        parts.append(f"{key}={value}")
    return " ".join(parts)


def _parse_kinds(raw: Optional[str]) -> Optional[List[str]]:
    if raw is None:
        return None
    kinds = [kind.strip() for kind in raw.split(",") if kind.strip()]
    unknown = sorted(set(kinds) - set(EVENT_KINDS))
    if unknown:
        raise SystemExit(f"unknown event kind(s): {', '.join(unknown)} "
                         f"(known: {', '.join(EVENT_KINDS)})")
    return kinds


def _parse_pc(raw: Optional[str]) -> Optional[int]:
    if raw is None:
        return None
    try:
        return int(raw, 0)
    except ValueError:
        raise SystemExit(f"--pc wants a number, got {raw!r}") from None


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.limit is not None and args.limit < 0:
        parser.error(f"--limit must be non-negative, got {args.limit}")
    try:
        header, trace = load_trace(args.trace)
    except (OSError, ValueError) as exc:
        raise SystemExit(str(exc)) from None

    context = ", ".join(f"{key}={header[key]}"
                        for key in ("workload", "config") if header.get(key))
    print(f"trace: {args.trace}   events: {len(trace)}   "
          f"dropped: {trace.dropped}"
          + (f"   ({context})" if context else ""))

    filters = {"pc": _parse_pc(args.pc), "since": args.since,
               "until": args.until}
    if args.figure2:
        commits = trace.select(kinds=["commit"], **filters)
        print()
        print(figure2_table(commits[:args.limit]))
        return 0

    kinds = _parse_kinds(args.kinds)
    if args.counts:
        counts = trace.counts(kinds=kinds, **filters)
        width = max((len(kind) for kind in counts), default=4)
        for kind in sorted(counts, key=counts.get, reverse=True):
            print(f"{kind:<{width}}  {counts[kind]}")
        return 0

    for event in trace.select(kinds=kinds, **filters)[:args.limit]:
        print(format_event(event))
    return 0


if __name__ == "__main__":
    sys.exit(main())
