"""Live sweep progress: the heartbeat protocol and the ``repro-top`` CLI.

A sweep used to be a black box until it finished; this module makes it
observable *while it runs*.  Every participant of a traced sweep
appends single-line JSON records to ``<telemetry-dir>/progress.jsonl``:

* the parent emits ``sweep_start`` (total cells, how many were already
  cached, pool size) and ``sweep_done``;
* each worker emits ``job_start`` / ``job_done`` per cell plus
  ``heartbeat`` records — at job boundaries and (throttled) from inside
  long simulations via the interval sink's sample hook — carrying its
  cumulative counters: cells done, the current cell, result-cache and
  checkpoint hit-vs-miss counts.

Appends go through :func:`repro.util.locking.append_line` (one
``O_APPEND`` write per record, so concurrent workers interleave whole
lines) and a reader tolerates a torn tail line.  Timestamps are
``time.monotonic()`` readings — system-wide on the platforms the sweep
harness supports, so a tailing reader on the same machine can compute
heartbeat ages; no wallclock ever enters the protocol (the
``monotonic-tracing`` lint rule enforces this).

``repro-top`` tails the file and renders a per-worker table with ETA.
Like every other telemetry layer, progress is observation-only: a
traced sweep's result cache and ``SimStats`` are byte-identical to an
untraced one.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

from ..util.locking import append_line
from ..util.serial import canonical_dumps

PROGRESS_FORMAT = "repro-progress-v1"

#: Default file name under the sweep's telemetry directory.
PROGRESS_FILE = "progress.jsonl"

#: Record kinds of the protocol, in lifecycle order.
PROGRESS_KINDS = ("sweep_start", "job_start", "heartbeat", "job_done",
                  "sweep_done")

#: Minimum seconds between in-simulation heartbeats per writer — the
#: sink's sample hook may fire every few hundred simulated cycles, and
#: the file must grow with wallclock, not with simulated work.
HEARTBEAT_MIN_SECONDS = 0.5


class ProgressWriter:
    """One process's appender: tracks counters, emits protocol records."""

    def __init__(self, path,
                 heartbeat_min_seconds: float = HEARTBEAT_MIN_SECONDS):
        self.path = Path(path)
        self.pid = os.getpid()
        self.heartbeat_min_seconds = heartbeat_min_seconds
        self.done = 0
        self.cache_hits = 0
        self.cache_misses = 0
        self.checkpoint_hits = 0
        self.checkpoint_misses = 0
        self.current: Optional[str] = None
        self._last_heartbeat = -float("inf")

    # -- protocol records ---------------------------------------------------------

    def emit(self, kind: str, **fields) -> None:
        record = {"format": PROGRESS_FORMAT, "kind": kind,
                  "pid": self.pid, "t_mono": round(time.monotonic(), 3)}
        record.update(fields)
        append_line(self.path, canonical_dumps(record, indent=None))

    def sweep_start(self, total: int, cached: int, pending: int,
                    jobs: int) -> None:
        self.emit("sweep_start", total=total, cached=cached,
                  pending=pending, jobs=jobs)

    def sweep_done(self, total: int, simulated: int,
                   wall_s: float) -> None:
        self.emit("sweep_done", total=total, simulated=simulated,
                  wall_s=round(wall_s, 3))

    def job_start(self, key: str, workload: str, config: str) -> None:
        self.current = key
        self.cache_misses += 1
        self.emit("job_start", key=key, workload=workload,
                  config=config)
        self._counters_heartbeat(force=True)

    def job_done(self, key: str, elapsed_s: float,
                 committed: int) -> None:
        self.current = None
        self.done += 1
        self.emit("job_done", key=key, elapsed_s=round(elapsed_s, 3),
                  committed=committed)
        self._counters_heartbeat(force=True)

    def cache_hit(self, key: str) -> None:
        self.done += 1
        self.cache_hits += 1
        self._counters_heartbeat(force=True)

    def checkpoint(self, source: Optional[str]) -> None:
        """Record where a warm-up came from (``memo``/``disk`` are hits,
        ``captured`` is a miss; anything else is not a checkpoint)."""
        if source in ("memo", "disk"):
            self.checkpoint_hits += 1
        elif source == "captured":
            self.checkpoint_misses += 1

    def heartbeat(self, current: Optional[str] = None,
                  cycles: Optional[int] = None,
                  committed: Optional[int] = None) -> None:
        """In-simulation heartbeat (throttled); wired to the interval
        sink's sample hook so long cells stay visibly alive."""
        now = time.monotonic()
        if now - self._last_heartbeat < self.heartbeat_min_seconds:
            return
        extra: Dict[str, object] = {}
        if cycles is not None:
            extra["cycles"] = cycles
        if committed is not None:
            extra["committed"] = committed
        self._emit_heartbeat(current if current is not None
                             else self.current, extra)

    def _counters_heartbeat(self, force: bool = False) -> None:
        now = time.monotonic()
        if not force and now - self._last_heartbeat \
                < self.heartbeat_min_seconds:
            return
        self._emit_heartbeat(self.current, {})

    def _emit_heartbeat(self, current: Optional[str],
                        extra: Dict[str, object]) -> None:
        self._last_heartbeat = time.monotonic()
        self.emit("heartbeat", current=current, done=self.done,
                  cache_hits=self.cache_hits,
                  cache_misses=self.cache_misses,
                  checkpoint_hits=self.checkpoint_hits,
                  checkpoint_misses=self.checkpoint_misses, **extra)


# -- reading ---------------------------------------------------------------------


def read_progress(path) -> List[Dict]:
    """Parse a progress file, skipping torn/foreign lines.

    A live file may end mid-record (a writer between ``write`` calls);
    the tail line simply does not parse yet and is dropped, exactly as
    a tailing reader must.
    """
    records = []
    try:
        text = Path(path).read_text()
    except OSError:
        return records
    for line in text.splitlines():
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except ValueError:
            continue
        if isinstance(record, dict) \
                and record.get("format") == PROGRESS_FORMAT:
            records.append(record)
    return records


class SweepSnapshot:
    """The folded state of one sweep: totals plus per-worker lines."""

    def __init__(self) -> None:
        self.total = 0
        self.cached = 0
        self.pending = 0
        self.jobs = 0
        self.started_mono: Optional[float] = None
        self.finished: Optional[Dict] = None
        self.workers: Dict[int, Dict] = {}
        self.last_mono: Optional[float] = None

    @classmethod
    def from_records(cls, records: List[Dict]) -> "SweepSnapshot":
        """Fold the records of the *most recent* sweep (everything from
        the last ``sweep_start`` on; all records when there is none)."""
        starts = [i for i, r in enumerate(records)
                  if r.get("kind") == "sweep_start"]
        if starts:
            records = records[starts[-1]:]
        snap = cls()
        for record in records:
            kind = record.get("kind")
            t_mono = record.get("t_mono")
            if isinstance(t_mono, (int, float)):
                snap.last_mono = t_mono
            if kind == "sweep_start":
                snap.total = record.get("total", 0)
                snap.cached = record.get("cached", 0)
                snap.pending = record.get("pending", 0)
                snap.jobs = record.get("jobs", 0)
                snap.started_mono = t_mono
            elif kind == "sweep_done":
                snap.finished = record
            elif kind in ("heartbeat", "job_start", "job_done"):
                worker = snap.workers.setdefault(record.get("pid", 0), {})
                worker["t_mono"] = t_mono
                if kind == "heartbeat":
                    worker.update(
                        {name: record[name] for name in
                         ("current", "done", "cache_hits",
                          "cache_misses", "checkpoint_hits",
                          "checkpoint_misses", "cycles", "committed")
                         if name in record})
                elif kind == "job_start":
                    worker["current"] = record.get("key")
                elif kind == "job_done":
                    worker["current"] = None
                    worker.pop("cycles", None)
                    worker.pop("committed", None)
        return snap

    @property
    def done(self) -> int:
        return sum(worker.get("done", 0)
                   for worker in self.workers.values())

    def elapsed(self) -> Optional[float]:
        if self.started_mono is None or self.last_mono is None:
            return None
        return max(0.0, self.last_mono - self.started_mono)

    def eta(self) -> Optional[float]:
        """Naive remaining-time estimate from the done/elapsed rate."""
        elapsed = self.elapsed()
        done = self.done
        if elapsed is None or done <= 0 or self.total <= 0 \
                or self.finished is not None:
            return None
        remaining = max(0, self.total - done)
        return elapsed * remaining / done


def render_snapshot(snap: SweepSnapshot,
                    now_mono: Optional[float] = None) -> str:
    """The ``repro-top`` view: one sweep header + one line per worker."""
    if snap.total == 0 and not snap.workers:
        return "no sweep progress recorded yet"
    parts = [f"sweep: {snap.done}/{snap.total} cells"]
    if snap.cached:
        parts.append(f"({snap.cached} pre-cached)")
    if snap.jobs:
        parts.append(f"jobs={snap.jobs}")
    elapsed = snap.elapsed()
    if elapsed is not None:
        parts.append(f"elapsed {elapsed:.1f}s")
    if snap.finished is not None:
        wall = snap.finished.get("wall_s")
        parts.append(f"[done in {wall:.1f}s]" if wall is not None
                     else "[done]")
    else:
        eta = snap.eta()
        if eta is not None:
            parts.append(f"eta ~{eta:.0f}s")
        else:
            parts.append("[running]")
    lines = ["  ".join(parts)]
    if snap.workers:
        lines.append(f"{'worker':<8} {'done':>4}  {'cache h/m':>9}  "
                     f"{'ckpt h/m':>9}  {'age':>6}  current")
        now = time.monotonic() if now_mono is None else now_mono
        for pid in sorted(snap.workers):
            worker = snap.workers[pid]
            age = "-"
            t_mono = worker.get("t_mono")
            if isinstance(t_mono, (int, float)):
                age = f"{max(0.0, now - t_mono):.1f}s"
            current = worker.get("current") or "idle"
            if worker.get("cycles") is not None:
                current += f" @ {worker['cycles']} cyc"
            lines.append(
                f"{pid:<8} {worker.get('done', 0):>4}  "
                f"{worker.get('cache_hits', 0):>4}/"
                f"{worker.get('cache_misses', 0):<4} "
                f"{worker.get('checkpoint_hits', 0):>4}/"
                f"{worker.get('checkpoint_misses', 0):<4} "
                f"{age:>6}  {current}")
    return "\n".join(lines)


def progress_path(target) -> Path:
    """Resolve a CLI target: a progress file, or a directory holding
    one (``<telemetry-dir>`` or a result cache with ``telemetry/``)."""
    target = Path(target)
    if target.is_dir():
        direct = target / PROGRESS_FILE
        if direct.exists():
            return direct
        nested = target / "telemetry" / PROGRESS_FILE
        if nested.exists():
            return nested
        return direct
    return target


def follow(target, interval: float = 2.0, once: bool = False,
           clear: bool = True, out=print) -> int:
    """The ``repro-top`` tail-and-render loop; returns a process exit
    code."""
    path = progress_path(target)
    while True:
        snap = SweepSnapshot.from_records(read_progress(path))
        text = render_snapshot(snap)
        if clear and not once:
            out("\x1b[H\x1b[2J" + f"repro-top: {path}\n" + text)
        else:
            out(text)
        if once or snap.finished is not None:
            return 0
        try:
            time.sleep(interval)
        except KeyboardInterrupt:  # pragma: no cover - interactive
            return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-top",
        description="Tail and render the live progress of a traced "
                    "sweep (see docs/telemetry.md)")
    parser.add_argument("telemetry",
                        help="progress.jsonl file, or a telemetry/"
                             "result-cache directory containing one")
    parser.add_argument("--once", action="store_true",
                        help="print one snapshot and exit")
    parser.add_argument("--interval", type=float, default=2.0,
                        metavar="SECONDS",
                        help="refresh period while following "
                             "(default 2s)")
    parser.add_argument("--no-clear", action="store_true",
                        help="append snapshots instead of clearing the "
                             "screen")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return follow(args.telemetry, interval=args.interval,
                  once=args.once, clear=not args.no_clear)


if __name__ == "__main__":
    sys.exit(main())
