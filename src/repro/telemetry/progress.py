"""``repro-top``: follow a sweep from the manifests in its result cache.

:meth:`~repro.experiments.runner.ExperimentRunner.run_many` writes its
sweep manifest (:mod:`repro.telemetry.manifest`) before the first
simulation, with ``wallclock_seconds: null`` ("running"), and again at
the end; the process that simulates a cell writes its run manifest as
soon as the result is stored.  :meth:`SweepSnapshot.from_manifests`
folds the newest sweep manifest, the result files of its keys and the
run manifests written since it began, and ``repro-top`` renders the
fold until the sweep ends.  Elapsed time and ages compare the
manifests' ``created_unix`` with this host's clock.

A sweep without manifests (``--no-cache``, ``--no-manifests``) has no
live view, and no view shows how far a worker is into its current cell.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

from .manifest import load_manifests


class SweepSnapshot:
    """The folded state of one sweep: totals plus per-worker lines."""

    def __init__(self) -> None:
        self.total = 0
        self.cached = 0
        self.jobs = 0
        self.done = 0
        self.started_unix: Optional[float] = None
        self.wallclock: Optional[float] = None
        self.workers: Dict[int, Dict] = {}

    @classmethod
    def from_manifests(cls, results) -> "SweepSnapshot":
        """Fold the newest sweep in the result cache *results*: a cell
        is done once its result file exists, and each worker ``pid``
        counts its simulated run manifests since the sweep began."""
        results = Path(results)
        manifests = load_manifests(results / "manifests")
        snap = cls()
        sweeps = [m for m in manifests if m.get("kind") == "sweep"]
        if not sweeps:
            return snap
        sweep = max(sweeps, key=lambda m: m.get("created_unix") or 0)
        keys = set(sweep.get("runs") or ())
        snap.total = len(keys)
        snap.cached = sweep.get("cached") or 0
        snap.jobs = sweep.get("jobs") or 0
        snap.wallclock = sweep.get("wallclock_seconds")
        # The closing write is stamped at the end of the sweep.
        snap.started_unix = (sweep.get("created_unix") or 0) \
            - (snap.wallclock or 0)
        snap.done = sum((results / f"{key}.json").exists() for key in keys)
        for manifest in manifests:
            created = manifest.get("created_unix") or 0
            if manifest.get("kind") != "run" or manifest.get("cache_hit") \
                    or manifest.get("cache_key") not in keys \
                    or created < snap.started_unix:
                continue
            worker = snap.workers.setdefault(
                manifest.get("pid", 0),
                {"done": 0, "checkpoint_hits": 0, "checkpoint_misses": 0,
                 "last_unix": created})
            worker["done"] += 1
            worker["last_unix"] = max(worker["last_unix"], created)
            source = manifest.get("checkpoint")
            worker["checkpoint_hits"] += source in ("memo", "disk")
            worker["checkpoint_misses"] += source == "captured"
        return snap

    @property
    def finished(self) -> bool:
        return self.wallclock is not None

    def elapsed(self, now: Optional[float] = None) -> Optional[float]:
        if self.finished or self.started_unix is None:
            return self.wallclock
        now = time.time() if now is None else now
        return max(0.0, now - self.started_unix)

    def eta(self, now: Optional[float] = None) -> Optional[float]:
        """Remaining seconds at the rate of the cells simulated so far
        (the pre-cached cells took no time)."""
        elapsed = self.elapsed(now)
        simulated = self.done - self.cached
        if elapsed is None or simulated <= 0 or self.finished:
            return None
        return elapsed * max(0, self.total - self.done) / simulated


def render_snapshot(snap: SweepSnapshot,
                    now: Optional[float] = None) -> str:
    """The ``repro-top`` view: one sweep header + one line per worker."""
    if snap.total == 0:
        return "no sweep manifest recorded yet"
    now = time.time() if now is None else now
    parts = [f"sweep: {snap.done}/{snap.total} cells"]
    if snap.cached:
        parts.append(f"({snap.cached} pre-cached)")
    if snap.jobs:
        parts.append(f"jobs={snap.jobs}")
    elapsed = snap.elapsed(now)
    if elapsed is not None:
        parts.append(f"elapsed {elapsed:.1f}s")
    eta = snap.eta(now)
    if snap.finished:
        parts.append("[done]")
    elif eta is not None:
        parts.append(f"eta ~{eta:.0f}s")
    else:
        parts.append("[running]")
    lines = ["  ".join(parts)]
    if snap.workers:
        lines.append(f"{'worker':<8} {'done':>4}  {'ckpt h/m':>9}  "
                     f"{'age':>6}")
        for pid in sorted(snap.workers):
            worker = snap.workers[pid]
            age = max(0.0, now - worker["last_unix"])
            lines.append(
                f"{pid:<8} {worker['done']:>4}  "
                f"{worker['checkpoint_hits']:>4}/"
                f"{worker['checkpoint_misses']:<4} "
                f"{age:>5.1f}s")
    return "\n".join(lines)


def follow(results, interval: float = 2.0, once: bool = False,
           out=print) -> int:
    """The ``repro-top`` refresh loop; returns a process exit code.

    Stops once the newest sweep has ended; clears the screen between
    refreshes only when following on a terminal.
    """
    clear = not once and sys.stdout.isatty()
    while True:
        snap = SweepSnapshot.from_manifests(results)
        text = render_snapshot(snap)
        out(f"\x1b[H\x1b[2Jrepro-top: {results}\n{text}" if clear
            else text)
        if once or snap.finished:
            return 0
        try:
            time.sleep(interval)
        except KeyboardInterrupt:  # pragma: no cover - interactive
            return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-top",
        description="Follow a sweep from the run and sweep manifests of "
                    "its result cache (see docs/telemetry.md)")
    parser.add_argument("results",
                        help="the sweep's result-cache directory (the "
                             "one holding manifests/)")
    parser.add_argument("--once", action="store_true",
                        help="print one snapshot and exit")
    parser.add_argument("--interval", type=float, default=2.0,
                        metavar="SECONDS",
                        help="refresh period while following "
                             "(default 2s)")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.interval <= 0:
        parser.error(f"--interval must be positive, got {args.interval}")
    return follow(args.results, interval=args.interval, once=args.once)


if __name__ == "__main__":
    sys.exit(main())
