"""Per-phase wallclock profiling for the timing core (opt-in).

The profile lives outside :class:`~repro.metrics.stats.SimStats` on
purpose: ``SimStats.canonical_json`` is the golden-corpus regression
surface and must stay byte-identical across performance work, while
wallclock numbers differ on every run.  Attach a profile with
``core.enable_profiling()`` (or ``repro-sim --profile``): the core
installs a timer over each phase call its ``step()`` makes, so the
profile times the same guarded calls an unprofiled run makes, and
counts the event-queue / issue-queue activity.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Dict, Optional

from .stats import SimStats

# Pipeline phases in the order `step()` runs them.
PHASES = ("commit", "events", "issue", "dispatch", "fetch")


class CoreProfile:
    """Aggregated timing and event counters for one simulation run."""

    __slots__ = (
        "phase_seconds", "events_processed", "issue_queue_scanned",
        "started_at", "_stats",
    )

    def __init__(self, stats: Optional[SimStats] = None):
        self.phase_seconds: Dict[str, float] = {name: 0.0
                                                for name in PHASES}
        self.events_processed = 0
        self.issue_queue_scanned = 0  # queue entries examined by issue
        self.started_at = time.perf_counter()
        self._stats = stats  # the profiled run's statistics

    @property
    def cycles(self) -> int:
        """Cycles simulated so far (the core steps every one)."""
        return self._stats.cycles if self._stats is not None else 0

    # -- accounting (installed over the core's phase calls) -----------------------

    def timed(self, phase: str,
              fn: Callable[..., Any]) -> Callable[..., Any]:
        """*fn* wrapped to add each call's wallclock to *phase*."""
        seconds = self.phase_seconds
        clock = time.perf_counter

        def timer(*args: Any) -> Any:
            start = clock()
            result = fn(*args)
            seconds[phase] += clock() - start
            return result

        timer.phase = phase  # type: ignore[attr-defined]
        return timer

    # -- reporting ----------------------------------------------------------------

    def as_dict(self) -> Dict[str, object]:
        total = sum(self.phase_seconds.values())
        wall = time.perf_counter() - self.started_at
        cycles = self.cycles
        return {
            "phase_seconds": {name: round(self.phase_seconds[name], 6)
                              for name in PHASES},
            "phase_share": {name: round(self.phase_seconds[name]
                                        / (total or 1e-12), 4)
                            for name in PHASES},
            "step_seconds": round(total, 6),
            "wall_seconds": round(wall, 6),
            "cycles": cycles,
            "events_processed": self.events_processed,
            "issue_queue_scanned": self.issue_queue_scanned,
            "events_per_cycle": round(
                self.events_processed / (cycles or 1), 4),
            "scans_per_cycle": round(
                self.issue_queue_scanned / (cycles or 1), 4),
        }

    def report(self) -> str:
        """Human-readable profile block (``repro-sim --profile``).

        Four columns per phase: wallclock seconds, share of the phase
        total, share of the *whole* wall (includes run() overhead the
        phase timers never see), and microseconds per simulated cycle.
        """
        total = sum(self.phase_seconds.values()) or 1e-12
        wall = (time.perf_counter() - self.started_at) or 1e-12
        cycles = self.cycles or 1
        lines = ["phase      seconds   share   %wall  us/cycle"]
        for name in PHASES:
            seconds = self.phase_seconds[name]
            lines.append(f"{name:<9} {seconds:>8.3f}  "
                         f"{100 * seconds / total:>5.1f}%  "
                         f"{100 * seconds / wall:>5.1f}%  "
                         f"{1e6 * seconds / cycles:>8.2f}")
        lines.append(f"cycles: {self.cycles}   events processed: "
                     f"{self.events_processed} "
                     f"({self.events_processed / cycles:.2f}/cycle)")
        lines.append(f"issue-queue entries scanned: "
                     f"{self.issue_queue_scanned} "
                     f"({self.issue_queue_scanned / cycles:.2f}/cycle)")
        return "\n".join(lines)
