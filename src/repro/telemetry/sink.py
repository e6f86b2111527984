"""The telemetry sink: what an instrumented core actually talks to.

``core.enable_telemetry()`` attaches one :class:`TelemetrySink` to a
:class:`~repro.uarch.core.OutOfOrderCore`.  The sink owns both
observability layers:

* the **interval collector** — ``on_cycle`` samples the machine at fixed
  cycle boundaries into an :class:`~repro.telemetry.interval
  .IntervalSeries` (see that module for the column set);
* the **event trace** — ``emit`` appends typed records to a bounded
  :class:`~repro.telemetry.events.EventTrace` ring buffer and keeps the
  per-interval event counters (predictions, reuse hits, re-executions)
  that cumulative ``SimStats`` counters cannot provide.

Everything here is observation-only: a sink never feeds a value back
into the core, so attaching one cannot change a statistic — the
telemetry-transparency test pins ``SimStats`` byte-identity with and
without a sink, and the golden corpus pins the detached default.

The core steps every cycle and calls ``on_cycle`` after each one, so
every boundary row samples the machine at exactly its boundary cycle.
"""

from __future__ import annotations

from typing import Dict, Optional

from ..isa.instruction import format_instruction
from .events import DEFAULT_CAPACITY, EventTrace
from .interval import DEFAULT_INTERVAL, IntervalSeries

# Event kinds that feed a per-interval counter column.
_ACC_FOR_KIND = {
    "vp_predict": "vp_predicted",
    "vp_verify": "vp_verified",
    "reuse_hit": "reuse_hits",
    "reuse_miss": "reuse_misses",
    "reexec": "reexecs",
    "branch_resolve": "branch_resolutions",
}

_ACC_COLUMNS = ("vp_predicted", "vp_verified", "vp_mispredicted",
                "reuse_hits", "reuse_misses", "reexecs",
                "branch_resolutions")


class TelemetrySink:
    """One run's telemetry: interval series + event ring buffer."""

    def __init__(self, interval: int = DEFAULT_INTERVAL,
                 trace_capacity: int = DEFAULT_CAPACITY,
                 events: bool = True):
        self.interval = max(1, int(interval))
        self.series = IntervalSeries(interval=self.interval)
        self.trace: Optional[EventTrace] = (
            EventTrace(trace_capacity) if events else None)
        self._next_sample = self.interval
        self._last_cycle = 0
        self._prev: Dict[str, int] = {}
        self._acc: Dict[str, int] = {name: 0 for name in _ACC_COLUMNS}
        self._disasm: Dict[int, str] = {}
        self._finalized = False

    # -- event path (hot when attached) -------------------------------------------

    def emit(self, kind: str, cycle: int, seq: int = -1, pc: int = -1,
             data: Optional[Dict] = None) -> None:
        acc_key = _ACC_FOR_KIND.get(kind)
        if acc_key is not None:
            acc = self._acc
            acc[acc_key] += 1
            if kind == "vp_verify" and data is not None \
                    and not data.get("correct"):
                acc["vp_mispredicted"] += 1
        if self.trace is not None:
            self.trace.emit(kind, cycle, seq, pc, data)

    def disasm(self, meta) -> str:
        """Disassembly text for a :class:`StaticOp`, cached per PC."""
        text = self._disasm.get(meta.pc)
        if text is None:
            text = self._disasm[meta.pc] = format_instruction(meta.inst)
        return text

    # -- interval path --------------------------------------------------------------

    def on_cycle(self, core) -> None:
        """Sample when ``core.cycle`` reaches the next boundary."""
        if core.cycle >= self._next_sample:
            self._sample(core, self._next_sample)
            self._next_sample += self.interval

    def _cumulative(self, core) -> Dict[str, int]:
        stats = core.stats
        return {
            "committed": stats.committed,
            "dispatched": stats.dispatched,
            "executions": stats.execution_attempts,
            "reuse_tests": stats.ir_tests,
            "squashes": stats.branch_squashes,
            "spurious_squashes": stats.spurious_squashes,
            "fetch_stall_cycles": core.fetch_unit.stall_cycles,
        }

    def _sample(self, core, boundary: int) -> None:
        current = self._cumulative(core)
        prev = self._prev
        width = boundary - self._last_cycle
        row = {name: current[name] - prev.get(name, 0)
               for name in current}
        acc = self._acc
        row.update(acc)
        row["cycle"] = boundary
        row["cycles"] = width
        row["ipc"] = row["committed"] / width if width else 0.0
        row["rob_occupancy"] = len(core.rob)
        row["lsq_occupancy"] = len(core.lsq)
        row["fetch_queue"] = len(core.fetch_unit.queue)
        self.series.append(row)
        self._prev = current
        self._last_cycle = boundary
        for name in acc:
            acc[name] = 0

    def finalize(self, core) -> None:
        """Flush the trailing partial interval and record run context.

        Idempotent; the core calls it at the end of :meth:`run`.
        """
        if self._finalized:
            return
        self._finalized = True
        if core.cycle > self._last_cycle:
            self._sample(core, core.cycle)
        stats = core.stats
        context = {
            "config": core.config.name,
            "workload": stats.workload_name,
            "total_cycles": stats.cycles,
            "total_committed": stats.committed,
        }
        if core.vp is not None:
            snapshot = getattr(core.vp, "telemetry_snapshot", None)
            if snapshot is not None:
                context["vp"] = snapshot()
        self.series.context.update(context)

    # -- artifact output --------------------------------------------------------------

    def write_timeseries(self, path) -> None:
        self.series.write(path)

    def write_trace(self, path, **context) -> None:
        if self.trace is None:
            raise ValueError("event tracing disabled for this sink")
        from ..util.locking import atomic_write_text
        merged = dict(self.series.context)
        merged.update(context)
        atomic_write_text(path, self.trace.dumps(**merged))
