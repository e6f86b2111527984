"""Pipeline tracing: Figure-2-style views of committed instructions.

Attach a :class:`PipelineTracer` to a core and run; the tracer records,
for every committed instruction, the cycles at which it was dispatched,
(last) issued, completed and committed, plus how its value was obtained
(executed / value-predicted / reused).  ``render()`` produces a text
table like the paper's Figure 2, with cycles relative to the first
recorded dispatch.

The same table can be reconstructed *offline* from a saved telemetry
event trace: ``commit`` events carry the full lifetime of each retired
instruction, and :func:`records_from_events` turns them back into
:class:`TraceRecord` rows.  Both paths share one formatting helper,
:func:`render_trace_table`, so ``repro-sim --trace`` and ``repro-trace
--figure2`` print byte-identical views of the same run.

Example::

    core = OutOfOrderCore(ir_config(), program)
    tracer = PipelineTracer(core, limit=32)
    core.run(max_cycles=10_000)
    print(tracer.render())
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence

from ..isa.instruction import format_instruction
from .core import OutOfOrderCore
from .entry import InflightOp


@dataclass
class TraceRecord:
    """Lifetime of one committed instruction."""

    pc: int
    text: str
    dispatch: int
    issue: Optional[int]
    complete: int
    commit: int
    executions: int
    reused: bool
    predicted: bool
    prediction_correct: Optional[bool]

    @property
    def origin(self) -> str:
        if self.reused:
            return "reused"
        if self.predicted:
            suffix = "" if self.prediction_correct else " (wrong)"
            return f"predicted{suffix}"
        return "executed"

    @classmethod
    def from_event(cls, event) -> "TraceRecord":
        """Rebuild a record from a saved telemetry ``commit`` event."""
        data = event.data
        return cls(
            pc=event.pc,
            text=data.get("text", ""),
            dispatch=data.get("dispatch", event.cycle),
            issue=data.get("issue"),
            complete=data.get("complete", event.cycle),
            commit=event.cycle,
            executions=data.get("executions", 0),
            reused=bool(data.get("reused")),
            predicted=bool(data.get("predicted")),
            prediction_correct=data.get("correct"),
        )


def records_from_events(events: Iterable) -> List[TraceRecord]:
    """The :class:`TraceRecord` rows of a telemetry event stream."""
    return [TraceRecord.from_event(event) for event in events
            if event.kind == "commit"]


_HEADERS = ("pc", "instruction", "disp", "issue", "done", "commit", "how")
_RIGHT_ALIGNED = frozenset((2, 3, 4, 5))  # the cycle-number columns


def render_trace_table(records: Sequence[TraceRecord],
                       relative: bool = True) -> str:
    """Format records as the Figure-2 table.

    Column widths are computed over headers *and* cells, so arbitrarily
    long disassembly strings (or a text column narrower than its
    header) can never shear the columns out of alignment.
    """
    if not records:
        return "(no instructions traced)"
    origin = min(r.dispatch for r in records) if relative else 0
    rows = []
    for r in records:
        issue = str(r.issue - origin) if r.issue is not None else "-"
        rows.append((f"{r.pc:#010x}", r.text, str(r.dispatch - origin),
                     issue, str(r.complete - origin),
                     str(r.commit - origin), r.origin))
    widths = [max(len(_HEADERS[col]), max(len(row[col]) for row in rows))
              for col in range(len(_HEADERS))]

    def fmt(cells) -> str:
        parts = []
        for col, cell in enumerate(cells):
            if col in _RIGHT_ALIGNED:
                parts.append(cell.rjust(widths[col]))
            else:
                parts.append(cell.ljust(widths[col]))
        return "  ".join(parts).rstrip()

    full_width = sum(widths) + 2 * (len(_HEADERS) - 1)
    lines = [fmt(_HEADERS), "-" * full_width]
    lines.extend(fmt(row) for row in rows)
    return "\n".join(lines)


class PipelineTracer:
    """Collects :class:`TraceRecord` objects through the commit hook."""

    def __init__(self, core: OutOfOrderCore, limit: int = 64,
                 start_cycle: int = 0):
        self.core = core
        self.limit = limit
        self.start_cycle = start_cycle
        self.records: List[TraceRecord] = []
        self._previous_hook = core.on_commit
        core.on_commit = self._record

    def _record(self, op: InflightOp, cycle: int) -> None:
        if self._previous_hook is not None:
            self._previous_hook(op, cycle)
        if cycle < self.start_cycle or len(self.records) >= self.limit:
            return
        correct = None
        if op.predicted:
            correct = op.predicted_value == op.outcome.result
        complete = op.last_completion_cycle
        assert complete is not None, "an op commits only once completed"
        self.records.append(TraceRecord(
            pc=op.inst.pc,
            text=format_instruction(op.inst),
            dispatch=op.dispatch_cycle,
            issue=op.issue_cycle,
            complete=complete,
            commit=cycle,
            executions=op.exec_count,
            reused=op.reused,
            predicted=op.predicted,
            prediction_correct=correct,
        ))

    def detach(self) -> None:
        self.core.on_commit = self._previous_hook

    # -- rendering ------------------------------------------------------------------

    def render(self, relative: bool = True) -> str:
        """A Figure-2-style table: one committed instruction per row."""
        return render_trace_table(self.records, relative=relative)

    def chain_spread(self) -> int:
        """Cycles between the first and last commit in the trace."""
        if not self.records:
            return 0
        return (max(r.commit for r in self.records)
                - min(r.commit for r in self.records))
