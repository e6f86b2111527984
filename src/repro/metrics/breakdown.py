"""Per-instruction-class breakdown of captured redundancy.

The paper reports aggregate capture rates (Table 3); for understanding
*where* each technique wins, a per-class view is more useful: loads
behave differently from ALU ops (memory invalidation, address reuse),
branches can only be reused, and multiplies/divides gain the most per
hit (their execution latency is what reuse removes).

Attach a :class:`ClassBreakdown` to a core before running::

    breakdown = ClassBreakdown(core)
    core.run(...)
    print(breakdown.report().render())
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

from ..isa.instruction import Instruction
from ..uarch.core import OutOfOrderCore
from ..uarch.entry import InflightOp
from .report import Report

CLASSES = ("alu", "load", "store", "branch", "jump", "mult/div")


def classify(inst: Instruction) -> str:
    """Map an instruction to its breakdown class."""
    op = inst.opcode
    if op.is_load:
        return "load"
    if op.is_store:
        return "store"
    if op.is_branch:
        return "branch"
    if op.is_jump:
        return "jump"
    if op.writes_hi_lo or op.name in ("mfhi", "mflo"):
        return "mult/div"
    return "alu"


@dataclass
class ClassCounts:
    """Counters for one instruction class."""

    committed: int = 0
    reused: int = 0
    addr_reused: int = 0
    predicted: int = 0
    predicted_correct: int = 0
    executions: int = 0

    def rate(self, count: int) -> float:
        return count / self.committed if self.committed else 0.0


class ClassBreakdown:
    """Commit-hook observer accumulating per-class statistics."""

    def __init__(self, core: OutOfOrderCore):
        self.core = core
        self.counts: Dict[str, ClassCounts] = {
            name: ClassCounts() for name in CLASSES}
        self._previous_hook = core.on_commit
        core.on_commit = self._record

    def _record(self, op: InflightOp, cycle: int) -> None:
        if self._previous_hook is not None:
            self._previous_hook(op, cycle)
        counts = self.counts[classify(op.inst)]
        counts.committed += 1
        counts.executions += op.exec_count
        if op.reuse_hit_full:
            counts.reused += 1
        if op.reuse_hit_addr:
            counts.addr_reused += 1
        if op.predicted:
            counts.predicted += 1
            if op.predicted_value == op.outcome.result:
                counts.predicted_correct += 1

    def detach(self) -> None:
        self.core.on_commit = self._previous_hook

    def report(self, title: str = "Per-class capture breakdown") -> Report:
        report = Report(
            title,
            headers=["class", "committed", "mix %", "reused %",
                     "addr reused %", "predicted ok %", "execs/inst"],
        )
        total = sum(c.committed for c in self.counts.values()) or 1
        for name in CLASSES:
            counts = self.counts[name]
            if not counts.committed:
                continue
            report.add_row(
                name,
                counts.committed,
                100.0 * counts.committed / total,
                100.0 * counts.rate(counts.reused),
                100.0 * counts.rate(counts.addr_reused),
                100.0 * counts.rate(counts.predicted_correct),
                counts.executions / counts.committed,
            )
        return report
