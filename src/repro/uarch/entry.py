"""The in-flight (ROB-resident) dynamic instruction record.

Timing semantics used throughout the core:

* a value with ``ready_cycle == r`` can be consumed by an execution issuing
  at cycle ``r + 1`` or later;
* a value-predicted or reused result is available at the dispatch cycle;
* ``nonspec_cycle`` is the cycle at which the value became non-value-
  speculative (verified); for non-VP configurations this equals the
  completion cycle.  Commit requires it.

Every dispatched instruction is one :class:`InflightOp`, from dispatch
to commit or squash, the way ``sim-outorder`` keeps one RUU station per
instruction.  The ROB, LSQ, rename map, event heap, wakeup queue, the
dataflow edges of other entries and the reuse engine all hold the entry
itself.

Lifetime (see ``docs/internals.md``):

* A squash sets ``squashed``.  The event heap, the wakeup queue and an
  older producer's ``consumers`` can still hold a squashed entry; each
  of them tests the flag and skips it.
* Commit sets ``committed``.  The rename map (and a branch's rename
  snapshot) can outlive a producer's commit, and dispatch links no edge
  to a committed producer: its final value is already the consumer's
  dispatch-time source value.
* Reference cycles run only through ``consumers`` (each edge points at
  a younger entry) and through a jump-and-link's ``rename_snapshot``
  (which maps ``$ra`` to the jump itself).  Commit and squash both clear
  these two.  Commit also clears ``producers``, so a committed entry
  does not keep older committed entries alive in a chain.  Refcounting
  then frees each entry once the rename map and its younger consumers
  drop it, and the core runs with the cyclic garbage collector paused.

The static classification flags the hot path reads (``is_load``,
``is_mem``...) are copied from the shared :class:`StaticOp` into slots;
everything else static is read off ``meta``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from ..isa.opcodes import REG_HI

if TYPE_CHECKING:
    from ..functional.simulator import ExecOutcome
    from ..isa.instruction import Instruction
    from ..reuse.buffer import RBEntry
    from .branch_predictor import BranchPrediction
    from .decode import StaticOp
    from .spec_state import Checkpoint


class InflightOp:
    """One dynamic instruction from dispatch to commit (or squash)."""

    __slots__ = (
        "seq", "meta", "outcome", "dispatch_cycle",
        "is_load", "is_store", "is_mem", "is_control", "writes_hi_lo",
        "producers", "src_values", "consumers",
        "completed", "ready_cycle", "value_ready_cycle", "hi_ready_cycle",
        "nonspec_cycle", "current_value", "current_hi",
        "exec_count", "issued", "completes_at", "issue_read_values",
        "used_values", "used_addr", "stale", "reexec_earliest",
        "in_issue_queue",
        "predicted", "predicted_value", "addr_predicted", "predicted_addr",
        "reused", "addr_reused", "reuse_value", "rb_entry",
        "reuse_hit_full", "reuse_hit_addr",
        "prediction", "believed_taken", "believed_target",
        "resolved_final", "last_resolution_cycle", "checkpoint",
        "rename_snapshot",
        "current_addr", "addr_known_cycle", "forwarded_from",
        "issue_cycle", "issue_addr", "last_completion_cycle",
        "squashed", "committed",
    )

    def __init__(self, seq: int, meta: StaticOp, outcome: ExecOutcome,
                 dispatch_cycle: int, src_values: Dict[int, int]) -> None:
        self.seq = seq
        self.meta = meta
        self.outcome = outcome
        self.dispatch_cycle = dispatch_cycle
        self.is_load: bool = meta.is_load
        self.is_store: bool = meta.is_store
        self.is_mem: bool = meta.is_mem
        self.is_control: bool = meta.is_control
        self.writes_hi_lo: bool = meta.writes_hi_lo

        # Register dataflow, fixed at rename time.
        self.producers: Dict[int, InflightOp] = {}  # src reg -> producer
        self.src_values = src_values  # dispatch-time (oracle) values
        self.consumers: List[Tuple[InflightOp, int]] = []  # (consumer, reg)

        # Timing state.
        self.completed = False  # final execution done (commit gating)
        self.ready_cycle: Optional[int] = None  # first value broadcast
        self.value_ready_cycle: Optional[int] = None  # incl. predictions
        self.hi_ready_cycle: Optional[int] = None  # HI of mult/div
        self.nonspec_cycle: Optional[int] = None
        self.current_value: Optional[int] = None
        self.current_hi: Optional[int] = None

        # Execution machinery.  Each issue points ``issue_read_values`` at
        # a fresh operand snapshot (or at ``src_values`` when no wrong
        # value can exist), so ``used_values`` (the last completed
        # execution's operands) is replaced, never mutated.
        self.exec_count = 0
        self.issued = False  # an execution is in flight
        self.completes_at: Optional[int] = None
        self.issue_read_values: Optional[Dict[int, int]] = None
        self.used_values: Optional[Dict[int, int]] = None
        self.used_addr: Optional[int] = None  # address last used (mem ops)
        self.stale = False  # inputs changed while executing
        self.reexec_earliest: Optional[int] = None  # pending re-execution
        self.in_issue_queue = False  # resident in the core's wakeup queue

        # Value prediction.
        self.predicted = False
        self.predicted_value: Optional[int] = None
        self.addr_predicted = False
        self.predicted_addr: Optional[int] = None

        # Instruction reuse.
        self.reused = False
        self.addr_reused = False
        self.reuse_value: Optional[int] = None
        self.rb_entry: Optional[RBEntry] = None  # the entry I inserted
        self.reuse_hit_full = False  # statistics flags (Table 3)
        self.reuse_hit_addr = False

        # Control.
        self.prediction: Optional[BranchPrediction] = None
        self.believed_taken: Optional[bool] = None
        self.believed_target: Optional[int] = None
        self.resolved_final = False
        self.last_resolution_cycle: Optional[int] = None
        self.checkpoint: Optional[Checkpoint] = None
        # Rename-map copy for squash recovery.
        self.rename_snapshot: Optional[List[Optional[InflightOp]]] = None

        # Memory.
        self.current_addr: Optional[int] = None
        self.addr_known_cycle: Optional[int] = None  # stores: disambiguation
        self.forwarded_from: Optional[InflightOp] = None  # loads only

        self.issue_cycle: Optional[int] = None
        self.issue_addr: Optional[int] = None
        self.last_completion_cycle: Optional[int] = None

        self.squashed = False
        self.committed = False

    # -- static facts only observers read ---------------------------------------------

    @property
    def inst(self) -> Instruction:
        return self.meta.inst

    # -- operand readiness (cold paths: the core inlines these) ------------------------

    def reg_ready_cycle(self, reg: int) -> Optional[int]:
        """When my dest *reg* became available to consumers."""
        if reg == REG_HI and self.writes_hi_lo:
            return self.hi_ready_cycle
        return self.value_ready_cycle

    def operands_ready(self, issue_cycle: int) -> bool:
        """Can an execution issuing at *issue_cycle* read all inputs?"""
        for reg, producer in self.producers.items():
            ready = producer.reg_ready_cycle(reg)
            if ready is None or ready >= issue_cycle:
                return False
        return True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<op#{self.seq} {self.meta.opcode.name}@{self.meta.pc:#x}"
                f"{' squashed' if self.squashed else ''}>")
