"""Structure-of-arrays storage for in-flight (ROB-resident) instructions.

Timing semantics used throughout the core:

* a value with ``ready_cycle == r`` can be consumed by an execution issuing
  at cycle ``r + 1`` or later;
* a value-predicted or reused result is available at the dispatch cycle;
* ``nonspec_cycle`` is the cycle at which the value became non-value-
  speculative (verified); for non-VP configurations this equals the
  completion cycle.  Commit requires it.

Dynamic instruction state lives in an :class:`EntryPool`: one preallocated
parallel array per field, indexed by a small integer entry id, with a
free-list allocator.  Dispatch takes an id off the free list and writes
the handful of fields the instruction starts with; squash and commit
*reset the slot* back onto the free list instead of dropping an object —
the steady state allocates nothing per instruction.

Lifetime rules (see ``docs/internals.md``):

* A slot is pinned by its consumers: each live consumer's ``producers``
  edge counts one reference.  Commit marks the slot *retired*; the slot
  is recycled when it is retired and its reference count reaches zero
  (consumers drop their edges when they commit or squash).  Producers
  are strictly older, so pinned-retired slots never chain: a retired
  slot's own producer edges were already dropped at its commit.
* Stale ids can survive in the rename map, the event heap, the wakeup
  queue and ``forwarded_from``; those stores carry a *token*
  ``(seq << SEQ_SHIFT) | id`` and every read validates
  ``seq_of[id] == token >> SEQ_SHIFT`` — a freed slot has ``seq_of -1``
  and a recycled one a strictly newer ``seq``, so stale tokens can never
  alias a live instruction.
* Consumer edges pack ``(token << REG_SHIFT) | reg`` into one int, so
  the producer-side consumer lists hold no tuples at all.

``_grow`` and ``free`` spell their resets out field by field rather
than walking a name table; ``_SCALAR_DEFAULTS`` is the declarative
(field, pristine value) spec of the same resets, and the entry-pool
property tests check fresh and freed slots against it, so code and spec
cannot drift apart silently.

The :class:`CommittedOp` view reconstructs the old per-object interface
(``value_for_reg``, ``producers``, ``src_values``...) for commit-time
observers (``core.on_commit``); it is built only when a hook is attached,
so the golden hot path never pays for it.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from ..isa.opcodes import REG_HI

# Token layout: (seq << SEQ_SHIFT) | entry_id.  SEQ_SHIFT bounds the pool
# capacity (2**SEQ_SHIFT slots), not the instruction count — Python ints
# are unbounded, so seq can grow past any budget without overflow.
SEQ_SHIFT: int = 20
IDX_MASK: int = (1 << SEQ_SHIFT) - 1
# Consumer-edge layout: (token << REG_SHIFT) | reg  (NUM_REGS == 67 < 128).
REG_SHIFT: int = 7
REG_MASK: int = (1 << REG_SHIFT) - 1

#: (array name, per-slot default) for every non-container field;
#: `_grow` seeds new slots with these values and `free` restores the
#: ones the slot's lifetime could have written (identity fields are
#: rewritten by every `alloc` instead).
_SCALAR_DEFAULTS: Tuple[Tuple[str, Any], ...] = (
    ("seq_of", -1), ("meta", None), ("outcome", None),
    ("dispatch_cycle", 0),
    ("is_load", False), ("is_store", False), ("is_mem", False),
    ("is_control", False), ("writes_hi_lo", False),
    ("refs", 0), ("retired", False),
    ("completed", False), ("ready_cycle", None),
    ("value_ready_cycle", None), ("hi_ready_cycle", None),
    ("nonspec_cycle", None), ("current_value", None), ("current_hi", None),
    ("exec_count", 0), ("issued", False), ("completes_at", None),
    ("issue_read_values", None), ("used_addr", None), ("stale", False),
    ("reexec_earliest", None), ("in_issue_queue", False),
    ("predicted", False), ("predicted_value", None),
    ("addr_predicted", False), ("predicted_addr", None),
    ("reused", False), ("addr_reused", False), ("reuse_value", None),
    ("rb_entry", None),
    ("prediction", None), ("believed_taken", None),
    ("believed_target", None), ("resolved_final", False),
    ("last_resolution_cycle", None), ("checkpoint", None),
    ("rename_snapshot", None),
    ("current_addr", None), ("addr_known_cycle", None),
    ("forwarded_from", None),
    ("issue_cycle", None), ("issue_addr", None),
    ("last_completion_cycle", None),
    ("reuse_hit_full", False), ("reuse_hit_addr", False),
)


class EntryPool:
    """Preallocated parallel-array storage for dynamic instructions."""

    def __init__(self, capacity: int) -> None:
        self.capacity: int = 0
        self.live: int = 0  # allocated (ROB-resident) slots
        self.pinned: int = 0  # retired slots kept alive by consumer edges
        self.free_list: List[int] = []
        # Reset-group gates: a machine with value prediction or reuse
        # disabled never writes those field groups, so :meth:`free` can
        # skip resetting them.  Conservative (all on) by default; the
        # core lowers them to match its configuration.
        self.reset_vp: bool = True  # predicted / predicted_value / addr_*
        self.reset_ir: bool = True  # reused / reuse_value / rb_entry / hits
        self.reset_reexec: bool = True  # stale / reexec_earliest

        # Identity / static metadata (copied from the shared StaticOp).
        self.seq_of: List[int] = []
        self.meta: List[Any] = []
        self.outcome: List[Any] = []
        self.dispatch_cycle: List[int] = []
        self.is_load: List[bool] = []
        self.is_store: List[bool] = []
        self.is_mem: List[bool] = []
        self.is_control: List[bool] = []
        self.writes_hi_lo: List[bool] = []

        # Register dataflow, fixed at rename time.
        self.producers: List[Dict[int, int]] = []  # src reg -> entry id
        self.src_values: List[Dict[int, int]] = []  # dispatch-time values
        self.consumers: List[List[int]] = []  # packed (tok<<7)|reg edges
        self.refs: List[int] = []  # consumer edges pointing at me
        self.retired: List[bool] = []  # committed; recycle when refs == 0

        # Timing state.
        self.completed: List[bool] = []
        self.ready_cycle: List[Optional[int]] = []
        self.value_ready_cycle: List[Optional[int]] = []
        self.hi_ready_cycle: List[Optional[int]] = []
        self.nonspec_cycle: List[Optional[int]] = []
        self.current_value: List[Optional[int]] = []
        self.current_hi: List[Optional[int]] = []

        # Execution machinery.
        self.exec_count: List[int] = []
        self.issued: List[bool] = []
        self.completes_at: List[Optional[int]] = []
        self.issue_read_values: List[Optional[Dict[int, int]]] = []
        self.used_values: List[Dict[int, int]] = []
        # Two slot-resident scratch dicts: issue fills whichever buffer
        # ``used_values`` does not currently alias, so an in-flight
        # execution's operand snapshot never clobbers the completed one.
        self.buf_a: List[Dict[int, int]] = []
        self.buf_b: List[Dict[int, int]] = []
        self.used_addr: List[Optional[int]] = []
        self.stale: List[bool] = []
        self.reexec_earliest: List[Optional[int]] = []
        self.in_issue_queue: List[bool] = []

        # Value prediction.
        self.predicted: List[bool] = []
        self.predicted_value: List[Optional[int]] = []
        self.addr_predicted: List[bool] = []
        self.predicted_addr: List[Optional[int]] = []

        # Instruction reuse.
        self.reused: List[bool] = []
        self.addr_reused: List[bool] = []
        self.reuse_value: List[Optional[int]] = []
        self.rb_entry: List[Any] = []

        # Control.
        self.prediction: List[Any] = []
        self.believed_taken: List[Optional[bool]] = []
        self.believed_target: List[Optional[int]] = []
        self.resolved_final: List[bool] = []
        self.last_resolution_cycle: List[Optional[int]] = []
        self.checkpoint: List[Any] = []
        self.rename_snapshot: List[Any] = []

        # Memory.
        self.current_addr: List[Optional[int]] = []
        self.addr_known_cycle: List[Optional[int]] = []
        self.forwarded_from: List[Optional[int]] = []  # token, not id

        self.issue_cycle: List[Optional[int]] = []
        self.issue_addr: List[Optional[int]] = []
        self.last_completion_cycle: List[Optional[int]] = []
        self.reuse_hit_full: List[bool] = []
        self.reuse_hit_addr: List[bool] = []

        self._grow(capacity)

    # -- allocator -------------------------------------------------------------------

    def _grow(self, extra: int) -> None:
        """Append *extra* pristine slots to every field array.

        Spelled out field by field (no name-table walk):
        ``_SCALAR_DEFAULTS`` documents the same (field, default) pairs
        and the entry-pool tests assert a fresh slot matches it, so the
        two can never drift apart silently.
        """
        start = self.capacity
        self.capacity += extra
        if self.capacity > IDX_MASK:
            raise OverflowError("entry pool exceeded the token id space")

        self.seq_of.extend([-1] * extra)
        self.meta.extend([None] * extra)
        self.outcome.extend([None] * extra)
        self.dispatch_cycle.extend([0] * extra)
        self.is_load.extend([False] * extra)
        self.is_store.extend([False] * extra)
        self.is_mem.extend([False] * extra)
        self.is_control.extend([False] * extra)
        self.writes_hi_lo.extend([False] * extra)

        self.refs.extend([0] * extra)
        self.retired.extend([False] * extra)

        self.completed.extend([False] * extra)
        self.ready_cycle.extend([None] * extra)
        self.value_ready_cycle.extend([None] * extra)
        self.hi_ready_cycle.extend([None] * extra)
        self.nonspec_cycle.extend([None] * extra)
        self.current_value.extend([None] * extra)
        self.current_hi.extend([None] * extra)

        self.exec_count.extend([0] * extra)
        self.issued.extend([False] * extra)
        self.completes_at.extend([None] * extra)
        self.issue_read_values.extend([None] * extra)
        self.used_addr.extend([None] * extra)
        self.stale.extend([False] * extra)
        self.reexec_earliest.extend([None] * extra)
        self.in_issue_queue.extend([False] * extra)

        self.predicted.extend([False] * extra)
        self.predicted_value.extend([None] * extra)
        self.addr_predicted.extend([False] * extra)
        self.predicted_addr.extend([None] * extra)

        self.reused.extend([False] * extra)
        self.addr_reused.extend([False] * extra)
        self.reuse_value.extend([None] * extra)
        self.rb_entry.extend([None] * extra)

        self.prediction.extend([None] * extra)
        self.believed_taken.extend([None] * extra)
        self.believed_target.extend([None] * extra)
        self.resolved_final.extend([False] * extra)
        self.last_resolution_cycle.extend([None] * extra)
        self.checkpoint.extend([None] * extra)
        self.rename_snapshot.extend([None] * extra)

        self.current_addr.extend([None] * extra)
        self.addr_known_cycle.extend([None] * extra)
        self.forwarded_from.extend([None] * extra)

        self.issue_cycle.extend([None] * extra)
        self.issue_addr.extend([None] * extra)
        self.last_completion_cycle.extend([None] * extra)
        self.reuse_hit_full.extend([False] * extra)
        self.reuse_hit_addr.extend([False] * extra)

        for _ in range(extra):
            self.producers.append({})
            self.src_values.append({})
            self.consumers.append([])
            self.buf_a.append({})
            self.buf_b.append({})
            self.used_values.append(self.buf_a[-1])
        # LIFO free list: hand out low, recently-touched ids first.
        self.free_list.extend(range(self.capacity - 1, start - 1, -1))

    def alloc(self, seq: int, meta: Any, outcome: Any, cycle: int) -> int:
        """Take a slot for a newly dispatched instruction.

        Every dynamic field was reset by :meth:`free` (or by
        construction), so only the identity fields are written here.
        """
        free_list = self.free_list
        if not free_list:
            self._grow(self.capacity)
        i = free_list.pop()
        self.seq_of[i] = seq
        self.meta[i] = meta
        self.outcome[i] = outcome
        self.dispatch_cycle[i] = cycle
        self.is_load[i] = meta.is_load
        self.is_store[i] = meta.is_store
        self.is_mem[i] = meta.is_mem
        self.is_control[i] = meta.is_control
        self.writes_hi_lo[i] = meta.writes_hi_lo
        self.live += 1
        return i

    def free(self, i: int) -> None:
        """Reset slot *i* to its pristine dynamic state and recycle it.

        The reset *is* the squash/commit cleanup: every field the slot's
        lifetime could have written returns to the state a
        never-allocated slot has (the entry-pool property tests pin
        this).  Two refinements keep it off the wallclock floor:

        * identity fields (``meta``, ``outcome``, ``dispatch_cycle`` and
          the ``is_*`` flag copies) are written unconditionally by
          :meth:`alloc`, so only ``seq_of`` — the token validity word —
          needs resetting here;
        * field groups only ever written for memory ops, control ops, or
          under a disabled machine feature (the ``reset_*`` gates) are
          skipped when the slot cannot have touched them.
        """
        if self.retired[i]:
            self.retired[i] = False
            self.pinned -= 1
        else:
            self.live -= 1
        self.seq_of[i] = -1

        self.producers[i].clear()
        self.src_values[i].clear()
        self.consumers[i].clear()

        self.completed[i] = False
        self.ready_cycle[i] = None
        self.value_ready_cycle[i] = None
        self.hi_ready_cycle[i] = None
        self.nonspec_cycle[i] = None
        self.current_value[i] = None
        self.current_hi[i] = None

        self.exec_count[i] = 0
        self.issued[i] = False
        self.completes_at[i] = None
        self.issue_read_values[i] = None
        self.buf_a[i].clear()
        self.buf_b[i].clear()
        self.used_values[i] = self.buf_a[i]
        self.in_issue_queue[i] = False
        self.issue_cycle[i] = None
        self.last_completion_cycle[i] = None

        if self.is_mem[i]:
            self.used_addr[i] = None
            self.current_addr[i] = None
            self.addr_known_cycle[i] = None
            self.forwarded_from[i] = None
            self.issue_addr[i] = None
        elif self.is_control[i]:
            self.current_addr[i] = None  # indirect-jump resolved target
        if self.is_control[i]:
            self.prediction[i] = None
            self.believed_taken[i] = None
            self.believed_target[i] = None
            self.resolved_final[i] = False
            self.last_resolution_cycle[i] = None
            self.checkpoint[i] = None
            self.rename_snapshot[i] = None

        if self.reset_vp:
            self.predicted[i] = False
            self.predicted_value[i] = None
            self.addr_predicted[i] = False
            self.predicted_addr[i] = None
        if self.reset_ir:
            self.reused[i] = False
            self.addr_reused[i] = False
            self.reuse_value[i] = None
            self.rb_entry[i] = None
            self.reuse_hit_full[i] = False
            self.reuse_hit_addr[i] = False
        if self.reset_reexec:
            self.stale[i] = False
            self.reexec_earliest[i] = None

        self.free_list.append(i)

    def retire(self, i: int) -> None:
        """Commit slot *i*: recycle now, or pin until consumers drop it."""
        if self.refs[i] == 0:
            self.free(i)
        else:
            self.live -= 1
            self.retired[i] = True
            self.pinned += 1

    def drop_edges(self, i: int) -> None:
        """Release slot *i*'s producer edges (it committed or squashed).

        Producers are strictly older; a retired one whose last reference
        this was is recycled immediately.  No cascade is possible: a
        retired producer's own edges were dropped at its commit.
        """
        producers = self.producers[i]
        refs = self.refs
        retired = self.retired
        for p in producers.values():
            left = refs[p] - 1
            refs[p] = left
            if left == 0 and retired[p]:
                self.free(p)
        producers.clear()

    def token(self, i: int) -> int:
        return (self.seq_of[i] << SEQ_SHIFT) | i

    def valid(self, token: int) -> bool:
        return self.seq_of[token & IDX_MASK] == token >> SEQ_SHIFT

    # -- dataflow helpers (cold paths: the core inlines these) -------------------------

    def reg_ready_cycle(self, i: int, reg: int) -> Optional[int]:
        """When slot *i*'s dest *reg* became available to consumers."""
        if reg == REG_HI and self.writes_hi_lo[i]:
            return self.hi_ready_cycle[i]
        return self.value_ready_cycle[i]

    def value_for_reg(self, i: int, reg: int) -> Optional[int]:
        """Current broadcast value of slot *i*'s dest *reg*."""
        if reg == REG_HI and self.writes_hi_lo[i]:
            return self.current_hi[i]
        return self.current_value[i]

    def final_value_for_reg(self, i: int, reg: int) -> Optional[int]:
        """Value of *reg* once slot *i* is non-speculative."""
        outcome = self.outcome[i]
        if reg == REG_HI and self.writes_hi_lo[i]:
            return outcome.result_hi  # type: ignore[no-any-return]
        return outcome.result  # type: ignore[no-any-return]

    def operands_ready(self, i: int, issue_cycle: int) -> bool:
        """Can an execution issuing at *issue_cycle* read all inputs?"""
        for reg, p in self.producers[i].items():
            ready = self.reg_ready_cycle(p, reg)
            if ready is None or ready >= issue_cycle:
                return False
        return True

    def view(self, i: int) -> "CommittedOp":
        """Snapshot slot *i* as a :class:`CommittedOp` (observer hook)."""
        return CommittedOp(self, i)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<EntryPool cap={self.capacity} live={self.live} "
                f"pinned={self.pinned}>")


class CommittedOp:
    """Immutable per-object view of a committed instruction.

    Built at commit (only when ``core.on_commit`` is attached) from the
    pool arrays, *before* the slot's edges are dropped, so tracing,
    breakdowns and tests keep the familiar attribute interface.  The
    ``producers`` map holds views of the producers still linked at
    commit; their own producer edges were dropped when *they* committed,
    so a producer view's ``producers`` is empty.
    """

    seq: int
    meta: Any
    inst: Any
    outcome: Any
    dispatch_cycle: int
    producers: Dict[int, "CommittedOp"]
    src_values: Dict[int, int]
    used_values: Dict[int, int]
    completed: bool
    ready_cycle: Optional[int]
    value_ready_cycle: Optional[int]
    hi_ready_cycle: Optional[int]
    nonspec_cycle: Optional[int]
    current_value: Optional[int]
    current_hi: Optional[int]
    exec_count: int
    issued: bool
    used_addr: Optional[int]
    predicted: bool
    predicted_value: Optional[int]
    addr_predicted: bool
    predicted_addr: Optional[int]
    reused: bool
    addr_reused: bool
    reuse_value: Optional[int]
    prediction: Any
    believed_taken: Optional[bool]
    believed_target: Optional[int]
    resolved_final: bool
    last_resolution_cycle: Optional[int]
    current_addr: Optional[int]
    addr_known_cycle: Optional[int]
    issue_cycle: Optional[int]
    issue_addr: Optional[int]
    last_completion_cycle: Optional[int]
    reuse_hit_full: bool
    reuse_hit_addr: bool
    squashed: bool
    is_load: bool
    is_store: bool
    is_mem: bool
    is_control: bool
    is_cond_branch: bool
    needs_checkpoint: bool
    executes: bool

    def __init__(self, pool: EntryPool, i: int) -> None:
        meta = pool.meta[i]
        self.seq = pool.seq_of[i]
        self.meta = meta
        self.inst = meta.inst
        self.outcome = pool.outcome[i]
        self.dispatch_cycle = pool.dispatch_cycle[i]
        self.producers = {reg: CommittedOp(pool, p)
                          for reg, p in pool.producers[i].items()}
        self.src_values = dict(pool.src_values[i])
        self.used_values = dict(pool.used_values[i])
        self.completed = pool.completed[i]
        self.ready_cycle = pool.ready_cycle[i]
        self.value_ready_cycle = pool.value_ready_cycle[i]
        self.hi_ready_cycle = pool.hi_ready_cycle[i]
        self.nonspec_cycle = pool.nonspec_cycle[i]
        self.current_value = pool.current_value[i]
        self.current_hi = pool.current_hi[i]
        self.exec_count = pool.exec_count[i]
        self.issued = pool.issued[i]
        self.used_addr = pool.used_addr[i]
        self.predicted = pool.predicted[i]
        self.predicted_value = pool.predicted_value[i]
        self.addr_predicted = pool.addr_predicted[i]
        self.predicted_addr = pool.predicted_addr[i]
        self.reused = pool.reused[i]
        self.addr_reused = pool.addr_reused[i]
        self.reuse_value = pool.reuse_value[i]
        self.prediction = pool.prediction[i]
        self.believed_taken = pool.believed_taken[i]
        self.believed_target = pool.believed_target[i]
        self.resolved_final = pool.resolved_final[i]
        self.last_resolution_cycle = pool.last_resolution_cycle[i]
        self.current_addr = pool.current_addr[i]
        self.addr_known_cycle = pool.addr_known_cycle[i]
        self.issue_cycle = pool.issue_cycle[i]
        self.issue_addr = pool.issue_addr[i]
        self.last_completion_cycle = pool.last_completion_cycle[i]
        self.reuse_hit_full = pool.reuse_hit_full[i]
        self.reuse_hit_addr = pool.reuse_hit_addr[i]
        self.squashed = False
        self.is_load = meta.is_load
        self.is_store = meta.is_store
        self.is_mem = meta.is_mem
        self.is_control = meta.is_control
        self.is_cond_branch = meta.is_branch
        self.needs_checkpoint = meta.needs_checkpoint
        self.executes = meta.executes

    # -- dataflow helpers (same contracts as the old per-entry object) ------------------

    def value_for_reg(self, reg: int) -> Optional[int]:
        """Current broadcast value of my dest *reg* (HI vs LO aware)."""
        if reg == REG_HI and self.meta.writes_hi_lo:
            return self.current_hi
        return self.current_value

    def reg_ready_cycle(self, reg: int) -> Optional[int]:
        """When my dest *reg* became available to consumers."""
        if reg == REG_HI and self.meta.writes_hi_lo:
            return self.hi_ready_cycle
        return self.value_ready_cycle

    def final_value_for_reg(self, reg: int) -> Optional[int]:
        """Value of *reg* once I am non-speculative (oracle on my path)."""
        if reg == REG_HI and self.meta.writes_hi_lo:
            return self.outcome.result_hi  # type: ignore[no-any-return]
        return self.outcome.result  # type: ignore[no-any-return]

    def inputs_match_oracle(self, values: Dict[int, int]) -> bool:
        src_values = self.src_values
        return all(values[reg] == src_values[reg] for reg in values)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<op#{self.seq} {self.inst.opcode.name}@{self.inst.pc:#x}>"
