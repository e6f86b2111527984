"""Scheme S_{n+d}: the reuse test and RB maintenance (Section 4.1.2).

The reuse test runs in parallel with decode (dispatch in this model) and
establishes, *non-speculatively*, that a stored instance's result is valid:

* every register operand must be **available** (its producer finished, or
  the operand has no in-flight producer) and **equal** to the stored
  operand value; or
* the operand's producer must itself have been reused *this cycle* — the
  dependence-pointer chaining that lets a whole dependent chain be reused
  in a single cycle (the "d" of S_{n+d});
* loads additionally require the entry's memory-valid bit (no committed
  store overwrote the address) and no older in-flight store conflicting
  with the address;
* stores and address-only load entries reuse just the effective address,
  which removes the address computation and enables earlier memory
  disambiguation.

Because both paper augmentations store operand *values* in the entry, the
register-overwrite invalidation and revert-to-valid rules reduce exactly
to the value comparisons performed here.

The engine reads in-flight state straight off the core's
:class:`~repro.uarch.entry.InflightOp` entries: the test walks the
entry's producer edges, which are the dependence pointers.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Optional, Tuple

from ..metrics.stats import SimStats
from ..uarch.config import IRConfig, IRValidation
from .buffer import OperandSignature, RBEntry, ReuseBuffer

if TYPE_CHECKING:
    from ..uarch.entry import InflightOp

# Core-supplied oracle: does an in-flight store older than *seq* conflict
# with this address range?  (seq, address, nbytes) -> bool
StoreConflictFn = Callable[[int, int, int], bool]


def _signature_from(meta, src_values) -> OperandSignature:
    """The operand names+values stored with an entry.

    Stores keep only the base register: their reusable work is the
    address computation, which does not depend on the data operand.
    """
    if meta.is_store:
        regs: Tuple[int, ...] = (meta.rs,) if meta.rs != 0 else ()
    else:
        regs = meta.src_regs
    return tuple((reg, src_values[reg]) for reg in regs)


class ReuseDecision:
    """Outcome of one reuse test (a plain class: one per dispatch)."""

    __slots__ = ("entry", "full", "address")

    def __init__(self, entry: Optional[RBEntry] = None, full: bool = False,
                 address: bool = False):
        self.entry = entry
        self.full = full  # result (or branch outcome / jump target) reused
        self.address = address  # effective address reused (memory ops)

    @property
    def hit(self) -> bool:
        return self.full or self.address


# Shared immutable miss: the overwhelmingly common outcome, never mutated.
_MISS = ReuseDecision()


class ReuseEngine:
    """Front-end reuse tester + back-end RB writer."""

    def __init__(self, config: IRConfig, stats: SimStats):
        self.config = config
        self.stats = stats
        self.buffer = ReuseBuffer(config)
        # Observation-only sink set by core.enable_telemetry(); when
        # attached, every reuse test emits a hit/miss event (misses with
        # a diagnosed reason).  Never influences the decision.
        self.telemetry = None

    # -- eligibility ---------------------------------------------------------------

    @staticmethod
    def eligible(op: InflightOp) -> bool:
        """Direct jumps, nops and halt gain nothing from reuse."""
        return op.meta.reuse_eligible

    # -- the reuse test (dispatch time) ----------------------------------------------

    def test(self, op: InflightOp, cycle: int,
             store_conflict: StoreConflictFn) -> ReuseDecision:
        meta = op.meta
        if not meta.reuse_eligible:
            return _MISS
        self.stats.ir_tests += 1
        pc = meta.pc
        buffer = self.buffer
        best: Optional[ReuseDecision] = None
        is_mem = meta.is_mem
        for entry in buffer.sets[(pc >> 2) & buffer.set_mask]:
            if entry.pc != pc:
                continue
            if not self._operands_match(op, entry, cycle):
                continue
            if is_mem:
                decision = self._test_memory(op, entry, store_conflict)
            else:
                decision = ReuseDecision(entry=entry, full=True)
            if decision.full:
                best = decision
                break
            if decision.address and (best is None or not best.address):
                best = decision
        if best is None or best.entry is None:
            if self.telemetry is not None:
                self.telemetry.emit(
                    "reuse_miss", cycle, op.seq, pc,
                    {"reason": self._explain_miss(op, cycle)})
            return _MISS
        buffer.touch(best.entry)
        self._count_recovery(best.entry)
        if self.telemetry is not None:
            self.telemetry.emit("reuse_hit", cycle, op.seq, pc,
                                {"full": best.full,
                                 "address": best.address})
        return best

    def _explain_miss(self, op: InflightOp, cycle: int) -> str:
        """Why the test failed — a trace-only re-walk of the set.

        Computed only when a telemetry sink is attached, so the hot path
        pays nothing for it.  A miss means every entry at the PC failed
        the operand test: a memory op's entry always holds its address,
        and one whose operands pass is an address hit.  So the reason is
        the first matching entry's first failing operand, or
        ``no_entry`` when the PC has none.
        """
        pc = op.meta.pc
        buffer = self.buffer
        src_values = op.src_values
        for entry in buffer.sets[(pc >> 2) & buffer.set_mask]:
            if entry.pc != pc:
                continue
            for reg, stored_value in entry.operands:
                if src_values.get(reg) != stored_value:
                    return "operand_mismatch"
                if not self._value_available(op, reg, cycle):
                    return "operand_unavailable"
        return "no_entry"

    def _operands_match(self, op: InflightOp, entry: RBEntry,
                        cycle: int) -> bool:
        """All stored operands available and equal to the current values."""
        src_values = op.src_values
        for reg, stored_value in entry.operands:
            # Equality first: it is the cheap test and the common reject.
            # Availability has no side effects, so the order is free.
            if src_values.get(reg) != stored_value:
                return False
            if not self._value_available(op, reg, cycle):
                return False
        return True

    def _value_available(self, op: InflightOp, reg: int,
                         cycle: int) -> bool:
        p = op.producers.get(reg)
        if p is None:
            return True  # architectural value, readable at decode
        ready = p.ready_cycle
        nonspec = p.nonspec_cycle
        if p.completed and ready is not None \
                and nonspec is not None and nonspec <= cycle:
            # The value must be *verified*, not merely computed: in pure
            # IR these coincide, but in the hybrid machine a completed
            # producer may still carry a value-speculative result, and
            # the reuse test is defined to be non-speculative.
            if ready < cycle:
                return True
            # Same-cycle availability: an execution writing back this
            # cycle can bypass into the decode-stage test, but a
            # same-cycle *reuse* is only visible through the dependence
            # pointers (the "d" of S_{n+d}) — handled below.
            if ready == cycle and p.reuse_value is None:
                return True
        # Dependence-pointer chaining: the producer's own reuse test
        # succeeded, so its result is known at decode.  Under EARLY
        # validation that result is already validated (non-speculative);
        # under LATE validation it is still speculative, and chaining on
        # it is only allowed when ``late_chain_detection`` relaxes the
        # test (see IRConfig).
        if p.reuse_value is not None \
                and self.config.dependence_chaining:
            if self.config.validation == IRValidation.EARLY:
                return True
            return self.config.late_chain_detection
        return False

    def _test_memory(self, op: InflightOp, entry: RBEntry,
                     store_conflict: StoreConflictFn) -> ReuseDecision:
        decision = ReuseDecision(entry=entry, address=True)
        if (op.meta.is_load and entry.result_valid and entry.mem_valid
                and not store_conflict(op.seq, entry.address,
                                       entry.mem_bytes)):
            decision.full = True
        return decision

    def _count_recovery(self, entry: RBEntry) -> None:
        """Table 5: squashed-but-executed work recovered through the RB."""
        if entry.from_squashed and not entry.recovery_counted:
            entry.recovery_counted = True
            self.stats.squashed_recovered += 1

    # -- RB maintenance ---------------------------------------------------------------

    def operand_signature(self, op: InflightOp) -> OperandSignature:
        """The operand names+values an RB entry for *op* would store."""
        return _signature_from(op.meta, op.src_values)

    def insert(self, op: InflightOp) -> None:
        """Record a completed execution in the RB (wrong paths included)."""
        meta = op.meta
        if op.reused or not meta.reuse_eligible:
            return
        outcome = op.outcome
        entry = RBEntry(pc=meta.pc,
                        operands=_signature_from(meta, op.src_values))
        if meta.is_branch:
            entry.result = int(outcome.taken)
        elif meta.is_indirect:
            entry.result = outcome.next_pc
        elif meta.is_mem:
            entry.is_mem = True
            entry.is_load = meta.is_load
            entry.address = outcome.mem_addr
            entry.mem_bytes = meta.mem_bytes
            if entry.is_load:
                entry.result = outcome.result
                # Data forwarded from a not-yet-committed store is not
                # guaranteed against committed memory: address-only entry.
                entry.result_valid = op.forwarded_from is None
            else:
                entry.result_valid = False
        else:
            entry.result = outcome.result
            entry.result_hi = outcome.result_hi
        op.rb_entry = self.buffer.insert(entry)

    def note_squashed(self, op: InflightOp) -> None:
        """The op was control-squashed after executing: its RB entry (if
        any) now represents recoverable wrong-path work (Table 5)."""
        rb_entry = op.rb_entry
        if rb_entry is not None:
            rb_entry.from_squashed = True
            rb_entry.recovery_counted = False

    def on_store_commit(self, address: int, nbytes: int) -> None:
        self.buffer.invalidate_stores(address, nbytes)
