"""The out-of-order timing core integrating VP and IR.

Pipeline structure mirrors Figure 1/2 of the paper: fetch -> decode/rename/
dispatch -> (out-of-order issue/execute) -> commit, over the Table 1
machine.  Architectural semantics are computed *at dispatch* against a
checkpointed speculative state (the SimpleScalar ``sim-outorder`` design),
so the model runs wrong paths with real values; the back end models timing
and — under value prediction — the propagation of *mispredicted* values:
each execution re-evaluates its operation over its operands' current
(possibly wrong) values, so spurious branch resolutions and selective
re-execution behave like the hardware the paper describes.

Key timing conventions (see also :mod:`repro.uarch.entry`):

* a value produced in cycle ``r`` can feed an execution issuing in ``r+1``;
* value-predicted / reused values are available at the dispatch cycle;
* an instruction commits no earlier than the cycle after it completed and
  became non-value-speculative;
* a verified misprediction corrects dependents ``verify_latency`` cycles
  after the verifying execution completes, and only the first instruction
  of a dependent chain pays that penalty (Section 4.1.3).

Scheduling is event-driven (see ``docs/internals.md``): completions and
resolutions live on a heap keyed by cycle, issue examines only the
wakeup queue of instructions whose state can actually change (not the
whole ROB), and every static instruction is pre-decoded once into a flat
:class:`~repro.uarch.decode.StaticOp` record.  Each dispatched
instruction is one :class:`~repro.uarch.entry.InflightOp`, held directly
by the ROB, LSQ, rename map, event heap and wakeup queue; a squash sets
its ``squashed`` flag, and commit and squash break its reference cycles
so that refcounting frees it.  All of it is timing-transparent: the
statistics are byte-identical to the scan-driven core's
(``tests/golden`` pins this).
"""

from __future__ import annotations

import gc
from collections import deque
from heapq import heappop, heappush
from operator import attrgetter
from typing import Deque, Dict, List, Optional, Tuple

from ..functional.checkpoint import capture
from ..functional.simulator import FunctionalSimulator, SimulationError
from ..isa.opcodes import (
    NUM_REGS,
    REG_HI,
    div_hi_lo,
    mult_hi_lo,
    u32,
)
from ..isa.program import Program
from ..metrics.profiling import CoreProfile
from ..metrics.stats import SimStats
from ..reuse.scheme import ReuseDecision, ReuseEngine
from ..vp.predictors import make_predictor
from .branch_predictor import BranchPredictorUnit
from .cache import PortTracker, SetAssocCache
from .config import BranchPolicy, IRValidation, MachineConfig, ReexecPolicy
from .decode import DecodeTable
from .entry import InflightOp
from .fetch import FetchUnit
from .functional_units import FunctionalUnits
from .spec_state import SpeculativeState

#: Event kinds carried in the heap tuples.
EVENT_COMPLETE = 0
EVENT_RESOLVE = 1

_seq_key = attrgetter("seq")


class OutOfOrderCore:
    """Cycle-stepped 4-way out-of-order processor model."""

    def __init__(self, config: MachineConfig, program: Program):
        self.config = config
        self.program = program
        self.stats = SimStats(config_name=config.name)

        self.decode = DecodeTable(program)
        self.predictor = BranchPredictorUnit(config.bpred)
        self.fetch_unit = FetchUnit(config, self.decode, self.predictor)
        self.fus = FunctionalUnits(config)
        self.dcache = SetAssocCache(config.dcache, "dcache")
        self.dcache_ports = PortTracker(config.dcache_ports)
        self.spec = SpeculativeState(program)

        # Rename map: architectural reg -> youngest producer (None when
        # the architectural value is current).  Producers that have since
        # committed stay until overwritten; dispatch skips them.
        self.rename: List[Optional[InflightOp]] = [None] * NUM_REGS
        self.rob: Deque[InflightOp] = deque()
        self.lsq: Deque[InflightOp] = deque()
        # Min-heap of (cycle, seq, kind, op) completion and resolution
        # events.  seq is unique per instruction, so same-cycle delivery
        # is age-ordered and the heap never compares two entries.
        self.events: List[Tuple[int, int, int, InflightOp]] = []
        # Wakeup queue: the only instructions issue examines.  An op is
        # resident from dispatch until it issues or can never issue
        # again; re-executions re-enter through _queue_for_issue.  Kept in
        # seq order so issue priority matches ROB order exactly: a re-add
        # of an older op sets _issue_dirty, and _issue re-sorts once
        # before its scan.
        self.issue_queue: List[InflightOp] = []
        self._issue_dirty = False

        self.cycle = 0
        self.seq = 0
        self.unresolved_control = 0
        self.halt_dispatched: Optional[InflightOp] = None
        self.halted = False

        self.profile: Optional[CoreProfile] = None
        # Observation-only telemetry sink (enable_telemetry); never feeds
        # a value back, so stats are identical with or without it.
        self.telemetry = None

        self.vp = make_predictor(config.vp) if config.vp.enabled else None
        self.ir: Optional[ReuseEngine] = (
            ReuseEngine(config.ir, self.stats) if config.ir.enabled else None)
        self.verify_latency = config.vp.verify_latency if config.vp.enabled \
            else 0
        # Without value prediction and without late-validated reuse, no
        # mechanism can inject a wrong value: every execution reads exactly
        # the dispatch-time (oracle) operands, so completion can return the
        # dispatch outcome and finalization can skip the value comparisons.
        # (Timing-only replays — e.g. a load whose forwarding relationship
        # changes when a reused store address resolves — still occur and
        # still go through the stale/re-execution machinery.)
        self._pure_values = not (
            config.vp.enabled
            or (config.ir.enabled
                and config.ir.validation == IRValidation.LATE))

        self.oracle: Optional[FunctionalSimulator] = (
            FunctionalSimulator(program) if config.verify_commits else None)

        # Optional observer invoked as on_commit(op, cycle) for every
        # committed instruction (the per-class breakdown, custom
        # statistics, tests' independent checking paths).
        # It gets the live entry; commit clears the entry's dataflow
        # edges when the observer returns.
        self.on_commit = None

    # ------------------------------------------------------------------ run --

    def run(self, max_cycles: Optional[int] = None,
            max_instructions: Optional[int] = None) -> SimStats:
        """Simulate until halt commits or a budget is exhausted."""
        step = self.step
        stats = self.stats
        # The dataflow graph is cyclic (producer <-> consumer), which
        # the cyclic collector would rescan every few thousand
        # dispatches.  Commit and squash break those cycles explicitly
        # (see InflightOp), so refcounting frees every entry and the
        # collector can be paused for the run.
        restore_gc = gc.isenabled()
        if restore_gc:
            gc.disable()
        try:
            while not self.halted:
                if max_cycles is not None and self.cycle >= max_cycles:
                    break
                if (max_instructions is not None
                        and stats.committed >= max_instructions):
                    break
                step()
        finally:
            if restore_gc:
                gc.enable()
        self._finalize_stats()
        if self.telemetry is not None:
            self.telemetry.finalize(self)
        return self.stats

    def skip(self, instructions: int) -> None:
        """Functionally fast-forward before timing simulation starts.

        Mirrors the paper's warm-up skip (1-2.5 billion instructions
        there) and must be called before the first :meth:`step`.  Sweeps
        share the warm state through the checkpoint store instead; this
        captures a private one.
        """
        self.restore_warm(capture(self.program, instructions))

    def restore_warm(self, warm) -> None:
        """Adopt a warm state; must precede the first :meth:`step`.

        *warm* must come from :func:`repro.functional.checkpoint.capture`
        over the same program with the intended skip count (the store's
        content addressing guarantees this).  Afterwards speculative state
        holds the warm image, fetch starts at the first unexecuted
        instruction (the halt itself when the warm-up ran into one, which
        the front end then dispatches), and the commit-verify oracle sits
        at the same point.
        """
        if self.cycle or self.rob:
            raise SimulationError(
                "restore_warm() must precede timing simulation")
        self.spec.regs[:] = warm.regs
        self.spec.memory = warm.make_memory()
        self.fetch_unit.fetch_pc = warm.pc
        if self.oracle is not None:
            self.oracle.restore(warm)

    def step(self) -> None:
        """Advance one cycle (reverse pipeline order)."""
        self.cycle += 1
        # Phase calls are guarded by their work sources: each phase is a
        # no-op on an empty structure, so skipping the call is pure
        # wallclock (the empty-cycle cost matters during stalls).
        fetch = self.fetch_unit
        if self.rob:
            self._commit()
        elif fetch.blocked and not fetch.queue and not self.halted:
            # Nothing in flight can redirect fetch: the committed path
            # left the program.
            raise SimulationError(
                f"fetch ran off the program at {fetch.fetch_pc:#x} with "
                f"nothing in flight to redirect it (cycle {self.cycle})")
        events = self.events
        if events and events[0][0] <= self.cycle:
            self._process_events()
        if self.issue_queue:
            self._issue()
        if fetch.queue:
            self._dispatch()
        fetch.step(self.cycle)
        self.stats.cycles = self.cycle
        if self.telemetry is not None:
            self.telemetry.on_cycle(self)

    def enable_profiling(self) -> CoreProfile:
        """Attach (and return) a :class:`CoreProfile` for this run.

        Installs a timer over each phase call :meth:`step` makes, as an
        instance attribute, so the profile times exactly the guarded
        calls an unprofiled run makes.
        """
        profile = self.profile = CoreProfile(self.stats)
        fetch = self.fetch_unit
        for owner, method, phase in ((self, "_commit", "commit"),
                                     (self, "_process_events", "events"),
                                     (self, "_issue", "issue"),
                                     (self, "_dispatch", "dispatch"),
                                     (fetch, "step", "fetch")):
            setattr(owner, method,
                    profile.timed(phase, getattr(owner, method)))
        return profile

    def enable_telemetry(self, sink=None, *, interval: Optional[int] = None,
                         trace_capacity: Optional[int] = None,
                         events: bool = True):
        """Attach (and return) a telemetry sink for this run.

        Pass a ready :class:`~repro.telemetry.sink.TelemetrySink`, or
        let this build one from *interval* / *trace_capacity* /
        *events*.  Off by default; the golden corpus pins the detached
        core and a transparency test pins statistic byte-identity with
        the sink attached.
        """
        if sink is None:
            from ..telemetry.sink import TelemetrySink
            kwargs = {"events": events}
            if interval is not None:
                kwargs["interval"] = interval
            if trace_capacity is not None:
                kwargs["trace_capacity"] = trace_capacity
            sink = TelemetrySink(**kwargs)
        self.telemetry = sink
        if self.ir is not None:
            self.ir.telemetry = sink
        return sink

    # ---------------------------------------------------------------- events --

    def _schedule(self, cycle: int, kind: int, op: InflightOp) -> None:
        heappush(self.events, (cycle, op.seq, kind, op))

    def _process_events(self) -> None:
        events = self.events
        cycle = self.cycle
        profile = self.profile
        while events and events[0][0] <= cycle:
            _, _, kind, op = heappop(events)
            if profile is not None:
                profile.events_processed += 1
            if op.squashed:
                continue
            if kind == EVENT_COMPLETE:
                if op.completes_at == cycle and op.issued:
                    self._on_complete(op)
            elif kind == EVENT_RESOLVE:
                if not op.resolved_final:
                    taken, target = self._final_resolution(op)
                    self._resolve_control(op, taken, target, final=True)

    # --------------------------------------------------------------- dispatch --

    def _dispatch(self) -> None:
        dispatched = 0
        fetch = self.fetch_unit
        while dispatched < self.config.decode_width and fetch.queue:
            fetched = fetch.queue[0]
            meta = fetched[0]
            if fetched[2] >= self.cycle:
                break  # fetched this very cycle; decode next cycle
            if self.halt_dispatched is not None:
                break
            if len(self.rob) >= self.config.rob_size:
                break
            if meta.is_mem and len(self.lsq) >= self.config.lsq_size:
                break
            if meta.needs_checkpoint and (self.unresolved_control
                                          >= self.config
                                          .max_unresolved_branches):
                break
            fetch.pop()
            self._dispatch_one(fetched)
            dispatched += 1
            self.stats.dispatched += 1
            if meta.is_halt:
                break
            # A reused branch that squashed at dispatch cleared the queue,
            # which ends this loop naturally.

    def _dispatch_one(self, fetched) -> InflightOp:
        meta = fetched[0]
        cycle = self.cycle
        self.seq = seq = self.seq + 1
        # Source values must be read *before* exec_fn mutates the
        # speculative state.
        regs = self.spec.regs
        src_values: Dict[int, int] = {}
        for reg in meta.src_regs:
            src_values[reg] = regs[reg]
        op = InflightOp(seq, meta, meta.exec_fn(self.spec), cycle,
                        src_values)
        rename = self.rename
        producers = op.producers
        if src_values:
            for reg in meta.src_regs:
                p = rename[reg]
                if p is None or p.committed:
                    # A committed producer's final value is this op's
                    # dispatch-time src value: no edge is needed.
                    continue
                if reg not in producers:
                    producers[reg] = p
                if p.nonspec_cycle is None or not p.completed:
                    p.consumers.append((op, reg))
        for reg in meta.dest_regs:
            rename[reg] = op

        self.rob.append(op)
        if meta.is_mem:
            self.lsq.append(op)

        if self.telemetry is not None:
            self.telemetry.emit("dispatch", cycle, seq, meta.pc,
                                {"opcode": meta.opcode.name})

        if meta.is_control:
            self._dispatch_control(op, fetched[1])
        if not meta.executes:
            self._complete_at_dispatch(op)
        if meta.is_halt:
            self.halt_dispatched = op

        if self.ir is not None and meta.executes:
            self._apply_reuse(op)
        if self.vp is not None and meta.executes and not meta.is_control \
                and not op.reused:
            self._apply_value_prediction(op)

        if meta.executes and not op.completed:
            # Enter the wakeup queue only if issue is at least conceivable:
            # an op with a producer that has not completed parks outside
            # the queue until that producer's completion event wakes it.
            # Loads with a reused/predicted address can issue without the
            # base register, so they always enter.
            park = False
            if not (meta.is_load and (op.addr_reused or op.addr_predicted)):
                for reg, p in producers.items():
                    if reg == REG_HI and p.writes_hi_lo:
                        ready = p.hi_ready_cycle
                    else:
                        ready = p.value_ready_cycle
                    if ready is None:
                        park = True
                        break
            if not park:
                self._queue_for_issue(op)
        return op

    def _dispatch_control(self, op: InflightOp, prediction) -> None:
        meta = op.meta
        op.prediction = prediction
        if meta.is_branch:
            op.believed_taken = prediction.taken
            op.believed_target = meta.target
        else:
            op.believed_taken = True
            op.believed_target = (prediction.target
                                  if prediction else meta.target)
        if meta.needs_checkpoint:
            op.checkpoint = self.spec.take_checkpoint(meta.pc)
            op.rename_snapshot = self.rename.copy()
            self.unresolved_control += 1
        else:
            # Direct j/jal: fetch followed the target; nothing to resolve.
            op.resolved_final = True
            op.last_resolution_cycle = self.cycle

    def _complete_at_dispatch(self, op: InflightOp) -> None:
        """Non-executing ops (j/jal/nop/halt) are done at dispatch."""
        cycle = self.cycle
        op.completed = True
        op.used_values = op.src_values
        op.last_completion_cycle = cycle
        op.ready_cycle = cycle
        op.value_ready_cycle = cycle
        op.current_value = op.outcome.result
        op.nonspec_cycle = cycle

    # -- VP at dispatch --------------------------------------------------------------

    def _apply_value_prediction(self, op: InflightOp) -> None:
        meta, outcome = op.meta, op.outcome
        cycle = self.cycle
        if meta.has_dest and outcome.result is not None \
                and not meta.is_store:
            predicted = self.vp.predict_result(meta.vp_result_key,
                                               outcome.result)
            if predicted is not None:
                op.predicted = True
                op.predicted_value = predicted
                op.value_ready_cycle = cycle
                if self.telemetry is not None:
                    self.telemetry.emit(
                        "vp_predict", cycle, op.seq, meta.pc,
                        {"what": "result", "value": predicted})
        if meta.is_mem:
            predicted_addr = self.vp.predict_address(meta.vp_addr_key,
                                                     outcome.mem_addr)
            if predicted_addr is not None:
                op.addr_predicted = True
                op.predicted_addr = predicted_addr
                op.current_addr = predicted_addr
                if meta.is_store:
                    op.addr_known_cycle = cycle  # speculative
                if self.telemetry is not None:
                    self.telemetry.emit(
                        "vp_predict", cycle, op.seq, meta.pc,
                        {"what": "address", "value": predicted_addr})

    # -- IR at dispatch --------------------------------------------------------------

    def _apply_reuse(self, op: InflightOp) -> None:
        decision = self.ir.test(op, self.cycle, self._store_conflict)
        if not decision.hit:
            return
        op.reuse_hit_full = decision.full
        op.reuse_hit_addr = decision.address
        if self.config.ir.validation == IRValidation.EARLY:
            self._apply_reuse_early(op, decision)
        else:
            self._apply_reuse_late(op, decision)

    def _apply_reuse_early(self, op: InflightOp,
                           decision: ReuseDecision) -> None:
        entry = decision.entry
        cycle = self.cycle
        meta = op.meta
        if decision.address:
            op.addr_reused = True
            op.current_addr = entry.address
            op.addr_known_cycle = cycle  # non-speculative
        if not decision.full:
            return
        op.reused = True
        op.reuse_value = entry.result
        op.completed = True
        op.used_values = op.src_values
        op.last_completion_cycle = cycle
        op.ready_cycle = cycle
        op.value_ready_cycle = cycle
        op.hi_ready_cycle = cycle
        op.nonspec_cycle = cycle
        op.current_value = entry.result
        op.current_hi = entry.result_hi
        if meta.is_load:
            op.used_addr = entry.address
        if self.config.verify_commits and not meta.is_control:
            if entry.result != op.outcome.result:
                raise SimulationError(
                    f"reuse produced wrong value at {meta.inst}")
        if meta.is_branch:
            self.stats.reused_branches += 1
            self._resolve_control(op, bool(entry.result), meta.target,
                                  final=True)
        elif meta.is_indirect:
            op.current_addr = entry.result
            self.stats.reused_branches += 1
            self._resolve_control(op, True, entry.result, final=True)

    def _apply_reuse_late(self, op: InflightOp,
                          decision: ReuseDecision) -> None:
        """Figure 3's *late* experiment: hits act like perfect predictions."""
        entry = decision.entry
        meta = op.meta
        if decision.address:
            op.addr_predicted = True
            op.predicted_addr = entry.address
            op.current_addr = entry.address
            if meta.is_store:
                op.addr_known_cycle = self.cycle
        if decision.full:
            # The hit marker feeds same-cycle dependence chaining in the
            # reuse test: detection is identical to early mode, only the
            # validation point moves to the execute stage.
            op.reuse_value = entry.result
            if meta.has_dest:
                op.predicted = True
                op.predicted_value = entry.result
                op.value_ready_cycle = self.cycle

    # ------------------------------------------------------------------- issue --

    def _queue_for_issue(self, op: InflightOp) -> None:
        """Add *op* to the wakeup queue (idempotent)."""
        if op.in_issue_queue:
            return
        queue = self.issue_queue
        if queue and queue[-1].seq > op.seq:
            self._issue_dirty = True  # re-add of an older op: re-sort
        queue.append(op)
        op.in_issue_queue = True

    def _issue(self) -> None:
        queue = self.issue_queue
        if not queue:
            return
        if self._issue_dirty:
            queue.sort(key=_seq_key)
            self._issue_dirty = False
        cycle = self.cycle
        width = self.config.issue_width
        stats = self.stats
        ports = self.dcache_ports
        pool_list = self.fus.pool_list
        profile = self.profile
        lsq = self.lsq
        issued = 0
        keep: List[InflightOp] = []
        keep_append = keep.append
        for index, op in enumerate(queue):
            if issued >= width:
                keep.extend(queue[index:])
                break
            if profile is not None:
                profile.issue_queue_scanned += 1
            # Drop entries that can never want issue again: squashed ops,
            # in-flight executions (completion re-queues via reexec), and
            # completed ops with no pending re-execution.
            if op.squashed:
                continue
            reexec = op.reexec_earliest
            if op.issued or (op.completed and reexec is None):
                op.in_issue_queue = False
                continue
            # The _wants_issue gates of the scan-driven core:
            if op.dispatch_cycle >= cycle:
                keep_append(op)
                continue
            if reexec is not None and cycle < reexec:
                keep_append(op)
                continue
            meta = op.meta
            if meta.is_load:
                address = self._load_address(op)
                if address is None:
                    p = op.producers.get(meta.rs)
                    if reexec is None and p is not None \
                            and (p.hi_ready_cycle if meta.rs == REG_HI
                                 and p.writes_hi_lo
                                 else p.value_ready_cycle) is None:
                        # Park: the base register's producer has not even
                        # completed, so its completion event (which wakes
                        # consumers) is the next time this can change.
                        op.in_issue_queue = False
                    else:
                        keep_append(op)
                    continue
                # Table 1: loads execute only after all preceding store
                # addresses are known (reused/predicted count as known).
                gated = False
                seq = op.seq
                for s in lsq:
                    if s.seq >= seq:
                        break
                    if not s.is_store:
                        continue
                    known = s.addr_known_cycle
                    if known is None or known >= cycle:
                        gated = True
                        break
                if gated:
                    keep_append(op)
                    continue
                forwarding = self._forwarding_store(op, address)
                if forwarding is not None:
                    # Need the store's data before it can be bypassed.
                    data_reg = forwarding.meta.rd
                    p = forwarding.producers.get(data_reg)
                    if p is not None:
                        ready = (p.hi_ready_cycle if data_reg == REG_HI
                                 and p.writes_hi_lo
                                 else p.value_ready_cycle)
                        if ready is None or ready >= cycle:
                            keep_append(op)
                            continue
                needs_port = forwarding is None
            else:
                blocked = False
                park = False
                for reg, p in op.producers.items():
                    if reg == REG_HI and p.writes_hi_lo:
                        ready = p.hi_ready_cycle
                    else:
                        ready = p.value_ready_cycle
                    if ready is None:
                        # Producer never completed: its completion event
                        # wakes consumers, so leave the queue entirely.
                        # (Completed re-exec candidates stay resident —
                        # the wake walk skips completed consumers.)
                        park = reexec is None
                        blocked = True
                        break
                    if ready >= cycle:
                        blocked = True
                        break
                if blocked:
                    if park:
                        op.in_issue_queue = False
                    else:
                        keep_append(op)
                    continue
                address = None
                forwarding = None
                needs_port = False
            fu_pool = pool_list[meta.op_class_index]
            busy = fu_pool.busy_until
            unit = -1
            for u in range(len(busy)):
                if busy[u] <= cycle:
                    unit = u
                    break
            stats.resource_requests += 1
            if unit < 0 or (needs_port and ports.available(cycle) == 0):
                stats.resource_denials += 1
                keep_append(op)
                continue
            busy[unit] = cycle + meta.issue_interval
            fu_pool.grants += 1
            if needs_port:
                ports.try_acquire(cycle)
            self._start_execution(op, address, forwarding)
            op.in_issue_queue = False
            issued += 1
        self.issue_queue = keep

    def _load_address(self, op: InflightOp) -> Optional[int]:
        """The address a load issuing now would use, or None if unknown."""
        meta = op.meta
        base = meta.rs
        p = op.producers.get(base)
        if p is None:
            return u32(op.src_values.get(base, 0) + meta.imm)
        hi = base == REG_HI and p.writes_hi_lo
        ready = p.hi_ready_cycle if hi else p.value_ready_cycle
        if ready is not None and ready < self.cycle:
            current = p.current_hi if hi else p.current_value
            if current is None:
                current = op.src_values[base]
            return u32(current + meta.imm)
        if op.addr_reused or op.addr_predicted:
            return op.current_addr
        return None

    def _forwarding_store(self, op: InflightOp,
                          address: int) -> Optional[InflightOp]:
        """Youngest older store whose known address overlaps the load's."""
        nbytes = op.meta.mem_bytes
        seq = op.seq
        best = None
        for s in self.lsq:
            if s.seq >= seq:
                break
            if not s.is_store:
                continue
            store_addr = s.current_addr
            if store_addr is None:
                continue
            if store_addr < address + nbytes \
                    and address < store_addr + s.meta.mem_bytes:
                best = s
        return best

    def _start_execution(self, op: InflightOp,
                         address: Optional[int] = None,
                         forwarding: Optional[InflightOp] = None) -> None:
        """Begin executing *op*; for loads the issue logic passes in the
        effective address and forwarding store it already computed."""
        cycle = self.cycle
        meta = op.meta
        if self.telemetry is not None:
            self.telemetry.emit("issue", cycle, op.seq, meta.pc,
                                {"reexec": op.exec_count > 0})
        op.issued = True
        op.issue_cycle = cycle
        op.reexec_earliest = None
        op.stale = False
        if self._pure_values:
            # Pure-value configurations read exactly the dispatch-time
            # values; alias the dict (it is never mutated).
            op.issue_read_values = op.src_values
        else:
            # Snapshot the *current* operand values into a fresh dict,
            # so the completed execution's used_values stays intact.
            values: Dict[int, int] = {}
            src_values = op.src_values
            producers = op.producers
            for reg in meta.src_regs:
                p = producers.get(reg)
                if p is None:
                    values[reg] = src_values[reg]
                else:
                    if reg == REG_HI and p.writes_hi_lo:
                        current = p.current_hi
                    else:
                        current = p.current_value
                    values[reg] = src_values[reg] if current is None \
                        else current
            op.issue_read_values = values
        latency = meta.latency
        if meta.is_mem:
            if not meta.is_load:
                address = self._store_address(op)
            op.issue_addr = address
            if meta.is_load:
                op.forwarded_from = forwarding
                if forwarding is None:
                    latency += self.dcache.access_latency(address)
                    self.stats.dcache_accesses += 1
        completes = cycle + latency
        op.completes_at = completes
        self._schedule(completes, EVENT_COMPLETE, op)

    def _store_address(self, op: InflightOp) -> int:
        meta = op.meta
        base = meta.rs
        return u32(op.issue_read_values.get(base,
                                            op.src_values.get(base, 0))
                   + meta.imm)

    # --------------------------------------------------------------- completion --

    def _on_complete(self, op: InflightOp) -> None:
        cycle = self.cycle
        stats = self.stats
        op.issued = False
        op.exec_count += 1
        stats.execution_attempts += 1
        first = not op.completed
        if first:
            stats.executed_instructions += 1
        op.completed = True
        op.last_completion_cycle = cycle
        op.used_values = op.issue_read_values
        if self.telemetry is not None:
            self.telemetry.emit("complete", cycle, op.seq, op.meta.pc,
                                {"first": first,
                                 "executions": op.exec_count})

        new_value, new_hi = self._evaluate(op)
        previous = op.current_value
        if previous is None and op.predicted:
            previous = op.predicted_value
        previous_hi = op.current_hi
        op.current_value = new_value
        op.current_hi = new_hi

        if op.ready_cycle is None:
            op.ready_cycle = cycle
        if op.value_ready_cycle is None:
            op.value_ready_cycle = cycle
        if op.hi_ready_cycle is None:
            op.hi_ready_cycle = cycle

        if first:
            # Wake parked consumers: ops that left the wakeup queue while
            # this (their producer's first) execution was in flight.
            for c, _ in op.consumers:
                if not c.squashed and not c.in_issue_queue \
                        and not c.issued and not c.completed:
                    self._queue_for_issue(c)

        if op.is_mem:
            self._complete_memory(op)

        if self.ir is not None:
            self.ir.insert(op)

        if op.stale:
            op.stale = False
            self._schedule_reexec(op, cycle + 1)
        else:
            self._try_finalize(op)

        nonspec = op.nonspec_cycle
        correction = (nonspec if nonspec is not None and nonspec >= cycle
                      else cycle)
        if previous is not None and previous != new_value:
            self._propagate_change(op, correction, hi=False)
        if previous_hi is not None and previous_hi != new_hi:
            self._propagate_change(op, correction, hi=True)

        if op.nonspec_cycle is None and not op.stale \
                and op.reexec_earliest is None and not self._pure_values:
            # Pure-value lane: inputs are never wrong, so no corrective
            # self-scheduled re-execution can ever be needed.
            self._maybe_schedule_final_reexec(op)

        if op.is_control and not op.resolved_final \
                and op.nonspec_cycle is None:
            # Inputs still value-speculative: under SB the branch resolves
            # now anyway (may be spurious); under NSB it waits (Sec 4.1.4).
            if self.vp is not None and self.config.vp.branch_policy \
                    == BranchPolicy.SPECULATIVE:
                taken, target = self._computed_control(op)
                self._resolve_control(op, taken, target, final=False)

        if op.is_store:
            if op.addr_known_cycle is None:
                op.addr_known_cycle = cycle
            self._check_memory_violations(op)
            self._poke_younger_loads(op)

        # Safety net: a pending re-execution raised while this execution
        # was in flight must re-enter the wakeup queue.
        if op.reexec_earliest is not None:
            self._queue_for_issue(op)

    def _evaluate(self, op: InflightOp) -> Tuple[Optional[int], Optional[int]]:
        """Result of this execution over the values actually read."""
        meta = op.meta
        outcome = op.outcome
        if self._pure_values:
            # Operands are the oracle values by construction: the result
            # is the dispatch outcome (side effects mirrored from below).
            if meta.is_load:
                op.used_addr = op.issue_addr
                return outcome.result, None
            if meta.is_store:
                addr = op.issue_addr
                op.used_addr = addr
                op.current_addr = addr
                return None, None
            if meta.is_indirect:
                op.current_addr = outcome.next_pc
                return (outcome.result, None) if meta.is_call \
                    else (None, None)
            if meta.is_branch:
                return int(outcome.taken), None
            return outcome.result, outcome.result_hi
        values = op.used_values
        if meta.is_load:
            address = op.issue_addr
            op.used_addr = address
            if address == outcome.mem_addr:
                return outcome.result, None
            return self.spec.read_mem(address, meta.mem_bytes,
                                      meta.mem_signed), None
        if meta.is_store:
            addr = op.issue_addr
            op.used_addr = addr
            op.current_addr = addr
            return None, None
        if meta.is_indirect:
            a, _ = self._operand_pair(op, values)
            op.current_addr = a  # computed jump target
            return (outcome.result, None) if meta.is_call \
                else (None, None)
        src_values = op.src_values
        match = True
        for reg, v in values.items():
            if src_values[reg] != v:
                match = False
                break
        if meta.is_branch:
            if match:
                return int(outcome.taken), None
            a, b = self._operand_pair(op, values)
            return int(bool(meta.eval_fn(a, b, meta.imm))), None
        if match:
            return outcome.result, outcome.result_hi
        a, b = self._operand_pair(op, values)
        if meta.writes_hi_lo:
            pair = (mult_hi_lo(a, b) if meta.is_mult
                    else div_hi_lo(a, b))
            return pair[1], pair[0]
        return u32(meta.eval_fn(a, b, meta.imm)), None

    def _operand_pair(self, op: InflightOp,
                      values: Dict[int, int]) -> Tuple[int, int]:
        meta = op.meta
        pair_reg = meta.pair_reg
        if pair_reg >= 0:  # mfhi/mflo/fcc-branch: one special operand
            return values.get(pair_reg, 0), 0
        src_values = op.src_values
        rs, rt = meta.rs, meta.rt
        a = values.get(rs, src_values.get(rs, 0)) if rs else 0
        b = values.get(rt, src_values.get(rt, 0)) if rt else 0
        return a, b

    def _complete_memory(self, op: InflightOp) -> None:
        if op.is_load:
            op.current_addr = op.used_addr
            if op.addr_known_cycle is None:
                op.addr_known_cycle = self.cycle

    def _computed_control(self, op: InflightOp) -> Tuple[bool, int]:
        if op.meta.is_branch:
            return bool(op.current_value), op.meta.target
        return True, op.current_value  # indirect jump: target is the value

    def _propagate_change(self, op: InflightOp, correction_cycle: int,
                          hi: bool) -> None:
        """My broadcast value changed: dependents must re-execute.

        Only the head of a dependent chain pays the verification penalty
        (correction_cycle already includes it); the rest re-issue as the
        corrected values flow (Section 4.1.3).
        """
        reexec_on_spec = (self.vp is None
                          or self.config.vp.reexec_policy
                          == ReexecPolicy.MULTIPLE)
        final = op.nonspec_cycle is not None
        if not (final or reexec_on_spec):
            return  # NME: ignore speculative value changes
        writes_hi_lo = op.writes_hi_lo
        value = op.current_hi if hi else op.current_value
        for c, reg in op.consumers:
            if c.squashed:
                continue
            is_hi = reg == REG_HI and writes_hi_lo
            if is_hi != hi:
                continue
            if c.issued:
                c.stale = True
            elif c.completed:
                if c.used_values.get(reg) != value:
                    self._schedule_reexec(c, correction_cycle + 1)

    def _schedule_reexec(self, op: InflightOp, earliest: int) -> None:
        if self.telemetry is not None:
            self.telemetry.emit("reexec", self.cycle, op.seq,
                                op.meta.pc, {"earliest": earliest})
        reexec = op.reexec_earliest
        if reexec is None or reexec > earliest:
            op.reexec_earliest = earliest
        op.nonspec_cycle = None
        if not op.issued:
            self._queue_for_issue(op)

    def _maybe_schedule_final_reexec(self, op: InflightOp) -> None:
        """My inputs were wrong and their producers already finalized:
        nobody will send another change event, so self-schedule the
        (single) re-execution after the corrected values."""
        latest = self.cycle
        mismatch = False
        used_values = op.used_values
        for reg, p in op.producers.items():
            nonspec = p.nonspec_cycle
            if nonspec is None:
                continue
            outcome = p.outcome
            final_value = (outcome.result_hi
                           if reg == REG_HI and p.writes_hi_lo
                           else outcome.result)
            if used_values.get(reg) != final_value:
                mismatch = True
                latest = max(latest, nonspec)
        if op.is_load and op.used_addr != op.outcome.mem_addr \
                and self._load_address_final(op):
            mismatch = True
        if mismatch:
            self._schedule_reexec(op, latest + 1)

    def _load_address_final(self, op: InflightOp) -> bool:
        p = op.producers.get(op.meta.rs)
        return p is None or p.nonspec_cycle is not None

    # --------------------------------------------------------------- finalization --

    def _try_finalize(self, op: InflightOp) -> None:
        """Establish non-speculative status (verification) if possible."""
        if op.nonspec_cycle is not None:
            return
        if not op.completed or op.issued or op.stale \
                or op.reexec_earliest is not None:
            return
        when = op.last_completion_cycle
        pure = self._pure_values
        used_values = op.used_values
        for reg, p in op.producers.items():
            nonspec = p.nonspec_cycle
            if nonspec is None:
                return
            if not pure:
                outcome = p.outcome
                final_value = (outcome.result_hi
                               if reg == REG_HI and p.writes_hi_lo
                               else outcome.result)
                if used_values.get(reg) != final_value:
                    return
            if nonspec > when:
                when = nonspec
        if op.is_mem:
            used_addr = op.used_addr
            if used_addr is not None and used_addr != op.outcome.mem_addr:
                # Wrong (predicted/propagated) address; once the base
                # register is final nobody else will wake us, so schedule
                # the corrective re-execution here.
                if self._load_address_final(op):
                    self._schedule_reexec(op, self.cycle + 1)
                return
            if op.is_load and not self._older_store_addrs_final(op):
                return
        if op.predicted or op.addr_predicted:
            when += self.verify_latency
        op.nonspec_cycle = when

        if op.is_control and not op.resolved_final:
            if when <= self.cycle:
                taken, target = self._final_resolution(op)
                self._resolve_control(op, taken, target, final=True)
            else:
                self._schedule(when, EVENT_RESOLVE, op)

        # Direct iteration is safe in both walks: *op* is strictly older
        # than any op a cascading branch resolution can squash (it is a
        # producer of everything it reaches), so its consumer list is
        # neither cleared nor appended to mid-walk; consumers squashed
        # by the cascade are skipped by their flag.
        if pure:
            # Values always agree: finalization only cascades.
            for c, _ in op.consumers:
                if c.squashed:
                    continue
                if c.completed and not c.issued:
                    self._try_finalize(c)
                if c.is_mem:
                    self._poke_younger_loads(c)
        else:
            outcome = op.outcome
            writes_hi_lo = op.writes_hi_lo
            cycle = self.cycle
            for c, reg in op.consumers:
                if c.squashed:
                    continue
                final_value = (outcome.result_hi
                               if reg == REG_HI and writes_hi_lo
                               else outcome.result)
                if c.issued:
                    if c.issue_read_values.get(reg) != final_value:
                        c.stale = True
                elif c.completed:
                    if c.used_values.get(reg) != final_value:
                        self._schedule_reexec(c, max(when, cycle) + 1)
                    else:
                        self._try_finalize(c)
                if c.is_mem:
                    self._poke_younger_loads(c)
        if op.is_store:
            self._poke_younger_loads(op)

    def _older_store_addrs_final(self, op: InflightOp) -> bool:
        seq = op.seq
        for s in self.lsq:
            if s.seq >= seq:
                break
            if s.is_store and not self._store_addr_final(s):
                return False
        return True

    def _store_addr_final(self, s: InflightOp) -> bool:
        if s.addr_reused:
            return True
        if not s.completed or s.used_addr != s.outcome.mem_addr:
            return False
        p = s.producers.get(s.meta.rs)
        return p is None or p.nonspec_cycle is not None

    def _poke_younger_loads(self, op: InflightOp) -> None:
        # Snapshot: finalizing a load can cascade into a branch resolution
        # that squashes (and therefore mutates) the LSQ; a mid-walk
        # victim is skipped by its flag.
        mem_seq = op.seq
        for load in list(self.lsq):
            if load.seq <= mem_seq or not load.is_load or load.squashed:
                continue
            self._try_finalize(load)

    def _check_memory_violations(self, s: InflightOp) -> None:
        """A store's address just resolved: replay loads it invalidates."""
        address = s.current_addr
        nbytes = s.meta.mem_bytes
        store_seq = s.seq
        for load in self.lsq:
            if load.seq <= store_seq or not load.is_load:
                continue
            completed = load.completed
            if not completed and not load.issued:
                continue
            load_addr = load.used_addr if completed else load.issue_addr
            if load_addr is None:
                continue
            load_bytes = load.meta.mem_bytes
            overlaps = (address < load_addr + load_bytes
                        and load_addr < address + nbytes)
            forwarded_here = load.forwarded_from is s
            if overlaps != forwarded_here:
                if load.issued:
                    load.stale = True
                else:
                    self._schedule_reexec(load, self.cycle + 1)

    def _store_conflict(self, seq: int, address: int,
                        nbytes: int) -> bool:
        """Reuse-test helper: does a store older than *seq* overlap?"""
        for s in self.lsq:
            if s.seq >= seq:
                break
            if not s.is_store:
                continue
            store_addr = s.outcome.mem_addr
            if store_addr < address + nbytes \
                    and address < store_addr + s.meta.mem_bytes:
                return True
        return False

    # ---------------------------------------------------------------- resolution --

    def _final_resolution(self, op: InflightOp) -> Tuple[bool, int]:
        """The true (non-speculative) outcome of a control instruction."""
        meta = op.meta
        if meta.is_branch:
            return bool(op.outcome.taken), meta.target
        return True, op.outcome.next_pc

    def _resolve_control(self, op: InflightOp, taken: bool, target: int,
                         final: bool) -> None:
        meta = op.meta
        actual_next = target if taken else meta.next_pc
        believed_next = (op.believed_target if op.believed_taken
                         else meta.next_pc)
        op.last_resolution_cycle = self.cycle
        if self.telemetry is not None:
            self.telemetry.emit(
                "branch_resolve", self.cycle, op.seq, meta.pc,
                {"taken": taken, "target": target, "final": final,
                 "redirected": actual_next != believed_next})
        if actual_next != believed_next:
            had_path = believed_next is not None
            op.believed_taken = taken
            op.believed_target = target
            self._squash_after(op, actual_next, count=had_path,
                               spurious=not final)
        if final and not op.resolved_final:
            op.resolved_final = True
            if op.nonspec_cycle is None:
                op.nonspec_cycle = self.cycle
            if op.checkpoint is not None:
                self.unresolved_control -= 1

    def _squash_after(self, op: InflightOp, redirect: int, count: bool,
                      spurious: bool) -> None:
        stats = self.stats
        if count:
            stats.branch_squashes += 1
            if spurious:
                stats.spurious_squashes += 1
        op_seq = op.seq
        rob = self.rob
        if self.telemetry is not None:
            victims = sum(1 for v in rob if v.seq > op_seq)
            self.telemetry.emit(
                "squash", self.cycle, op_seq, op.meta.pc,
                {"victims": victims, "spurious": spurious,
                 "redirect": redirect})
        lsq = self.lsq
        vp = self.vp
        while rob and rob[-1].seq > op_seq:
            victim = rob.pop()
            victim.squashed = True
            stats.squashed_instructions += 1
            if vp is not None:
                if victim.predicted:
                    vp.abort(victim.meta.vp_result_key)
                if victim.addr_predicted:
                    vp.abort(victim.meta.vp_addr_key)
            if victim.exec_count > 0:
                stats.squashed_executed += 1
                if self.ir is not None:
                    self.ir.note_squashed(victim)
            checkpoint = victim.checkpoint
            if checkpoint is not None:
                if not victim.resolved_final:
                    self.unresolved_control -= 1
                self.spec.release_checkpoint(checkpoint)
                victim.checkpoint = None
                victim.rename_snapshot = None
            if victim.is_mem:
                assert lsq[-1] is victim, "LSQ out of sync with ROB"
                lsq.pop()
            # Every consumer of a victim is younger, so squashed too:
            # dropping these edges breaks the last reference cycles
            # through the victim (its producer edges point only at older
            # entries, which clear their own consumer lists when they
            # commit or squash).
            victim.consumers.clear()
        self.spec.restore(op.checkpoint)
        self.rename = op.rename_snapshot.copy()
        self._repair_predictor(op)
        self.fetch_unit.redirect(redirect, self.cycle)
        halt = self.halt_dispatched
        if halt is not None and halt.squashed:
            self.halt_dispatched = None

    def _repair_predictor(self, op: InflightOp) -> None:
        meta = op.meta
        prediction = op.prediction
        if meta.is_branch:
            self.predictor.repair(prediction, bool(op.believed_taken),
                                  is_conditional=True)
        elif meta.is_call:
            self.predictor.repair_call(prediction, meta.next_pc)
        else:
            self.predictor.repair(prediction, True, is_conditional=False)

    # -------------------------------------------------------------------- commit --

    def _commit(self) -> None:
        committed = 0
        rob = self.rob
        cycle = self.cycle
        width = self.config.commit_width
        while rob and committed < width:
            op = rob[0]
            nonspec = op.nonspec_cycle
            if not op.completed or nonspec is None or nonspec >= cycle:
                break
            if op.is_control and not op.resolved_final:
                break
            rob.popleft()
            if op.is_mem:
                head = self.lsq.popleft()
                assert head is op, "LSQ out of sync with ROB"
            self._commit_one(op)
            committed += 1
            if op.meta.is_halt:
                self.halted = True
                self.stats.halted = True
                break

    def _commit_one(self, op: InflightOp) -> None:
        meta = op.meta
        outcome = op.outcome
        stats = self.stats
        stats.committed += 1
        op.committed = True
        exec_count = op.exec_count
        if exec_count > 0:
            stats.record_exec_histogram(exec_count)

        if meta.is_branch:
            prediction = op.prediction
            stats.cond_branches += 1
            if prediction.taken == outcome.taken:
                stats.cond_branch_correct += 1
            stats.branch_resolution_cycles += (op.last_resolution_cycle
                                               - op.dispatch_cycle)
            stats.branch_resolution_count += 1
            self.predictor.commit_branch(meta.pc, bool(outcome.taken),
                                         prediction)
        elif meta.is_return:
            stats.returns += 1
            prediction = op.prediction
            if prediction and prediction.target == outcome.next_pc:
                stats.returns_correct += 1
        elif meta.is_indirect:
            self.predictor.commit_indirect(meta.pc, outcome.next_pc)

        if meta.is_mem:
            stats.memory_ops += 1
        if meta.is_store and self.ir is not None:
            self.ir.on_store_commit(outcome.mem_addr, meta.mem_bytes)

        if self.vp is not None:
            self._train_vp(op)
        if op.reuse_hit_full:
            stats.ir_result_reused += 1
        if op.reuse_hit_addr:
            stats.ir_addr_reused += 1

        if self.oracle is not None:
            self._verify_commit(op)
        if self.on_commit is not None:
            self.on_commit(op, self.cycle)
        if self.telemetry is not None:
            tel = self.telemetry
            tel.emit("commit", self.cycle, op.seq, meta.pc, {
                "opcode": meta.opcode.name,
                "text": tel.disasm(meta),
                "dispatch": op.dispatch_cycle,
                "issue": op.issue_cycle,
                "complete": op.last_completion_cycle,
                "executions": exec_count,
                "reused": op.reused,
                "predicted": op.predicted,
                "correct": (op.predicted_value == outcome.result
                            if op.predicted else None),
            })

        # Nothing reads a committed entry's edges again.  Dropping them
        # keeps it from pinning its consumers (cycles) or its producers
        # (a chain back through every committed ancestor), so it is
        # freed once the rename map and its younger consumers let go.
        checkpoint = op.checkpoint
        if checkpoint is not None:
            self.spec.release_checkpoint(checkpoint)
            op.checkpoint = None
            op.rename_snapshot = None
        op.consumers.clear()
        op.producers.clear()
        op.forwarded_from = None

    def _train_vp(self, op: InflightOp) -> None:
        meta = op.meta
        outcome = op.outcome
        stats = self.stats
        predicted = op.predicted
        if meta.has_dest and outcome.result is not None \
                and not meta.is_store and meta.executes \
                and not meta.is_control:
            stats.vp_result_lookups += 1
            if predicted:
                stats.vp_result_predicted += 1
                predicted_value = op.predicted_value
                if predicted_value == outcome.result:
                    stats.vp_result_correct += 1
                if self.telemetry is not None:
                    self.telemetry.emit(
                        "vp_verify", self.cycle, op.seq, meta.pc,
                        {"what": "result",
                         "correct": predicted_value == outcome.result,
                         "predicted": predicted_value,
                         "actual": outcome.result})
            self.vp.train_result(meta.vp_result_key, outcome.result,
                                 op.predicted_value if predicted else None)
        if meta.is_mem:
            stats.vp_addr_lookups += 1
            addr_predicted = op.addr_predicted
            if addr_predicted:
                stats.vp_addr_predicted += 1
                predicted_addr = op.predicted_addr
                if predicted_addr == outcome.mem_addr:
                    stats.vp_addr_correct += 1
                if self.telemetry is not None:
                    self.telemetry.emit(
                        "vp_verify", self.cycle, op.seq, meta.pc,
                        {"what": "address",
                         "correct": predicted_addr == outcome.mem_addr,
                         "predicted": predicted_addr,
                         "actual": outcome.mem_addr})
            self.vp.train_address(meta.vp_addr_key, outcome.mem_addr,
                                  op.predicted_addr if addr_predicted
                                  else None)

    def _verify_commit(self, op: InflightOp) -> None:
        meta = op.meta
        expected = self.oracle.step()
        if expected.pc != meta.pc:
            raise SimulationError(
                f"commit diverged: oracle at {expected.pc:#x}, "
                f"core committed {meta.pc:#x} (cycle {self.cycle})")
        if expected.writes != op.outcome.writes:
            raise SimulationError(
                f"commit wrote {op.outcome.writes} but oracle wrote "
                f"{expected.writes} at {meta.inst}")

    # --------------------------------------------------------------------- stats --

    def _finalize_stats(self) -> None:
        stats = self.stats
        stats.fetched = self.fetch_unit.fetched
        stats.icache_misses = self.fetch_unit.icache.misses
        stats.dcache_misses = self.dcache.misses
