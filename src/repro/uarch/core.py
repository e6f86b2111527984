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

Scheduling is event-driven and dynamic state is structure-of-arrays (see
``docs/internals.md``): completions and resolutions live on a heap keyed
by cycle, issue examines only the wakeup queue of instructions whose
state can actually change (not the whole ROB), every static instruction
is pre-decoded once into a flat :class:`~repro.uarch.decode.StaticOp`
record, and all per-instruction dynamic state lives in the preallocated
parallel arrays of an :class:`~repro.uarch.entry.EntryPool` — the ROB,
LSQ, rename map, event heap and wakeup queue hold small integer entry
ids (or ``(seq << SEQ_SHIFT) | id`` tokens where staleness is possible),
so the steady state allocates no objects per instruction.  All of it
is timing-transparent: the statistics are byte-identical to the
object-per-entry core's (``tests/golden`` pins this).
"""

from __future__ import annotations

import gc
from collections import deque
from typing import Any, Deque, Dict, List, Optional, Tuple

from ..functional.compiled import CompiledProgram, HALT
from ..functional.ffexec import FF_BAD_PC, run_ff
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
from .entry import IDX_MASK, REG_MASK, REG_SHIFT, SEQ_SHIFT, EntryPool
from .events import EVENT_COMPLETE, EVENT_RESOLVE, EventQueue, WakeupQueue
from .fetch import FetchUnit
from .functional_units import FunctionalUnits
from .spec_state import SpeculativeState

# Consumer edges pack ((seq << SEQ_SHIFT | id) << REG_SHIFT) | reg; the
# packed entry's upper bits are the producer-recorded seq of the consumer.
_CONS_SEQ_SHIFT = REG_SHIFT + SEQ_SHIFT


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
        self.dcache_ports = PortTracker(config.dcache.ports)
        self.spec = SpeculativeState(program)

        # All dynamic instruction state lives in the entry pool; the
        # sizing covers the ROB plus the retired-but-pinned tail (slots
        # kept alive by live consumers' producer edges) without growth
        # in the steady state.  The hot path reads the pool's Optional
        # slots only where flags (``completed``, ``issued``...) guarantee
        # them set, which mypy cannot follow, so the core's view of the
        # pool is untyped.
        pool: Any = EntryPool(config.rob_size * 4 + 32)
        self.pool = pool
        # One-hop bindings of every pool array the hot path touches.
        # ``_grow`` extends the lists in place, so these stay valid.
        self.e_seq = pool.seq_of
        self.e_meta = pool.meta
        self.e_outcome = pool.outcome
        self.e_dispatch = pool.dispatch_cycle
        self.e_is_load = pool.is_load
        self.e_is_store = pool.is_store
        self.e_is_mem = pool.is_mem
        self.e_is_control = pool.is_control
        self.e_whl = pool.writes_hi_lo
        self.e_producers = pool.producers
        self.e_src_values = pool.src_values
        self.e_consumers = pool.consumers
        self.e_refs = pool.refs
        self.e_retired = pool.retired
        self.e_completed = pool.completed
        self.e_ready = pool.ready_cycle
        self.e_value_ready = pool.value_ready_cycle
        self.e_hi_ready = pool.hi_ready_cycle
        self.e_nonspec = pool.nonspec_cycle
        self.e_current = pool.current_value
        self.e_current_hi = pool.current_hi
        self.e_exec_count = pool.exec_count
        self.e_issued = pool.issued
        self.e_completes_at = pool.completes_at
        self.e_irv = pool.issue_read_values
        self.e_used_values = pool.used_values
        self.e_buf_a = pool.buf_a
        self.e_buf_b = pool.buf_b
        self.e_used_addr = pool.used_addr
        self.e_stale = pool.stale
        self.e_reexec = pool.reexec_earliest
        self.e_in_iq = pool.in_issue_queue
        self.e_predicted = pool.predicted
        self.e_predicted_value = pool.predicted_value
        self.e_addr_predicted = pool.addr_predicted
        self.e_predicted_addr = pool.predicted_addr
        self.e_reused = pool.reused
        self.e_addr_reused = pool.addr_reused
        self.e_reuse_value = pool.reuse_value
        self.e_prediction = pool.prediction
        self.e_btaken = pool.believed_taken
        self.e_btarget = pool.believed_target
        self.e_resolved = pool.resolved_final
        self.e_last_resolution = pool.last_resolution_cycle
        self.e_checkpoint = pool.checkpoint
        self.e_rename_snapshot = pool.rename_snapshot
        self.e_current_addr = pool.current_addr
        self.e_addr_known = pool.addr_known_cycle
        self.e_fwd_from = pool.forwarded_from
        self.e_issue_cycle = pool.issue_cycle
        self.e_issue_addr = pool.issue_addr
        self.e_last_completion = pool.last_completion_cycle
        self.e_hit_full = pool.reuse_hit_full
        self.e_hit_addr = pool.reuse_hit_addr

        # Rename map: architectural reg -> token of the youngest in-flight
        # producer (None when the architectural value is current).  Stale
        # tokens of committed-and-recycled producers are filtered by the
        # seq validation at dispatch.
        self.rename: List[Optional[int]] = [None] * NUM_REGS
        self.rob: Deque[int] = deque()
        self.lsq: Deque[int] = deque()
        # The core borrows the backing lists of the completion-event heap
        # and the wakeup queue (``events`` / ``issue_queue``) for
        # local-variable-speed scans and routes the invariant-bearing
        # mutations through their methods.
        self._eventq = EventQueue()
        self.events: List[Tuple[int, int, int, int]] = self._eventq.heap
        # Wakeup queue of tokens: the only instructions issue examines.
        # An op is resident from dispatch until it issues or can never
        # issue again; re-executions re-enter through _queue_for_issue.
        # Kept in seq order (token order == seq order; re-adds mark the
        # queue dirty and it is re-sorted at the top of _issue) so issue
        # priority matches ROB order exactly.
        self._wakeq = WakeupQueue()
        self.issue_queue: List[int] = self._wakeq.tokens

        self.cycle = 0
        self.seq = 0
        self.unresolved_control = 0
        self.halt_dispatched: Optional[int] = None  # token
        self.halted = False

        self.profile: Optional[CoreProfile] = None
        # Observation-only telemetry sink (enable_telemetry); never feeds
        # a value back, so stats are identical with or without it.
        self.telemetry = None

        self.vp = make_predictor(config.vp) if config.vp.enabled else None
        self.ir: Optional[ReuseEngine] = (
            ReuseEngine(config.ir, self.stats) if config.ir.enabled else None)
        if self.ir is not None:
            self.ir.bind_pool(pool)
        # Lower the pool's reset gates to this machine's feature set: a
        # core without VP (or IR) never writes those field groups, so
        # slot recycling need not touch them.  The golden byte-identity
        # corpus is the safety net for this reasoning — a missed reset
        # changes observable behavior.
        pool.reset_vp = self.vp is not None
        pool.reset_ir = self.ir is not None
        pool.reset_reexec = self.vp is not None or self.ir is not None
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

        if config.vp.enabled and config.ir.enabled and not config.hybrid:
            raise ValueError(
                "VP and IR are separate techniques in the paper; enable "
                "one at a time (or set hybrid=True for the combined "
                "scheme the paper's conclusion suggests)")

        self.oracle: Optional[FunctionalSimulator] = (
            FunctionalSimulator(program) if config.verify_commits else None)

        # Optional observer invoked as on_commit(view, cycle) for every
        # committed instruction (tracing, examples, custom statistics);
        # the view is a CommittedOp snapshot built only when a hook is
        # attached, so the detached hot path never pays for it.
        self.on_commit = None

    # ------------------------------------------------------------------ run --

    def run(self, max_cycles: Optional[int] = None,
            max_instructions: Optional[int] = None) -> SimStats:
        """Simulate until halt commits or a budget is exhausted."""
        step = self.step
        stats = self.stats
        # The entry pool holds dynamic state in flat arrays and the
        # dataflow edges are plain ints, so the cyclic collector has
        # nothing to reclaim here — pause it for the run to avoid the
        # periodic scan churn over the long-lived pool lists.
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

        Mirrors the paper's warm-up skip (1-2.5 billion instructions there).
        Must be called before the first :meth:`step`.
        """
        if self.cycle or self.rob:
            raise SimulationError("skip() must precede timing simulation")
        # Fast-forward closures mutate the speculative state exactly like
        # the interpreted loop did, but with no ExecOutcome allocation;
        # like before, the halt is left unexecuted for the front end.
        compiled = CompiledProgram(self.program)
        pc, executed, status = run_ff(
            compiled.ff_entry, HALT, self.spec,
            self.program.entry_point, instructions, False)
        if status == FF_BAD_PC:
            raise SimulationError(f"skip ran off program at {pc:#x}")
        self.fetch_unit.fetch_pc = pc
        if self.oracle is not None:
            self.oracle.skip(executed)

    def restore_warm(self, warm) -> None:
        """Adopt a warm-state checkpoint in place of :meth:`skip`.

        *warm* must come from :func:`repro.functional.checkpoint.capture`
        over the same program with the intended skip count (the store's
        content addressing guarantees this).  Afterwards the core is
        indistinguishable from one that just ran ``skip(warm.skip)``
        cold: speculative state holds the warm image, fetch starts at the
        first unexecuted instruction (the halt itself when the warm-up
        ran into one — the front end dispatches it, exactly like the
        cold path), and the commit-verify oracle sits at the same point.
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
        if self.rob:
            self._commit()
        events = self.events
        if events and events[0][0] <= self.cycle:
            self._process_events()
        if self.issue_queue:
            self._issue()
        fetch = self.fetch_unit
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

    def _schedule(self, cycle: int, kind: int, i: int) -> None:
        self._eventq.push(cycle, self.e_seq[i], kind, i)

    def _process_events(self) -> None:
        events = self.events
        cycle = self.cycle
        profile = self.profile
        heappop = self._eventq.pop
        e_seq = self.e_seq
        e_completes_at = self.e_completes_at
        e_issued = self.e_issued
        while events and events[0][0] <= cycle:
            _, seq, kind, i = heappop()
            if profile is not None:
                profile.events_processed += 1
            if e_seq[i] != seq:
                continue  # the op was squashed; the slot may be recycled
            if kind == EVENT_COMPLETE:
                if e_completes_at[i] == cycle and e_issued[i]:
                    self._on_complete(i)
            elif kind == EVENT_RESOLVE:
                if not self.e_resolved[i]:
                    taken, target = self._final_resolution(i)
                    self._resolve_control(i, taken, target, final=True)

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

    def _dispatch_one(self, fetched) -> int:
        meta = fetched[0]
        pool = self.pool
        cycle = self.cycle
        # Source values must be read *before* exec_fn mutates the
        # speculative state.
        self.seq = seq = self.seq + 1
        i = pool.alloc(seq, meta, None, cycle)
        regs = self.spec.regs
        src_values = self.e_src_values[i]
        tok = (seq << SEQ_SHIFT) | i
        rename = self.rename
        producers = self.e_producers[i]
        if meta.src_regs:
            # One walk does both rename-stage jobs: snapshot the operand
            # values (before exec_fn mutates the speculative state — the
            # pool state read here is not touched by execution) and link
            # the producer edges.
            e_seq = self.e_seq
            e_retired = self.e_retired
            e_nonspec = self.e_nonspec
            e_completed = self.e_completed
            e_consumers = self.e_consumers
            e_refs = self.e_refs
            for reg in meta.src_regs:
                src_values[reg] = regs[reg]
                ptok = rename[reg]
                if ptok is None:
                    continue
                p = ptok & IDX_MASK
                if e_seq[p] != ptok >> SEQ_SHIFT:
                    continue  # producer committed, its slot was recycled
                if e_retired[p]:
                    # Committed producer: its final value is this op's
                    # dispatch-time src value, so the edge carries no
                    # information — read through src_values instead.
                    continue
                if reg not in producers:
                    producers[reg] = p
                    e_refs[p] += 1
                if e_nonspec[p] is None or not e_completed[p]:
                    e_consumers[p].append((tok << REG_SHIFT) | reg)
        self.e_outcome[i] = meta.exec_fn(self.spec)
        for reg in meta.dest_regs:
            rename[reg] = tok

        self.rob.append(i)
        if meta.is_mem:
            self.lsq.append(i)

        if self.telemetry is not None:
            self.telemetry.emit("dispatch", cycle, seq, meta.pc,
                                {"opcode": meta.opcode.name})

        if meta.is_control:
            self._dispatch_control(i, fetched[1])
        if not meta.executes:
            self._complete_at_dispatch(i)
        if meta.is_halt:
            self.halt_dispatched = tok

        if self.ir is not None and meta.executes:
            self._apply_reuse(i)
        if self.vp is not None and meta.executes and not meta.is_control \
                and not self.e_reused[i]:
            self._apply_value_prediction(i)

        if meta.executes and not self.e_completed[i]:
            # Enter the wakeup queue only if issue is at least conceivable:
            # an op with a producer that has not completed parks outside
            # the queue until that producer's completion event wakes it.
            # Loads with a reused/predicted address can issue without the
            # base register, so they always enter.
            park = False
            if not (meta.is_load and (self.e_addr_reused[i]
                                      or self.e_addr_predicted[i])):
                e_whl = self.e_whl
                for reg, p in producers.items():
                    if reg == REG_HI and e_whl[p]:
                        ready = self.e_hi_ready[p]
                    else:
                        ready = self.e_value_ready[p]
                    if ready is None:
                        park = True
                        break
            if not park:
                self._queue_for_issue(i)
        return i

    def _dispatch_control(self, i: int, prediction) -> None:
        meta = self.e_meta[i]
        self.e_prediction[i] = prediction
        if meta.is_branch:
            self.e_btaken[i] = prediction.taken
            self.e_btarget[i] = meta.target
        else:
            self.e_btaken[i] = True
            self.e_btarget[i] = (prediction.target
                                 if prediction else meta.target)
        if meta.needs_checkpoint:
            self.e_checkpoint[i] = self.spec.take_checkpoint(meta.pc)
            self.e_rename_snapshot[i] = self.rename.copy()
            self.unresolved_control += 1
        else:
            # Direct j/jal: fetch followed the target; nothing to resolve.
            self.e_resolved[i] = True
            self.e_last_resolution[i] = self.cycle

    def _complete_at_dispatch(self, i: int) -> None:
        """Non-executing ops (j/jal/nop/halt) are done at dispatch."""
        cycle = self.cycle
        self.e_completed[i] = True
        buf = self.e_buf_a[i]  # empty: the slot was freshly allocated
        buf.update(self.e_src_values[i])
        self.e_used_values[i] = buf
        self.e_last_completion[i] = cycle
        self.e_ready[i] = cycle
        self.e_value_ready[i] = cycle
        self.e_current[i] = self.e_outcome[i].result
        self.e_nonspec[i] = cycle

    # -- VP at dispatch --------------------------------------------------------------

    def _apply_value_prediction(self, i: int) -> None:
        meta, outcome = self.e_meta[i], self.e_outcome[i]
        cycle = self.cycle
        if self.config.vp.predict_results and meta.has_dest \
                and outcome.result is not None and not meta.is_store:
            predicted = self.vp.predict_result(meta.pc, outcome.result,
                                               key=meta.vp_result_key)
            if predicted is not None:
                self.e_predicted[i] = True
                self.e_predicted_value[i] = predicted
                self.e_value_ready[i] = cycle
                if self.telemetry is not None:
                    self.telemetry.emit(
                        "vp_predict", cycle, self.e_seq[i], meta.pc,
                        {"what": "result", "value": predicted})
        if meta.is_mem:
            predicted_addr = self.vp.predict_address(meta.pc,
                                                     outcome.mem_addr,
                                                     key=meta.vp_addr_key)
            if predicted_addr is not None:
                self.e_addr_predicted[i] = True
                self.e_predicted_addr[i] = predicted_addr
                self.e_current_addr[i] = predicted_addr
                if meta.is_store:
                    self.e_addr_known[i] = cycle  # speculative
                if self.telemetry is not None:
                    self.telemetry.emit(
                        "vp_predict", cycle, self.e_seq[i], meta.pc,
                        {"what": "address", "value": predicted_addr})

    # -- IR at dispatch --------------------------------------------------------------

    def _apply_reuse(self, i: int) -> None:
        decision = self.ir.test(i, self.cycle, self._store_conflict)
        if not decision.hit:
            return
        self.e_hit_full[i] = decision.full
        self.e_hit_addr[i] = decision.address
        if self.config.ir.validation == IRValidation.EARLY:
            self._apply_reuse_early(i, decision)
        else:
            self._apply_reuse_late(i, decision)

    def _apply_reuse_early(self, i: int, decision: ReuseDecision) -> None:
        entry = decision.entry
        cycle = self.cycle
        meta = self.e_meta[i]
        if decision.address:
            self.e_addr_reused[i] = True
            self.e_current_addr[i] = entry.address
            self.e_addr_known[i] = cycle  # non-speculative
        if not decision.full:
            return
        self.e_reused[i] = True
        self.e_reuse_value[i] = entry.result
        self.e_completed[i] = True
        buf = self.e_buf_a[i]  # empty: reuse is tested at dispatch
        buf.update(self.e_src_values[i])
        self.e_used_values[i] = buf
        self.e_last_completion[i] = cycle
        self.e_ready[i] = cycle
        self.e_value_ready[i] = cycle
        self.e_hi_ready[i] = cycle
        self.e_nonspec[i] = cycle
        self.e_current[i] = entry.result
        self.e_current_hi[i] = entry.result_hi
        if meta.is_load:
            self.e_used_addr[i] = entry.address
        if self.config.verify_commits and not meta.is_control:
            if entry.result != self.e_outcome[i].result:
                raise SimulationError(
                    f"reuse produced wrong value at {meta.inst}")
        if meta.is_branch:
            self.stats.reused_branches += 1
            self._resolve_control(i, bool(entry.result), meta.target,
                                  final=True)
        elif meta.is_indirect:
            self.e_current_addr[i] = entry.result
            self.stats.reused_branches += 1
            self._resolve_control(i, True, entry.result, final=True)

    def _apply_reuse_late(self, i: int, decision: ReuseDecision) -> None:
        """Figure 3's *late* experiment: hits act like perfect predictions."""
        entry = decision.entry
        meta = self.e_meta[i]
        if decision.address:
            self.e_addr_predicted[i] = True
            self.e_predicted_addr[i] = entry.address
            self.e_current_addr[i] = entry.address
            if meta.is_store:
                self.e_addr_known[i] = self.cycle
        if decision.full:
            # The hit marker feeds same-cycle dependence chaining in the
            # reuse test: detection is identical to early mode, only the
            # validation point moves to the execute stage.
            self.e_reuse_value[i] = entry.result
            if meta.has_dest:
                self.e_predicted[i] = True
                self.e_predicted_value[i] = entry.result
                self.e_value_ready[i] = self.cycle

    # ------------------------------------------------------------------- issue --

    def _queue_for_issue(self, i: int) -> None:
        """Add slot *i* to the wakeup queue (idempotent)."""
        if self.e_in_iq[i]:
            return
        self._wakeq.add((self.e_seq[i] << SEQ_SHIFT) | i)
        self.e_in_iq[i] = True

    def _issue(self) -> None:
        queue = self.issue_queue
        if not queue:
            return
        # Re-adds of older ops mark the queue dirty; the wakeup queue
        # re-sorts once here (token order == seq order) before the scan.
        self._wakeq.ensure_sorted()
        cycle = self.cycle
        width = self.config.issue_width
        stats = self.stats
        ports = self.dcache_ports
        pool_list = self.fus.pool_list
        profile = self.profile
        e_seq = self.e_seq
        e_issued = self.e_issued
        e_completed = self.e_completed
        e_reexec = self.e_reexec
        e_in_iq = self.e_in_iq
        e_meta = self.e_meta
        e_is_store = self.e_is_store
        e_producers = self.e_producers
        e_whl = self.e_whl
        e_hi_ready = self.e_hi_ready
        e_value_ready = self.e_value_ready
        lsq = self.lsq
        issued = 0
        keep: List[int] = []
        keep_append = keep.append
        for index, tok in enumerate(queue):
            if issued >= width:
                keep.extend(queue[index:])
                break
            if profile is not None:
                profile.issue_queue_scanned += 1
            i = tok & IDX_MASK
            # Drop entries that can never want issue again: squashed ops
            # (stale token: the slot was freed or recycled), in-flight
            # executions (completion re-queues via reexec), and completed
            # ops with no pending re-execution.
            if e_seq[i] != tok >> SEQ_SHIFT:
                continue  # squashed: in_issue_queue was reset by free()
            if e_issued[i] or (e_completed[i] and e_reexec[i] is None):
                e_in_iq[i] = False
                continue
            # The _wants_issue gates of the scan-driven core:
            if self.e_dispatch[i] >= cycle:
                keep_append(tok)
                continue
            reexec = e_reexec[i]
            if reexec is not None and cycle < reexec:
                keep_append(tok)
                continue
            meta = e_meta[i]
            if meta.is_load:
                address = self._load_address(i)
                if address is None:
                    p = e_producers[i].get(meta.rs)
                    if reexec is None and p is not None \
                            and (e_hi_ready[p] if meta.rs == REG_HI
                                 and e_whl[p]
                                 else e_value_ready[p]) is None:
                        # Park: the base register's producer has not even
                        # completed, so its completion event (which wakes
                        # consumers) is the next time this can change.
                        e_in_iq[i] = False
                    else:
                        keep_append(tok)
                    continue
                # Table 1: loads execute only after all preceding store
                # addresses are known (reused/predicted count as known).
                gated = False
                seq = e_seq[i]
                for s in lsq:
                    if e_seq[s] >= seq:
                        break
                    if not e_is_store[s]:
                        continue
                    known = self.e_addr_known[s]
                    if known is None or known >= cycle:
                        gated = True
                        break
                if gated:
                    keep_append(tok)
                    continue
                forwarding = self._forwarding_store(i, address)
                if forwarding is not None:
                    # Need the store's data before it can be bypassed.
                    data_reg = e_meta[forwarding].rd
                    p = e_producers[forwarding].get(data_reg)
                    if p is not None:
                        ready = (e_hi_ready[p] if data_reg == REG_HI
                                 and e_whl[p] else e_value_ready[p])
                        if ready is None or ready >= cycle:
                            keep_append(tok)
                            continue
                needs_port = forwarding is None
            else:
                blocked = False
                park = False
                for reg, p in e_producers[i].items():
                    if reg == REG_HI and e_whl[p]:
                        ready = e_hi_ready[p]
                    else:
                        ready = e_value_ready[p]
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
                        e_in_iq[i] = False
                    else:
                        keep_append(tok)
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
                keep_append(tok)
                continue
            busy[unit] = cycle + meta.issue_interval
            fu_pool.grants += 1
            if needs_port:
                ports.try_acquire(cycle)
            self._start_execution(i, address, forwarding)
            e_in_iq[i] = False
            issued += 1
        # The scan's survivor list becomes the queue; keep the borrowed
        # ``issue_queue`` alias pointing at the wakeup queue's list.
        self._wakeq.replace(keep)
        self.issue_queue = keep

    def _load_address(self, i: int) -> Optional[int]:
        """The address a load issuing now would use, or None if unknown."""
        meta = self.e_meta[i]
        base = meta.rs
        p = self.e_producers[i].get(base)
        if p is None:
            return u32(self.e_src_values[i].get(base, 0) + meta.imm)
        if base == REG_HI and self.e_whl[p]:
            ready = self.e_hi_ready[p]
        else:
            ready = self.e_value_ready[p]
        if ready is not None and ready < self.cycle:
            if base == REG_HI and self.e_whl[p]:
                current = self.e_current_hi[p]
            else:
                current = self.e_current[p]
            if current is None:
                current = self.e_src_values[i][base]
            return u32(current + meta.imm)
        if self.e_addr_reused[i] or self.e_addr_predicted[i]:
            return self.e_current_addr[i]
        return None

    def _forwarding_store(self, i: int, address: int) -> Optional[int]:
        """Youngest older store whose known address overlaps the load's."""
        nbytes = self.e_meta[i].mem_bytes
        seq = self.e_seq[i]
        e_seq = self.e_seq
        e_is_store = self.e_is_store
        e_current_addr = self.e_current_addr
        best = None
        for s in self.lsq:
            if e_seq[s] >= seq:
                break
            if not e_is_store[s]:
                continue
            store_addr = e_current_addr[s]
            if store_addr is None:
                continue
            if store_addr < address + nbytes \
                    and address < store_addr + self.e_meta[s].mem_bytes:
                best = s
        return best

    def _start_execution(self, i: int,
                         address: Optional[int] = None,
                         forwarding: Optional[int] = None) -> None:
        """Begin executing slot *i*; for loads the issue logic passes in
        the effective address and forwarding store it already computed."""
        cycle = self.cycle
        meta = self.e_meta[i]
        if self.telemetry is not None:
            self.telemetry.emit("issue", cycle, self.e_seq[i], meta.pc,
                                {"reexec": self.e_exec_count[i] > 0})
        self.e_issued[i] = True
        self.e_issue_cycle[i] = cycle
        self.e_reexec[i] = None
        self.e_stale[i] = False
        if self._pure_values:
            # Pure-value configurations read exactly the dispatch-time
            # values; alias the dict (it is never mutated).
            self.e_irv[i] = self.e_src_values[i]
        else:
            # Snapshot the *current* operand values into whichever scratch
            # buffer used_values does not alias, so the in-flight snapshot
            # never clobbers the completed one.
            buf_a = self.e_buf_a[i]
            buf = (self.e_buf_b[i] if self.e_used_values[i] is buf_a
                   else buf_a)
            buf.clear()
            src_values = self.e_src_values[i]
            producers = self.e_producers[i]
            e_whl = self.e_whl
            for reg in meta.src_regs:
                p = producers.get(reg)
                if p is None:
                    buf[reg] = src_values[reg]
                else:
                    if reg == REG_HI and e_whl[p]:
                        current = self.e_current_hi[p]
                    else:
                        current = self.e_current[p]
                    buf[reg] = src_values[reg] if current is None \
                        else current
            self.e_irv[i] = buf
        latency = meta.latency
        if meta.is_mem:
            if not meta.is_load:
                address = self._store_address(i)
            self.e_issue_addr[i] = address
            if meta.is_load:
                self.e_fwd_from[i] = (
                    None if forwarding is None
                    else (self.e_seq[forwarding] << SEQ_SHIFT) | forwarding)
                if forwarding is None:
                    latency += self.dcache.access_latency(address)
                    self.stats.dcache_accesses += 1
        completes = cycle + latency
        self.e_completes_at[i] = completes
        self._schedule(completes, EVENT_COMPLETE, i)

    def _store_address(self, i: int) -> int:
        values = self.e_irv[i]
        meta = self.e_meta[i]
        base = meta.rs
        return u32(values.get(base, self.e_src_values[i].get(base, 0))
                   + meta.imm)

    # --------------------------------------------------------------- completion --

    def _on_complete(self, i: int) -> None:
        cycle = self.cycle
        stats = self.stats
        self.e_issued[i] = False
        self.e_exec_count[i] += 1
        stats.execution_attempts += 1
        first = not self.e_completed[i]
        if first:
            stats.executed_instructions += 1
        self.e_completed[i] = True
        self.e_last_completion[i] = cycle
        self.e_used_values[i] = self.e_irv[i]
        if self.telemetry is not None:
            self.telemetry.emit("complete", cycle, self.e_seq[i],
                                self.e_meta[i].pc,
                                {"first": first,
                                 "executions": self.e_exec_count[i]})

        new_value, new_hi = self._evaluate(i)
        previous = self.e_current[i]
        if previous is None and self.e_predicted[i]:
            previous = self.e_predicted_value[i]
        previous_hi = self.e_current_hi[i]
        self.e_current[i] = new_value
        self.e_current_hi[i] = new_hi

        if self.e_ready[i] is None:
            self.e_ready[i] = cycle
        if self.e_value_ready[i] is None:
            self.e_value_ready[i] = cycle
        if self.e_hi_ready[i] is None:
            self.e_hi_ready[i] = cycle

        if first:
            # Wake parked consumers: ops that left the wakeup queue while
            # this (their producer's first) execution was in flight.
            e_seq = self.e_seq
            e_in_iq = self.e_in_iq
            e_issued = self.e_issued
            e_completed = self.e_completed
            for ent in self.e_consumers[i]:
                c = (ent >> REG_SHIFT) & IDX_MASK
                if e_seq[c] != ent >> _CONS_SEQ_SHIFT:
                    continue  # the consumer was squashed
                if not e_in_iq[c] and not e_issued[c] \
                        and not e_completed[c]:
                    self._queue_for_issue(c)

        if self.e_is_mem[i]:
            self._complete_memory(i)

        if self.ir is not None:
            self.ir.insert(i)

        if self.e_stale[i]:
            self.e_stale[i] = False
            self._schedule_reexec(i, cycle + 1)
        else:
            self._try_finalize(i)

        nonspec = self.e_nonspec[i]
        correction = (nonspec if nonspec is not None and nonspec >= cycle
                      else cycle)
        if previous is not None and previous != new_value:
            self._propagate_change(i, correction, hi=False)
        if previous_hi is not None and previous_hi != new_hi:
            self._propagate_change(i, correction, hi=True)

        if self.e_nonspec[i] is None and not self.e_stale[i] \
                and self.e_reexec[i] is None and not self._pure_values:
            # Pure-value lane: inputs are never wrong, so no corrective
            # self-scheduled re-execution can ever be needed.
            self._maybe_schedule_final_reexec(i)

        if self.e_is_control[i] and not self.e_resolved[i] \
                and self.e_nonspec[i] is None:
            # Inputs still value-speculative: under SB the branch resolves
            # now anyway (may be spurious); under NSB it waits (Sec 4.1.4).
            if self.vp is not None and self.config.vp.branch_policy \
                    == BranchPolicy.SPECULATIVE:
                taken, target = self._computed_control(i)
                self._resolve_control(i, taken, target, final=False)

        if self.e_is_store[i]:
            if self.e_addr_known[i] is None:
                self.e_addr_known[i] = cycle
            self._check_memory_violations(i)
            self._poke_younger_loads(i)

        # Safety net: a pending re-execution raised while this execution
        # was in flight must re-enter the wakeup queue.
        if self.e_reexec[i] is not None:
            self._queue_for_issue(i)

    def _evaluate(self, i: int) -> Tuple[Optional[int], Optional[int]]:
        """Result of this execution over the values actually read."""
        meta = self.e_meta[i]
        outcome = self.e_outcome[i]
        if self._pure_values:
            # Operands are the oracle values by construction: the result
            # is the dispatch outcome (side effects mirrored from below).
            if meta.is_load:
                self.e_used_addr[i] = self.e_issue_addr[i]
                return outcome.result, None
            if meta.is_store:
                addr = self.e_issue_addr[i]
                self.e_used_addr[i] = addr
                self.e_current_addr[i] = addr
                return None, None
            if meta.is_indirect:
                self.e_current_addr[i] = outcome.next_pc
                return (outcome.result, None) if meta.is_call \
                    else (None, None)
            if meta.is_branch:
                return int(outcome.taken), None
            return outcome.result, outcome.result_hi
        values = self.e_used_values[i]
        if meta.is_load:
            address = self.e_issue_addr[i]
            self.e_used_addr[i] = address
            if address == outcome.mem_addr:
                return outcome.result, None
            return self.spec.read_mem(address, meta.mem_bytes,
                                      meta.mem_signed), None
        if meta.is_store:
            addr = self.e_issue_addr[i]
            self.e_used_addr[i] = addr
            self.e_current_addr[i] = addr
            return None, None
        if meta.is_indirect:
            a, _ = self._operand_pair(i, values)
            self.e_current_addr[i] = a  # computed jump target
            return (outcome.result, None) if meta.is_call \
                else (None, None)
        src_values = self.e_src_values[i]
        match = True
        for reg, v in values.items():
            if src_values[reg] != v:
                match = False
                break
        if meta.is_branch:
            if match:
                return int(outcome.taken), None
            a, b = self._operand_pair(i, values)
            return int(bool(meta.eval_fn(a, b, meta.imm))), None
        if match:
            return outcome.result, outcome.result_hi
        a, b = self._operand_pair(i, values)
        if meta.writes_hi_lo:
            pair = (mult_hi_lo(a, b) if meta.is_mult
                    else div_hi_lo(a, b))
            return pair[1], pair[0]
        return u32(meta.eval_fn(a, b, meta.imm)), None

    def _operand_pair(self, i: int,
                      values: Dict[int, int]) -> Tuple[int, int]:
        meta = self.e_meta[i]
        pair_reg = meta.pair_reg
        if pair_reg >= 0:  # mfhi/mflo/fcc-branch: one special operand
            return values.get(pair_reg, 0), 0
        src_values = self.e_src_values[i]
        rs, rt = meta.rs, meta.rt
        a = values.get(rs, src_values.get(rs, 0)) if rs else 0
        b = values.get(rt, src_values.get(rt, 0)) if rt else 0
        return a, b

    def _complete_memory(self, i: int) -> None:
        if self.e_is_load[i]:
            self.e_current_addr[i] = self.e_used_addr[i]
            if self.e_addr_known[i] is None:
                self.e_addr_known[i] = self.cycle

    def _computed_control(self, i: int) -> Tuple[bool, int]:
        if self.e_meta[i].is_branch:
            return bool(self.e_current[i]), self.e_meta[i].target
        return True, self.e_current[i]  # indirect jump: target is the value

    def _propagate_change(self, i: int, correction_cycle: int,
                          hi: bool) -> None:
        """My broadcast value changed: dependents must re-execute.

        Only the head of a dependent chain pays the verification penalty
        (correction_cycle already includes it); the rest re-issue as the
        corrected values flow (Section 4.1.3).
        """
        reexec_on_spec = (self.vp is None
                          or self.config.vp.reexec_policy
                          == ReexecPolicy.MULTIPLE)
        final = self.e_nonspec[i] is not None
        if not (final or reexec_on_spec):
            return  # NME: ignore speculative value changes
        writes_hi_lo = self.e_whl[i]
        value = self.e_current_hi[i] if hi else self.e_current[i]
        e_seq = self.e_seq
        e_issued = self.e_issued
        e_completed = self.e_completed
        for ent in self.e_consumers[i]:
            reg = ent & REG_MASK
            c = (ent >> REG_SHIFT) & IDX_MASK
            if e_seq[c] != ent >> _CONS_SEQ_SHIFT:
                continue  # the consumer was squashed
            is_hi = reg == REG_HI and writes_hi_lo
            if is_hi != hi:
                continue
            if e_issued[c]:
                self.e_stale[c] = True
            elif e_completed[c]:
                if self.e_used_values[c].get(reg) != value:
                    self._schedule_reexec(c, correction_cycle + 1)

    def _schedule_reexec(self, i: int, earliest: int) -> None:
        if self.telemetry is not None:
            self.telemetry.emit("reexec", self.cycle, self.e_seq[i],
                                self.e_meta[i].pc, {"earliest": earliest})
        reexec = self.e_reexec[i]
        if reexec is None or reexec > earliest:
            self.e_reexec[i] = earliest
        self.e_nonspec[i] = None
        if not self.e_issued[i]:
            self._queue_for_issue(i)

    def _maybe_schedule_final_reexec(self, i: int) -> None:
        """My inputs were wrong and their producers already finalized:
        nobody will send another change event, so self-schedule the
        (single) re-execution after the corrected values."""
        latest = self.cycle
        mismatch = False
        used_values = self.e_used_values[i]
        e_whl = self.e_whl
        for reg, p in self.e_producers[i].items():
            nonspec = self.e_nonspec[p]
            if nonspec is None:
                continue
            outcome = self.e_outcome[p]
            final_value = (outcome.result_hi
                           if reg == REG_HI and e_whl[p]
                           else outcome.result)
            if used_values.get(reg) != final_value:
                mismatch = True
                latest = max(latest, nonspec)
        if self.e_is_load[i] \
                and self.e_used_addr[i] != self.e_outcome[i].mem_addr \
                and self._load_address_final(i):
            mismatch = True
        if mismatch:
            self._schedule_reexec(i, latest + 1)

    def _load_address_final(self, i: int) -> bool:
        p = self.e_producers[i].get(self.e_meta[i].rs)
        return p is None or self.e_nonspec[p] is not None

    # --------------------------------------------------------------- finalization --

    def _try_finalize(self, i: int) -> None:
        """Establish non-speculative status (verification) if possible."""
        if self.e_nonspec[i] is not None:
            return
        if not self.e_completed[i] or self.e_issued[i] or self.e_stale[i] \
                or self.e_reexec[i] is not None:
            return
        when = self.e_last_completion[i]
        pure = self._pure_values
        used_values = self.e_used_values[i]
        e_whl = self.e_whl
        for reg, p in self.e_producers[i].items():
            nonspec = self.e_nonspec[p]
            if nonspec is None:
                return
            if not pure:
                outcome = self.e_outcome[p]
                final_value = (outcome.result_hi
                               if reg == REG_HI and e_whl[p]
                               else outcome.result)
                if used_values.get(reg) != final_value:
                    return
            if nonspec > when:
                when = nonspec
        if self.e_is_mem[i]:
            used_addr = self.e_used_addr[i]
            if used_addr is not None \
                    and used_addr != self.e_outcome[i].mem_addr:
                # Wrong (predicted/propagated) address; once the base
                # register is final nobody else will wake us, so schedule
                # the corrective re-execution here.
                if self._load_address_final(i):
                    self._schedule_reexec(i, self.cycle + 1)
                return
            if self.e_is_load[i] and not self._older_store_addrs_final(i):
                return
        if self.e_predicted[i] or self.e_addr_predicted[i]:
            when += self.verify_latency
        self.e_nonspec[i] = when

        if self.e_is_control[i] and not self.e_resolved[i]:
            if when <= self.cycle:
                taken, target = self._final_resolution(i)
                self._resolve_control(i, taken, target, final=True)
            else:
                self._schedule(when, EVENT_RESOLVE, i)

        e_seq = self.e_seq
        e_issued = self.e_issued
        e_completed = self.e_completed
        e_is_store = self.e_is_store
        e_is_load = self.e_is_load
        # Direct iteration is safe in both walks: *i* is strictly older
        # than any op a cascading branch resolution can squash (it is a
        # producer of everything it reaches), so its consumer list is
        # neither cleared nor appended to mid-walk — squash only resets
        # *younger* slots, and their stale edges fail the seq check.
        if pure:
            # Values always agree: finalization only cascades.
            for ent in self.e_consumers[i]:
                c = (ent >> REG_SHIFT) & IDX_MASK
                if e_seq[c] != ent >> _CONS_SEQ_SHIFT:
                    continue  # the consumer was squashed
                if e_completed[c] and not e_issued[c]:
                    self._try_finalize(c)
                if e_is_store[c] or e_is_load[c]:
                    self._poke_younger_loads(c)
        else:
            outcome = self.e_outcome[i]
            writes_hi_lo = self.e_whl[i]
            cycle = self.cycle
            for ent in self.e_consumers[i]:
                reg = ent & REG_MASK
                c = (ent >> REG_SHIFT) & IDX_MASK
                if e_seq[c] != ent >> _CONS_SEQ_SHIFT:
                    continue  # the consumer was squashed
                final_value = (outcome.result_hi
                               if reg == REG_HI and writes_hi_lo
                               else outcome.result)
                if e_issued[c]:
                    if self.e_irv[c].get(reg) != final_value:
                        self.e_stale[c] = True
                elif e_completed[c]:
                    if self.e_used_values[c].get(reg) != final_value:
                        self._schedule_reexec(c, max(when, cycle) + 1)
                    else:
                        self._try_finalize(c)
                if e_is_store[c] or e_is_load[c]:
                    self._poke_younger_loads(c)
        if self.e_is_store[i]:
            self._poke_younger_loads(i)

    def _older_store_addrs_final(self, i: int) -> bool:
        seq = self.e_seq[i]
        e_seq = self.e_seq
        e_is_store = self.e_is_store
        for s in self.lsq:
            if e_seq[s] >= seq:
                break
            if e_is_store[s] and not self._store_addr_final(s):
                return False
        return True

    def _store_addr_final(self, s: int) -> bool:
        if self.e_addr_reused[s]:
            return True
        if not self.e_completed[s] \
                or self.e_used_addr[s] != self.e_outcome[s].mem_addr:
            return False
        p = self.e_producers[s].get(self.e_meta[s].rs)
        return p is None or self.e_nonspec[p] is not None

    def _poke_younger_loads(self, i: int) -> None:
        # Snapshot: finalizing a load can cascade into a branch resolution
        # that squashes (and therefore mutates) the LSQ.  A mid-walk
        # victim's slot reads back seq -1, which the age filter skips.
        mem_seq = self.e_seq[i]
        e_seq = self.e_seq
        e_is_load = self.e_is_load
        for load in list(self.lsq):
            if e_seq[load] <= mem_seq or not e_is_load[load]:
                continue
            self._try_finalize(load)

    def _check_memory_violations(self, s: int) -> None:
        """A store's address just resolved: replay loads it invalidates."""
        address = self.e_current_addr[s]
        nbytes = self.e_meta[s].mem_bytes
        store_seq = self.e_seq[s]
        store_tok = (store_seq << SEQ_SHIFT) | s
        e_seq = self.e_seq
        e_is_load = self.e_is_load
        e_completed = self.e_completed
        e_issued = self.e_issued
        for load in self.lsq:
            if e_seq[load] <= store_seq or not e_is_load[load]:
                continue
            if not e_completed[load] and not e_issued[load]:
                continue
            load_addr = (self.e_used_addr[load] if e_completed[load]
                         else self.e_issue_addr[load])
            if load_addr is None:
                continue
            load_bytes = self.e_meta[load].mem_bytes
            overlaps = (address < load_addr + load_bytes
                        and load_addr < address + nbytes)
            forwarded_here = self.e_fwd_from[load] == store_tok
            if overlaps != forwarded_here:
                if e_issued[load]:
                    self.e_stale[load] = True
                else:
                    self._schedule_reexec(load, self.cycle + 1)

    def _store_conflict(self, seq: int, address: int,
                        nbytes: int) -> bool:
        """Reuse-test helper: does a store older than *seq* overlap?"""
        e_seq = self.e_seq
        e_is_store = self.e_is_store
        e_outcome = self.e_outcome
        for s in self.lsq:
            if e_seq[s] >= seq:
                break
            if not e_is_store[s]:
                continue
            store_addr = e_outcome[s].mem_addr
            if store_addr < address + nbytes \
                    and address < store_addr + self.e_meta[s].mem_bytes:
                return True
        return False

    # ---------------------------------------------------------------- resolution --

    def _final_resolution(self, i: int) -> Tuple[bool, int]:
        """The true (non-speculative) outcome of a control instruction."""
        meta = self.e_meta[i]
        if meta.is_branch:
            return bool(self.e_outcome[i].taken), meta.target
        return True, self.e_outcome[i].next_pc

    def _resolve_control(self, i: int, taken: bool, target: int,
                         final: bool) -> None:
        meta = self.e_meta[i]
        actual_next = target if taken else meta.next_pc
        believed_next = (self.e_btarget[i] if self.e_btaken[i]
                         else meta.next_pc)
        self.e_last_resolution[i] = self.cycle
        if self.telemetry is not None:
            self.telemetry.emit(
                "branch_resolve", self.cycle, self.e_seq[i], meta.pc,
                {"taken": taken, "target": target, "final": final,
                 "redirected": actual_next != believed_next})
        if actual_next != believed_next:
            had_path = believed_next is not None
            self.e_btaken[i] = taken
            self.e_btarget[i] = target
            self._squash_after(i, actual_next, count=had_path,
                               spurious=not final)
        if final and not self.e_resolved[i]:
            self.e_resolved[i] = True
            if self.e_nonspec[i] is None:
                self.e_nonspec[i] = self.cycle
            if self.e_checkpoint[i] is not None:
                self.unresolved_control -= 1

    def _squash_after(self, i: int, redirect: int, count: bool,
                      spurious: bool) -> None:
        stats = self.stats
        if count:
            stats.branch_squashes += 1
            if spurious:
                stats.spurious_squashes += 1
        op_seq = self.e_seq[i]
        e_seq = self.e_seq
        if self.telemetry is not None:
            victims = sum(1 for v in self.rob if e_seq[v] > op_seq)
            self.telemetry.emit(
                "squash", self.cycle, op_seq, self.e_meta[i].pc,
                {"victims": victims, "spurious": spurious,
                 "redirect": redirect})
        pool = self.pool
        rob = self.rob
        lsq = self.lsq
        vp = self.vp
        while rob and e_seq[rob[-1]] > op_seq:
            victim = rob.pop()
            stats.squashed_instructions += 1
            if vp is not None:
                if self.e_predicted[victim]:
                    vp.abort_result(self.e_meta[victim].pc)
                if self.e_addr_predicted[victim]:
                    vp.abort_address(self.e_meta[victim].pc)
            if self.e_exec_count[victim] > 0:
                stats.squashed_executed += 1
                if self.ir is not None:
                    self.ir.note_squashed(victim)
            checkpoint = self.e_checkpoint[victim]
            if checkpoint is not None:
                if not self.e_resolved[victim]:
                    self.unresolved_control -= 1
                self.spec.release_checkpoint(checkpoint)
            if self.e_is_mem[victim]:
                assert lsq[-1] == victim, "LSQ out of sync with ROB"
                lsq.pop()
            # Victims pop youngest-first, so every consumer of this victim
            # (strictly younger) has already dropped its edges: the free
            # recycles the slot immediately, and the array reset *is* the
            # squash cleanup.  Stale tokens left in the rename map, event
            # heap, wakeup queue and forwarded_from fail seq validation.
            pool.drop_edges(victim)
            pool.free(victim)
        if self.telemetry is not None and self.e_checkpoint[i] is not None:
            self.telemetry.emit("checkpoint_restore", self.cycle, op_seq,
                                self.e_meta[i].pc, {"redirect": redirect})
        self.spec.restore(self.e_checkpoint[i])
        self.rename = self.e_rename_snapshot[i].copy()
        self._repair_predictor(i)
        self.fetch_unit.redirect(redirect, self.cycle)
        halt_tok = self.halt_dispatched
        if halt_tok is not None \
                and e_seq[halt_tok & IDX_MASK] != halt_tok >> SEQ_SHIFT:
            self.halt_dispatched = None

    def _repair_predictor(self, i: int) -> None:
        meta = self.e_meta[i]
        prediction = self.e_prediction[i]
        if meta.is_branch:
            self.predictor.repair(prediction, bool(self.e_btaken[i]),
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
        e_completed = self.e_completed
        e_nonspec = self.e_nonspec
        while rob and committed < width:
            i = rob[0]
            nonspec = e_nonspec[i]
            if not e_completed[i] or nonspec is None or nonspec >= cycle:
                break
            if self.e_is_control[i] and not self.e_resolved[i]:
                break
            rob.popleft()
            if self.e_is_mem[i]:
                head = self.lsq.popleft()
                assert head == i, "LSQ out of sync with ROB"
            # _commit_one may recycle the slot; read the flag first.
            is_halt = self.e_meta[i].is_halt
            self._commit_one(i)
            committed += 1
            if is_halt:
                self.halted = True
                self.stats.halted = True
                break

    def _commit_one(self, i: int) -> None:
        meta = self.e_meta[i]
        outcome = self.e_outcome[i]
        stats = self.stats
        stats.committed += 1
        exec_count = self.e_exec_count[i]
        if exec_count > 0:
            stats.record_exec_histogram(exec_count)

        checkpoint = self.e_checkpoint[i]
        if checkpoint is not None:
            self.spec.release_checkpoint(checkpoint)
            self.e_checkpoint[i] = None

        if meta.is_branch:
            prediction = self.e_prediction[i]
            stats.cond_branches += 1
            if prediction.taken == outcome.taken:
                stats.cond_branch_correct += 1
            stats.branch_resolution_cycles += (self.e_last_resolution[i]
                                               - self.e_dispatch[i])
            stats.branch_resolution_count += 1
            self.predictor.commit_branch(meta.pc, bool(outcome.taken),
                                         prediction)
        elif meta.is_return:
            stats.returns += 1
            prediction = self.e_prediction[i]
            if prediction and prediction.target == outcome.next_pc:
                stats.returns_correct += 1
        elif meta.is_indirect:
            self.predictor.commit_indirect(meta.pc, outcome.next_pc)

        if meta.is_mem:
            stats.memory_ops += 1
        if meta.is_store and self.ir is not None:
            self.ir.on_store_commit(outcome.mem_addr, meta.mem_bytes)

        if self.vp is not None:
            self._train_vp(i)
        if self.e_hit_full[i]:
            stats.ir_result_reused += 1
        if self.e_hit_addr[i]:
            stats.ir_addr_reused += 1

        if self.oracle is not None:
            self._verify_commit(i)
        if self.on_commit is not None:
            # Snapshot view built before the edges are dropped, so the
            # observer sees the producers still linked at commit.
            self.on_commit(self.pool.view(i), self.cycle)
        if self.telemetry is not None:
            tel = self.telemetry
            tel.emit("commit", self.cycle, self.e_seq[i], meta.pc, {
                "opcode": meta.opcode.name,
                "text": tel.disasm(meta),
                "dispatch": self.e_dispatch[i],
                "issue": self.e_issue_cycle[i],
                "complete": self.e_last_completion[i],
                "executions": exec_count,
                "reused": self.e_reused[i],
                "predicted": self.e_predicted[i],
                "correct": (self.e_predicted_value[i] == outcome.result
                            if self.e_predicted[i] else None),
            })

        # Nothing walks a committed op's consumer list again; drop the
        # forward edges and containers now so a pinned (retired but still
        # referenced) slot holds no references.  The backward producer
        # edges are dropped here too — a retired producer whose last
        # reference this was is recycled immediately, and because
        # producers are strictly older no cascade is possible.
        self.e_consumers[i].clear()
        self.e_rename_snapshot[i] = None
        self.e_fwd_from[i] = None
        self.pool.drop_edges(i)
        self.pool.retire(i)

    def _train_vp(self, i: int) -> None:
        meta = self.e_meta[i]
        outcome = self.e_outcome[i]
        stats = self.stats
        predicted = self.e_predicted[i]
        if self.config.vp.predict_results and meta.has_dest \
                and outcome.result is not None and not meta.is_store \
                and meta.executes and not meta.is_control:
            stats.vp_result_lookups += 1
            if predicted:
                stats.vp_result_predicted += 1
                predicted_value = self.e_predicted_value[i]
                if predicted_value == outcome.result:
                    stats.vp_result_correct += 1
                if self.telemetry is not None:
                    self.telemetry.emit(
                        "vp_verify", self.cycle, self.e_seq[i], meta.pc,
                        {"what": "result",
                         "correct": predicted_value == outcome.result,
                         "predicted": predicted_value,
                         "actual": outcome.result})
            self.vp.train_result(meta.pc, outcome.result,
                                 self.e_predicted_value[i] if predicted
                                 else None)
        if meta.is_mem:
            stats.vp_addr_lookups += 1
            addr_predicted = self.e_addr_predicted[i]
            if addr_predicted:
                stats.vp_addr_predicted += 1
                predicted_addr = self.e_predicted_addr[i]
                if predicted_addr == outcome.mem_addr:
                    stats.vp_addr_correct += 1
                if self.telemetry is not None:
                    self.telemetry.emit(
                        "vp_verify", self.cycle, self.e_seq[i], meta.pc,
                        {"what": "address",
                         "correct": predicted_addr == outcome.mem_addr,
                         "predicted": predicted_addr,
                         "actual": outcome.mem_addr})
            self.vp.train_address(meta.pc, outcome.mem_addr,
                                  self.e_predicted_addr[i] if addr_predicted
                                  else None)

    def _verify_commit(self, i: int) -> None:
        meta = self.e_meta[i]
        expected = self.oracle.step()
        if expected.pc != meta.pc:
            raise SimulationError(
                f"commit diverged: oracle at {expected.pc:#x}, "
                f"core committed {meta.pc:#x} (cycle {self.cycle})")
        if expected.writes != self.e_outcome[i].writes:
            raise SimulationError(
                f"commit wrote {self.e_outcome[i].writes} but oracle wrote "
                f"{expected.writes} at {meta.inst}")

    # --------------------------------------------------------------------- stats --

    def _finalize_stats(self) -> None:
        stats = self.stats
        stats.fetched = self.fetch_unit.fetched
        stats.icache_misses = self.fetch_unit.icache.misses
        stats.dcache_misses = self.dcache.misses
