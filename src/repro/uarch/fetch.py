"""Instruction fetch: 4/cycle, one taken branch, no line crossing (Table 1).

The fetch unit consumes pre-decoded :class:`StaticOp` records from the
core's shared :class:`DecodeTable` — each static instruction is decoded
once on its first fetch, and every later fetch of the same PC reuses the
flat metadata record.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Optional, Tuple

from .branch_predictor import BranchPrediction, BranchPredictorUnit
from .cache import SetAssocCache
from .config import MachineConfig
from .decode import DecodeTable, StaticOp

#: One fetch-queue element: (StaticOp, fetch-time prediction or None,
#: fetch cycle).  A plain tuple — the fetch/dispatch hot path allocates
#: nothing beyond it per instruction.
FetchedInst = Tuple[StaticOp, Optional[BranchPrediction], int]

#: Fetch width in the cycle after a low-confidence branch ended the
#: group, under ``MachineConfig.variable_fetch_rate``.
VFR_LOW_CONF_WIDTH = 2


class FetchUnit:
    """Front end: I-cache + branch prediction + fetch queue."""

    def __init__(self, config: MachineConfig, program,
                 predictor: BranchPredictorUnit):
        self.config = config
        # Accept a pre-built DecodeTable (the core shares one) or a bare
        # Program (standalone fetch tests).
        self.decode = (program if isinstance(program, DecodeTable)
                       else DecodeTable(program))
        self.program = self.decode.program
        self.predictor = predictor
        self.icache = SetAssocCache(config.icache, "icache")
        self.queue: Deque[FetchedInst] = deque()
        self.fetch_pc = self.program.entry_point
        self.stall_until = 0  # I-cache miss in progress
        self.blocked = False  # unknown next PC (unpredicted indirect/halt)
        self.fetched = 0
        # Cycles in which fetch could not proceed at all (blocked
        # on a redirect or inside an I-cache miss).  Telemetry-only: not
        # part of SimStats, so golden byte-identity is untouched.
        self.stall_cycles = 0
        # Variable fetch rate (config.variable_fetch_rate): a fetched
        # conditional branch with a weak direction counter ends the
        # group, and the next cycle runs at the reduced width.  Both
        # counters are telemetry-only (not SimStats).
        self.vfr_throttles = 0
        self._vfr_slow_cycle = -1

    def redirect(self, target: int, cycle: int) -> None:
        """Squash recovery: restart fetch at *target* next cycle."""
        self.queue.clear()
        self.fetch_pc = target
        self.blocked = False
        self.stall_until = max(self.stall_until, cycle + 1)
        self._vfr_slow_cycle = -1  # the throttling branch is gone

    def step(self, cycle: int) -> int:
        """Fetch up to ``fetch_width`` instructions; returns how many."""
        if self.blocked or cycle < self.stall_until:
            self.stall_cycles += 1
            return 0
        fetched = 0
        line_shift = self.icache.line_shift
        current_line = None
        table = self.decode.table
        lookup = self.decode.lookup
        queue = self.queue
        room = self.config.fetch_queue_size - len(queue)
        width = self.config.fetch_width
        if self._vfr_slow_cycle == cycle:
            width = min(width, VFR_LOW_CONF_WIDTH)
        throttle = self.config.variable_fetch_rate
        while fetched < width and room > 0:
            pc = self.fetch_pc
            op = table.get(pc)
            if op is None:
                op = lookup(pc)
            if op is None:
                # Fell off the program (wrong path): wait for a redirect.
                self.blocked = True
                break
            line = pc >> line_shift
            if current_line is None:
                if not self.icache.access(pc):
                    self.stall_until = cycle + self.config.icache.miss_latency
                    break
                current_line = line
            elif line != current_line:
                break  # cannot fetch across a cache line boundary

            if op.is_branch or op.is_jump:
                prediction, next_pc, stop = self._predict(op)
            else:  # straight-line fast path: no predictor involvement
                prediction, next_pc, stop = None, op.next_pc, False
            queue.append((op, prediction, cycle))
            fetched += 1
            room -= 1
            self.fetched += 1
            if op.is_halt:
                self.blocked = True
                break
            if next_pc is None:
                self.blocked = True  # unpredicted indirect target
                break
            self.fetch_pc = next_pc
            if throttle and prediction is not None and op.is_branch \
                    and prediction.low_confidence:
                # Variable fetch rate: do not race ahead of a branch the
                # predictor is unsure about — end this group and fetch
                # the next cycle at the reduced width.
                self.vfr_throttles += 1
                self._vfr_slow_cycle = cycle + 1
                break
            if stop:
                break  # only one taken branch per cycle
        return fetched

    def _predict(self, op: StaticOp):
        """Predict control flow; returns (prediction, next_pc, stop_group)."""
        if op.is_branch:
            prediction = self.predictor.predict_branch(op.pc, op.target)
            if prediction.taken:
                return prediction, op.target, True
            return prediction, op.next_pc, False
        if op.is_jump:
            if op.is_call:
                target = None if op.is_indirect else op.target
                prediction = self.predictor.predict_call(
                    op.pc, op.next_pc, target)
            elif op.is_return:
                prediction = self.predictor.predict_return(op.pc)
            elif op.is_indirect:
                prediction = self.predictor.predict_indirect(op.pc)
            else:  # direct j: target always known (ideal BTB)
                prediction = BranchPrediction(
                    True, op.target, self.predictor.gshare.history,
                    self.predictor.ras.snapshot())
            return prediction, prediction.target, True
        return None, op.next_pc, False

    def pop(self) -> FetchedInst:
        return self.queue.popleft()

    def peek(self) -> Optional[FetchedInst]:
        return self.queue[0] if self.queue else None

    def __len__(self) -> int:
        return len(self.queue)
