"""Speculative architectural state with checkpoint/rollback.

The timing core executes instructions functionally *at dispatch*, in fetch
order, against this state (the SimpleScalar ``sim-outorder`` design).  When
a predicted control instruction dispatches, the core takes a checkpoint;
a squash restores the register file copy and unwinds the memory undo
journal back to the checkpoint's position.  This is what lets the model
run down wrong paths with real data values — which the paper's IR
squash-recovery results depend on — and recover exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from ..isa.opcodes import NUM_REGS, REG_SP, REG_ZERO, u32
from ..isa.program import Program, STACK_TOP
from ..functional.memory import Memory


@dataclass
class Checkpoint:
    """Rollback point: register-file copy + memory journal position."""

    regs: List[int]
    journal_mark: int
    pc: int


class SpeculativeState:
    """Register file and journaled memory executed at dispatch."""

    def __init__(self, program: Program):
        self.regs: List[int] = [0] * NUM_REGS
        self.regs[REG_SP] = STACK_TOP
        self.memory = Memory(program.data)
        # Undo journal of (address, old_value, nbytes) records.
        self._journal: List[Tuple[int, int, int]] = []
        self._live_checkpoints = 0
        # Released Checkpoint objects, recycled by take_checkpoint so the
        # steady state allocates no checkpoint (or register list) per
        # predicted branch.
        self._cp_pool: List[Checkpoint] = []

    # -- register and memory access (execute() and the compiled closures) --------

    def read_reg(self, reg: int) -> int:
        return self.regs[reg]

    def write_reg(self, reg: int, value: int) -> None:
        if reg != REG_ZERO:
            self.regs[reg] = u32(value)

    def read_mem(self, address: int, nbytes: int, signed: bool) -> int:
        return self.memory.read(address, nbytes, signed)

    def write_mem(self, address: int, value: int, nbytes: int) -> None:
        if self._live_checkpoints:
            old = self.memory.read(address, nbytes, signed=False)
            self._journal.append((address, old, nbytes))
        self.memory.write(address, value, nbytes)

    # -- checkpointing ------------------------------------------------------------

    def take_checkpoint(self, pc: int) -> Checkpoint:
        self._live_checkpoints += 1
        pool = self._cp_pool
        if pool:
            checkpoint = pool.pop()
            checkpoint.regs[:] = self.regs
            checkpoint.journal_mark = len(self._journal)
            checkpoint.pc = pc
            return checkpoint
        return Checkpoint(list(self.regs), len(self._journal), pc)

    def restore(self, checkpoint: Checkpoint) -> None:
        """Roll state back to *checkpoint* (which stays valid for reuse)."""
        self.regs[:] = checkpoint.regs
        while len(self._journal) > checkpoint.journal_mark:
            address, old, nbytes = self._journal.pop()
            self.memory.write(address, old, nbytes)

    def release_checkpoint(self, checkpoint: Checkpoint) -> None:
        """Drop *checkpoint* (its branch resolved or was squashed)."""
        self._live_checkpoints -= 1
        if self._live_checkpoints == 0:
            self._journal.clear()
        self._cp_pool.append(checkpoint)

    @property
    def journal_length(self) -> int:
        return len(self._journal)
