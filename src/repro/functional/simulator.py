"""In-order functional simulator and the reference execution semantics.

:func:`execute` interprets one instruction against a machine state.  It
is the reference the decode-time closures of
:mod:`repro.functional.compiled` are tested against; those closures are
what actually run: the functional simulator steps them against
architectural state, and the out-of-order timing core runs them against
speculative (checkpointed) state at dispatch, which is the same structure
SimpleScalar's ``sim-outorder`` uses and is what lets the timing model
run wrong paths with real data values.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterator, List, Optional, Tuple

from ..isa.instruction import (
    Instruction,
    KIND_BRANCH,
    KIND_HILO,
    KIND_JUMP,
    KIND_LOAD,
    KIND_NOP,
    KIND_STORE,
)
from ..isa.opcodes import (
    NUM_REGS,
    REG_RA,
    REG_SP,
    REG_ZERO,
    div_hi_lo,
    mult_hi_lo,
    u32,
)
from ..isa.program import Program, STACK_TOP
from .memory import Memory


class SimulationError(Exception):
    """Raised when execution leaves the program (bad PC) or misbehaves."""


class ExecOutcome:
    """Everything one dynamic instruction did: the unit of observation.

    The redundancy limit study, the reuse buffer, the value predictor and
    the commit-time verifier all consume these records.  One is created
    per dispatched instruction (wrong paths included), so this is a
    ``__slots__`` class rather than a dataclass.
    """

    __slots__ = ("inst", "operand_a", "operand_b", "next_pc", "result",
                 "result_hi", "writes", "mem_addr", "mem_value", "taken")

    def __init__(self, inst: Instruction, operand_a: int, operand_b: int,
                 next_pc: int, result: Optional[int] = None,
                 result_hi: Optional[int] = None,
                 writes: Tuple[Tuple[int, int], ...] = (),
                 mem_addr: Optional[int] = None,
                 mem_value: Optional[int] = None,
                 taken: Optional[bool] = None):
        self.inst = inst
        self.operand_a = operand_a
        self.operand_b = operand_b
        self.next_pc = next_pc
        self.result = result  # dest value (LO for mult/div, load data)
        self.result_hi = result_hi  # HI for mult/div
        self.writes = writes
        self.mem_addr = mem_addr
        self.mem_value = mem_value
        self.taken = taken

    @property
    def pc(self) -> int:
        return self.inst.pc


def execute(inst: Instruction, state) -> ExecOutcome:
    """Apply *inst* to *state* and return the full outcome record.

    Dispatches on the ``exec_kind`` code decoded once per static
    instruction; every dynamic instance skips the opcode-flag re-tests.
    """
    op = inst.opcode
    b_reg = inst.b_reg
    regs = state.regs
    a = regs[inst.a_reg]
    b = regs[b_reg] if b_reg >= 0 else 0
    outcome = ExecOutcome(inst, a, b, inst.next_pc)
    kind = inst.exec_kind

    if kind == KIND_BRANCH:
        outcome.taken = taken = bool(op.eval_fn(a, b, inst.imm))
        if taken:
            outcome.next_pc = inst.target
    elif kind == KIND_LOAD:
        outcome.mem_addr = addr = u32(a + inst.imm)
        outcome.result = result = state.read_mem(addr, op.mem_bytes,
                                                 op.mem_signed)
        outcome.mem_value = result
        rd = inst.rd
        if rd != REG_ZERO:  # a load to $zero is legal and writes nothing
            state.write_reg(rd, result)
            outcome.writes = ((rd, result),)
    elif kind == KIND_STORE:
        outcome.mem_addr = addr = u32(a + inst.imm)
        outcome.mem_value = u32(b)
        state.write_mem(addr, b, op.mem_bytes)
    elif kind == KIND_JUMP:
        outcome.next_pc = a if op.is_indirect else inst.target
        if op.is_call:
            outcome.result = result = u32(inst.next_pc)
            state.write_reg(REG_RA, result)
            outcome.writes = ((REG_RA, result),)
    elif kind == KIND_HILO:
        pair = mult_hi_lo(a, b) if op.name == "mult" else div_hi_lo(a, b)
        outcome.result_hi, outcome.result = pair
        hi_reg, lo_reg = inst.dest_regs
        state.write_reg(hi_reg, pair[0])
        state.write_reg(lo_reg, pair[1])
        outcome.writes = ((hi_reg, pair[0]), (lo_reg, pair[1]))
    elif kind == KIND_NOP:
        pass  # nop and halt produce nothing; halt is handled by the caller
    else:
        outcome.result = result = u32(op.eval_fn(a, b, inst.imm))
        dest_regs = inst.dest_regs
        if dest_regs:  # dest_regs[0], not rd: FP compares write $fcc
            rd = dest_regs[0]
            if rd != REG_ZERO:
                state.write_reg(rd, result)
                outcome.writes = ((rd, result),)
    return outcome


class ArchState:
    """Architectural register file + memory, directly executable."""

    __slots__ = ("regs", "memory", "pc")

    def __init__(self, program: Program):
        self.regs: List[int] = [0] * NUM_REGS
        self.regs[REG_SP] = STACK_TOP
        self.memory = Memory(program.data)
        self.pc = program.entry_point

    def read_reg(self, reg: int) -> int:
        return self.regs[reg]

    def write_reg(self, reg: int, value: int) -> None:
        if reg != REG_ZERO:
            self.regs[reg] = u32(value)

    def read_mem(self, address: int, nbytes: int, signed: bool) -> int:
        return self.memory.read(address, nbytes, signed)

    def write_mem(self, address: int, value: int, nbytes: int) -> None:
        self.memory.write(address, value, nbytes)


class FunctionalSimulator:
    """Executes a program one instruction at a time, in program order.

    Used directly for the limit studies (Figures 8-10) and as the ground
    truth the timing core's commits are verified against.  Both start
    from a :func:`repro.functional.checkpoint.capture` warm state (see
    :meth:`restore`) rather than stepping through the paper's 1-2.5
    billion-instruction warm-up.
    """

    def __init__(self, program: Program):
        self.program = program
        self.state = ArchState(program)
        self.halted = False
        self.instructions_retired = 0
        # pc -> (compile_exec closure, is_halt), built on first reach.
        self._closures: Dict[int, Tuple[Callable[..., ExecOutcome], bool]] = {}

    @property
    def pc(self) -> int:
        return self.state.pc

    def step(self) -> ExecOutcome:
        """Execute one instruction; raises on bad PCs, sets ``halted``."""
        if self.halted:
            raise SimulationError("stepping a halted simulator")
        state = self.state
        entry = self._closures.get(state.pc)
        if entry is None:
            inst = self.program.fetch(state.pc)
            if inst is None:
                raise SimulationError(f"no instruction at pc={state.pc:#x}")
            # Imported here: compiled imports ExecOutcome from this module.
            from .compiled import compile_exec
            entry = self._closures[state.pc] = (compile_exec(inst),
                                                inst.opcode.is_halt)
        closure, is_halt = entry
        outcome = closure(state)
        if is_halt:
            self.halted = True
            outcome.next_pc = outcome.inst.pc
        state.pc = outcome.next_pc
        self.instructions_retired += 1
        return outcome

    def run(self, max_instructions: Optional[int] = None) -> int:
        """Run until halt or *max_instructions*; returns instructions run."""
        return sum(1 for _ in self.stream(max_instructions))

    def restore(self, warm) -> None:
        """Adopt a captured warm state (see ``functional.checkpoint``).

        After this the simulator is indistinguishable from one that just
        executed ``warm.executed`` instructions from reset: the PC sits on
        the next unexecuted instruction (the halt itself when the warm-up
        stopped in front of one), so a following :meth:`run`/:meth:`skip`
        continues exactly like a run from reset would.
        """
        state = self.state
        state.regs = list(warm.regs)
        state.memory = warm.make_memory()
        state.pc = warm.pc
        self.halted = False
        self.instructions_retired = warm.executed

    def stream(self, max_instructions: Optional[int] = None
               ) -> Iterator[ExecOutcome]:
        """Yield :class:`ExecOutcome` records until halt or the limit."""
        executed = 0
        while not self.halted:
            if max_instructions is not None and executed >= max_instructions:
                return
            yield self.step()
            executed += 1

    def skip(self, count: int) -> int:
        """Step *count* instructions (or to the halt); long warm-ups
        restore a ``checkpoint.capture`` state instead."""
        return self.run(max_instructions=count)
