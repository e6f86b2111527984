"""In-order functional simulator and shared execution semantics.

The function :func:`execute` is the single place in the codebase where
instruction semantics are applied to a machine state.  The functional
simulator drives it against architectural state; the out-of-order timing
core drives it against speculative (checkpointed) state at dispatch, which
is the same structure SimpleScalar's ``sim-outorder`` uses and is what lets
the timing model run wrong paths with real data values.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterator, List, Optional, Tuple

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
from .ffexec import FF_BAD_PC, FF_HALT, FF_UNBOUNDED, run_ff
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


class StateProtocol:
    """Duck-typed interface :func:`execute` needs (documentation only)."""

    def read_reg(self, reg: int) -> int: ...
    def write_reg(self, reg: int, value: int) -> None: ...
    def read_mem(self, address: int, nbytes: int, signed: bool) -> int: ...
    def write_mem(self, address: int, value: int, nbytes: int) -> None: ...


def execute(inst: Instruction, state) -> ExecOutcome:
    """Apply *inst* to *state* and return the full outcome record.

    Dispatches on the ``exec_kind`` code decoded once per static
    instruction; every dynamic instance skips the opcode-flag re-tests.
    """
    op = inst.opcode
    b_reg = inst.b_reg
    try:  # both built-in states expose the register list directly
        regs = state.regs
    except AttributeError:  # duck-typed state (StateProtocol)
        read_reg = state.read_reg
        a = read_reg(inst.a_reg)
        b = read_reg(b_reg) if b_reg >= 0 else 0
    else:
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

    Used directly for the limit studies (Figures 8-10), for fast-forwarding
    past initialisation (the paper skips 1-2.5 billion instructions), and as
    the ground truth in differential tests of the timing core.
    """

    def __init__(self, program: Program, compiled: bool = True):
        self.program = program
        self.state = ArchState(program)
        self.halted = False
        self.instructions_retired = 0
        # Decode-time compiled closures (see repro.functional.compiled);
        # pass compiled=False for the reference interpreted stepper the
        # differential tests compare against.  Imported lazily: compiled
        # itself imports ExecOutcome from this module.
        if compiled:
            from .compiled import CompiledProgram, HALT
            self._compiled: Optional["CompiledProgram"] = \
                CompiledProgram(program)
            self._halt_sentinel = HALT
        else:
            self._compiled = None
            self._halt_sentinel = None

    @property
    def pc(self) -> int:
        return self.state.pc

    def step(self) -> ExecOutcome:
        """Execute one instruction; raises on bad PCs, sets ``halted``."""
        if self.halted:
            raise SimulationError("stepping a halted simulator")
        state = self.state
        if self._compiled is not None:
            entry = self._compiled.exec_entry(state.pc)
            if entry is None:
                raise SimulationError(f"no instruction at pc={state.pc:#x}")
            fn, is_halt = entry
            outcome = fn(state)
            if is_halt:
                self.halted = True
                outcome.next_pc = outcome.inst.pc
        else:
            inst = self.program.fetch(state.pc)
            if inst is None:
                raise SimulationError(f"no instruction at pc={state.pc:#x}")
            outcome = execute(inst, state)
            if inst.opcode.is_halt:
                self.halted = True
                outcome.next_pc = inst.pc
        state.pc = outcome.next_pc
        self.instructions_retired += 1
        return outcome

    def run(self, max_instructions: Optional[int] = None) -> int:
        """Run until halt or *max_instructions*; returns instructions run."""
        if self._compiled is None:
            executed = 0
            while not self.halted:
                if max_instructions is not None \
                        and executed >= max_instructions:
                    break
                self.step()
                executed += 1
            return executed
        # Compiled fast-forward lane: no ExecOutcome allocation at all.
        # State mutations are identical to the interpreted loop (pinned
        # by tests/functional/test_compiled.py); like step(), an executed
        # halt counts and leaves the PC on the halt instruction.  The
        # loop itself is the run_ff driver (shared with core.skip and
        # checkpoint.capture).
        if self.halted:
            return 0
        state = self.state
        budget = (FF_UNBOUNDED if max_instructions is None
                  else max_instructions)
        pc, executed, status = run_ff(
            self._compiled.ff_entry, self._halt_sentinel, state,
            state.pc, budget, True)
        # Keep state coherent even on a bad-PC error.
        state.pc = pc
        self.instructions_retired += executed
        if status == FF_BAD_PC:
            raise SimulationError(f"no instruction at pc={pc:#x}")
        if status == FF_HALT:
            self.halted = True
        return executed

    def restore(self, warm) -> None:
        """Adopt a captured warm state (see ``functional.checkpoint``).

        After this the simulator is indistinguishable from one that just
        executed ``warm.executed`` instructions from reset: the PC sits on
        the next unexecuted instruction (the halt itself when the warm-up
        stopped in front of one), so a following :meth:`run`/:meth:`skip`
        continues exactly like the cold run would.
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
        """Fast-forward *count* instructions (the paper's warm-up skip)."""
        return self.run(max_instructions=count)
