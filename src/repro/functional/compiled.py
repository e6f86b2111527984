"""Decode-time compiled instruction semantics.

:func:`repro.functional.simulator.execute` interprets one instruction by
re-testing its ``exec_kind`` and re-loading opcode attributes on every
dynamic instance.  This module moves all of that work to decode time:
:func:`compile_exec` builds, **once per static instruction**, a closure
with the operand register indices, the ALU evaluation function, the
immediate, the memory width and the writeback destination already bound
as cell variables.  Executing a dynamic instance is then a single call
with no dispatch, no attribute chains and no dead branches.

Two closure flavours exist, because the two consumers need different
amounts of observation:

* :func:`compile_exec` — ``closure(state) -> ExecOutcome``: the state
  mutations of ``execute`` *and* a field-identical outcome record (the
  reuse buffer, value predictor and commit-time verifier all consume
  those fields, so they are pinned by the golden corpus and the
  differential tests).  The timing core runs it at dispatch and
  ``FunctionalSimulator.step`` runs it for every instruction;
* :func:`compile_ff` — ``closure(state) -> next_pc``, the fast-forward
  flavour that :func:`repro.functional.checkpoint.capture`, the one
  warm-up, drives: the same state mutations with no
  :class:`ExecOutcome` allocation at all.  Warm-up dominates the limit
  studies (the paper skips billions of instructions), so this path is
  allocation-free by design.

Closures target the two built-in state classes (``ArchState`` and the
timing core's ``SpeculativeState``): both expose ``regs`` as a plain
list and ``memory`` as a :class:`~repro.functional.memory.Memory`.
Memory *writes* go through ``state.write_mem`` so the speculative
state's undo journal keeps working.

``tests/functional/test_compiled.py`` pins both flavours against
``execute`` with a Hypothesis differential test over random programs.
"""

from __future__ import annotations

from typing import Callable

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
    MASK32,
    REG_RA,
    REG_ZERO,
    div_hi_lo,
    mult_hi_lo,
)
from .simulator import ExecOutcome

ExecFn = Callable[[object], ExecOutcome]
FFFn = Callable[[object], int]


def compile_exec(inst: Instruction) -> ExecFn:
    """Build the outcome-producing closure for *inst*.

    The returned closure applies exactly the state mutations of
    ``execute(inst, state)`` and returns a field-identical
    :class:`ExecOutcome`.
    """
    op = inst.opcode
    kind = inst.exec_kind
    a_reg = inst.a_reg
    b_reg = inst.b_reg
    imm = inst.imm
    target = inst.target
    next_pc = inst.next_pc

    if kind == KIND_BRANCH:
        eval_fn = op.eval_fn
        if b_reg >= 0:
            def run(state) -> ExecOutcome:
                regs = state.regs
                a = regs[a_reg]
                b = regs[b_reg]
                if eval_fn(a, b, imm):
                    return ExecOutcome(inst, a, b, target, taken=True)
                return ExecOutcome(inst, a, b, next_pc, taken=False)
        else:
            def run(state) -> ExecOutcome:
                a = state.regs[a_reg]
                if eval_fn(a, 0, imm):
                    return ExecOutcome(inst, a, 0, target, taken=True)
                return ExecOutcome(inst, a, 0, next_pc, taken=False)
        return run

    if kind == KIND_LOAD:
        nbytes = op.mem_bytes
        signed = op.mem_signed
        rd = inst.rd
        if rd != REG_ZERO:
            def run(state) -> ExecOutcome:
                regs = state.regs
                a = regs[a_reg]
                addr = (a + imm) & MASK32
                result = state.memory.read(addr, nbytes, signed)
                regs[rd] = result
                return ExecOutcome(inst, a, 0, next_pc, result,
                                   writes=((rd, result),),
                                   mem_addr=addr, mem_value=result)
        else:  # a load to $zero is legal and writes nothing
            def run(state) -> ExecOutcome:
                a = state.regs[a_reg]
                addr = (a + imm) & MASK32
                result = state.memory.read(addr, nbytes, signed)
                return ExecOutcome(inst, a, 0, next_pc, result,
                                   mem_addr=addr, mem_value=result)
        return run

    if kind == KIND_STORE:
        nbytes = op.mem_bytes

        def run(state) -> ExecOutcome:
            regs = state.regs
            a = regs[a_reg]
            b = regs[b_reg]
            addr = (a + imm) & MASK32
            state.write_mem(addr, b, nbytes)
            return ExecOutcome(inst, a, b, next_pc,
                               mem_addr=addr, mem_value=b & MASK32)
        return run

    if kind == KIND_JUMP:
        if op.is_indirect:
            if op.is_call:
                def run(state) -> ExecOutcome:
                    regs = state.regs
                    a = regs[a_reg]
                    link = next_pc & MASK32
                    regs[REG_RA] = link
                    return ExecOutcome(inst, a, 0, a, link,
                                       writes=((REG_RA, link),))
            else:
                def run(state) -> ExecOutcome:
                    a = state.regs[a_reg]
                    return ExecOutcome(inst, a, 0, a)
        else:
            if op.is_call:
                def run(state) -> ExecOutcome:
                    regs = state.regs
                    a = regs[a_reg]
                    link = next_pc & MASK32
                    regs[REG_RA] = link
                    return ExecOutcome(inst, a, 0, target, link,
                                       writes=((REG_RA, link),))
            else:
                def run(state) -> ExecOutcome:
                    return ExecOutcome(inst, state.regs[a_reg], 0, target)
        return run

    if kind == KIND_HILO:
        pair_fn = mult_hi_lo if op.name == "mult" else div_hi_lo
        hi_reg, lo_reg = inst.dest_regs

        def run(state) -> ExecOutcome:
            regs = state.regs
            a = regs[a_reg]
            b = regs[b_reg]
            hi, lo = pair_fn(a, b)
            regs[hi_reg] = hi
            regs[lo_reg] = lo
            return ExecOutcome(inst, a, b, next_pc, lo, hi,
                               writes=((hi_reg, hi), (lo_reg, lo)))
        return run

    if kind == KIND_NOP:  # nop and halt produce nothing
        def run(state) -> ExecOutcome:
            return ExecOutcome(inst, state.regs[a_reg], 0, next_pc)
        return run

    # KIND_ALU (including FP ops and FP compares writing $fcc).
    eval_fn = op.eval_fn
    dest_regs = inst.dest_regs
    rd = dest_regs[0] if dest_regs else REG_ZERO  # never $zero when present
    if rd != REG_ZERO:
        if b_reg >= 0:
            def run(state) -> ExecOutcome:
                regs = state.regs
                a = regs[a_reg]
                b = regs[b_reg]
                result = eval_fn(a, b, imm) & MASK32
                regs[rd] = result
                return ExecOutcome(inst, a, b, next_pc, result,
                                   writes=((rd, result),))
        else:
            def run(state) -> ExecOutcome:
                regs = state.regs
                a = regs[a_reg]
                result = eval_fn(a, 0, imm) & MASK32
                regs[rd] = result
                return ExecOutcome(inst, a, 0, next_pc, result,
                                   writes=((rd, result),))
    else:  # result is still computed and recorded (no writeback)
        if b_reg >= 0:
            def run(state) -> ExecOutcome:
                regs = state.regs
                a = regs[a_reg]
                b = regs[b_reg]
                return ExecOutcome(inst, a, b, next_pc,
                                   eval_fn(a, b, imm) & MASK32)
        else:
            def run(state) -> ExecOutcome:
                a = state.regs[a_reg]
                return ExecOutcome(inst, a, 0, next_pc,
                                   eval_fn(a, 0, imm) & MASK32)
    return run


def compile_ff(inst: Instruction) -> FFFn:
    """Build the fast-forward closure: same mutations, returns next PC.

    Halt has no fast-forward closure: ``capture`` stops in front of it
    and leaves it for the consumer's own front end to execute.
    """
    op = inst.opcode
    kind = inst.exec_kind
    a_reg = inst.a_reg
    b_reg = inst.b_reg
    imm = inst.imm
    target = inst.target
    next_pc = inst.next_pc

    if kind == KIND_BRANCH:
        eval_fn = op.eval_fn
        if b_reg >= 0:
            def ff(state) -> int:
                regs = state.regs
                return target if eval_fn(regs[a_reg], regs[b_reg], imm) \
                    else next_pc
        else:
            def ff(state) -> int:
                return target if eval_fn(state.regs[a_reg], 0, imm) \
                    else next_pc
        return ff

    if kind == KIND_LOAD:
        nbytes = op.mem_bytes
        signed = op.mem_signed
        rd = inst.rd
        if rd != REG_ZERO:
            def ff(state) -> int:
                regs = state.regs
                regs[rd] = state.memory.read((regs[a_reg] + imm) & MASK32,
                                             nbytes, signed)
                return next_pc
        else:
            def ff(state) -> int:
                state.memory.read((state.regs[a_reg] + imm) & MASK32,
                                  nbytes, signed)
                return next_pc
        return ff

    if kind == KIND_STORE:
        nbytes = op.mem_bytes

        def ff(state) -> int:
            regs = state.regs
            state.write_mem((regs[a_reg] + imm) & MASK32, regs[b_reg],
                            nbytes)
            return next_pc
        return ff

    if kind == KIND_JUMP:
        if op.is_indirect:
            if op.is_call:
                def ff(state) -> int:  # read target before the $ra link
                    regs = state.regs
                    dest = regs[a_reg]
                    regs[REG_RA] = next_pc & MASK32
                    return dest
            else:
                def ff(state) -> int:
                    return state.regs[a_reg]
        else:
            if op.is_call:
                def ff(state) -> int:
                    state.regs[REG_RA] = next_pc & MASK32
                    return target
            else:
                def ff(state) -> int:
                    return target
        return ff

    if kind == KIND_HILO:
        pair_fn = mult_hi_lo if op.name == "mult" else div_hi_lo
        hi_reg, lo_reg = inst.dest_regs

        def ff(state) -> int:
            regs = state.regs
            regs[hi_reg], regs[lo_reg] = pair_fn(regs[a_reg], regs[b_reg])
            return next_pc
        return ff

    if kind == KIND_NOP:
        def ff(state) -> int:
            return next_pc
        return ff

    eval_fn = op.eval_fn
    dest_regs = inst.dest_regs
    rd = dest_regs[0] if dest_regs else REG_ZERO
    if rd != REG_ZERO:
        if b_reg >= 0:
            def ff(state) -> int:
                regs = state.regs
                regs[rd] = eval_fn(regs[a_reg], regs[b_reg], imm) & MASK32
                return next_pc
        else:
            def ff(state) -> int:
                regs = state.regs
                regs[rd] = eval_fn(regs[a_reg], 0, imm) & MASK32
                return next_pc
    else:
        def ff(state) -> int:
            return next_pc
    return ff

