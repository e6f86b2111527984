"""Pre-decoded static instruction metadata for the timing core hot path.

Every dynamic instance of a static instruction used to re-derive the same
facts — opcode class, FU pool, latency, memory width, operand register
names, control-flow kind — through chains of ``op.inst.opcode.x``
attribute and property lookups, millions of times per simulation.  A
:class:`StaticOp` flattens all of it into one record built **once** per
static instruction and shared by every dynamic instance; the fetch unit,
dispatch, issue, the reuse test and the value-predictor lookup all read
the flat fields directly.

The table is built *lazily*, on first fetch of each PC:

* ``.space``-reserved text gaps never materialise instructions (the
  assembler leaves those PCs out of ``Program.instructions``), so they
  can never enter the table — a lookup at such a PC returns ``None``
  exactly like the program fetch it replaces;
* instructions that are never reached (dead code, the not-taken arm the
  program never visits) are never decoded at all.

``tests/isa/test_roundtrip.py`` audits both properties.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..functional.compiled import compile_exec
from ..isa.instruction import Instruction
from ..isa.opcodes import Format, OpClass, REG_FCC, REG_HI, REG_LO
from ..isa.program import Program
from ..vp.table import KIND_ADDRESS, KIND_RESULT, vp_key

# Stable small-int index per FU class: StaticOp carries the index and
# FunctionalUnits exposes a parallel list, so the per-issue pool lookup
# is one list index instead of an enum-keyed dict probe.
OP_CLASS_INDEX: Dict[OpClass, int] = {
    cls: index for index, cls in enumerate(OpClass)
}
NUM_OP_CLASSES = len(OP_CLASS_INDEX)


class StaticOp:
    """Flat per-static-instruction metadata record (decode-once)."""

    __slots__ = (
        "inst", "opcode", "pc", "next_pc",
        "op_class", "op_class_index", "latency", "issue_interval",
        "eval_fn", "exec_fn",
        "rd", "rs", "rt", "imm", "target",
        "src_regs", "dest_regs", "has_dest",
        "is_branch", "is_jump", "is_indirect", "is_call", "is_return",
        "is_halt", "is_control", "is_nop",
        "is_load", "is_store", "is_mem", "mem_bytes", "mem_signed",
        "writes_hi_lo", "is_mult",
        "executes", "needs_checkpoint", "reuse_eligible",
        "pair_reg",
        "vp_result_key", "vp_addr_key",
    )

    def __init__(self, inst: Instruction):
        opcode = inst.opcode
        self.inst = inst
        self.opcode = opcode
        self.pc = inst.pc
        self.next_pc = inst.next_pc

        self.op_class = opcode.op_class
        self.op_class_index = OP_CLASS_INDEX[opcode.op_class]
        self.latency = opcode.latency
        self.issue_interval = opcode.issue_interval
        self.eval_fn = opcode.eval_fn
        # Compiled execution semantics: one specialized closure per static
        # instruction, applied to the speculative state at dispatch.
        self.exec_fn = compile_exec(inst)

        self.rd = inst.rd
        self.rs = inst.rs
        self.rt = inst.rt
        self.imm = inst.imm
        self.target = inst.target
        self.src_regs = inst.src_regs
        self.dest_regs = inst.dest_regs
        self.has_dest = bool(inst.dest_regs)

        self.is_branch = opcode.is_branch
        self.is_jump = opcode.is_jump
        self.is_indirect = opcode.is_indirect
        self.is_call = opcode.is_call
        self.is_return = inst.is_return
        self.is_halt = opcode.is_halt
        self.is_control = opcode.is_control
        self.is_nop = opcode.op_class is OpClass.NOP

        self.is_load = opcode.is_load
        self.is_store = opcode.is_store
        self.is_mem = opcode.is_load or opcode.is_store
        self.mem_bytes = opcode.mem_bytes
        self.mem_signed = opcode.mem_signed

        self.writes_hi_lo = opcode.writes_hi_lo
        self.is_mult = opcode.name == "mult"

        # Direct jumps (j/jal) and nops never execute (outcome known at
        # fetch); indirect jumps execute for their target.
        self.executes = (opcode.is_indirect
                         or (not self.is_nop and not opcode.is_jump))
        self.needs_checkpoint = opcode.is_branch or opcode.is_indirect
        # Reuse eligibility (ReuseEngine): direct jumps, nops and halt
        # gain nothing from reuse.
        self.reuse_eligible = not (
            self.is_nop or (opcode.is_jump and not opcode.is_indirect))

        # Fixed special-register operand for the core's re-evaluation
        # path (mfhi/mflo read HI/LO, fcc-branches read FCC); negative
        # means "general rs/rt operands".
        if opcode.name == "mfhi":
            self.pair_reg = REG_HI
        elif opcode.name == "mflo":
            self.pair_reg = REG_LO
        elif opcode.fmt is Format.BRANCH0:
            self.pair_reg = REG_FCC
        else:
            self.pair_reg = -1

        # The value predictor's table keys (every call passes one).
        self.vp_result_key = vp_key(inst.pc, KIND_RESULT)
        self.vp_addr_key = vp_key(inst.pc, KIND_ADDRESS)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<static {self.opcode.name}@{self.pc:#x}>"


class DecodeTable:
    """Lazy PC -> :class:`StaticOp` map over one program.

    Only PCs that are actually fetched are ever decoded: unreachable
    instructions never enter the table, and invalid PCs (``.space``
    gaps, addresses off the program) return ``None`` without being
    recorded.
    """

    def __init__(self, program: Program):
        self.program = program
        self.table: Dict[int, StaticOp] = {}

    def lookup(self, pc: int) -> Optional[StaticOp]:
        entry = self.table.get(pc)
        if entry is None:
            inst = self.program.fetch(pc)
            if inst is None:
                return None
            entry = StaticOp(inst)
            self.table[pc] = entry
        return entry

    def decoded_pcs(self) -> List[int]:
        """PCs decoded so far (the audit surface for the table tests)."""
        return sorted(self.table)

    def __len__(self) -> int:
        return len(self.table)
