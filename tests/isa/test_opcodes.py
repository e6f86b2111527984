"""Unit tests for opcode semantics and register parsing, and a run of
every registered opcode through every table that must agree on it."""

import pytest

from repro.functional.compiled import compile_exec, compile_ff
from repro.functional.simulator import (
    ArchState,
    ExecOutcome,
    FunctionalSimulator,
    execute,
)
from repro.isa import assemble
from repro.isa import opcodes as op
from repro.isa.instruction import format_instruction
from repro.isa.opcodes import (
    Format,
    OpClass,
    all_opcodes,
    div_hi_lo,
    lookup,
    mult_hi_lo,
    parse_register,
    s32,
    u32,
)
from repro.uarch.config import MachineConfig
from repro.uarch.decode import StaticOp
from repro.uarch.functional_units import FunctionalUnits


class TestWrapHelpers:
    def test_u32_wraps_negative(self):
        assert u32(-1) == 0xFFFFFFFF

    def test_u32_wraps_overflow(self):
        assert u32(0x1_0000_0005) == 5

    def test_s32_round_trip_negative(self):
        assert s32(0xFFFFFFFF) == -1

    def test_s32_positive_unchanged(self):
        assert s32(0x7FFFFFFF) == 0x7FFFFFFF

    def test_s32_min_value(self):
        assert s32(0x80000000) == -(2**31)


class TestAluSemantics:
    def _eval(self, name, a, b=0, imm=0):
        return lookup(name).eval_fn(u32(a), u32(b), imm)

    def test_add_wraps(self):
        assert self._eval("add", 0xFFFFFFFF, 1) == 0

    def test_sub(self):
        assert self._eval("sub", 5, 7) == u32(-2)

    def test_slt_signed(self):
        assert self._eval("slt", -1 & 0xFFFFFFFF, 1) == 1

    def test_sltu_unsigned(self):
        assert self._eval("sltu", -1 & 0xFFFFFFFF, 1) == 0

    def test_sra_sign_extends(self):
        assert self._eval("sra", 0x80000000, imm=4) == 0xF8000000

    def test_srl_zero_extends(self):
        assert self._eval("srl", 0x80000000, imm=4) == 0x08000000

    def test_sllv_uses_low_five_bits(self):
        assert self._eval("sllv", 1, 33) == 2

    def test_nor(self):
        assert self._eval("nor", 0, 0) == 0xFFFFFFFF

    def test_lui(self):
        assert self._eval("lui", 0, imm=0x1234) == 0x12340000

    def test_andi_ori_xori(self):
        assert self._eval("andi", 0xFF, imm=0x0F) == 0x0F
        assert self._eval("ori", 0xF0, imm=0x0F) == 0xFF
        assert self._eval("xori", 0xFF, imm=0x0F) == 0xF0


class TestMultDiv:
    def test_mult_hi_lo_positive(self):
        hi, lo = mult_hi_lo(0x10000, 0x10000)
        assert (hi, lo) == (1, 0)

    def test_mult_hi_lo_negative(self):
        hi, lo = mult_hi_lo(u32(-2), 3)
        assert s32(lo) == -6
        assert s32(hi) == -1  # sign extension of the product

    def test_div_quotient_truncates_toward_zero(self):
        hi, lo = div_hi_lo(u32(-7), 2)
        assert s32(lo) == -3
        assert s32(hi) == -1  # remainder keeps dividend sign

    def test_div_by_zero_is_defined(self):
        assert div_hi_lo(5, 0) == (0, 0)


class TestBranchSemantics:
    def _taken(self, name, a, b=0):
        return bool(lookup(name).eval_fn(u32(a), u32(b), 0))

    def test_beq_bne(self):
        assert self._taken("beq", 3, 3)
        assert not self._taken("beq", 3, 4)
        assert self._taken("bne", 3, 4)

    def test_signed_compares(self):
        assert self._taken("blt", -5, 3)
        assert self._taken("bge", 3, 3)
        assert self._taken("blez", 0)
        assert self._taken("bgtz", 1)
        assert self._taken("bltz", -1)
        assert self._taken("bgez", 0)
        assert not self._taken("bltz", 0)


class TestOpcodeTable:
    def test_all_opcodes_have_classes(self):
        for opcode in all_opcodes().values():
            assert isinstance(opcode.op_class, OpClass)

    def test_paper_latencies(self):
        """FU latencies match Table 1 of the paper."""
        assert lookup("add").latency == 1
        assert lookup("mult").latency == 3
        assert lookup("div").latency == 20
        assert lookup("div").issue_interval == 19
        assert lookup("lw").latency == 1

    def test_memory_flags(self):
        assert lookup("lw").is_load and lookup("lw").mem_bytes == 4
        assert lookup("sb").is_store and lookup("sb").mem_bytes == 1
        assert lookup("lbu").mem_signed is False

    def test_control_flags(self):
        assert lookup("beq").is_branch
        assert lookup("j").is_jump and not lookup("j").is_indirect
        assert lookup("jr").is_indirect
        assert lookup("jal").is_call

    def test_lookup_unknown_raises(self):
        with pytest.raises(KeyError):
            lookup("bogus")


class TestRegisterParsing:
    @pytest.mark.parametrize("token,expected", [
        ("$t0", 8), ("t0", 8), ("$8", 8), ("$zero", 0), ("$sp", 29),
        ("$ra", 31), ("$hi", op.REG_HI), ("$lo", op.REG_LO), ("$r5", 5),
    ])
    def test_accepted_forms(self, token, expected):
        assert parse_register(token) == expected

    @pytest.mark.parametrize("token", ["$x9", "$32", "$-1", "bogus"])
    def test_rejected_forms(self, token):
        with pytest.raises(ValueError):
            parse_register(token)


class TestFormatEnum:
    def test_no_aliased_formats(self):
        """Enum members with equal values silently alias; every Format
        must be distinct (regression: RR2/RR and BRANCH0/JUMP)."""
        from repro.isa.opcodes import Format
        values = [member.value for member in Format]
        assert len(values) == len(set(values))


# -- every opcode through every table -----------------------------------------
#
# One opcode lives in seven places: the opcode table, the assembler,
# format_instruction (the disassembler), the interpreted execute(), the
# compile_exec and compile_ff closures, and the functional-unit pools.
# Each case below runs one opcode through all of them, so a table that
# misses an opcode (or disagrees on what it computes) fails by name.

#: One operand template per Format.  $t1 points at ``buf``, $t2 holds a
#: value, $t3 holds the address of ``done`` (the jr/jalr target) and HI/LO
#: are set by the prelude's mult.
TEMPLATES = {
    Format.RRR: "{op} $t3, $t1, $t2",
    Format.RRI: "{op} $t3, $t1, -3",
    Format.RI: "{op} $t3, 0x1234",
    Format.RR: "{op} $t1, $t2",
    Format.RR2: "{op} $t3, $t2",
    Format.R: "{op} $t3",
    Format.MEM: "{op} $t2, 4($t1)",
    Format.BRANCH2: "{op} $t1, $t2, done",
    Format.BRANCH1: "{op} $t2, done",
    Format.BRANCH0: "{op} done",
    Format.JUMP: "{op} done",
    Format.NONE: "{op}",
}

PROGRAM = """\
        .data
buf:    .word 0x11223344, -7, 0x40490fdb
        .text
main:   la $t1, buf
        li $t2, 0x40490fdb
        la $t3, done
        mult $t1, $t2
probe:  {line}
        nop
done:   halt
"""


def test_templates_cover_every_format():
    assert set(TEMPLATES) == set(Format)


def test_functional_units_pool_every_op_class():
    units = FunctionalUnits(MachineConfig())
    assert set(units.pools) == set(OpClass)
    assert None not in units.pool_list


def _clone(state, program):
    copy = ArchState(program)
    copy.regs = list(state.regs)
    copy.memory = state.memory.copy()
    copy.pc = state.pc
    return copy


def _machine(state):
    return state.regs, state.memory.snapshot_pages()


def _fields(outcome):
    return {name: getattr(outcome, name) for name in ExecOutcome.__slots__}


@pytest.mark.parametrize("name", sorted(all_opcodes()))
def test_opcode_agrees_across_tables(name):
    opcode = lookup(name)
    line = TEMPLATES[opcode.fmt].format(op=name)
    program = assemble(PROGRAM.format(line=line))
    pc = program.symbol("probe")
    inst = program.fetch(pc)
    assert inst.opcode is opcode

    # Assembler and disassembler agree.
    assert assemble(format_instruction(inst), text_base=pc).fetch(pc) == inst

    sim = FunctionalSimulator(program)
    while sim.pc != pc:
        sim.step()

    # compile_exec matches the interpreted reference field for field.
    reference = _clone(sim.state, program)
    expected = execute(inst, reference)
    compiled = _clone(sim.state, program)
    assert _fields(compile_exec(inst)(compiled)) == _fields(expected)
    assert _machine(compiled) == _machine(reference)

    # compile_ff (the warm-up lane) makes the same mutations; halt has
    # no ff closure, since the warm-up stops in front of it.
    if not opcode.is_halt:
        fast = _clone(sim.state, program)
        assert compile_ff(inst)(fast) == expected.next_pc
        assert _machine(fast) == _machine(reference)

    # The timing core decodes it onto a functional-unit pool.
    static = StaticOp(inst)
    units = FunctionalUnits(MachineConfig())
    assert units.pool_list[static.op_class_index] \
        is units.pools[opcode.op_class]
