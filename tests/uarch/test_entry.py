"""Unit tests for the InflightOp fields the core reads (HI/LO etc.)."""

import dataclasses

from repro.isa import REG_HI, REG_LO, assemble
from repro.uarch.config import base_config
from repro.uarch.core import OutOfOrderCore


def committed(source, hook=None):
    """The committed entries of *source*, in commit order.

    Commit clears an entry's dataflow edges when the ``on_commit``
    observer returns, so a check of ``producers`` goes in *hook*, which
    sees each entry while its edges are still linked.
    """
    config = dataclasses.replace(base_config(), verify_commits=True)
    core = OutOfOrderCore(config, assemble(source))
    ops = []

    def observe(op, cycle):
        ops.append(op)
        if hook is not None:
            hook(op)

    core.on_commit = observe
    core.run(max_cycles=50_000)
    return ops


MULT_PROGRAM = """
main: li $t0, 6
      li $t1, 7
      mult $t0, $t1
      mfhi $t2
      mflo $t3
      halt
"""


class TestHiLoDataflow:
    def test_mult_entry_carries_both_halves(self):
        ops = committed(MULT_PROGRAM)
        mult = next(op for op in ops if op.inst.opcode.name == "mult")
        assert mult.current_value == 42  # LO
        assert mult.current_hi == 0
        assert mult.outcome.result == 42
        assert mult.outcome.result_hi == 0

    def test_consumers_wired_to_right_halves(self):
        linked = {}

        def record(op):
            linked[op.inst.opcode.name] = set(op.producers)

        ops = committed(MULT_PROGRAM, record)
        mfhi = next(op for op in ops if op.inst.opcode.name == "mfhi")
        mflo = next(op for op in ops if op.inst.opcode.name == "mflo")
        assert mfhi.outcome.result == 0
        assert mflo.outcome.result == 42
        assert REG_HI in linked["mfhi"]
        assert REG_LO in linked["mflo"]
        # The edges are dropped once the observer returns.
        assert not mfhi.producers and not mflo.producers

    def test_hi_ready_tracked_separately(self):
        ops = committed(MULT_PROGRAM)
        mult = next(op for op in ops if op.inst.opcode.name == "mult")
        assert mult.reg_ready_cycle(REG_HI) is not None
        assert mult.reg_ready_cycle(REG_LO) is not None


class TestClassification:
    def test_flags(self):
        ops = committed("""
        main: add $t0, $t1, $t2
              lw $t3, 0($sp)
              sw $t3, 4($sp)
              beq $t0, $t3, skip
        skip: jal fn
              halt
        fn:   jr $ra
        """)
        by_name = {op.inst.opcode.name: op for op in ops}
        assert by_name["lw"].is_load and by_name["lw"].is_mem
        assert by_name["sw"].is_store and by_name["sw"].is_mem
        assert by_name["beq"].meta.is_branch and by_name["beq"].is_control
        assert by_name["beq"].meta.needs_checkpoint
        assert by_name["jal"].is_control
        assert not by_name["jal"].meta.needs_checkpoint  # direct target
        assert by_name["jr"].meta.needs_checkpoint  # indirect
        assert not by_name["add"].is_control

    def test_executes_flag(self):
        ops = committed("""
        main: add $t0, $t1, $t2
              j next
        next: nop
              halt
        """)
        by_name = {}
        for op in ops:
            by_name.setdefault(op.inst.opcode.name, op)
        assert by_name["add"].meta.executes
        assert not by_name["j"].meta.executes
        assert not by_name["nop"].meta.executes


class TestOracleSnapshot:
    def test_src_values_captured_at_dispatch(self):
        ops = committed("""
        main: li $t0, 11
              add $t1, $t0, $t0
              addi $t0, $t0, 1
              add $t2, $t0, $t0
              halt
        """)
        adds = [op for op in ops if op.inst.opcode.name == "add"]
        assert adds[0].src_values == {8: 11}
        assert adds[1].src_values == {8: 12}
