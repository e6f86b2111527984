"""Behavioural tests of the out-of-order core on the base configuration.

Every run uses ``verify_commits=True``: each committed instruction is
checked against an independent in-order functional execution, so these
tests validate both timing plumbing and architectural correctness.
"""

import dataclasses

import pytest

from repro.functional.simulator import SimulationError
from repro.isa import assemble
from repro.uarch.config import (CacheConfig, MachineConfig, base_config,
                                 ir_config)
from repro.uarch.core import OutOfOrderCore


def run_core(source, config=None, max_cycles=500_000):
    config = config or base_config()
    config = dataclasses.replace(config, verify_commits=True)
    core = OutOfOrderCore(config, assemble(source))
    stats = core.run(max_cycles=max_cycles)
    assert stats.halted, "program did not halt in the timing core"
    return core, stats


COUNTED_LOOP = """
main:   li $t0, 50
loop:   addi $t0, $t0, -1
        bnez $t0, loop
        halt
"""


class TestBasicExecution:
    def test_halts_and_commits_everything(self):
        core, stats = run_core(COUNTED_LOOP)
        assert stats.committed == 1 + 100 + 1

    def test_architectural_result(self):
        core, stats = run_core("""
        main: li $t0, 7
              li $t1, 8
              add $t2, $t0, $t1
              halt
        """)
        assert core.spec.regs[10] == 15

    def test_ipc_between_zero_and_width(self):
        _, stats = run_core(COUNTED_LOOP)
        assert 0 < stats.ipc <= 4.0

    def test_dependent_chain_is_serialised(self):
        """A pure dependence chain commits ~1 IPC (Figure 2 base pipeline)."""
        chain = "main: li $t0, 0\n"
        chain += "\n".join(f"      addi $t0, $t0, 1" for _ in range(64))
        chain += "\n      halt"
        _, stats = run_core(chain)
        assert stats.ipc < 1.6

    def test_independent_ops_run_wide(self):
        body = "\n".join(
            f"      addi $t{i % 4}, $zero, {i}" for i in range(16))
        source = f"""
        main: li $s0, 40
        loop: {body.strip()}
              addi $s0, $s0, -1
              bnez $s0, loop
              halt
        """
        _, stats = run_core(source)
        assert stats.ipc > 2.0

    def test_mult_latency_observed(self):
        """mult (3 cycles) chains slower than add (1 cycle) chains."""
        adds = "main: li $t0, 3\n" + "\n".join(
            "      add $t0, $t0, $t0" for _ in range(40)) + "\n      halt"
        mults = "main: li $t0, 3\n" + "\n".join(
            "      mult $t0, $t0\n      mflo $t0" for _ in range(40)
        ) + "\n      halt"
        _, add_stats = run_core(adds)
        _, mult_stats = run_core(mults)
        assert mult_stats.cycles > add_stats.cycles + 40

    def test_div_non_pipelined(self):
        """Back-to-back independent divides serialise on the single divider."""
        source = "main: li $t0, 100\n li $t1, 7\n" + "\n".join(
            f"      div $t{2 + (i % 2)}, $t0, $t1" for i in range(8)
        ) + "\n      halt"
        _, stats = run_core(source)
        # 8 divides x 19-cycle issue interval dominates.
        assert stats.cycles > 8 * 19


class TestMemorySystem:
    def test_store_load_forwarding_value(self):
        core, _ = run_core("""
        .data
        buf: .space 8
        .text
        main: la $t0, buf
              li $t1, 123
              sw $t1, 0($t0)
              lw $t2, 0($t0)
              halt
        """)
        assert core.spec.regs[10] == 123

    def test_dcache_miss_slower_than_hit(self):
        """Striding across lines (all misses) is slower than one line."""
        hits = """
        .data
        buf: .space 4096
        .text
        main: la $t0, buf
              li $t1, 200
        loop: lw $t2, 0($t0)
              addi $t1, $t1, -1
              bnez $t1, loop
              halt
        """
        tiny_cache = dataclasses.replace(
            base_config(),
            dcache=CacheConfig(size_bytes=256, associativity=1,
                               line_bytes=32, miss_latency=6))
        _, hit_stats = run_core(hits)
        misses = """
        .data
        buf: .space 65536
        .text
        main: la $t0, buf
              li $t1, 200
              li $t3, 0
        loop: lw $t2, 0($t0)
              addi $t0, $t0, 512
              addi $t1, $t1, -1
              bnez $t1, loop
              halt
        """
        _, miss_stats = run_core(misses, config=tiny_cache)
        assert miss_stats.cycles > hit_stats.cycles
        assert miss_stats.dcache_misses > 150

    def test_loads_wait_for_store_addresses(self):
        """A load after a store to an unrelated address still commits the
        functionally correct value (conservative disambiguation)."""
        core, _ = run_core("""
        .data
        a: .word 5
        b: .word 9
        .text
        main: la $t0, a
              la $t1, b
              li $t2, 77
              sw $t2, 0($t1)
              lw $t3, 0($t0)
              halt
        """)
        assert core.spec.regs[11] == 5

    def test_partial_store_overlap(self):
        core, _ = run_core("""
        .data
        w: .word 0x11223344
        .text
        main: la $t0, w
              li $t1, 0xFF
              sb $t1, 1($t0)
              lw $t2, 0($t0)
              halt
        """)
        assert core.spec.regs[10] == 0x1122FF44


class TestControlFlow:
    def test_branch_misprediction_recovers(self):
        """Data-dependent unpredictable branches still commit correctly."""
        core, stats = run_core("""
        .data
        vals: .word 1, 0, 1, 1, 0, 1, 0, 0, 1, 0, 0, 1, 1, 0, 1, 0
        .text
        main:  li $s0, 0
               li $s1, 16
               li $s2, 0
        loop:  sll $t0, $s0, 2
               lw $t1, vals($t0)
               beqz $t1, skip
               addi $s2, $s2, 10
        skip:  addi $s0, $s0, 1
               bne $s0, $s1, loop
               halt
        """)
        assert core.spec.regs[18] == 80  # eight 1-entries x 10
        assert stats.branch_squashes > 0

    def test_calls_and_returns(self):
        core, stats = run_core("""
        main:   li $s0, 0
                li $s1, 20
        loop:   move $a0, $s0
                jal square
                add $s2, $s2, $v0
                addi $s0, $s0, 1
                bne $s0, $s1, loop
                halt
        square: mult $a0, $a0
                mflo $v0
                jr $ra
        """)
        assert core.spec.regs[18] == sum(i * i for i in range(20))
        assert stats.returns == 20
        assert stats.return_prediction_rate > 0.9

    def test_indirect_jump_table(self):
        core, _ = run_core("""
        .data
        table: .word case0, case1, case2
        .text
        main:  li $s0, 0
               li $s1, 30
               li $s3, 0
        loop:  li $t7, 3
               div $t0, $s0, $t7
               mfhi $t0
               sll $t0, $t0, 2
               lw $t1, table($t0)
               jr $t1
        case0: addi $s3, $s3, 1
               j next
        case1: addi $s3, $s3, 100
               j next
        case2: addi $s3, $s3, 10000
               j next
        next:  addi $s0, $s0, 1
               bne $s0, $s1, loop
               halt
        """)
        assert core.spec.regs[19] == 10 * 1 + 10 * 100 + 10 * 10000

    def test_branch_prediction_rate_tracked(self):
        _, stats = run_core(COUNTED_LOOP)
        assert stats.cond_branches == 50
        assert 0.0 <= stats.branch_prediction_rate <= 1.0

    def test_max_cycles_guard(self):
        config = dataclasses.replace(base_config(), verify_commits=True)
        core = OutOfOrderCore(config, assemble("main: j main"))
        stats = core.run(max_cycles=200)
        assert not stats.halted
        assert stats.cycles <= 200

    def test_running_off_the_program_raises(self):
        """Once the committed path leaves the program, nothing in
        flight can redirect fetch: the core says so instead of idling
        to its cycle budget (which here only bounds a regression)."""
        core = OutOfOrderCore(base_config(), assemble("main: nop"))
        with pytest.raises(SimulationError,
                           match="fetch ran off the program at 0x1004"):
            core.run(max_instructions=100, max_cycles=5_000)
        assert core.stats.committed == 1
        assert core.cycle < 100


class TestStructuralLimits:
    def test_rob_limits_window(self):
        """A long-latency head op stalls commit; the window fills but the
        machine neither deadlocks nor reorders commits."""
        source = """
        main: li $t0, 1000
              li $t1, 7
              div $t2, $t0, $t1
        """ + "\n".join(f"      addi $s0, $s0, 1" for _ in range(60)) + """
              halt
        """
        core, stats = run_core(source)
        assert core.spec.regs[16] == 60

    def test_fetch_respects_taken_branch_per_cycle(self):
        # A chain of taken jumps fetches at most one per cycle.
        hops = "\n".join(f"l{i}: j l{i + 1}" for i in range(32))
        source = f"main: {hops}\nl32: halt"
        _, stats = run_core(source)
        assert stats.cycles >= 32


COUNTDOWN = """
main:   li $t0, 3
loop:   addi $t0, $t0, -1
        bnez $t0, loop
        halt
"""


class TestWarmUp:
    @pytest.mark.parametrize("config", [base_config(), ir_config()],
                             ids=lambda config: config.name)
    @pytest.mark.parametrize("skip, committed",
                             [(0, 8), (3, 5), (7, 1), (8, 1), (50, 1)])
    def test_skip_places_core_and_oracle_together(self, config, skip,
                                                  committed):
        """``skip`` restores the commit oracle with the core: every
        later commit verifies, a skip that runs into the halt leaves
        the halt to commit, and both end halted with all 8 retired."""
        config = dataclasses.replace(config, verify_commits=True)
        core = OutOfOrderCore(config, assemble(COUNTDOWN))
        core.skip(skip)
        stats = core.run(max_cycles=10_000)
        assert stats.halted and core.oracle.halted
        assert stats.committed == committed
        assert core.oracle.instructions_retired == 8
