"""Structural-limit sensitivity: the Table 1 resources actually bind.

Each test shrinks one machine resource far below the paper's value and
checks that performance degrades on a workload that stresses it — which
demonstrates the limit is modelled at all, and in the right place.
"""

import dataclasses

from repro.isa import assemble
from repro.uarch.config import base_config
from repro.uarch.core import OutOfOrderCore


def cycles(source, config, max_cycles=400_000):
    config = dataclasses.replace(config, verify_commits=True)
    core = OutOfOrderCore(config, assemble(source))
    stats = core.run(max_cycles=max_cycles)
    assert stats.halted
    return stats.cycles


BRANCHY = """
.data
flags: .word 1, 0, 1, 1, 0, 0, 1, 0
.text
main:   li $s0, 200
outer:  li $t0, 0
inner:  sll $t1, $t0, 2
        lw $t2, flags($t1)
        li $t3, 500
        li $t4, 7
        div $t5, $t3, $t4       # slow producer keeps branches unresolved
        andi $t6, $t5, 1
        beq $t6, $t2, skip      # condition waits on the 20-cycle divide
        addi $s2, $s2, 1
skip:   addi $t0, $t0, 1
        slti $t7, $t0, 8
        bnez $t7, inner
        addi $s0, $s0, -1
        bnez $s0, outer
        halt
"""

WIDE = """
main:   li $s0, 400
loop:   addi $t0, $zero, 1
        addi $t1, $zero, 2
        addi $t2, $zero, 3
        addi $t3, $zero, 4
        addi $t4, $zero, 5
        addi $t5, $zero, 6
        addi $s0, $s0, -1
        bnez $s0, loop
        halt
"""

MEMORY = """
.data
buf: .space 256
.text
main:   li $s0, 300
loop:   lw $t0, buf
        lw $t1, buf+8
        lw $t2, buf+16
        lw $t3, buf+24
        addi $s0, $s0, -1
        bnez $s0, loop
        halt
"""


class TestWindowLimits:
    def test_unresolved_branch_limit_binds(self):
        full = cycles(BRANCHY, base_config())
        tight = cycles(BRANCHY, dataclasses.replace(
            base_config(), max_unresolved_branches=1))
        assert tight > full

    def test_rob_size_binds(self):
        full = cycles(WIDE, base_config())
        tiny = cycles(WIDE, dataclasses.replace(base_config(), rob_size=4))
        assert tiny > full * 1.3

    def test_lsq_size_binds(self):
        full = cycles(MEMORY, base_config())
        tiny = cycles(MEMORY, dataclasses.replace(base_config(), lsq_size=2))
        assert tiny > full

    def test_fetch_queue_binds(self):
        full = cycles(WIDE, base_config())
        tiny = cycles(WIDE, dataclasses.replace(base_config(),
                                                fetch_queue_size=1))
        assert tiny > full


class TestBandwidthLimits:
    def test_narrow_commit_binds(self):
        full = cycles(WIDE, base_config())
        narrow = cycles(WIDE, dataclasses.replace(base_config(),
                                                  commit_width=1))
        assert narrow > full * 1.5

    def test_single_alu_binds(self):
        full = cycles(WIDE, base_config())
        one_alu = cycles(WIDE, dataclasses.replace(base_config(),
                                                   int_alus=1))
        assert one_alu > full

    def test_single_dcache_port_binds(self):
        full = cycles(MEMORY, base_config())
        one_port = cycles(MEMORY, dataclasses.replace(base_config(),
                                                      dcache_ports=1))
        assert one_port >= full

    def test_issue_width_binds(self):
        full = cycles(WIDE, base_config())
        narrow = cycles(WIDE, dataclasses.replace(base_config(),
                                                  issue_width=1))
        assert narrow > full
