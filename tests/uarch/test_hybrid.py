"""Tests for the hybrid VP+IR machine (the paper's suggested direction).

The hybrid dispatches the reuse test first; instructions the RB cannot
validate fall back to value prediction.  Reuse keeps its non-speculative
guarantees (a reused result never needs verification), while VP extends
coverage to redundancy the operand-based test cannot capture.
"""

import dataclasses

import pytest

from repro.isa import assemble
from repro.uarch.config import (
    PredictorKind,
    base_config,
    hybrid_config,
    ir_config,
    vp_config,
)
from repro.uarch.core import OutOfOrderCore
from repro.workloads import get_workload, random_program


def run(source, config, max_cycles=400_000, max_instructions=None):
    config = dataclasses.replace(config, verify_commits=True)
    core = OutOfOrderCore(config, assemble(source))
    stats = core.run(max_cycles=max_cycles, max_instructions=max_instructions)
    return core, stats


REDUNDANT = """
main:   li $s0, 400
loop:   li $t0, 9
        add $t1, $t0, $t0
        add $t2, $t1, $t1
        add $t3, $t2, $t2
        addi $s0, $s0, -1
        bnez $s0, loop
        halt
"""

# One loop with two kinds of redundancy: a constant-rooted chain that IR
# captures at decode, and a stride-rooted chain whose inputs are never
# ready for the reuse test (the paper's IR restriction) but whose values
# VP_Magic predicts.  The hybrid should engage both engines.
STRIDY = """
main:   li $s0, 800
loop:   li $t5, 13           # reusable chain
        add $t6, $t5, $t5
        add $t7, $t6, $t6
        addi $t0, $t0, 1     # stride-rooted chain: VP territory
        andi $t1, $t0, 3
        sll $t2, $t1, 2
        addi $t3, $t2, 7
        add $t4, $t3, $t3
        addi $s0, $s0, -1
        bnez $s0, loop
        halt
"""


class TestConfiguration:
    def test_both_engines_enabled(self):
        config = hybrid_config()
        assert config.vp.enabled and config.ir.enabled


class TestHybridBehaviour:
    def test_architectural_correctness(self):
        core, stats = run(REDUNDANT, hybrid_config())
        assert stats.halted
        assert core.spec.regs[11] == 9 * 8  # $t3

    def test_reuse_takes_priority(self):
        """Fully reusable code should be served by the RB, not the VPT."""
        _, stats = run(REDUNDANT, hybrid_config())
        assert stats.ir_result_reused > stats.vp_result_predicted

    def test_vp_covers_reuse_misses(self):
        """On stride-rooted code reuse misses the root but VP predicts
        downstream values: both engines contribute."""
        _, stats = run(STRIDY, hybrid_config())
        assert stats.ir_result_reused > 0
        assert stats.vp_result_predicted > 0

    def test_hybrid_at_least_as_fast_as_pure_ir(self):
        _, ir = run(STRIDY, ir_config())
        _, hybrid = run(STRIDY, hybrid_config())
        assert hybrid.cycles <= ir.cycles * 1.02

    def test_random_programs_correct(self):
        for seed in range(4):
            source = random_program(seed, size=40)
            _, stats = run(source, hybrid_config(), max_cycles=2_000_000)
            assert stats.halted

    def test_lvp_hybrid_also_correct(self):
        _, stats = run(STRIDY, hybrid_config(PredictorKind.LAST_VALUE))
        assert stats.halted


class TestHybridOnWorkloads:
    @pytest.mark.parametrize("name", ["m88ksim", "compress"])
    def test_workload_runs_verified(self, name):
        spec = get_workload(name)
        config = dataclasses.replace(hybrid_config(), verify_commits=True)
        core = OutOfOrderCore(config, spec.program())
        core.skip(spec.skip_instructions)
        stats = core.run(max_instructions=6_000, max_cycles=300_000)
        assert stats.committed >= 5_500
        assert stats.ir_result_reused > 0
        assert stats.vp_result_predicted > 0
