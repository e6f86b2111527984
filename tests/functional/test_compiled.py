"""Differential tests: both closure families against ``execute()``.

``execute()`` is the reference semantics; what actually runs are the
per-static-instruction closures of ``repro.functional.compiled``.  These
tests pin the *exact* equivalence the golden corpus and every
checkpoint rely on, over random (terminating-by-construction)
programs, against an interpreted loop of ``execute()`` on an
``ArchState``:

* lockstep stepping: ``FunctionalSimulator.step()`` runs the
  ``compile_exec`` closures and must give identical ``ExecOutcome``
  fields and identical registers, memory and PC after **every**
  instruction;
* the warm-up: ``checkpoint.capture`` drives the ``compile_ff``
  closures and must reach the same state, executed count and halt flag
  when the budget lands before, on or after the halt.
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from repro.functional.checkpoint import capture
from repro.functional.simulator import (
    ArchState,
    FunctionalSimulator,
    SimulationError,
    execute,
)
from repro.isa import assemble
from repro.workloads.random_program import random_program

MAX_STEPS = 100_000  # far above any generated program's runtime

OUTCOME_FIELDS = ("operand_a", "operand_b", "next_pc", "result",
                  "result_hi", "writes", "mem_addr", "mem_value", "taken")


def reference_step(program, state):
    """Interpret the instruction at ``state.pc`` with ``execute()``."""
    inst = program.fetch(state.pc)
    outcome = execute(inst, state)
    if inst.opcode.is_halt:
        outcome.next_pc = inst.pc  # an executed halt parks on itself
    state.pc = outcome.next_pc
    return outcome


def instructions_before_halt(program):
    state = ArchState(program)
    for count in range(MAX_STEPS):
        if program.fetch(state.pc).opcode.is_halt:
            return count
        reference_step(program, state)
    raise AssertionError("generated program did not terminate")


def nonzero_pages(pages):
    # All-zero pages read identically to absent ones.
    return {number: bytes(page) for number, page in pages.items()
            if any(page)}


def machine(state):
    return (state.regs, state.pc,
            nonzero_pages(state.memory.snapshot_pages()))


@given(seed=st.integers(min_value=0, max_value=10**9))
@settings(max_examples=25, deadline=None)
def test_lockstep_differential(seed):
    program = assemble(random_program(seed, size=50))
    state = ArchState(program)
    sim = FunctionalSimulator(program)
    for count in range(1, MAX_STEPS + 1):
        want = reference_step(program, state)
        got = sim.step()
        assert got.inst is want.inst
        for field in OUTCOME_FIELDS:
            assert getattr(got, field) == getattr(want, field), field
        assert machine(sim.state) == machine(state)
        assert sim.instructions_retired == count
        if want.inst.opcode.is_halt:
            break
    assert sim.halted, "generated program did not terminate"


@given(seed=st.integers(min_value=0, max_value=10**9),
       budget_offset=st.integers(min_value=-2, max_value=2))
@settings(max_examples=25, deadline=None)
def test_fast_forward_differential(seed, budget_offset):
    program = assemble(random_program(seed, size=50))
    before_halt = instructions_before_halt(program)
    budget = max(0, before_halt + budget_offset)

    state = ArchState(program)
    executed = min(budget, before_halt)
    for _ in range(executed):
        reference_step(program, state)

    warm = capture(program, budget)
    assert (warm.executed, warm.pc, warm.hit_halt) \
        == (executed, state.pc, budget > before_halt)
    assert warm.regs == state.regs
    assert nonzero_pages(warm.pages) \
        == nonzero_pages(state.memory.snapshot_pages())


def test_bad_pc_raises_in_both_lanes():
    # Stepping and running (compile_exec) and capturing (compile_ff)
    # all fail on a PC with no instruction.
    program = assemble("main:\n        halt\n")
    for drive in (FunctionalSimulator.step,
                  lambda sim: sim.run(10)):
        sim = FunctionalSimulator(program)
        sim.state.pc = program.end_pc()
        with pytest.raises(SimulationError):
            drive(sim)
    with pytest.raises(SimulationError, match="ran off program"):
        capture(assemble("main:\n        nop\n"), 10)
