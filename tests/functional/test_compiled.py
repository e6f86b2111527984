"""Differential tests: compiled closures vs the interpreted stepper.

``repro.functional.compiled`` replaces the generic ``execute`` dispatch
with per-static-instruction closures built at decode time; these tests
pin the *exact* equivalence the golden corpus and every checkpoint rely
on, over random — terminating-by-construction — programs:

* lockstep stepping: identical :class:`ExecOutcome` observable fields
  and identical architectural state (registers, memory, PC, halt flag)
  after **every** committed instruction;
* the outcome-free fast-forward lane (``run``): identical final state
  and retired-instruction count as the interpreted run, including when
  the budget lands exactly on, before, or after the halt;
* the ``run_ff`` driver behind that lane reports the right
  (pc, executed, status) triple for each way a run can stop.
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from repro.isa import assemble
from repro.functional import ffexec
from repro.functional.compiled import CompiledProgram, HALT
from repro.functional.simulator import (
    ArchState,
    FunctionalSimulator,
    SimulationError,
)
from repro.workloads.random_program import random_program

MAX_STEPS = 100_000  # far above any generated program's runtime

OUTCOME_FIELDS = ("operand_a", "operand_b", "next_pc", "result",
                  "result_hi", "writes", "mem_addr", "mem_value", "taken")


def _state_fingerprint(sim):
    memory = sim.state.memory
    pages = {number: bytes(page)
             for number, page in memory.snapshot_pages().items()
             if any(page)}  # all-zero pages read identically to absent ones
    return (sim.state.regs, sim.state.pc, sim.halted,
            sim.instructions_retired, pages)


@given(seed=st.integers(min_value=0, max_value=10**9))
@settings(max_examples=25, deadline=None)
def test_lockstep_differential(seed):
    program = assemble(random_program(seed, size=50))
    interp = FunctionalSimulator(program, compiled=False)
    compiled = FunctionalSimulator(program, compiled=True)
    for _ in range(MAX_STEPS):
        if interp.halted:
            break
        want = interp.step()
        got = compiled.step()
        assert got.inst is want.inst
        for field in OUTCOME_FIELDS:
            assert getattr(got, field) == getattr(want, field), field
        assert _state_fingerprint(compiled) == _state_fingerprint(interp)
    assert interp.halted, "generated program did not terminate"
    assert compiled.halted


@given(seed=st.integers(min_value=0, max_value=10**9),
       budget_offset=st.integers(min_value=-2, max_value=2))
@settings(max_examples=25, deadline=None)
def test_fast_forward_differential(seed, budget_offset):
    program = assemble(random_program(seed, size=50))
    length = FunctionalSimulator(program, compiled=False).run(MAX_STEPS)
    budget = max(0, length + budget_offset)

    interp = FunctionalSimulator(program, compiled=False)
    compiled = FunctionalSimulator(program, compiled=True)
    assert interp.run(budget) == compiled.run(budget)
    assert _state_fingerprint(compiled) == _state_fingerprint(interp)


def test_bad_pc_raises_in_both_lanes():
    # Both the compiled fast-forward lane and the interpreted stepper
    # must fail identically on a PC with no instruction.
    program = assemble("main:\n        halt\n")
    bad_pc = program.end_pc()
    for compiled in (False, True):
        sim = FunctionalSimulator(program, compiled=compiled)
        sim.state.pc = bad_pc
        with pytest.raises(SimulationError):
            sim.run(10)
        sim = FunctionalSimulator(program, compiled=compiled)
        sim.state.pc = bad_pc
        with pytest.raises(SimulationError):
            sim.step()


def test_run_ff_statuses_and_state():
    program = assemble("""
    main: li $t0, 3
    loop: addi $t0, $t0, -1
          bnez $t0, loop
          halt
    """)
    compiled = CompiledProgram(program)

    # Budget exhausted strictly before the halt.
    state = ArchState(program)
    pc, executed, status = ffexec.run_ff(
        compiled.ff_entry, HALT, state, state.pc, 2, False)
    assert (executed, status) == (2, ffexec.FF_BUDGET)

    # Run into the halt; the PC parks on it either way, and
    # execute_halt picks the caller's counting convention.
    state = ArchState(program)
    pc, executed, status = ffexec.run_ff(
        compiled.ff_entry, HALT, state, state.pc,
        ffexec.FF_UNBOUNDED, False)
    assert status == ffexec.FF_HALT
    assert executed == 7  # li + 3x(addi, bnez)
    halt_pc = pc
    state = ArchState(program)
    pc2, executed2, status2 = ffexec.run_ff(
        compiled.ff_entry, HALT, state, state.pc,
        ffexec.FF_UNBOUNDED, True)
    assert (pc2, executed2, status2) == (halt_pc, 8, ffexec.FF_HALT)

    # A PC with no instruction reports FF_BAD_PC (raising is the
    # caller's job).
    state = ArchState(program)
    pc3, executed3, status3 = ffexec.run_ff(
        lambda _pc: None, HALT, state, state.pc, 5, False)
    assert (executed3, status3) == (0, ffexec.FF_BAD_PC)
