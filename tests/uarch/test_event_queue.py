"""Property-based invariants of the event-driven scheduler.

The event-driven core replaced the per-cycle ROB/FU scan with a
completion-event heap and a wakeup (issue) queue.  These tests pin the
invariants that rewrite relies on, over random — but
terminating-by-construction — programs and every machine configuration:

* an instruction never begins execution before every register operand
  has been broadcast; loads issuing on a reused or predicted effective
  address are the one sanctioned exception (issuing before the base
  register resolves is the whole point of address reuse/prediction);
* every writeback fires at exactly the completion cycle it was
  scheduled for, and writebacks are processed in strictly increasing
  ``(cycle, seq)`` order — the heap never reorders or loses an event.
"""

from collections import defaultdict

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.isa import assemble
from repro.uarch.config import (
    IRValidation,
    base_config,
    hybrid_config,
    ir_config,
    vp_config,
)
from repro.uarch.core import EVENT_COMPLETE, OutOfOrderCore
from repro.workloads.random_program import random_program

MAX_CYCLES = 200_000  # far above any generated program's runtime

CONFIGS = [
    ("base", base_config),
    ("ir-early", ir_config),
    ("ir-late", lambda: ir_config(IRValidation.LATE)),
    ("vp", vp_config),
    ("hybrid", hybrid_config),
]


class InstrumentedCore(OutOfOrderCore):
    """Core that checks scheduler invariants at every hook crossing."""

    def __init__(self, config, program):
        super().__init__(config, program)
        self.violations = []
        self._scheduled = defaultdict(list)  # seq -> completion cycles
        self.completion_log = []  # (cycle, seq) in processing order

    def _schedule(self, cycle, kind, op):
        if kind == EVENT_COMPLETE:
            self._scheduled[op.seq].append(cycle)
        super()._schedule(cycle, kind, op)

    def _start_execution(self, op, address=None, forwarding=None):
        addr_speculative = op.is_load and (op.addr_reused
                                           or op.addr_predicted)
        if not addr_speculative and not op.operands_ready(self.cycle):
            self.violations.append(
                f"{op.meta.opcode.name} seq={op.seq} issued "
                f"at cycle {self.cycle} before its operands were broadcast")
        super()._start_execution(op, address, forwarding)

    def _on_complete(self, op):
        seq = op.seq
        pending = self._scheduled.get(seq)
        if pending and self.cycle in pending:
            pending.remove(self.cycle)
        else:
            self.violations.append(
                f"completion of seq={seq} fired at cycle {self.cycle}, "
                f"which was never its scheduled completion cycle")
        self.completion_log.append((self.cycle, seq))
        super()._on_complete(op)


def _run_instrumented(seed, size, factory):
    program = assemble(random_program(seed, size=size))
    core = InstrumentedCore(factory(), program)
    core.run(max_cycles=MAX_CYCLES)
    assert core.halted, "generated program failed to halt"
    return core


@settings(max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(0, 2**20), size=st.integers(10, 60),
       config=st.sampled_from(CONFIGS))
def test_scheduler_invariants(seed, size, config):
    """Operand readiness and exact-cycle writeback hold."""
    name, factory = config
    core = _run_instrumented(seed, size, factory)
    assert not core.violations, \
        f"[{name}] " + "; ".join(core.violations[:5])


@settings(max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(0, 2**20), size=st.integers(10, 60),
       config=st.sampled_from(CONFIGS))
def test_writeback_order_matches_completion_cycles(seed, size, config):
    """Completions process in strictly increasing (cycle, seq) order.

    Strict, not merely nondecreasing: an op re-issues only after its
    previous completion fired, so two completions can never share a
    ``(cycle, seq)`` pair, and the heap pops same-cycle events in seq
    order.
    """
    _, factory = config
    core = _run_instrumented(seed, size, factory)
    log = core.completion_log
    assert log, "program completed no instructions"
    for earlier, later in zip(log, log[1:]):
        assert earlier < later, \
            f"writeback order violated: {earlier} processed before {later}"
