"""In-flight entries are freed by refcounting alone.

``OutOfOrderCore.run`` pauses the cyclic garbage collector.  That is
sound only because commit and squash break every reference cycle
through an :class:`~repro.uarch.entry.InflightOp`, and because commit
drops a committed entry's producer edges (see ``docs/internals.md``).
These tests count live entries with the collector disabled and never
collect, so an entry kept alive by a cycle, or by a chain of committed
ancestors, stays in the count:

* after a run stopped by its instruction budget, the count is bounded
  by the window, not by the budget: go on the base machine squashes
  often (cycles through squashed entries), and a generated program
  under value prediction keeps long producer chains in flight;
* after a value-predicting run to halt, deleting the core leaves no
  entry at all.
"""

import gc

import pytest

from repro.isa import NUM_REGS, assemble
from repro.uarch.config import PredictorKind, base_config, vp_config
from repro.uarch.core import OutOfOrderCore
from repro.uarch.entry import InflightOp
from repro.workloads import GeneratorKnobs, generated_program, get_workload


def live_entries() -> int:
    return sum(1 for obj in gc.get_objects() if type(obj) is InflightOp)


def generated(trips):
    return assemble(generated_program(GeneratorKnobs(
        seed=5, size=32, trips=trips, result_redundancy=0.5,
        branch_entropy=0.5)))


def go_on_base():
    spec = get_workload("go")
    core = OutOfOrderCore(base_config(), spec.program())
    core.skip(spec.skip_instructions)
    return core


def generated_on_vp():
    return OutOfOrderCore(vp_config(), generated(trips=600))


@pytest.fixture
def collector_paused():
    """Collect once, then keep the collector off; yields the entries
    still alive (held by an earlier failure's traceback, if any)."""
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    yield live_entries()
    if enabled:
        gc.enable()


@pytest.mark.parametrize("budget", [5_000, 20_000])
@pytest.mark.parametrize("make_core", [go_on_base, generated_on_vp],
                         ids=["go-base", "generated-vp"])
def test_live_entries_bounded_by_the_window(collector_paused, make_core,
                                            budget):
    core = make_core()
    stats = core.run(max_instructions=budget)
    assert stats.committed >= budget and stats.branch_squashes > 10
    # In flight, held by the rename map (and branches' copies of it),
    # or squashed but still in the event heap or the wakeup queue.
    bound = 8 * core.config.rob_size + NUM_REGS
    live = live_entries() - collector_paused
    assert live <= bound, (
        f"{live} entries alive after {budget} instructions "
        f"(window bound {bound})")


@pytest.mark.parametrize("kind", [PredictorKind.MAGIC,
                                  PredictorKind.STRIDE])
def test_halted_core_frees_every_entry(collector_paused, kind):
    core = OutOfOrderCore(vp_config(kind), generated(trips=8))
    stats = core.run(max_cycles=400_000)
    assert stats.halted and stats.branch_squashes > 0
    assert stats.vp_result_predicted > 0
    # The core still holds its rename map.
    assert live_entries() > collector_paused
    del core
    assert live_entries() == collector_paused
