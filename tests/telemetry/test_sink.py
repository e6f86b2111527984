"""Tests for the telemetry sink: transparency and sampling invariants."""

import pytest

from repro.isa import assemble
from repro.telemetry import TelemetrySink
from repro.uarch.config import base_config, ir_config, vp_config
from repro.uarch.core import OutOfOrderCore
from repro.workloads import get_workload

SOURCE = """
main:   li $s0, 60
loop:   li $t0, 4
        add $t1, $t0, $t0
        lw $t3, 0($zero)
        add $t2, $t1, $t3
        sw $t2, 4($zero)
        addi $s0, $s0, -1
        bnez $s0, loop
        halt
"""

CONFIGS = {"base": base_config, "ir": ir_config, "vp": vp_config}


def run_core(config, sink=None, **telemetry):
    core = OutOfOrderCore(config, assemble(SOURCE))
    if sink is not None or telemetry:
        sink = core.enable_telemetry(sink, **telemetry)
    core.run(max_cycles=20_000)
    return core, sink


class TestTransparency:
    """Attaching a sink must not perturb a single statistic.

    This is the contract that lets the golden corpus stay valid: the
    default core has no sink, and an attached sink only observes.
    """

    @pytest.mark.parametrize("name", sorted(CONFIGS))
    def test_stats_byte_identical_with_and_without_sink(self, name):
        plain, _ = run_core(CONFIGS[name]())
        traced, _ = run_core(CONFIGS[name](), interval=100, events=True)
        assert traced.stats.canonical_json() == plain.stats.canonical_json()


class TestIntervalSampling:
    def test_delta_columns_sum_to_run_totals(self):
        core, sink = run_core(ir_config(), interval=100)
        series = sink.series
        assert sum(series.column("committed")) == core.stats.committed
        assert sum(series.column("dispatched")) == core.stats.dispatched
        assert sum(series.column("cycles")) == core.stats.cycles
        assert sum(series.column("squashes")) == core.stats.branch_squashes
        assert sum(series.column("reuse_tests")) == core.stats.ir_tests

    def test_every_reuse_test_is_hit_or_miss(self):
        _, sink = run_core(ir_config(), interval=100)
        series = sink.series
        hits = sum(series.column("reuse_hits"))
        misses = sum(series.column("reuse_misses"))
        assert hits + misses == sum(series.column("reuse_tests"))
        assert hits > 0

    def test_boundaries_are_regular_then_partial(self):
        core, sink = run_core(base_config(), interval=100)
        cycles = sink.series.column("cycle")
        assert cycles == sorted(cycles)
        assert all(c % 100 == 0 for c in cycles[:-1])
        assert cycles[-1] == core.stats.cycles

    def test_occupancy_rows_stay_within_the_window(self):
        core, sink = run_core(base_config(), interval=16, events=False)
        rob_col = sink.series.column("rob_occupancy")
        lsq_col = sink.series.column("lsq_occupancy")
        assert rob_col and max(rob_col) > 0
        for rob_occ, lsq_occ in zip(rob_col, lsq_col):
            assert 0 <= rob_occ <= core.config.rob_size
            assert 0 <= lsq_occ <= core.config.lsq_size

    def test_events_disabled_still_counts_interval_events(self):
        _, sink = run_core(vp_config(), interval=100, events=False)
        assert sink.trace is None
        assert sum(sink.series.column("vp_predicted")) > 0
        assert sum(sink.series.column("vp_verified")) > 0

    def test_misprediction_column(self):
        core, sink = run_core(vp_config(), interval=100, events=False)
        verified = sum(sink.series.column("vp_verified"))
        wrong = sum(sink.series.column("vp_mispredicted"))
        assert 0 <= wrong <= verified


class TestFinalize:
    def test_finalize_is_idempotent(self):
        core, sink = run_core(base_config(), interval=100)
        rows = len(sink.series)
        sink.finalize(core)
        sink.finalize(core)
        assert len(sink.series) == rows

    def test_context_records_run_identity(self):
        core, sink = run_core(vp_config(), interval=100)
        context = sink.series.context
        assert context["config"] == core.config.name
        assert context["total_cycles"] == core.stats.cycles
        assert context["total_committed"] == core.stats.committed
        assert "kind" in context["vp"]


class TestEventPath:
    def test_commit_events_carry_pipeline_lifetimes(self):
        core, sink = run_core(base_config(), interval=100)
        commits = sink.trace.select(kinds=["commit"])
        assert len(commits) == core.stats.committed
        for event in commits:
            data = event.data
            assert data["dispatch"] <= data["complete"] <= event.cycle
            assert "text" in data

    def test_reuse_misses_carry_reasons(self):
        _, sink = run_core(ir_config(), interval=100)
        misses = sink.trace.select(kinds=["reuse_miss"])
        assert misses and all(m.data.get("reason") for m in misses)

    def test_reuse_miss_reasons_are_operand_test_failures(self):
        """A miss means every entry at the PC failed the operand test,
        so these three reasons are all there is; compress shows each."""
        core = OutOfOrderCore(ir_config(),
                              get_workload("compress").program())
        sink = core.enable_telemetry(interval=1_000)
        core.run(max_instructions=3_000)
        reasons = {event.data["reason"]
                   for event in sink.trace.select(kinds=["reuse_miss"])}
        assert reasons == {"no_entry", "operand_mismatch",
                           "operand_unavailable"}

    def test_explicit_sink_is_attached_and_returned(self):
        sink = TelemetrySink(interval=50)
        core, attached = run_core(base_config(), sink=sink)
        assert attached is sink
        assert len(sink.series) > 0
