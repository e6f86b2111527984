"""Tests for the opt-in per-phase wallclock profile."""

import inspect
import re

from repro.isa import assemble
from repro.metrics.profiling import PHASES, CoreProfile
from repro.uarch.config import base_config
from repro.uarch.core import OutOfOrderCore

SOURCE = """
main:   li $s0, 20
loop:   add $t1, $s0, $s0
        addi $s0, $s0, -1
        bnez $s0, loop
        halt
"""


def profiled_run():
    core = OutOfOrderCore(base_config(), assemble(SOURCE))
    profile = core.enable_profiling()
    core.run(max_cycles=20_000)
    return core, profile


class TestPhasesStayInSync:
    """PHASES must mirror the pipeline phases `step()` actually runs.

    If someone adds a phase to the core without teaching the profiler
    (or vice versa) the profile silently lies; this pins the mapping.
    """

    # Phase label -> the call `step()` makes for it.
    EXPECTED = {
        "commit": "self._commit()",
        "events": "self._process_events()",
        "issue": "self._issue()",
        "dispatch": "self._dispatch()",
        "fetch": "fetch.step(self.cycle)",
    }

    def test_phases_tuple_matches_expected_order(self):
        assert PHASES == tuple(self.EXPECTED)

    def test_plain_step_runs_each_phase_in_order(self):
        source = inspect.getsource(OutOfOrderCore.step)
        positions = [source.index(call) for call in self.EXPECTED.values()]
        assert positions == sorted(positions)

    def test_profiled_step_times_exactly_the_phases(self):
        """enable_profiling() installs one timer per phase, as instance
        attributes over exactly the calls the guarded step() makes."""
        core = OutOfOrderCore(base_config(), assemble(SOURCE))
        core.enable_profiling()
        installed = {name: value.phase
                     for owner in (core, core.fetch_unit)
                     for name, value in vars(owner).items()
                     if hasattr(value, "phase")}
        expected = {re.search(r"(\w+)\(", call).group(1): phase
                    for phase, call in self.EXPECTED.items()}
        assert installed == expected
        assert sorted(installed.values()) == sorted(PHASES)


class TestAccounting:
    def test_run_populates_every_phase(self):
        core, profile = profiled_run()
        assert profile.cycles == core.stats.cycles > 0
        assert all(profile.phase_seconds[name] >= 0 for name in PHASES)
        assert profile.events_processed > 0

    def test_stats_unchanged_by_profiling(self):
        plain = OutOfOrderCore(base_config(), assemble(SOURCE))
        plain.run(max_cycles=20_000)
        core, _ = profiled_run()
        assert core.stats.canonical_json() == plain.stats.canonical_json()


class TestReportShape:
    def test_as_dict_keys(self):
        _, profile = profiled_run()
        payload = profile.as_dict()
        assert set(payload["phase_seconds"]) == set(PHASES)
        assert set(payload["phase_share"]) == set(PHASES)
        shares = payload["phase_share"].values()
        assert all(0.0 <= share <= 1.0 for share in shares)
        assert payload["events_per_cycle"] >= 0
        assert payload["scans_per_cycle"] >= 0

    def test_report_has_wall_and_per_cycle_columns(self):
        _, profile = profiled_run()
        text = profile.report()
        header = text.splitlines()[0]
        for column in ("seconds", "share", "%wall", "us/cycle"):
            assert column in header
        for name in PHASES:
            assert name in text
        assert "/cycle" in text

    def test_empty_profile_reports_without_dividing_by_zero(self):
        profile = CoreProfile()
        assert "%wall" in profile.report()
        assert profile.as_dict()["events_per_cycle"] == 0
