"""Tests for the Figure-2 pipeline view of a run's ``commit`` events."""

import dataclasses

from repro.isa import assemble
from repro.telemetry.events import TraceEvent, figure2_rows, figure2_table
from repro.uarch.config import base_config, ir_config, vp_config
from repro.uarch.core import OutOfOrderCore

SOURCE = """
main:   li $s0, 30
loop:   li $t0, 4
        add $t1, $t0, $t0
        add $t2, $t1, $t1
        addi $s0, $s0, -1
        bnez $s0, loop
        halt
"""


def traced_run(config, limit=64, start_cycle=0):
    """The first *limit* commit events at or after *start_cycle*."""
    config = dataclasses.replace(config, verify_commits=True)
    core = OutOfOrderCore(config, assemble(SOURCE))
    sink = core.enable_telemetry(interval=100)
    core.run(max_cycles=20_000)
    return sink.trace.select(kinds=["commit"], since=start_cycle)[:limit]


class TestRecording:
    def test_records_in_commit_order(self):
        commits = [event.cycle for event in traced_run(base_config())]
        assert commits == sorted(commits)

    def test_limit_respected(self):
        assert len(traced_run(base_config(), limit=5)) == 5

    def test_start_cycle_skips_warmup(self):
        assert all(event.cycle >= 50
                   for event in traced_run(base_config(), start_cycle=50))

    def test_stage_ordering_invariant(self):
        for _, _, dispatch, issue, complete, commit, _ in \
                figure2_rows(traced_run(base_config())):
            assert dispatch <= complete <= commit
            if issue is not None:
                assert dispatch < issue

    def test_origin_labels(self):
        reuse_rows = figure2_rows(traced_run(ir_config(), limit=64))
        assert any(row[6] == "reused" for row in reuse_rows)
        vp_rows = figure2_rows(traced_run(vp_config(), limit=64))
        assert any(row[6].startswith("predicted") for row in vp_rows)

    def test_executions_counted(self):
        events = traced_run(base_config())
        for event, row in zip(events, figure2_rows(events)):
            if row[6] == "executed" and not row[1].startswith(
                    ("j ", "jal", "nop", "halt")):
                assert event.data["executions"] >= 1


class TestRendering:
    def test_render_contains_instructions(self):
        text = figure2_table(traced_run(base_config()))
        assert "add" in text and "commit" in text

    def test_render_relative_cycles_start_at_zero(self):
        first_line = figure2_table(traced_run(base_config())).splitlines()[2]
        assert " 0 " in first_line or first_line.split()[-5] == "0"

    def test_empty_trace_renders(self):
        core = OutOfOrderCore(base_config(), assemble("main: halt"))
        sink = core.enable_telemetry()
        core.run(max_cycles=100)
        commits = sink.trace.select(kinds=["commit"], since=10_000)
        assert "no instructions" in figure2_table(commits)

    def test_commit_spread_smaller_with_reuse(self):
        def commit_spread(events):
            cycles = [event.cycle for event in events]
            return max(cycles) - min(cycles)

        base = traced_run(base_config(), limit=20, start_cycle=40)
        reuse = traced_run(ir_config(), limit=20, start_cycle=40)
        assert commit_spread(reuse) <= commit_spread(base)


def synthetic_commit(pc=0x1000, text="add $t1, $t0, $t0", dispatch=0,
                     issue=2, complete=3, commit=4, reused=False,
                     predicted=False, correct=None):
    return TraceEvent("commit", commit, seq=1, pc=pc, data={
        "opcode": "add", "text": text, "dispatch": dispatch,
        "issue": issue, "complete": complete, "executions": 1,
        "reused": reused, "predicted": predicted, "correct": correct})


class TestAlignment:
    """Column positions must agree on every line, whatever the cell
    widths — long disassembly, huge cycle numbers, or a text column
    narrower than its header."""

    LEFT = ("pc", "instruction", "how")
    RIGHT = ("disp", "issue", "done", "commit")

    def assert_grid(self, text):
        header, separator, *rows = text.splitlines()
        assert set(separator) == {"-"}
        assert len(separator) >= len(header.rstrip())
        for token in self.LEFT:
            start = header.index(token)
            for row in rows:
                assert row[start] != " "
                if start:
                    assert row[start - 1] == " "
        for token in self.RIGHT:
            end = header.index(token) + len(token)
            for row in rows:
                assert row[end - 1] != " "  # right-aligned: digit or '-'
                assert len(row) == end or row[end] == " "

    def test_long_disassembly_does_not_shear_columns(self):
        events = [
            synthetic_commit(),
            synthetic_commit(pc=0xDEAD0, text="lw $t9, -32768($gp)  ",
                             dispatch=999_000, issue=999_123,
                             complete=1_234_567, commit=1_234_570,
                             reused=True),
            synthetic_commit(text="x", issue=None, predicted=True,
                             correct=False),
        ]
        self.assert_grid(figure2_table(events, relative=False))

    def test_relative_and_absolute_both_aligned(self):
        events = [synthetic_commit(dispatch=500, issue=510,
                                   complete=520, commit=530),
                  synthetic_commit(dispatch=501, issue=None,
                                   complete=502, commit=531)]
        self.assert_grid(figure2_table(events, relative=True))
        self.assert_grid(figure2_table(events, relative=False))


class TestOfflineReconstruction:
    """The view reads only ``commit`` events, so a whole saved trace
    can be passed in."""

    def test_non_commit_events_ignored(self):
        assert figure2_rows([TraceEvent("dispatch", 1, 1, 0),
                             TraceEvent("squash", 1, 1, 0)]) == []
