"""Tests for the ``repro-trace`` CLI against a real captured trace."""

import dataclasses

import pytest

from repro import cli_sim
from repro.isa import assemble
from repro.telemetry.cli import main
from repro.telemetry.events import EventTrace, figure2_table
from repro.uarch.config import base_config
from repro.uarch.core import OutOfOrderCore

SOURCE = """
main:   li $s0, 20
loop:   li $t0, 4
        add $t1, $t0, $t0
        add $t2, $t1, $t1
        addi $s0, $s0, -1
        bnez $s0, loop
        halt
"""


@pytest.fixture(scope="module")
def captured(tmp_path_factory):
    """One traced run shared by every CLI test: (trace path, the
    in-process Figure-2 render of the same run's events)."""
    config = dataclasses.replace(base_config(), verify_commits=True)
    core = OutOfOrderCore(config, assemble(SOURCE))
    sink = core.enable_telemetry(interval=100)
    core.run(max_cycles=20_000)
    path = tmp_path_factory.mktemp("trace") / "run.trace.jsonl"
    sink.write_trace(path, workload="asm")
    return path, figure2_table(sink.trace)


def run_cli(capsys, *argv):
    code = main([str(a) for a in argv])
    return code, capsys.readouterr().out


class TestFiltering:
    def test_header_line(self, captured, capsys):
        code, out = run_cli(capsys, captured[0], "--limit", "0")
        assert code == 0
        assert "events:" in out and "dropped: 0" in out
        assert "workload=asm" in out

    def test_kind_filter(self, captured, capsys):
        _, out = run_cli(capsys, captured[0], "--kinds", "commit")
        lines = out.splitlines()[1:]
        assert lines and all(" commit " in line for line in lines)

    def test_empty_context_values_omitted(self, tmp_path, capsys):
        path = tmp_path / "source.trace.jsonl"
        path.write_text(EventTrace(4).dumps(workload="",
                                            config="reuse-n+d"))
        _, out = run_cli(capsys, path)
        assert out.splitlines()[0].endswith("   (config=reuse-n+d)")

    def test_negative_limit_rejected(self, captured, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([str(captured[0]), "--kinds", "commit", "--limit", "-1"])
        assert excinfo.value.code == 2
        assert "--limit must be non-negative, got -1" \
            in capsys.readouterr().err

    def test_unknown_kind_rejected(self, captured):
        with pytest.raises(SystemExit, match="unknown event kind"):
            main([str(captured[0]), "--kinds", "nonsense"])

    def test_bad_pc_rejected(self, captured):
        with pytest.raises(SystemExit, match="--pc"):
            main([str(captured[0]), "--pc", "xyz"])

    def test_cycle_window_and_limit(self, captured, capsys):
        _, out = run_cli(capsys, captured[0], "--since", "10",
                         "--until", "40", "--limit", "5")
        lines = out.splitlines()[1:]
        assert len(lines) <= 5
        for line in lines:
            assert 10 <= int(line.split()[0]) <= 40

    def test_counts(self, captured, capsys):
        _, out = run_cli(capsys, captured[0], "--counts")
        assert "commit" in out and "dispatch" in out

    def test_foreign_file_fails_cleanly(self, tmp_path):
        bogus = tmp_path / "x.jsonl"
        bogus.write_text('{"format": "nope"}\n')
        with pytest.raises(SystemExit, match="repro-trace-v1"):
            main([str(bogus)])


class TestFigure2:
    def test_figure2_matches_in_process_render(self, captured, capsys):
        """A saved trace renders the table its run's events render in
        process (modulo the CLI's header line)."""
        path, rendered = captured
        _, out = run_cli(capsys, path, "--figure2")
        assert out.split("\n\n", 1)[1].rstrip("\n") == rendered

    def test_sim_trace_matches_saved_trace_when_the_ring_overflows(
            self, tmp_path, capsys):
        """``repro-sim --trace N`` and ``repro-trace --figure2 --since
        200 --limit N`` show the same commits, also when the ring kept
        only the end of the run."""
        path = tmp_path / "compress-ir.trace.jsonl"
        assert cli_sim.main(["--workload", "compress", "--config", "ir",
                             "--instructions", "3000", "--trace", "16",
                             "--trace-buffer", "2000",
                             "--trace-out", str(path)]) == 0
        sim_out = capsys.readouterr().out
        title, sim_table = sim_out.split("Pipeline trace: ", 1)[1].split(
            "\n", 1)
        sim_table = sim_table.split("\n\n", 1)[0]
        _, out = run_cli(capsys, path, "--figure2", "--since", "200",
                         "--limit", "16")
        assert out.split("\n\n", 1)[1].rstrip("\n") == sim_table
        assert len(sim_table.splitlines()) == 2 + 16
        assert "dropped: 0" not in out
        assert title.startswith(
            "reuse-n+d (from the last 2000 events kept; ")
