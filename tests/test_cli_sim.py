"""Tests for the repro-sim command-line tool."""

import pytest

from repro.cli_sim import CONFIG_FACTORIES, build_parser, main

PROGRAM = """
main:   li $s0, 60
loop:   li $t0, 5
        add $t1, $t0, $t0
        addi $s0, $s0, -1
        bnez $s0, loop
        halt
"""


@pytest.fixture
def source_file(tmp_path):
    path = tmp_path / "prog.s"
    path.write_text(PROGRAM)
    return path


class TestParser:
    def test_defaults(self):
        args = build_parser().parse_args(["prog.s"])
        assert args.config == ["base"]
        assert args.instructions == 50_000

    def test_all_config_names_resolve(self):
        for name, factory in CONFIG_FACTORIES.items():
            config = factory()
            assert config.name  # constructible

    def test_multiple_configs(self):
        args = build_parser().parse_args(
            ["prog.s", "--config", "base", "ir", "hybrid"])
        assert args.config == ["base", "ir", "hybrid"]


class TestMain:
    def test_runs_source_file(self, source_file, capsys):
        assert main([str(source_file), "--verify"]) == 0
        out = capsys.readouterr().out
        assert "base" in out and "IPC" in out

    def test_compares_configs(self, source_file, capsys):
        assert main([str(source_file), "--config", "base", "ir", "vp",
                     "--verify"]) == 0
        out = capsys.readouterr().out
        assert "reuse-n+d" in out
        assert "vp-magic" in out

    def test_breakdown_flag(self, source_file, capsys):
        assert main([str(source_file), "--config", "ir",
                     "--breakdown"]) == 0
        out = capsys.readouterr().out
        assert "Per-class breakdown" in out

    def test_trace_flag(self, source_file, capsys):
        assert main([str(source_file), "--config", "base",
                     "--trace", "5"]) == 0
        out = capsys.readouterr().out
        assert "Pipeline trace" in out

    def test_workload_mode(self, capsys):
        assert main(["--workload", "m88ksim", "--instructions", "2000",
                     "--config", "ir"]) == 0
        out = capsys.readouterr().out
        assert "m88ksim" in out

    @pytest.mark.parametrize("flag", ["--instructions", "--max-cycles",
                                      "--telemetry-interval",
                                      "--trace-buffer"])
    def test_non_positive_budget_rejected(self, source_file, flag, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([str(source_file), flag, "0"])
        assert excinfo.value.code == 2
        assert f"{flag} must be positive" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value, message", [
        ("--skip", "-5", "non-negative"),
        ("--trace", "-3", "non-negative"),
        ("--telemetry-interval", "-10", "positive"),
        ("--trace-buffer", "-1", "positive")])
    def test_negative_values_rejected(self, source_file, flag, value,
                                      message, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([str(source_file), flag, value])
        assert excinfo.value.code == 2
        assert f"{flag} must be {message}, got {value}" \
            in capsys.readouterr().err

    def test_missing_input_rejected(self):
        with pytest.raises(SystemExit):
            main([])

    def test_generated_workload_mode(self, capsys):
        assert main(["--workload", "gen-s3-n16-t8-r500-b250",
                     "--instructions", "2000",
                     "--config", "vp-select", "--verify"]) == 0
        out = capsys.readouterr().out
        assert "gen-s3-n16-t8-r500-b250" in out
        assert "vp-select" in out

    def test_unknown_workload_rejected(self):
        with pytest.raises(SystemExit, match="unknown workload"):
            main(["--workload", "gen-bogus"])
        with pytest.raises(SystemExit, match="unknown workload"):
            main(["--workload", "spice"])

    @pytest.mark.parametrize("argv, message", [
        (["--workload", "compress", "--variant", "bogus"],
         "'compress' has no input variant 'bogus'"),
        (["--workload", "gen-s7-n48-t120-r800-b150", "--variant", "train"],
         "has no input variant 'train'"),
        (["{missing}"], "cannot read .*missing.s: No such file"),
        (["{bad}"], "bad.s: line 1: unknown mnemonic 'bogus'"),
    ], ids=["variant", "generated-variant", "missing-file", "bad-assembly"])
    def test_bad_input_exits_with_message(self, tmp_path, argv, message):
        bad = tmp_path / "bad.s"
        bad.write_text("main: bogus $t0\n")
        argv = [arg.format(missing=tmp_path / "missing.s", bad=bad)
                for arg in argv]
        with pytest.raises(SystemExit, match=message):
            main(argv)

    @pytest.mark.parametrize("flags, message", [
        (["--instructions", "100", "--max-cycles", "2000"],
         "base: fetch ran off the program at 0x1004"),
        (["--skip", "5"], "base: warm-up ran off program at 0x1004"),
    ], ids=["timing-run", "warm-up"])
    def test_running_off_the_program_exits_with_message(self, tmp_path,
                                                         flags, message):
        source = tmp_path / "nop.s"
        source.write_text("main: nop\n")
        with pytest.raises(SystemExit, match=message):
            main([str(source)] + flags)
