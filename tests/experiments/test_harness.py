"""Integration tests for the experiment runner, caching, and reports.

These run tiny windows (2K instructions) on a subset of workloads so the
whole file stays fast while covering every experiment module end to end.
"""

import json

import pytest

from repro.experiments import ExperimentRunner
from repro.experiments import (
    figure3,
    figure4,
    figure5,
    figure6,
    figure7,
    figure8,
    figure9,
    figure10,
    table2,
    table3,
    table4,
    table5,
    table6,
)
from repro.experiments.cli import EXPERIMENTS, PAIRS, build_parser, main
from repro.experiments.configs import BASE, IR_EARLY, vp_magic
from repro.metrics.report import Report
from repro.metrics.stats import SimStats
from repro.uarch.config import base_config
from repro.workloads import workload_names

#: A base machine with a different body under the stock name "base".
NARROW = base_config(rob_size=8, issue_width=1)


@pytest.fixture(scope="module")
def runner(tmp_path_factory):
    cache = tmp_path_factory.mktemp("results")
    return ExperimentRunner(max_instructions=2_000, max_cycles=80_000,
                            cache_dir=cache, quiet=True)


class TestRunnerCaching:
    def test_run_produces_stats(self, runner):
        stats = runner.run("m88ksim", BASE)
        assert stats.committed > 0
        assert stats.workload_name == "m88ksim"

    def test_disk_cache_round_trip(self, runner):
        first = runner.run("m88ksim", BASE)
        runner._memory_cache.clear()
        second = runner.run("m88ksim", BASE)
        assert first.cycles == second.cycles

    def test_cache_files_written(self, runner):
        runner.run("m88ksim", BASE)
        files = list(runner.cache_dir.glob("*.json"))
        assert files
        payload = json.loads(files[0].read_text())
        assert "cycles" in payload

    def test_distinct_configs_distinct_results(self, runner):
        base = runner.run("m88ksim", BASE)
        reuse = runner.run("m88ksim", IR_EARLY)
        assert reuse.config_name != base.config_name

    def test_same_name_different_config_is_another_cell(self, runner):
        stock = runner.run("compress", base_config())
        narrow = runner.run("compress", NARROW)
        fresh = ExperimentRunner(max_instructions=2_000, max_cycles=80_000,
                                 quiet=True).run("compress", NARROW)
        assert narrow.cycles == fresh.cycles != stock.cycles

    def test_disk_cache_keys_on_config_contents(self, tmp_path):
        def fresh_runner():
            return ExperimentRunner(max_instructions=2_000,
                                    max_cycles=80_000, cache_dir=tmp_path,
                                    quiet=True)
        stock = fresh_runner().run("compress", base_config())
        narrow = fresh_runner().run("compress", NARROW)
        assert narrow.cycles != stock.cycles
        assert len(list(tmp_path.glob("*.json"))) == 2

    def test_run_many_rejects_two_configs_with_one_name(self, runner):
        with pytest.raises(ValueError, match="named 'base'"):
            runner.run_many([("compress", base_config()),
                             ("go", NARROW)])

    def test_redundancy_run(self, runner):
        analyzer = runner.run_redundancy("m88ksim", warmup=2_000,
                                         window=5_000)
        assert analyzer.classifier.counts.producing > 0


ALL_MODULES = [table2, table3, table4, table5, table6,
               figure3, figure5, figure8, figure9, figure10]


class TestExperimentModules:
    @pytest.mark.parametrize("module", ALL_MODULES,
                             ids=lambda m: m.__name__.split(".")[-1])
    def test_module_produces_full_report(self, runner, module):
        report = module.run(runner)
        assert isinstance(report, Report)
        assert len(report.rows) >= len(workload_names())
        text = report.render()
        for name in workload_names():
            assert name in text

    def test_figure4_both_parts(self, runner):
        reports = figure4.run_both(runner)
        assert len(reports) == 2
        assert "0-cycle" in reports[0].title
        assert "1-cycle" in reports[1].title

    def test_figure6_has_hm_row(self, runner):
        report = figure6.run(runner, 0)
        assert report.rows[-1][0] == "HM"

    def test_figure7_omits_ir_column(self, runner):
        report = figure7.run(runner, 0)
        assert "reuse-n+d" not in report.headers

    def test_speedups_are_positive(self, runner):
        report = figure6.run(runner, 0)
        for row in report.rows:
            for value in row[1:]:
                assert value > 0


class TestCli:
    def test_parser_accepts_all_experiments(self):
        parser = build_parser()
        for name in EXPERIMENTS:
            args = parser.parse_args([name])
            assert args.experiment == name

    def test_main_runs_figure8(self, tmp_path, capsys, monkeypatch):
        # figure8 uses only the functional simulator: fast enough for CI
        monkeypatch.setattr(
            "repro.experiments.cli.default_runner",
            lambda **kw: ExperimentRunner(max_instructions=1_000,
                                          cache_dir=tmp_path, quiet=True))
        assert main(["figure8"]) == 0
        output = capsys.readouterr().out
        assert "Figure 8" in output

    def test_non_positive_instructions_rejected(self, capsys):
        for flag, value in (("--instructions", "0"), ("--jobs", "0"),
                            ("--jobs", "-1"),
                            ("--telemetry-interval", "0"),
                            ("--telemetry-interval", "-10")):
            with pytest.raises(SystemExit) as excinfo:
                main(["table3", flag, value, "--no-cache"])
            assert excinfo.value.code == 2
            assert f"{flag} must be positive, got {value}" \
                in capsys.readouterr().err


class RecordingRunner(ExperimentRunner):
    """Simulates nothing: :meth:`run` records each cell a report reads
    and returns fixed stats; :meth:`run_many` returns the same stats
    without recording them, so a prefetch is not a read."""

    STATS = SimStats(cycles=1_000, committed=800)

    def __init__(self):
        super().__init__(quiet=True)
        self.read = set()

    def run(self, workload, config):
        self.read.add((workload, config.name))
        return self.STATS

    def run_many(self, pairs, jobs=None):
        return {(workload, config.name): self.STATS
                for workload, config in pairs}


class TestDeclaredCells:
    @pytest.mark.parametrize(
        "name", sorted(name for name, pairs in PAIRS.items() if pairs()))
    def test_reports_read_exactly_the_declared_cells(self, name):
        """``pairs()`` is what a multi-experiment sweep simulates up
        front: a declared cell no report reads is simulated for
        nothing, and a read cell it misses runs outside the pool."""
        runner = RecordingRunner()
        EXPERIMENTS[name](runner)
        declared = {(workload, config.name)
                    for workload, config in PAIRS[name]()}
        assert runner.read == declared


class TestAblations:
    def test_hybrid_report(self, runner):
        from repro.experiments import ablations
        report = ablations.hybrid(runner, workloads=["m88ksim"])
        assert report.rows[-1][0] == "HM"
        assert "hybrid speedup" in report.headers

    def test_predictors_report(self, runner):
        from repro.experiments import ablations
        report = ablations.predictors(runner, workloads=["m88ksim"])
        assert report.headers == ["bench", "VP_Magic", "VP_LVP",
                                  "VP_Stride", "stride correct %"]
        assert [row[0] for row in report.rows] == ["m88ksim", "HM"]
        for row in report.rows:
            assert all(value > 0 for value in row[1:4])

    def test_chaining_report(self, runner):
        from repro.experiments import ablations
        report = ablations.chaining(runner, workloads=["m88ksim"])
        assert report.headers == ["bench", "S_n speedup", "S_n+d speedup",
                                  "S_n reuse %", "S_n+d reuse %"]
        assert [row[0] for row in report.rows] == ["m88ksim"]
        assert all(value > 0 for value in report.rows[0][1:3])

    def test_storage_sweep(self, runner):
        from repro.experiments import ablations
        report = ablations.storage(runner, workloads=["m88ksim"],
                                   scales=(1, 16))
        assert len(report.rows) == 1
        for value in report.rows[0][1:]:
            assert value > 0

    def test_instances_sweep(self, runner):
        from repro.experiments import ablations
        report = ablations.instances(runner, workloads=["m88ksim"],
                                     ways=(1, 4))
        assert len(report.rows) == 1

    def test_cli_knows_ablations(self):
        from repro.experiments.cli import EXPERIMENTS
        assert "ablations" in EXPERIMENTS

    def test_upper_bound_report(self, runner):
        from repro.experiments import ablations
        report = ablations.upper_bound(runner, workloads=["m88ksim"])
        magic, perfect = report.rows[0][1], report.rows[0][2]
        assert perfect >= magic * 0.98  # oracle bounds realistic schemes

    def test_confidence_sweep(self, runner):
        from repro.experiments import ablations
        report = ablations.confidence(runner, workloads=["m88ksim"],
                                      thresholds=(1, 3))
        assert len(report.rows) == 1

    def test_sensitivity_report(self, runner):
        from repro.experiments import sensitivity
        report = sensitivity.run(runner, windows=(1_000, 2_000),
                                 workloads=["m88ksim"])
        assert len(report.rows) == 1
        drift = report.rows[0][-1]
        assert drift >= 0.0

    def test_sensitivity_keeps_runner_settings(self, tmp_path,
                                               monkeypatch):
        # The per-window runners must inherit every setting of the
        # runner they were given, not just the window budgets.
        from repro.experiments import sensitivity
        sized = []

        class Recording(ExperimentRunner):
            def __init__(self, **settings):
                super().__init__(**settings)
                sized.append(self)

        monkeypatch.setattr(sensitivity, "ExperimentRunner", Recording)
        parent = ExperimentRunner(max_instructions=2_000, max_cycles=80_000,
                                  cache_dir=tmp_path, quiet=True, jobs=1,
                                  verify=True, manifests=False)
        sensitivity.run(parent, windows=(500, 1_000),
                        workloads=["compress"])
        assert [r.max_instructions for r in sized] == [500, 1_000]
        assert all(r.verify for r in sized)
        assert not (tmp_path / "manifests").exists()

    def test_sensitivity_in_cli(self):
        from repro.experiments.cli import EXPERIMENTS
        assert "sensitivity" in EXPERIMENTS

    def test_breakdown_experiment(self, runner):
        from repro.experiments import breakdown_experiment
        report = breakdown_experiment.run(runner, workloads=["m88ksim"])
        assert len(report.rows) == 1
        assert "branch IR/VP" in report.headers

    def test_breakdown_uses_the_runner_settings(self, tmp_path,
                                                monkeypatch):
        from repro.experiments import breakdown_experiment
        from repro.uarch.core import OutOfOrderCore
        verified = []
        init = OutOfOrderCore.__init__

        def recording_init(core, config, program):
            verified.append(config.verify_commits)
            init(core, config, program)

        monkeypatch.setattr(OutOfOrderCore, "__init__", recording_init)
        runner = ExperimentRunner(max_instructions=2_000,
                                  max_cycles=80_000, cache_dir=tmp_path,
                                  quiet=True, verify=True)
        breakdown_experiment.run(runner, workloads=["m88ksim"])
        assert verified == [True, True]
        # Both cores start from the one warm state in the store.
        assert len(runner.checkpoints) == 1

    def test_breakdown_in_cli(self):
        from repro.experiments.cli import EXPERIMENTS
        assert "breakdown" in EXPERIMENTS
