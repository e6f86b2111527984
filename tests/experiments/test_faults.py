"""A cell that raises costs that cell, not the sweep.

``run_many`` runs every other cell to completion and stores it, then
raises an instance of the failed cell's exception class naming it, so a
rerun simulates only the failed cell.  The fault is a class-level wrap
of ``ExperimentRunner._simulate``; pool workers fork, so they inherit
it.
"""

import pytest

from repro.experiments import ExperimentRunner
from repro.experiments import cli
from repro.experiments.configs import BASE, IR_EARLY

PAIRS = [(workload, config) for workload in ("go", "compress")
         for config in (BASE, IR_EARLY)]


def make_runner(cache_dir, jobs):
    return ExperimentRunner(max_instructions=500, max_cycles=60_000,
                            cache_dir=cache_dir, quiet=True, jobs=jobs,
                            mp_start_method="fork")


@pytest.fixture
def go_base_raises(monkeypatch):
    simulate = ExperimentRunner._simulate

    def faulty(self, spec, workload, config, key, phases):
        if (workload, config.name) == ("go", BASE.name):
            raise RuntimeError("injected fault")
        return simulate(self, spec, workload, config, key, phases)

    monkeypatch.setattr(ExperimentRunner, "_simulate", faulty)
    return monkeypatch


@pytest.mark.parametrize("jobs", [1, 2])
def test_failed_cell_spares_the_others(tmp_path, go_base_raises, jobs):
    with pytest.raises(RuntimeError, match="injected fault") as excinfo:
        make_runner(tmp_path, jobs).run_many(PAIRS)
    assert "1 of 4 cells failed" in str(excinfo.value)
    assert "go / base" in str(excinfo.value)
    assert excinfo.value.failed_cells == [("go", BASE.name)]
    assert len(list(tmp_path.glob("*.json"))) == 3

    go_base_raises.undo()
    simulated = []
    simulate = ExperimentRunner._simulate

    def counted(self, spec, workload, config, key, phases):
        simulated.append((workload, config.name))
        return simulate(self, spec, workload, config, key, phases)

    go_base_raises.setattr(ExperimentRunner, "_simulate", counted)
    results = make_runner(tmp_path, 1).run_many(PAIRS)
    assert simulated == [("go", BASE.name)]
    assert len(results) == 4


def test_cli_names_failed_cells_and_exits_1(tmp_path, go_base_raises,
                                            capsys):
    assert cli.main(["table2", "--instructions", "300", "--jobs", "1",
                     "--cache-dir", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.splitlines() == [
        "repro-experiment: 1 of 7 cells failed:",
        "  go / base: RuntimeError('injected fault')"]
