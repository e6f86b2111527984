"""Acceptance tests for sweep observability (job timing + progress).

The observatory must satisfy two contracts at once:

* every simulated cell of a ``jobs=2`` sweep gets one run manifest
  carrying its phase seconds and resource use, which ``repro-report``
  turns into its timing tables and ``repro-top`` folds into a live
  view, from the sweep's start to its end;
* observation changes nothing — the result cache and ``SimStats`` of a
  sweep with a telemetry directory are byte-identical to one without,
  and a runner without a telemetry directory writes none.
"""

import pytest

from repro.experiments import ExperimentRunner
from repro.experiments.configs import BASE, IR_EARLY
from repro.telemetry import load_manifests
from repro.telemetry.manifest import PHASE_ORDER
from repro.telemetry.progress import SweepSnapshot, render_snapshot
from repro.workloads import get_workload

INSTRUCTIONS = 1_000
MAX_CYCLES = 60_000

PAIRS = [("m88ksim", BASE), ("m88ksim", IR_EARLY), ("compress", BASE)]


def make_runner(cache_dir, **overrides):
    settings = {"max_instructions": INSTRUCTIONS, "max_cycles": MAX_CYCLES,
                "cache_dir": cache_dir, "quiet": True,
                "telemetry_dir": cache_dir / "telemetry"}
    settings.update(overrides)
    return ExperimentRunner(**settings)


def run_keys(runner):
    return {runner._key(get_workload(w), c): (w, c.name)
            for w, c in PAIRS}


class TestSpanTree:
    """Sweep -> job -> phase: one run manifest per simulated cell, with
    the cell's phase seconds and resource use."""

    def test_parallel_sweep_covers_every_cell(self, tmp_path):
        runner = make_runner(tmp_path, jobs=2)
        runner.run_many(PAIRS)
        runs = [m for m in load_manifests(tmp_path / "manifests")
                if m["kind"] == "run"]
        assert {m["cache_key"] for m in runs} == set(run_keys(runner))
        for manifest in runs:
            assert manifest["cache_hit"] is False
            assert manifest["stats"]["committed"] >= INSTRUCTIONS
            phases = manifest["phase_seconds"]
            assert sorted(phases) == sorted(PHASE_ORDER)
            assert all(seconds >= 0 for seconds in phases.values())
            assert phases["simulate"] > 0
            # Resource accounting rides on simulated run manifests.
            assert manifest["rss_peak_kb"] > 0
            assert manifest["cpu_user_s"] >= 0
            assert manifest["cpu_sys_s"] >= 0

    def test_report_renders_tables_without_telemetry_dir(self, tmp_path,
                                                         capsys):
        from repro.metrics.report import main as report_main
        make_runner(tmp_path, jobs=2, telemetry_dir=None).run_many(PAIRS)
        assert not (tmp_path / "telemetry").exists()
        assert report_main([str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "Where did the time go" in out
        assert "Per-cell resources" in out
        for phase in PHASE_ORDER:
            assert phase in out


class TestProgressStream:
    def test_traced_sweep_streams_progress(self, tmp_path):
        # One cell is cached by a manifest-less run, so the sweep
        # backfills its cache-hit run manifest.
        make_runner(tmp_path, jobs=1, manifests=False).run_many(PAIRS[:1])
        make_runner(tmp_path, jobs=2).run_many(PAIRS)
        snap = SweepSnapshot.from_manifests(tmp_path)
        assert snap.done == snap.total == len(PAIRS)
        assert snap.cached == 1 and snap.jobs == 2
        assert snap.finished
        workers = snap.workers.values()
        assert sum(w["done"] for w in workers) == len(PAIRS) - 1
        assert sum(w["checkpoint_hits"] + w["checkpoint_misses"]
                   for w in workers) == len(PAIRS) - 1
        assert f"{len(PAIRS)}/{len(PAIRS)} cells" in \
            render_snapshot(snap)

    def test_first_cell_sees_a_running_sweep(self, tmp_path,
                                             monkeypatch):
        seen = []
        simulate = ExperimentRunner._simulate

        def peek(runner, *args, **kwargs):
            if not seen:
                seen.append((load_manifests(tmp_path / "manifests"),
                             SweepSnapshot.from_manifests(tmp_path)))
            return simulate(runner, *args, **kwargs)

        monkeypatch.setattr(ExperimentRunner, "_simulate", peek)
        make_runner(tmp_path, jobs=1, telemetry_dir=None).run_many(PAIRS)
        manifests, snap = seen[0]
        [sweep] = [m for m in manifests if m["kind"] == "sweep"]
        assert sweep["wallclock_seconds"] is None
        assert (snap.done, snap.total) == (0, len(PAIRS))
        assert not snap.finished
        assert f"0/{len(PAIRS)} cells" in render_snapshot(snap)
        assert SweepSnapshot.from_manifests(tmp_path).finished

    @pytest.mark.parametrize("fault", [KeyboardInterrupt, RuntimeError])
    def test_interrupted_sweep_is_stopped(self, tmp_path, monkeypatch,
                                          fault):
        calls = []
        simulate = ExperimentRunner._simulate

        def second_cell_fails(runner, *args, **kwargs):
            calls.append(args)
            if len(calls) == 2:
                raise fault("injected")
            return simulate(runner, *args, **kwargs)

        monkeypatch.setattr(ExperimentRunner, "_simulate",
                            second_cell_fails)
        with pytest.raises(fault):
            make_runner(tmp_path, jobs=1,
                        telemetry_dir=None).run_many(PAIRS)
        [sweep] = [m for m in load_manifests(tmp_path / "manifests")
                   if m["kind"] == "sweep"]
        assert sweep["wallclock_seconds"] is not None
        text = render_snapshot(SweepSnapshot.from_manifests(tmp_path))
        # An interrupt stops the sweep; a cell that raises costs only
        # that cell, and the sweep runs the others first.
        done = 1 if fault is KeyboardInterrupt else len(PAIRS) - 1
        assert f"{done}/{len(PAIRS)} cells" in text
        assert "[stopped]" in text

    def test_repro_top_once_exits_zero(self, tmp_path, capsys):
        from repro.telemetry.progress import main as top_main
        make_runner(tmp_path, jobs=2).run_many(PAIRS)
        assert top_main([str(tmp_path), "--once"]) == 0
        out = capsys.readouterr().out
        assert f"{len(PAIRS)}/{len(PAIRS)} cells" in out

    def test_report_renders_phase_breakdown(self, tmp_path, capsys):
        from repro.metrics.report import telemetry_dashboard
        make_runner(tmp_path, jobs=2).run_many(PAIRS)
        reports = telemetry_dashboard(tmp_path)
        rendered = "\n".join(r.render() for r in reports)
        assert "Where did the time go" in rendered
        assert "simulate" in rendered
        assert "Per-cell resources" in rendered


def cache_bytes(cache_dir):
    return {p.name: p.read_bytes()
            for p in cache_dir.glob("*.json")}


class TestObservationOnly:
    def test_traced_cache_bytes_identical_to_untraced(self, tmp_path):
        traced_dir = tmp_path / "traced"
        plain_dir = tmp_path / "plain"
        traced = make_runner(traced_dir, jobs=2).run_many(PAIRS)
        plain = make_runner(plain_dir, jobs=2, telemetry_dir=None,
                            manifests=False).run_many(PAIRS)
        assert cache_bytes(traced_dir) == cache_bytes(plain_dir)
        for pair_key, stats in traced.items():
            assert stats.as_dict() == plain[pair_key].as_dict()

    def test_tracing_off_writes_nothing(self, tmp_path):
        runner = make_runner(tmp_path, jobs=2, telemetry_dir=None)
        runner.run_many(PAIRS)
        assert not (tmp_path / "telemetry").exists()
