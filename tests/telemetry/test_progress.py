"""Unit tests for ``repro-top`` (repro.telemetry.progress).

Covers the fold of a result cache's run and sweep manifests into a
snapshot (per-worker lines, the newest sweep, ETA), its rendering and
the ``repro-top`` entry point.  The manifests are built with the same
``run_manifest``/``sweep_manifest`` functions the runner uses.
"""

import pytest

from repro.experiments.configs import BASE
from repro.telemetry.manifest import (
    run_manifest,
    sweep_manifest,
    write_manifest,
)
from repro.telemetry.progress import (
    SweepSnapshot,
    follow,
    main,
    render_snapshot,
)

KEYS = [f"v5-compress-base-{n}" for n in range(4)]


def write_sweep(results, keys, *, simulated, jobs=2, wallclock=None,
                created=None):
    manifest = sweep_manifest(run_keys=keys, simulated=simulated,
                              cached=len(keys) - simulated, jobs=jobs,
                              wallclock_seconds=wallclock)
    if created is not None:
        manifest["created_unix"] = created
    write_manifest(results / "manifests"
                   / f"sweep-{manifest['sweep_digest']}.json", manifest)
    return manifest


def write_run(results, key, *, pid, created, cache_hit=False,
              checkpoint="captured"):
    """A cell's run manifest, stamped as if *pid* wrote it at
    *created*, plus its result file."""
    manifest = run_manifest(
        cache_key=key, workload="compress", config=BASE,
        program_digest="0" * 16, source_sha12="0" * 12,
        max_instructions=1000, max_cycles=60000, cache_hit=cache_hit,
        checkpoint=checkpoint,
        wallclock_seconds=None if cache_hit else 0.2)
    manifest.update(pid=pid, created_unix=created)
    write_manifest(results / "manifests" / f"{key}.json", manifest)
    (results / f"{key}.json").write_text("{}")


def running_sweep(results, started=1000.0):
    """Four cells: one pre-cached (its run manifest backfilled just
    before the sweep manifest), two simulated by two workers."""
    write_run(results, KEYS[0], pid=1, created=started - 2,
              cache_hit=True, checkpoint="cached")
    write_sweep(results, KEYS, simulated=3, created=started)
    write_run(results, KEYS[1], pid=11, created=started + 2)
    write_run(results, KEYS[2], pid=12, created=started + 4,
              checkpoint="disk")


class TestSnapshot:
    def test_folds_per_worker_counters(self, tmp_path):
        running_sweep(tmp_path)
        snap = SweepSnapshot.from_manifests(tmp_path)
        assert snap.total == 4 and snap.cached == 1 and snap.jobs == 2
        assert snap.done == 3
        assert not snap.finished
        assert set(snap.workers) == {11, 12}
        assert snap.workers[11] == {"done": 1, "checkpoint_hits": 0,
                                    "checkpoint_misses": 1,
                                    "last_unix": 1002.0}
        assert snap.workers[12]["checkpoint_hits"] == 1
        assert snap.elapsed(now=1010.0) == 10.0
        # Two simulated cells in 10 s, one to go.
        assert snap.eta(now=1010.0) == 5.0

    def test_cache_hits_and_older_runs_are_not_worker_cells(self,
                                                            tmp_path):
        running_sweep(tmp_path)
        # A backfilled cache hit stamped inside the sweep's window, and
        # an earlier sweep's record of a cell this sweep re-simulates.
        write_run(tmp_path, KEYS[0], pid=13, created=1005.0,
                  cache_hit=True, checkpoint="cached")
        write_run(tmp_path, KEYS[3], pid=14, created=900.0)
        snap = SweepSnapshot.from_manifests(tmp_path)
        assert set(snap.workers) == {11, 12}
        assert sum(w["done"] for w in snap.workers.values()) == 2

    def test_only_the_last_sweep_counts(self, tmp_path):
        running_sweep(tmp_path)
        write_sweep(tmp_path, KEYS[:2], simulated=2, created=999.0,
                    wallclock=5.0)
        write_sweep(tmp_path, ["v5-go-base-0", "v5-go-base-1"],
                    simulated=2, created=2000.0)
        snap = SweepSnapshot.from_manifests(tmp_path)
        assert snap.total == 2 and snap.done == 0
        assert snap.workers == {}
        assert not snap.finished and snap.eta(now=2010.0) is None

    def test_finished_sweep_has_no_eta(self, tmp_path):
        running_sweep(tmp_path)
        write_sweep(tmp_path, KEYS, simulated=3, created=1020.0,
                    wallclock=25.0)
        snap = SweepSnapshot.from_manifests(tmp_path)
        assert snap.finished
        assert snap.elapsed(now=5000.0) == 25.0
        assert snap.eta(now=5000.0) is None
        # The window reaches back past the backfilled cache hit to the
        # sweep's start, and still holds only the simulated cells.
        assert snap.started_unix == 995.0
        assert set(snap.workers) == {11, 12}

    def test_render_lists_workers(self, tmp_path):
        running_sweep(tmp_path)
        text = render_snapshot(SweepSnapshot.from_manifests(tmp_path),
                               now=1010.0)
        header, columns, *workers = text.splitlines()
        assert header == ("sweep: 3/4 cells  (1 pre-cached)  jobs=2  "
                          "elapsed 10.0s  eta ~5s")
        assert columns.split() == ["worker", "done", "ckpt", "h/m", "age"]
        assert [line.split() for line in workers] == [
            ["11", "1", "0/1", "8.0s"], ["12", "1", "1/0", "6.0s"]]

    def test_render_empty(self, tmp_path):
        assert render_snapshot(SweepSnapshot()) \
            == "no sweep manifest recorded yet"
        assert render_snapshot(SweepSnapshot.from_manifests(tmp_path)) \
            == "no sweep manifest recorded yet"


class TestCli:
    def test_main_once_renders_snapshot(self, tmp_path, capsys):
        write_sweep(tmp_path, KEYS[:1], simulated=1)
        assert main([str(tmp_path), "--once"]) == 0
        out = capsys.readouterr().out
        assert "0/1 cells" in out and "[running]" in out

    @pytest.mark.parametrize("interval", ["0", "-1"])
    def test_non_positive_interval_rejected(self, tmp_path, interval,
                                            capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([str(tmp_path), "--interval", interval])
        assert excinfo.value.code == 2
        assert "--interval must be positive" in capsys.readouterr().err

    def test_follow_exits_when_sweep_done(self, tmp_path):
        write_sweep(tmp_path, KEYS[:1], simulated=1, wallclock=0.1)
        (tmp_path / f"{KEYS[0]}.json").write_text("{}")
        shown = []
        assert follow(tmp_path, interval=0.01, out=shown.append) == 0
        assert shown == ["sweep: 1/1 cells  jobs=2  elapsed 0.1s  [done]"]
