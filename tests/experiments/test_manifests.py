"""Acceptance tests for sweep run manifests and sweep telemetry.

The provenance layer must satisfy two contracts at once:

* every simulated pair of a ``jobs=2`` sweep gets a valid run manifest
  whose content digests (config, program, workload source) match the
  cache key of the result it describes, and
* nothing about manifests or telemetry may violate the determinism
  contract — the top-level result cache stays exactly as a
  manifest-less sweep would leave it, and capturing telemetry never
  invalidates cached results.
"""

from repro.experiments import ExperimentRunner
from repro.experiments.configs import BASE, IR_EARLY
from repro.telemetry import config_digest, load_manifests, load_timeseries
from repro.workloads import get_workload

INSTRUCTIONS = 1_000
MAX_CYCLES = 60_000

PAIRS = [("m88ksim", BASE), ("m88ksim", IR_EARLY), ("compress", BASE)]


def make_runner(cache_dir, **overrides):
    settings = {"max_instructions": INSTRUCTIONS, "max_cycles": MAX_CYCLES,
                "cache_dir": cache_dir, "quiet": True}
    settings.update(overrides)
    return ExperimentRunner(**settings)


def run_manifests(cache_dir):
    return [m for m in load_manifests(cache_dir / "manifests")
            if m["kind"] == "run"]


def sweep_manifests(cache_dir):
    return [m for m in load_manifests(cache_dir / "manifests")
            if m["kind"] == "sweep"]


class TestRunManifests:
    def test_parallel_sweep_writes_valid_manifest_per_run(self, tmp_path):
        runner = make_runner(tmp_path, jobs=2)
        results = runner.run_many(PAIRS)
        manifests = {m["cache_key"]: m for m in run_manifests(tmp_path)}
        assert len(manifests) == len(PAIRS)
        for workload, config in PAIRS:
            key = runner._key(get_workload(workload), config)
            manifest = manifests[key]
            # The content digests must describe exactly what the cache
            # key addresses.
            assert manifest["config_digest"] == config_digest(config)
            assert manifest["program_digest"] == \
                runner._program(get_workload(workload)).canonical_digest()
            assert key.endswith(manifest["source_sha12"])
            assert manifest["workload"] == workload
            assert manifest["config_name"] == config.name
            assert manifest["max_instructions"] == INSTRUCTIONS
            assert manifest["cache_hit"] is False
            assert manifest["checkpoint"] in ("captured", "disk", "memo")
            stats = results[(workload, config.name)]
            assert manifest["stats"]["committed"] == stats.committed
            assert manifest["stats"]["cycles"] == stats.cycles
            assert (tmp_path / f"{key}.json").is_file()

    def test_manifests_stay_out_of_the_result_cache(self, tmp_path):
        """The determinism contract covers top-level *.json bytes; the
        host/wallclock-bearing manifests must live below it."""
        plain_dir = tmp_path / "plain"
        manifest_dir = tmp_path / "with"
        make_runner(plain_dir, jobs=1, manifests=False).run_many(PAIRS)
        make_runner(manifest_dir, jobs=2).run_many(PAIRS)
        assert sorted(p.name for p in plain_dir.glob("*.json")) \
            == sorted(p.name for p in manifest_dir.glob("*.json"))
        assert not (plain_dir / "manifests").exists()

    def test_cached_runs_backfilled_as_cache_hits(self, tmp_path):
        make_runner(tmp_path, jobs=2).run_many(PAIRS)
        for manifest in run_manifests(tmp_path):
            (tmp_path / "manifests"
             / f"{manifest['cache_key']}.json").unlink()
        # Fresh runner, warm cache: nothing simulates, but provenance is
        # reconstructed for the cache hits.
        make_runner(tmp_path, jobs=2).run_many(PAIRS)
        manifests = run_manifests(tmp_path)
        assert len(manifests) == len(PAIRS)
        assert all(m["cache_hit"] is True for m in manifests)
        assert all(m["checkpoint"] == "cached" for m in manifests)
        assert all(m["wallclock_seconds"] is None for m in manifests)

    def test_existing_manifests_not_rewritten_on_cache_hit(self, tmp_path):
        make_runner(tmp_path, jobs=2).run_many(PAIRS)
        stamps = {m["cache_key"]: m["created_unix"]
                  for m in run_manifests(tmp_path)}
        make_runner(tmp_path, jobs=2).run_many(PAIRS)
        assert {m["cache_key"]: m["created_unix"]
                for m in run_manifests(tmp_path)} == stamps

    def test_no_manifests_opt_out(self, tmp_path):
        make_runner(tmp_path, jobs=2, manifests=False).run_many(PAIRS)
        assert not (tmp_path / "manifests").exists()


class TestSweepManifests:
    def test_sweep_manifest_summarises_the_fanout(self, tmp_path):
        runner = make_runner(tmp_path, jobs=2)
        runner.run_many(PAIRS)
        [sweep] = sweep_manifests(tmp_path)
        keys = {runner._key(get_workload(w), c) for w, c in PAIRS}
        assert set(sweep["runs"]) == keys
        assert sweep["total_runs"] == len(PAIRS)
        assert sweep["simulated"] == len(PAIRS)
        assert sweep["cached"] == 0
        assert sweep["jobs"] == 2
        assert sweep["wallclock_seconds"] > 0

    def test_all_cached_sweep_records_zero_simulated(self, tmp_path):
        """A sweep that simulates nothing writes no sweep manifest.

        Same run set, same digest: an all-cached sweep (a CLI's prefetch
        followed by an experiment's own run_many) must not overwrite
        the record of the sweep that did the work.
        """
        make_runner(tmp_path, jobs=2).run_many(PAIRS)
        [before] = sweep_manifests(tmp_path)
        make_runner(tmp_path, jobs=2).run_many(PAIRS)
        [sweep] = sweep_manifests(tmp_path)
        assert sweep == before
        assert sweep["simulated"] == len(PAIRS)
        assert sweep["jobs"] == 2


class TestSweepTelemetry:
    def test_telemetry_captured_per_simulated_run(self, tmp_path):
        telemetry = tmp_path / "telemetry"
        runner = make_runner(tmp_path, jobs=2, telemetry_dir=telemetry,
                             telemetry_interval=200)
        results = runner.run_many(PAIRS)
        for workload, config in PAIRS:
            key = runner._key(get_workload(workload), config)
            series = load_timeseries(telemetry / f"{key}.jsonl")
            assert series.context["cache_key"] == key
            assert series.context["workload"] == workload
            assert series.context["config"] == config.name
            assert sum(series.column("committed")) \
                == results[(workload, config.name)].committed

    def test_telemetry_capture_does_not_invalidate_cache(self, tmp_path):
        make_runner(tmp_path, jobs=2).run_many(PAIRS)
        stamps = {p.name: p.stat().st_mtime_ns
                  for p in tmp_path.glob("*.json")}
        telemetry = tmp_path / "telemetry"
        make_runner(tmp_path, jobs=2,
                    telemetry_dir=telemetry).run_many(PAIRS)
        # Cache keys are unchanged by telemetry: everything was already
        # cached, so nothing re-simulated and no time-series appeared.
        assert {p.name: p.stat().st_mtime_ns
                for p in tmp_path.glob("*.json")} == stamps
        assert not telemetry.exists()

    def test_telemetry_off_by_default(self, tmp_path):
        make_runner(tmp_path, jobs=2).run_many(PAIRS)
        assert not (tmp_path / "telemetry").exists()
