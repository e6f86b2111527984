"""Tests for config digests and run/sweep provenance manifests."""

import dataclasses
import json

from repro.telemetry.manifest import (
    MANIFEST_FORMAT,
    config_digest,
    load_manifests,
    run_manifest,
    sweep_manifest,
    write_manifest,
)
from repro.uarch.config import base_config, ir_config


class TestConfigDigest:
    def test_stable_across_identical_constructions(self):
        assert config_digest(base_config()) == config_digest(base_config())

    def test_sensitive_to_any_field(self):
        tweaked = dataclasses.replace(base_config(), rob_size=1)
        assert config_digest(tweaked) != config_digest(base_config())

    def test_differs_between_machine_models(self):
        assert config_digest(base_config()) != config_digest(ir_config())

    def test_shape(self):
        digest = config_digest(base_config())
        assert len(digest) == 16
        int(digest, 16)  # hex


def sample_run_manifest(**overrides):
    kwargs = dict(cache_key="v4-compress-base-i1000-c0-abcdefabcdef",
                  workload="compress", config=base_config(),
                  program_digest="deadbeef", source_sha12="abcdefabcdef",
                  max_instructions=1000, max_cycles=0, cache_hit=False,
                  checkpoint="captured", wallclock_seconds=1.23456)
    kwargs.update(overrides)
    return run_manifest(**kwargs)


class TestRunManifest:
    def test_required_fields(self):
        manifest = sample_run_manifest()
        assert manifest["format"] == MANIFEST_FORMAT
        assert manifest["kind"] == "run"
        assert manifest["config_digest"] == config_digest(base_config())
        assert manifest["wallclock_seconds"] == 1.235
        for field in ("host", "python", "package_version", "created_unix"):
            assert field in manifest

    def test_stats_block_optional(self):
        assert "stats" not in sample_run_manifest()

        class FakeStats:
            cycles, committed, ipc = 100, 250, 2.5

        manifest = sample_run_manifest(stats=FakeStats())
        assert manifest["stats"] == {"cycles": 100, "committed": 250,
                                     "ipc": 2.5}

    def test_job_timing_fields_optional(self):
        manifest = sample_run_manifest()
        for field in ("phase_seconds", "cpu_user_s", "cpu_sys_s",
                      "rss_peak_kb"):
            assert field not in manifest

        manifest = sample_run_manifest(
            phase_seconds={"simulate": 1.23456789},
            usage={"cpu_user_s": 0.5, "cpu_sys_s": 0.25,
                   "rss_peak_kb": 2048})
        assert manifest["phase_seconds"] == {"simulate": 1.234568}
        assert manifest["cpu_user_s"] == 0.5
        assert manifest["rss_peak_kb"] == 2048

    def test_is_json_serializable(self):
        json.dumps(sample_run_manifest())


class TestSweepManifest:
    def test_digest_is_order_independent(self):
        a = sweep_manifest(run_keys=["k1", "k2"], simulated=1, cached=1,
                           jobs=2, wallclock_seconds=1.0)
        b = sweep_manifest(run_keys=["k2", "k1"], simulated=2, cached=0,
                           jobs=1, wallclock_seconds=9.0)
        assert a["sweep_digest"] == b["sweep_digest"]
        assert a["runs"] == b["runs"] == ["k1", "k2"]
        assert a["total_runs"] == 2


class TestReadWrite:
    def test_round_trip(self, tmp_path):
        manifest = sample_run_manifest()
        write_manifest(tmp_path / "run.json", manifest)
        loaded = load_manifests(tmp_path)
        assert len(loaded) == 1
        assert loaded[0]["cache_key"] == manifest["cache_key"]
        assert loaded[0]["_path"].endswith("run.json")

    def test_foreign_and_corrupt_files_skipped(self, tmp_path):
        write_manifest(tmp_path / "good.json", sample_run_manifest())
        (tmp_path / "foreign.json").write_text('{"format": "other"}')
        (tmp_path / "corrupt.json").write_text("{nope")
        loaded = load_manifests(tmp_path)
        assert [m["kind"] for m in loaded] == ["run"]

    def test_missing_directory_is_empty(self, tmp_path):
        assert load_manifests(tmp_path / "nope") == []

    def test_write_creates_parents(self, tmp_path):
        target = tmp_path / "a" / "b" / "m.json"
        write_manifest(target, sample_run_manifest())
        assert target.is_file()
