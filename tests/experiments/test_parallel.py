"""The determinism contract of the parallel experiment fan-out.

Parallelizing an execution-driven simulator is only safe if runs are
bit-identical regardless of scheduling.  These tests pin that contract:

* a ``jobs=N`` sweep leaves a result cache **byte-identical** to a
  ``jobs=1`` sweep (same file names, same bytes),
* the same (workload, config) pair simulated in fresh interpreter
  processes — with different hash seeds — produces identical counters
  (no hidden global state, no dict-order dependence),
* cache entries survive hostile conditions: malformed/truncated JSON is
  discarded and re-simulated, concurrent workers never double-run a key.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.experiments import ExperimentRunner
from repro.experiments.configs import BASE, IR_EARLY, vp_magic
from repro.util.locking import FileLock
from repro.metrics.stats import SimStats
from repro.workloads import get_workload, workload_names

INSTRUCTIONS = 1_000
MAX_CYCLES = 60_000

SRC_DIR = str(Path(__file__).resolve().parents[2] / "src")


def make_runner(cache_dir, **overrides):
    settings = {"max_instructions": INSTRUCTIONS, "max_cycles": MAX_CYCLES,
                "cache_dir": cache_dir, "quiet": True}
    settings.update(overrides)
    return ExperimentRunner(**settings)


def sweep_pairs():
    return [(name, config) for name in workload_names()
            for config in (BASE, IR_EARLY)]


class TestSerialParallelEquivalence:
    """The acceptance bar: jobs=N is indistinguishable from jobs=1."""

    def test_parallel_cache_byte_identical_to_serial(self, tmp_path):
        serial_dir = tmp_path / "serial"
        parallel_dir = tmp_path / "parallel"
        serial = make_runner(serial_dir, jobs=1).run_many(sweep_pairs())
        parallel = make_runner(parallel_dir, jobs=3).run_many(sweep_pairs())

        serial_files = sorted(p.name for p in serial_dir.glob("*.json"))
        parallel_files = sorted(p.name for p in parallel_dir.glob("*.json"))
        assert serial_files == parallel_files
        assert serial_files  # the sweep actually produced entries
        for name in serial_files:
            assert (serial_dir / name).read_bytes() \
                == (parallel_dir / name).read_bytes(), \
                f"cache entry {name} differs between serial and parallel"

        assert set(serial) == set(parallel)
        for key in serial:
            diff = serial[key].diff(parallel[key])
            assert not diff, f"{key} diverged: {diff}"

    def test_run_many_returns_every_pair(self, tmp_path):
        pairs = sweep_pairs()
        results = make_runner(tmp_path, jobs=2).run_many(pairs)
        assert set(results) == {(name, config.name)
                                for name, config in pairs}
        for stats in results.values():
            assert stats.committed > 0

    def test_run_many_deduplicates_pairs(self, tmp_path):
        runner = make_runner(tmp_path, jobs=2)
        duplicated = [("m88ksim", BASE)] * 5 + [("m88ksim", IR_EARLY)]
        results = runner.run_many(duplicated)
        assert set(results) == {("m88ksim", "base"),
                                ("m88ksim", "reuse-n+d")}

    def test_cached_pairs_never_rerun(self, tmp_path):
        runner = make_runner(tmp_path, jobs=2)
        runner.run_many(sweep_pairs())
        stamps = {p.name: p.stat().st_mtime_ns
                  for p in tmp_path.glob("*.json")}
        fresh = make_runner(tmp_path, jobs=2)  # cold memory cache
        fresh.run_many(sweep_pairs())
        assert {p.name: p.stat().st_mtime_ns
                for p in tmp_path.glob("*.json")} == stamps

    def test_run_workloads_parallel_matches_serial(self, tmp_path):
        serial = make_runner(tmp_path / "a", jobs=1).run_workloads(
            BASE, workloads=["go", "compress"])
        parallel = make_runner(tmp_path / "b").run_workloads(
            BASE, workloads=["go", "compress"], jobs=2)
        assert set(serial) == set(parallel) == {"go", "compress"}
        for name in serial:
            assert serial[name].same_counters(parallel[name])

    def test_spawn_start_method(self, tmp_path):
        """The pool initializer must work under spawn too (fresh
        interpreters, nothing inherited)."""
        runner = make_runner(tmp_path, jobs=2, mp_start_method="spawn",
                             max_instructions=500)
        results = runner.run_many([("m88ksim", BASE), ("go", BASE)])
        assert all(stats.committed > 0 for stats in results.values())

    def test_memory_cache_adopted_from_workers(self, tmp_path):
        runner = make_runner(tmp_path, jobs=2)
        results = runner.run_many([("go", BASE), ("go", IR_EARLY)])
        # A follow-up run() must hit the memory cache, not re-simulate:
        # the instances should be the very objects run_many stored.
        assert runner.run("go", BASE) is results[("go", "base")]

    def test_no_cache_dir_still_parallelizes(self):
        runner = make_runner(None, jobs=2)
        results = runner.run_many([("m88ksim", BASE), ("m88ksim", IR_EARLY)])
        assert len(results) == 2
        for stats in results.values():
            assert stats.committed > 0


class TestCheckpointStoreConcurrency:
    """The warm-state checkpoint store is a pure optimisation under
    parallelism: a ``jobs=N`` sweep starting from an *empty* shared
    store must leave a results/ cache byte-identical to the serial
    run's, and the captured ``.warm`` files themselves must be
    byte-identical regardless of which worker won the capture race."""

    def _warm_files(self, cache_dir):
        return sorted((cache_dir / "checkpoints").glob("*.warm"))

    def test_parallel_sweep_from_empty_store_matches_serial(self, tmp_path):
        serial_dir = tmp_path / "serial"
        parallel_dir = tmp_path / "parallel"
        make_runner(serial_dir, jobs=1).run_many(sweep_pairs())
        make_runner(parallel_dir, jobs=4).run_many(sweep_pairs())

        serial_files = sorted(p.name for p in serial_dir.glob("*.json"))
        assert serial_files \
            == sorted(p.name for p in parallel_dir.glob("*.json"))
        assert serial_files
        for name in serial_files:
            assert (serial_dir / name).read_bytes() \
                == (parallel_dir / name).read_bytes(), \
                f"cache entry {name} differs between serial and parallel"

        serial_warm = self._warm_files(serial_dir)
        parallel_warm = self._warm_files(parallel_dir)
        assert [p.name for p in serial_warm] \
            == [p.name for p in parallel_warm]
        assert serial_warm  # the sweep actually captured warm states
        for ours, theirs in zip(serial_warm, parallel_warm):
            assert ours.read_bytes() == theirs.read_bytes(), \
                f"checkpoint {ours.name} differs between serial and parallel"

    def test_store_restored_sweep_matches_in_process_skip(self, tmp_path):
        """Every warm-up of this sweep is read from the on-disk store;
        each cell must equal a core warmed in-process by ``skip``."""
        from repro.functional.checkpoint import CheckpointStore
        from repro.uarch.core import OutOfOrderCore
        store = CheckpointStore(tmp_path / "checkpoints")
        for name in workload_names():
            spec = get_workload(name)
            store.get(spec.program(), spec.skip_instructions)
        restored = make_runner(tmp_path, jobs=2).run_many(sweep_pairs())
        sources = {json.loads(path.read_text())["checkpoint"]
                   for path in (tmp_path / "manifests").glob("v*.json")}
        assert sources <= {"disk", "memo"}, sources
        for name, config in sweep_pairs():
            spec = get_workload(name)
            core = OutOfOrderCore(config, spec.program())
            core.stats.workload_name = name
            core.skip(spec.skip_instructions)
            stats = core.run(max_cycles=MAX_CYCLES,
                             max_instructions=INSTRUCTIONS)
            diff = restored[(name, config.name)].diff(stats)
            assert not diff, f"{name}/{config.name} diverged: {diff}"

    def test_populated_store_is_reused_not_rewritten(self, tmp_path):
        make_runner(tmp_path, jobs=2).run_many(sweep_pairs())
        stamps = {p.name: p.stat().st_mtime_ns
                  for p in self._warm_files(tmp_path)}
        assert stamps
        # Fresh runner + empty result cache: the simulations rerun, but
        # every warm-up must come from the store.
        for entry in tmp_path.glob("*.json"):
            entry.unlink()
        make_runner(tmp_path, jobs=2).run_many(sweep_pairs())
        assert {p.name: p.stat().st_mtime_ns
                for p in self._warm_files(tmp_path)} == stamps


DETERMINISM_SCRIPT = """\
import sys
from repro.experiments import ExperimentRunner
from repro.experiments.configs import IR_EARLY
runner = ExperimentRunner(max_instructions=1000, max_cycles=60000,
                          quiet=True, jobs=1)
stats = runner.run("compress", IR_EARLY)
sys.stdout.write(stats.canonical_json())
"""


class TestFreshProcessDeterminism:
    """Satellite: the same pair simulated twice in fresh interpreters is
    identical — guarding against unseeded ``random``, dict-order
    dependence and any other hidden global state."""

    def _simulate_in_fresh_process(self, hash_seed: str) -> str:
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC_DIR + os.pathsep \
            + env.get("PYTHONPATH", "")
        env["PYTHONHASHSEED"] = hash_seed
        proc = subprocess.run(
            [sys.executable, "-c", DETERMINISM_SCRIPT],
            capture_output=True, text=True, env=env, timeout=300)
        assert proc.returncode == 0, proc.stderr
        return proc.stdout

    def test_fresh_processes_agree_across_hash_seeds(self):
        first = self._simulate_in_fresh_process("0")
        second = self._simulate_in_fresh_process("42")
        assert first == second
        # and the payload is the canonical cache serialization
        stats = SimStats.from_dict(json.loads(first))
        assert stats.canonical_json() == first


class TestCacheIntegrity:
    """Satellite: a damaged cache entry is re-simulated, not fatal."""

    @pytest.fixture
    def runner(self, tmp_path):
        return make_runner(tmp_path, jobs=1)

    def _cache_path(self, runner, workload, config) -> Path:
        key = runner._key(get_workload(workload), config)
        return runner.cache_dir / f"{key}.json"

    @pytest.mark.parametrize("damage", [
        b"", b"{", b"[1, 2, 3]", b'"not a dict"', b"\xff\xfe garbage",
    ], ids=["empty", "truncated", "list", "string", "binary"])
    def test_malformed_cache_entry_is_resimulated(self, runner, damage):
        path = self._cache_path(runner, "m88ksim", BASE)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(damage)
        stats = runner.run("m88ksim", BASE)
        assert stats.committed > 0
        # the entry was healed on disk
        healed = json.loads(path.read_text())
        assert healed["committed"] == stats.committed

    def test_truncating_real_entry_recovers_same_stats(self, runner):
        original = runner.run("m88ksim", BASE)
        path = self._cache_path(runner, "m88ksim", BASE)
        payload = path.read_bytes()
        path.write_bytes(payload[:len(payload) // 2])
        runner._memory_cache.clear()
        recovered = runner.run("m88ksim", BASE)
        assert recovered.same_counters(original)
        assert path.read_bytes() == payload

    def test_stats_survive_canonical_round_trip(self, runner):
        stats = runner.run("go", vp_magic())
        clone = SimStats.from_dict(json.loads(stats.canonical_json()))
        assert clone.same_counters(stats)
        assert clone.exec_count_histogram == stats.exec_count_histogram
        # histogram keys must come back as ints, not JSON strings
        assert all(isinstance(k, int)
                   for k in clone.exec_count_histogram)


class TestFileLock:
    def test_acquire_release_cycle(self, tmp_path):
        lock = FileLock(tmp_path / "k.lock")
        assert not lock.held
        with lock:
            assert lock.held
        assert not lock.held
        with lock:  # reacquirable after release
            assert lock.held

    def test_lock_creates_parent_directory(self, tmp_path):
        lock = FileLock(tmp_path / "deep" / "nested" / "k.lock")
        with lock:
            assert lock.path.exists()

    def test_concurrent_processes_serialize(self, tmp_path):
        """Two processes bump a counter file under the lock 25 times
        each; no increment may be lost."""
        script = f"""\
import sys
sys.path.insert(0, {SRC_DIR!r})
from pathlib import Path
from repro.util.locking import FileLock
counter = Path({str(tmp_path / "counter")!r})
for _ in range(25):
    with FileLock({str(tmp_path / "counter.lock")!r}):
        value = int(counter.read_text()) if counter.exists() else 0
        counter.write_text(str(value + 1))
"""
        procs = [subprocess.Popen([sys.executable, "-c", script])
                 for _ in range(2)]
        for proc in procs:
            assert proc.wait(timeout=120) == 0
        assert (tmp_path / "counter").read_text() == "50"
