"""Shared experiment driver with on-disk result caching and parallel fan-out.

Every table/figure experiment needs timing-simulation results for some
(workload x configuration) pairs; many pairs are shared between
experiments (e.g. the base run is the denominator of every speedup).
:class:`ExperimentRunner` runs each pair once and caches the resulting
:class:`SimStats` as JSON, keyed by workload, configuration name, a
digest of every configuration field, window size and a hash of the
workload source — so editing a workload or a configuration default
invalidates the affected cached results automatically.

Pairs are independent simulations, so :meth:`ExperimentRunner.run_many`
fans the uncached ones out over a ``multiprocessing`` pool (``jobs=1``
keeps the strictly serial path).  Parallelism is only acceptable under
the repository's **determinism contract**: a simulation's result — and
the cached JSON bytes — must be identical no matter which process ran it
or in what order.  Three mechanisms uphold the contract:

* simulations share no state: each worker rebuilds its program from the
  workload registry and runs a private core;
* cache files are written canonically (sorted keys) and atomically
  (:func:`repro.util.locking.atomic_write_text`), so a cache produced by
  a ``jobs=8`` sweep is byte-identical to a serial one;
* a per-key :class:`~repro.util.locking.FileLock` makes
  concurrent workers (or concurrent CLI invocations) cooperate instead
  of double-running or corrupting an entry.

Warm-up skips are shared through the content-addressed checkpoint
store (:mod:`repro.functional.checkpoint`, default
``<cache>/checkpoints``): the first simulation of a workload captures
the post-skip architectural state and every later configuration,
worker process or invocation restores it — byte-identical statistics
either way, under the same locking discipline as the result cache.

``tests/experiments/test_parallel.py`` asserts all of this.

Window sizes default to a laptop-scale budget (the paper simulates 200M
cycles per run on SimpleScalar; a pure-Python model is ~10^4x slower, so
the defaults reproduce shapes rather than absolute magnitudes — see
DESIGN.md section 2).
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import json
import multiprocessing
import os
import time
from pathlib import Path
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Tuple, Union

from ..functional.checkpoint import CheckpointStore
from ..functional.simulator import FunctionalSimulator
from ..isa.program import Program
from ..metrics.stats import SimStats
from ..redundancy.reusability import ReusabilityAnalyzer
from ..telemetry.manifest import config_digest
from ..uarch.config import MachineConfig
from ..workloads import WorkloadSpec, all_workloads, get_workload
from ..util.locking import FileLock, atomic_write_text

if TYPE_CHECKING:
    from ..uarch.core import OutOfOrderCore

try:  # POSIX; without it run manifests carry no CPU/RSS fields.
    import resource
except ImportError:  # pragma: no cover - non-POSIX fallback
    resource = None  # type: ignore[assignment]

CACHE_VERSION = 5

DEFAULT_INSTRUCTIONS = 20_000
DEFAULT_MAX_CYCLES = 600_000

#: A unit of simulation work: (workload name, machine configuration).
Pair = Tuple[str, MachineConfig]


def default_jobs() -> int:
    """Default degree of parallelism: every core the machine has."""
    return os.cpu_count() or 1


class ExperimentRunner:
    """Runs (workload x config) timing simulations with JSON caching.

    ``jobs`` sets the default pool size for :meth:`run_many` /
    :meth:`run_workloads`; ``None`` means "all cores".  ``jobs=1`` never
    spawns a pool.
    """

    def __init__(self,
                 max_instructions: int = DEFAULT_INSTRUCTIONS,
                 max_cycles: int = DEFAULT_MAX_CYCLES,
                 cache_dir: Optional[Path] = None,
                 verify: bool = False,
                 quiet: bool = False,
                 jobs: Optional[int] = None,
                 mp_start_method: Optional[str] = None,
                 checkpoint_dir: Optional[Path] = None,
                 manifests: bool = True,
                 telemetry_dir: Optional[Path] = None,
                 telemetry_interval: Optional[int] = None):
        self.max_instructions = max_instructions
        self.max_cycles = max_cycles
        self.cache_dir = Path(cache_dir) if cache_dir else None
        self.verify = verify
        self.quiet = quiet
        self.jobs = jobs
        self.mp_start_method = mp_start_method
        # Run manifests (repro.telemetry.manifest): one provenance and
        # timing record per simulated pair and per sweep, which is also
        # what repro-top follows live.  They live in a subdirectory of
        # the result cache — the determinism contract covers the
        # top-level *.json result bytes only, and manifests carry
        # wallclock/host facts that legitimately differ between
        # byte-identical sweeps.
        self.manifest_dir = (self.cache_dir / "manifests"
                             if manifests and self.cache_dir is not None
                             else None)
        # Optional per-run interval telemetry: uncached runs attach a
        # TelemetrySink (interval collector only; no event ring buffer)
        # and write <cache key>.jsonl here.  Cache keys are unchanged, so
        # capturing telemetry never invalidates existing results.
        self.telemetry_dir = Path(telemetry_dir) if telemetry_dir else None
        self.telemetry_interval = telemetry_interval
        # Warm-state checkpoints (repro.functional.checkpoint): every
        # configuration of a workload shares one warm-up.  The store
        # defaults to a subdirectory of the result cache so sweeps from
        # any process share it; without a cache_dir it is process-local
        # (memoized captures, nothing persisted).
        if checkpoint_dir is None and self.cache_dir is not None:
            checkpoint_dir = self.cache_dir / "checkpoints"
        self.checkpoint_dir = Path(checkpoint_dir) if checkpoint_dir \
            else None
        self.checkpoints = CheckpointStore(self.checkpoint_dir)
        self._memory_cache: Dict[str, SimStats] = {}
        self._program_cache: Dict[str, Program] = {}

    def settings(self) -> Dict:
        """The constructor keywords that rebuild this runner: pool
        workers and runners at other window sizes start from these."""
        return {
            "max_instructions": self.max_instructions,
            "max_cycles": self.max_cycles,
            "cache_dir": self.cache_dir,
            "verify": self.verify,
            "quiet": self.quiet,
            "jobs": self.jobs,
            "mp_start_method": self.mp_start_method,
            "checkpoint_dir": self.checkpoint_dir,
            "manifests": self.manifest_dir is not None,
            "telemetry_dir": self.telemetry_dir,
            "telemetry_interval": self.telemetry_interval,
        }

    # -- timing runs ------------------------------------------------------------

    def run(self, workload: str, config: MachineConfig) -> SimStats:
        """Simulate *workload* under *config* (cached, lock-protected)."""
        spec = get_workload(workload)
        key = self._key(spec, config)
        cached = self._load(key)
        if cached is not None:
            return cached
        with self._lock(key):
            # Another process may have produced the entry while we waited.
            cached = self._load(key)
            if cached is not None:
                return cached
            return self._job(key, spec, workload, config)

    def _job(self, key: str, spec: WorkloadSpec, workload: str,
             config: MachineConfig) -> SimStats:
        """One uncached cell: simulate and store it, then write its run
        manifest with the phase times and the job's resource use."""
        usage_before = _rusage()
        phases: Dict[str, float] = {}
        started = time.perf_counter()
        stats = self._simulate(spec, workload, config, key, phases)
        elapsed = time.perf_counter() - started
        stored = time.perf_counter()
        self._store(key, stats)
        phases["cache-write"] = time.perf_counter() - stored
        self._write_run_manifest(key, spec, workload, config, stats,
                                 cache_hit=False, wallclock=elapsed,
                                 phases=phases,
                                 usage=_usage_since(usage_before))
        return stats

    def run_many(self, pairs: Iterable[Pair],
                 jobs: Optional[int] = None
                 ) -> Dict[Tuple[str, str], SimStats]:
        """Run every (workload, config) pair, fanning uncached ones out.

        Returns ``{(workload, config.name): SimStats}`` for every input
        pair.  Duplicates are deduplicated by cache key; already-cached
        pairs never reach the pool.  With ``jobs=1`` (or one pending
        pair) this is exactly the serial path.  Raises ``ValueError``
        when two different configurations share a name, since the
        result would keep only one of them.

        With a manifest directory, cache-served pairs that have no run
        manifest get a ``cache_hit`` one first; then, if anything is
        left to simulate, the sweep manifest is written before the
        first simulation (``wallclock_seconds`` null: running) and again
        when the sweep ends, normally or by an exception.  A sweep with
        nothing to simulate writes none, so it never overwrites the
        record of the sweep that did the work.

        A cell that raises costs only that cell: the others still run
        and are stored, then ``run_many`` raises an instance of the first
        failure's class naming every failed ``(workload, config name)``
        in its message and its ``failed_cells``.
        """
        pairs = list(pairs)
        jobs = self._effective_jobs(jobs)
        sweep_started = time.perf_counter()
        unique: Dict[str, Pair] = {}
        named: Dict[str, MachineConfig] = {}
        for workload, config in pairs:
            if named.setdefault(config.name, config) != config:
                raise ValueError(
                    f"two different configurations are named "
                    f"{config.name!r}; run_many keys results by name")
            key = self._key(get_workload(workload), config)
            unique.setdefault(key, (workload, config))

        results: Dict[Tuple[str, str], SimStats] = {}
        pending: List[Tuple[str, str, MachineConfig]] = []
        cached_keys: List[str] = []
        for key, (workload, config) in unique.items():
            cached = self._load(key)
            if cached is not None:
                results[(workload, config.name)] = cached
                cached_keys.append(key)
            else:
                pending.append((key, workload, config))

        # Backfill before the sweep manifest: a reader following the
        # sweep counts only run manifests written after it.
        for key in cached_keys:
            if self.manifest_dir is None \
                    or (self.manifest_dir / f"{key}.json").exists():
                continue
            workload, config = unique[key]
            self._write_run_manifest(
                key, get_workload(workload), workload, config,
                results[(workload, config.name)],
                cache_hit=True, wallclock=None)
        if not pending:
            return results
        total = len(pending)
        workers = min(jobs, total)
        failures: Dict[Tuple[str, str], Exception] = {}
        self._write_sweep_manifest(unique, total, workers, None)
        try:
            if workers <= 1:
                for _, workload, config in pending:
                    try:
                        results[(workload, config.name)] = self.run(
                            workload, config)
                    except Exception as exc:
                        failures[(workload, config.name)] = exc
            else:
                self._fan_out(pending, workers, results, failures)
        finally:
            # An interrupted sweep is over too: without the closing
            # write, repro-top would show it running forever.
            self._write_sweep_manifest(unique, total, workers,
                                       time.perf_counter() - sweep_started)
        if failures:
            failed = [(workload, config.name) for _, workload, config
                      in pending if (workload, config.name) in failures]
            first = failures[failed[0]]
            error = type(first)(f"{len(failed)} of {total} cells failed:"
                                + "".join(f"\n  {w} / {c}: {failures[w, c]!r}"
                                          for w, c in failed))
            error.failed_cells = failed  # type: ignore[attr-defined]
            raise error from first
        return results

    def _fan_out(self, pending: List[Tuple[str, str, MachineConfig]],
                 workers: int,
                 results: Dict[Tuple[str, str], SimStats],
                 failures: Dict[Tuple[str, str], Exception]) -> None:
        """Simulate *pending* on a pool of *workers* processes into
        *results* and this process's memory cache, and the exception
        of each cell that raised into *failures*."""
        ctx = multiprocessing.get_context(self.mp_start_method)
        settings = self.settings()
        # Children are silent (the parent narrates) and serial.
        settings.update(quiet=True, jobs=1)
        total, done = len(pending), 0
        started = time.perf_counter()
        with ctx.Pool(processes=workers,
                      initializer=_worker_init,
                      initargs=(settings,)) as pool:
            tasks = [(workload, config) for _, workload, config in pending]
            for workload, cname, payload, elapsed in \
                    pool.imap_unordered(_worker_run, tasks):
                done += 1
                if isinstance(payload, Exception):
                    failures[(workload, cname)] = payload
                    if not self.quiet:
                        print(f"[run {done}/{total}] {workload} / {cname} "
                              f"failed: {payload!r}", flush=True)
                    continue
                stats = SimStats.from_dict(payload)
                results[(workload, cname)] = stats
                if not self.quiet:
                    print(f"[run {done}/{total}] {workload} / {cname} "
                          f"({stats.committed} insts, {elapsed:.1f}s)",
                          flush=True)
        if not self.quiet:
            print(f"[run] {total} simulations on {workers} workers "
                  f"in {time.perf_counter() - started:.1f}s", flush=True)
        # Adopt the children's results into this process's memory cache.
        for key, workload, config in pending:
            if (workload, config.name) in results:
                self._memory_cache[key] = results[(workload, config.name)]

    def _write_sweep_manifest(self, unique: Dict[str, Pair],
                              simulated: int, jobs: int,
                              wallclock: Optional[float]) -> None:
        """Write the manifest of one :meth:`run_many` sweep (a no-op
        without a manifest directory); *wallclock* ``None`` marks it
        running."""
        if self.manifest_dir is None:
            return
        from ..telemetry.manifest import sweep_manifest, write_manifest
        manifest = sweep_manifest(
            run_keys=list(unique),
            simulated=simulated,
            cached=len(unique) - simulated,
            jobs=jobs,
            wallclock_seconds=wallclock)
        write_manifest(
            self.manifest_dir / f"sweep-{manifest['sweep_digest']}.json",
            manifest)

    def _write_run_manifest(self, key: str, spec: WorkloadSpec,
                            workload: str, config: MachineConfig,
                            stats: SimStats, *, cache_hit: bool,
                            wallclock: Optional[float],
                            phases: Optional[Dict[str, float]] = None,
                            usage: Optional[Dict] = None) -> None:
        if self.manifest_dir is None:
            return
        from ..telemetry.manifest import run_manifest, write_manifest
        checkpoint = "cached" if cache_hit else self.checkpoints.last_source
        manifest = run_manifest(
            cache_key=key,
            workload=workload,
            config=config,
            program_digest=self._program(spec).canonical_digest(),
            source_sha12=self._source_sha(spec),
            max_instructions=self.max_instructions,
            max_cycles=self.max_cycles,
            cache_hit=cache_hit,
            checkpoint=checkpoint,
            wallclock_seconds=wallclock,
            stats=stats,
            phase_seconds=phases,
            usage=usage)
        write_manifest(self.manifest_dir / f"{key}.json", manifest)

    def run_workloads(self, config: MachineConfig,
                      workloads: Optional[Iterable[str]] = None,
                      jobs: Optional[int] = None) -> Dict[str, SimStats]:
        names = list(workloads) if workloads else list(all_workloads())
        results = self.run_many([(name, config) for name in names],
                                jobs=jobs)
        return {name: results[(name, config.name)] for name in names}

    def prefetch(self, pairs: Iterable[Pair],
                 jobs: Optional[int] = None) -> None:
        """Warm the cache for *pairs*; later :meth:`run` calls are hits."""
        self.run_many(pairs, jobs=jobs)

    def warm_core(self, spec: WorkloadSpec, config: MachineConfig,
                  phases: Optional[Dict[str, float]] = None
                  ) -> OutOfOrderCore:
        """A core for one cell of *spec* under *config*, at the end of
        the warm-up skip, ready to run.

        ``verify`` turns on ``verify_commits``; the warm state comes
        from the checkpoint store.  Times the ``decode`` and
        ``warm-restore`` phases into *phases*.
        """
        from ..uarch.core import OutOfOrderCore
        if self.verify:
            config = dataclasses.replace(config, verify_commits=True)
        started = time.perf_counter()
        program = self._program(spec)
        decoded = time.perf_counter()
        core = OutOfOrderCore(config, program)
        restoring = time.perf_counter()
        core.restore_warm(
            self.checkpoints.get(program, spec.skip_instructions))
        if phases is not None:
            phases["decode"] = decoded - started
            phases["warm-restore"] = time.perf_counter() - restoring
        return core

    def _simulate(self, spec: WorkloadSpec, workload: str,
                  config: MachineConfig, key: str,
                  phases: Dict[str, float]) -> SimStats:
        """Run one timing simulation, timing its ``decode``,
        ``warm-restore`` and ``simulate`` phases into *phases*."""
        if not self.quiet:
            print(f"[run] {workload} / {config.name} "
                  f"({self.max_instructions} insts)", flush=True)
        core = self.warm_core(spec, config, phases)
        # Set the workload name before the run so the telemetry context
        # block sees it; the statistics are identical either way.
        core.stats.workload_name = workload
        sink = None
        if self.telemetry_dir is not None:
            # Interval collector only: the event ring buffer is for
            # interactive runs (repro-sim --trace-out), not bulk sweeps.
            sink = core.enable_telemetry(
                interval=self.telemetry_interval, events=False)
        started = time.perf_counter()
        stats = core.run(max_cycles=self.max_cycles,
                         max_instructions=self.max_instructions)
        phases["simulate"] = time.perf_counter() - started
        if sink is not None:
            sink.series.context["cache_key"] = key
            self.telemetry_dir.mkdir(parents=True, exist_ok=True)
            sink.write_timeseries(self.telemetry_dir / f"{key}.jsonl")
        return stats

    def _program(self, spec: WorkloadSpec) -> Program:
        """Assemble *spec* once per process (programs are immutable)."""
        program = self._program_cache.get(spec.name)
        if program is None:
            program = self._program_cache[spec.name] = spec.program()
        return program

    def _effective_jobs(self, jobs: Optional[int]) -> int:
        if jobs is None:
            jobs = self.jobs
        if jobs is None:
            jobs = default_jobs()
        return max(1, int(jobs))

    # -- limit-study runs ---------------------------------------------------------

    def run_redundancy(self, workload: str,
                       warmup: int = 60_000,
                       window: int = 60_000,
                       producer_distance: int = 50) -> ReusabilityAnalyzer:
        """Functional-simulation limit study (Figures 8-10). Not cached:
        it is much cheaper than a timing run.  The warm-up (which
        dominates: skip + warmup vs a smaller window) restores from the
        checkpoint store; stepping after it executes at most the halt
        the capture stopped in front of."""
        spec = get_workload(workload)
        program = self._program(spec)
        sim = FunctionalSimulator(program)
        total_skip = spec.skip_instructions + warmup
        warm = self.checkpoints.get(program, total_skip)
        sim.restore(warm)
        sim.skip(total_skip - warm.executed)
        analyzer = ReusabilityAnalyzer(producer_distance=producer_distance)
        for outcome in sim.stream(window):
            analyzer.observe(outcome)
        return analyzer

    # -- caching -------------------------------------------------------------------

    @staticmethod
    def _source_sha(spec: WorkloadSpec) -> str:
        return hashlib.sha256(spec.source().encode()).hexdigest()[:12]

    def _key(self, spec: WorkloadSpec, config: MachineConfig) -> str:
        return (f"v{CACHE_VERSION}-{spec.name}-{config.name}"
                f"-{config_digest(config)}"
                f"-i{self.max_instructions}-c{self.max_cycles}"
                f"-{self._source_sha(spec)}")

    def _lock(self, key: str):
        if self.cache_dir is None:
            return contextlib.nullcontext()
        return FileLock(self.cache_dir / f"{key}.lock")

    def _load(self, key: str) -> Optional[SimStats]:
        if key in self._memory_cache:
            return self._memory_cache[key]
        if self.cache_dir is None:
            return None
        path = self.cache_dir / f"{key}.json"
        try:
            payload = json.loads(path.read_text())
        except FileNotFoundError:
            return None
        except (OSError, UnicodeDecodeError, ValueError):
            # Truncated/corrupt cache entry (e.g. a crash mid-write before
            # stores became atomic, or disk trouble): re-simulate.
            if not self.quiet:
                print(f"[cache] discarding malformed entry {path.name}",
                      flush=True)
            return None
        if not isinstance(payload, dict):
            if not self.quiet:
                print(f"[cache] discarding malformed entry {path.name}",
                      flush=True)
            return None
        stats = SimStats.from_dict(payload)
        self._memory_cache[key] = stats
        return stats

    def _store(self, key: str, stats: SimStats) -> None:
        self._memory_cache[key] = stats
        if self.cache_dir is None:
            return
        path = self.cache_dir / f"{key}.json"
        # Canonical bytes (sorted keys) + atomic replace: a parallel sweep
        # leaves a cache byte-identical to a serial one, and a reader can
        # never observe a partial file.
        atomic_write_text(path, stats.canonical_json())


def _rusage():
    """This process's ``getrusage`` reading (``None`` off POSIX)."""
    return (resource.getrusage(resource.RUSAGE_SELF)
            if resource is not None else None)


def _usage_since(before) -> Optional[Dict]:
    """CPU seconds since the reading *before*, and the process's peak
    RSS now: the resource fields of a simulated run's manifest."""
    if before is None:
        return None
    after = _rusage()
    return {
        "cpu_user_s": after.ru_utime - before.ru_utime,
        "cpu_sys_s": after.ru_stime - before.ru_stime,
        # Peak RSS is a process high-water mark, not a per-job delta
        # (kilobytes on Linux).
        "rss_peak_kb": int(after.ru_maxrss),
    }


# -- pool plumbing ----------------------------------------------------------------
# The worker runner is a module global so it survives across tasks in one
# worker process (keeping its memory cache warm) under every start method.

_WORKER_RUNNER: Optional[ExperimentRunner] = None


def _worker_init(settings: Dict) -> None:
    global _WORKER_RUNNER
    _WORKER_RUNNER = ExperimentRunner(**settings)


def _worker_run(pair: Pair) -> Tuple[str, str, Union[Dict, Exception],
                                      float]:
    """One cell's statistics as a dict, or the exception it raised."""
    workload, config = pair
    started = time.perf_counter()
    try:
        payload: Union[Dict, Exception] = _WORKER_RUNNER.run(
            workload, config).as_dict()
    except Exception as exc:
        payload = exc
    return workload, config.name, payload, time.perf_counter() - started


def default_runner(**overrides) -> ExperimentRunner:
    """Runner with the repository-standard cache directory."""
    cache = Path(__file__).resolve().parents[3] / "results"
    settings = {"cache_dir": cache}
    settings.update(overrides)
    return ExperimentRunner(**settings)
