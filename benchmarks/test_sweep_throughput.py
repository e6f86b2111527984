"""Sweep-cost benchmark: the interactivity gate for the full harness.

Times a representative slice of the experiment sweep — timing runs
across all four technique configurations plus functional limit-study
runs — through :class:`~repro.experiments.runner.ExperimentRunner` at
``jobs=1``, twice:

* **cold**: empty result cache *and* empty checkpoint store (the first
  sweep on a fresh checkout);
* **warm**: empty result cache but a populated warm-state checkpoint
  store (every later sweep: the common case, since the store is keyed
  on program content and survives cache-version bumps, budget changes
  and CI cache restores).

Both are scaled to simbench's reference host speed (``perf_record``)
and recorded to ``BENCH_sweep.json`` at the repo root as
``calibrated_cold_seconds`` and ``calibrated_warm_seconds``.  The gate
*warns* (never fails) when either is more than 5% above the committed
record: wallclock noise across CI machines must not fail a correctness
job, which is why this file lives in ``benchmarks/`` outside the
tier-1 ``testpaths``.
"""

import tempfile
import time
import warnings
from pathlib import Path

import perf_record
from perf_record import REGRESSION_TOLERANCE
from repro.experiments.runner import ExperimentRunner
from repro.uarch.config import (
    base_config,
    hybrid_config,
    ir_config,
    vp_config,
)

BENCH_FILE = Path(__file__).resolve().parents[1] / "BENCH_sweep.json"

CONFIG_FACTORIES = {
    "base": base_config,
    "vp": vp_config,
    "ir": ir_config,
    "hybrid": hybrid_config,
}

# The timed kernel: two workloads through every technique configuration
# (the golden-corpus budgets) plus the limit study at three producer
# distances — the same mix `repro-experiment all` is made of, scaled to
# keep the gate in seconds.
TIMING_KERNEL = [(workload, key) for workload in ("compress", "ijpeg")
                 for key in sorted(CONFIG_FACTORIES)]
LIMIT_KERNEL = [(workload, pd) for workload in ("compress", "ijpeg")
                for pd in (25, 50, 100)]
INSTRUCTIONS = 4_000
MAX_CYCLES = 200_000
WARMUP = 60_000
WINDOW = 20_000

REPEATS = 2


def _run_kernel(cache_dir: Path, checkpoint_dir: Path) -> float:
    """One jobs=1 sweep of the kernel; returns wallclock seconds."""
    runner = ExperimentRunner(max_instructions=INSTRUCTIONS,
                              max_cycles=MAX_CYCLES,
                              cache_dir=cache_dir,
                              checkpoint_dir=checkpoint_dir,
                              quiet=True, jobs=1)
    start = time.perf_counter()
    for workload, key in TIMING_KERNEL:
        runner.run(workload, CONFIG_FACTORIES[key]())
    for workload, producer_distance in LIMIT_KERNEL:
        runner.run_redundancy(workload, warmup=WARMUP, window=WINDOW,
                              producer_distance=producer_distance)
    return time.perf_counter() - start


def measure() -> dict:
    """Best-of-N calibrated cold and warm sweep seconds, and the run's
    speed factor."""
    with tempfile.TemporaryDirectory() as tmp:
        store = Path(tmp) / "checkpoints"  # persists across warm repeats

        def repetition():
            cold = Path(tempfile.mkdtemp(dir=tmp))
            warm = Path(tempfile.mkdtemp(dir=tmp))
            return (_run_kernel(cold / "results", cold / "checkpoints"),
                    _run_kernel(warm / "results", store))

        runs, speed = perf_record.calibrated(repetition, REPEATS)
    # The first warm run populated the store: that one was cold too.
    cold_seconds = min(seconds for seconds, _ in runs)
    warm_seconds = min(seconds for _, seconds in runs[1:])
    return {"calibrated_cold_seconds": round(cold_seconds / speed, 3),
            "calibrated_warm_seconds": round(warm_seconds / speed, 3),
            "speed_factor": round(speed, 3)}


def test_sweep_throughput_gate():
    measured = measure()
    committed = perf_record.load(BENCH_FILE)
    perf_record.rewrite(
        BENCH_FILE, committed,
        kernel={
            "timing": [list(pair) for pair in TIMING_KERNEL],
            "limit": [list(pair) for pair in LIMIT_KERNEL],
            "instructions": INSTRUCTIONS,
            "max_cycles": MAX_CYCLES,
            "warmup": WARMUP,
            "window": WINDOW,
            "jobs": 1,
        },
        entry=measured)

    for key in ("calibrated_cold_seconds", "calibrated_warm_seconds"):
        reference = committed.get(key)
        if reference and measured[key] > reference * (
                1 + REGRESSION_TOLERANCE):
            warnings.warn(
                f"{key} {measured[key]:.3f}s is more than "
                f"{100 * REGRESSION_TOLERANCE:.0f}% above the committed "
                f"{reference:.3f}s", stacklevel=1)
        assert measured[key] > 0
