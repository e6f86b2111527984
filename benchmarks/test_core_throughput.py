"""Core-throughput perf regression gate, and the observation overheads.

Measures simulated instructions per second of the timing core over a
fixed kernel (the same warm-skip + budget recipe the golden corpus
uses), scaled to simbench's reference host speed (``perf_record``), and
records it to ``BENCH_core.json`` at the repo root as
``calibrated_ips``.

Every measurement takes three timed repetitions: the **median** is
what gets recorded (a robust central value for the committed file and
the history trend), while the **best-of-N** is what the gate compares —
contention mostly slows a run down, so the fastest repetition is the
closest estimate of the true cost — and the gate fails when it is >5%
below the committed median.  On a shared VM, host drift that the
calibration walk does not track can still move a run by that much.
The file lives in ``benchmarks/`` (outside the tier-1 ``testpaths``)
and runs as its own CI job, so a perf regression fails the
*performance* leg without ever masking a correctness failure.
Intentional slowdowns are accepted by committing the rewritten
``BENCH_core.json`` together with the change.

The same file records what each observation layer costs, as the ratio
of observed to plain wallclock over back-to-back runs.  A ratio needs
no calibration, though host drift between its two runs still moves it.
"""

import statistics
import tempfile
import time
import warnings
from pathlib import Path

import pytest

import perf_record
from perf_record import REGRESSION_TOLERANCE
from repro.experiments.runner import ExperimentRunner
from repro.uarch.config import (
    PredictorKind,
    base_config,
    hybrid_config,
    vp_config,
)
from repro.uarch.core import OutOfOrderCore
from repro.workloads import get_workload

BENCH_FILE = Path(__file__).resolve().parents[1] / "BENCH_core.json"


def zoo_select_config():
    """The predictor-zoo hybrid selector (stride/LVP/FCM arbitration):
    the most state-heavy realistic predictor, so its wallclock cost is
    the one worth tracking."""
    return vp_config(PredictorKind.HYBRID_SELECT)


# The timed kernel: enough work that interpreter warm-up is amortised,
# small enough that the whole gate stays in seconds.
KERNEL = [
    ("compress", base_config, 20_000),
    ("go", base_config, 20_000),
    ("compress", hybrid_config, 10_000),
    ("compress", zoo_select_config, 10_000),
]
REPEATS = 3

#: Observed runs should stay within this factor of plain wallclock
#: (the observability promise in docs/telemetry.md).
OVERHEAD_LIMIT = 1.5


def _run_kernel(observe=None):
    """Simulate the kernel; returns (instructions, seconds).  *observe*
    is called on each core before its warm-up skip."""
    total_instructions = 0
    total_seconds = 0.0
    for workload, factory, budget in KERNEL:
        spec = get_workload(workload)
        core = OutOfOrderCore(factory(), spec.program("ref"))
        if observe:
            observe(core)
        core.skip(spec.skip_instructions)
        start = time.perf_counter()
        stats = core.run(max_cycles=2_000_000, max_instructions=budget)
        total_seconds += time.perf_counter() - start
        total_instructions += stats.committed
    return total_instructions, total_seconds


def measure_ips():
    """(median, best) calibrated instructions/second over REPEATS
    repetitions, and the run's speed factor."""
    runs, speed = perf_record.calibrated(_run_kernel, REPEATS)
    ips = [instructions / seconds * speed for instructions, seconds in runs]
    return statistics.median(ips), max(ips), speed


#: The sweep slice timed for the tracing overhead: a cold jobs=1
#: fan-out, plain vs observed (--telemetry-dir semantics: the per-run
#: interval series).
TRACING_PAIRS = [("compress", base_config), ("compress", hybrid_config),
                 ("ijpeg", base_config), ("ijpeg", hybrid_config)]
TRACING_INSTRUCTIONS = 4_000
TRACING_MAX_CYCLES = 200_000


def _run_sweep(traced: bool) -> float:
    """One cold sweep over TRACING_PAIRS; returns wallclock seconds."""
    with tempfile.TemporaryDirectory() as tmp:
        results = Path(tmp) / "results"
        settings = {
            "max_instructions": TRACING_INSTRUCTIONS,
            "max_cycles": TRACING_MAX_CYCLES,
            "cache_dir": results,
            "quiet": True,
            "jobs": 1,
            "manifests": False,
        }
        if traced:
            settings["telemetry_dir"] = results / "telemetry"
        runner = ExperimentRunner(**settings)
        pairs = [(workload, factory())
                 for workload, factory in TRACING_PAIRS]
        start = time.perf_counter()
        runner.run_many(pairs)
        return time.perf_counter() - start


def _telemetry(core):
    core.enable_telemetry(interval=500, events=True)


#: (record key, plain run, observed run); each run returns seconds.
OVERHEADS = [
    # Interval sampling + the event ring buffer on every kernel core.
    ("telemetry_overhead", lambda: _run_kernel()[1],
     lambda: _run_kernel(_telemetry)[1]),
    # The per-run interval series over a cold sweep.
    ("tracing_overhead", lambda: _run_sweep(traced=False),
     lambda: _run_sweep(traced=True)),
    # The per-phase timers of ``repro-sim --profile``.
    ("profile_overhead", lambda: _run_kernel()[1],
     lambda: _run_kernel(OutOfOrderCore.enable_profiling)[1]),
]


def test_core_throughput_gate():
    ips, best, speed = measure_ips()
    committed = perf_record.load(BENCH_FILE)
    perf_record.rewrite(
        BENCH_FILE, committed,
        kernel=[[w, f.__name__, n] for w, f, n in KERNEL],
        entry={"calibrated_ips": round(ips, 1),
               "speed_factor": round(speed, 3)},
        keep=[key for key, _, _ in OVERHEADS])

    # Hard gate: best-of-N against the committed median.  To accept an
    # intentional slowdown, commit the regenerated BENCH_core.json
    # (this test just rewrote it) alongside the change.
    reference = committed.get("calibrated_ips")
    if reference:
        floor = reference * (1 - REGRESSION_TOLERANCE)
        assert best >= floor, (
            f"core throughput regressed: best {best:.0f} inst/s vs "
            f"committed {reference:.0f} inst/s "
            f"({100 * (1 - best / reference):.0f}% drop, limit "
            f"{100 * REGRESSION_TOLERANCE:.0f}%; both at the reference "
            f"host speed, this run's speed factor {speed:.3f}); if "
            f"intentional, commit the rewritten BENCH_core.json")
    assert ips > 0


@pytest.mark.parametrize("key, plain, observed", OVERHEADS,
                         ids=[key for key, _, _ in OVERHEADS])
def test_overhead_budget(key, plain, observed):
    """Records the best-of-3 observed/plain wallclock ratio as *key* in
    ``BENCH_core.json``, and warns (never fails, like the sweep gate)
    when it exceeds ``OVERHEAD_LIMIT``."""
    ratios = []
    for _ in range(3):
        plain_seconds = plain()
        ratios.append(observed() / plain_seconds)
    ratio = min(ratios)

    record = perf_record.load(BENCH_FILE)
    record[key] = round(ratio, 3)
    perf_record.save(BENCH_FILE, record)

    if ratio > OVERHEAD_LIMIT:
        warnings.warn(f"{key} {ratio:.2f}x exceeds the "
                      f"{OVERHEAD_LIMIT}x budget", stacklevel=1)
    assert ratio > 0
