"""Core-throughput micro-benchmark and perf regression gate.

Measures simulated-instructions-per-wallclock-second for the timing core
over a fixed kernel (the same warm-skip + budget recipe the golden
corpus uses) and records the result to ``BENCH_core.json`` at the repo
root.  The committed file carries two numbers:

* ``seed_ips`` — throughput of the original scan-driven core, measured
  once on the machine that produced the file (the pre-optimisation
  baseline the acceptance criterion is judged against);
* ``current_ips`` — throughput of the core as of the last benchmark run.

Every measurement takes ≥3 timed repetitions: the **median** is what
gets recorded (a robust central value for the committed file and the
history trend), while the **best-of-N** is what the gate compares —
wallclock noise only ever slows a run down, so the fastest repetition
is the closest estimate of the true cost, and a best-of-N still >5%
below the committed median means the hot path genuinely slowed down.
The file lives in ``benchmarks/`` (outside the tier-1 ``testpaths``)
and runs as its own CI job, so a perf regression fails the
*performance* leg without ever masking a correctness failure.
Intentional slowdowns are accepted by committing the rewritten
``BENCH_core.json`` together with the change.
"""

import json
import statistics
import tempfile
import time
import warnings
from pathlib import Path

from repro.experiments.runner import ExperimentRunner
from repro.metrics.bench_report import (
    bounded_history,
    normalize_core_history,
)
from repro.uarch.config import (
    PredictorKind,
    base_config,
    hybrid_config,
    vp_config,
)
from repro.uarch.core import OutOfOrderCore
from repro.workloads import get_workload

REPO_ROOT = Path(__file__).resolve().parents[1]
BENCH_FILE = REPO_ROOT / "BENCH_core.json"


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
REGRESSION_TOLERANCE = 0.05  # FAIL when >5% below the committed number
# History length is bounded by the shared helper in
# repro.metrics.bench_report (HISTORY_LIMIT), the same bound
# BENCH_sweep.json uses — repro-bench-report renders both.


#: Telemetry-on runs must stay within this factor of telemetry-off
#: wallclock (the observability promise in docs/telemetry.md).  The
#: span/progress tracing layer shares the budget.
TELEMETRY_OVERHEAD_LIMIT = 1.5


def _run_kernel(telemetry: bool = False):
    """Simulate the kernel; returns (instructions, seconds)."""
    total_instructions = 0
    total_seconds = 0.0
    for workload, factory, budget in KERNEL:
        spec = get_workload(workload)
        core = OutOfOrderCore(factory(), spec.program("ref"))
        if telemetry:
            core.enable_telemetry(interval=500, events=True)
        core.skip(spec.skip_instructions)
        start = time.perf_counter()
        stats = core.run(max_cycles=2_000_000, max_instructions=budget)
        total_seconds += time.perf_counter() - start
        total_instructions += stats.committed
    return total_instructions, total_seconds


def measure_ips(repeats: int = 3):
    """(median, best) simulated instructions/second over ≥3 repetitions.

    The median is the recorded value (robust against one noisy rep);
    the best is what the regression gate compares, since contention
    only ever makes a repetition slower.
    """
    samples = []
    for _ in range(max(repeats, 3)):
        instructions, seconds = _run_kernel()
        samples.append(instructions / seconds)
    return statistics.median(samples), max(samples)


def test_core_throughput_gate():
    ips, best = measure_ips()
    committed = {}
    if BENCH_FILE.exists():
        committed = json.loads(BENCH_FILE.read_text())
    seed = committed.get("seed_ips", ips)

    # Each run *appends* to ``history`` (bounded) rather than
    # overwriting, so regressions show up as a trend across runs.
    # Every entry carries the same keys as the committed top level.
    entry = {
        "current_ips": round(ips, 1),
        "speedup_vs_seed": round(ips / seed, 2),
    }
    history = bounded_history(committed.get("history"), entry)
    record = {
        "kernel": [[w, f.__name__, n] for w, f, n in KERNEL],
        "seed_ips": seed,
        "current_ips": round(ips, 1),
        "speedup_vs_seed": round(ips / seed, 2),
        "history": history,
    }
    # Keys owned by the other benchmark legs ride along unchanged.
    for key in ("telemetry_overhead", "tracing_overhead"):
        if key in committed:
            record[key] = committed[key]
    # One schema for every history entry: older entries carried only
    # current_ips; speedup_vs_seed is backfilled from the (fixed)
    # seed_ips denominator.
    record = normalize_core_history(record)
    BENCH_FILE.write_text(json.dumps(record, indent=1) + "\n")

    # Hard gate: best-of-N against the committed number absorbs normal
    # scheduler jitter, so a >5% drop means the hot path really slowed
    # down.  To accept an intentional slowdown, commit the regenerated
    # BENCH_core.json (this test just rewrote it) alongside the change.
    reference = committed.get("current_ips")
    if reference:
        floor = reference * (1 - REGRESSION_TOLERANCE)
        assert best >= floor, (
            f"core throughput regressed: best {best:.0f} inst/s vs "
            f"committed {reference:.0f} inst/s "
            f"({100 * (1 - best / reference):.0f}% drop, limit "
            f"{100 * REGRESSION_TOLERANCE:.0f}%); if intentional, commit "
            f"the rewritten BENCH_core.json")
    assert ips > 0


def test_telemetry_overhead_gate():
    """A fully-instrumented run (interval sampling + event ring buffer)
    must cost at most ``TELEMETRY_OVERHEAD_LIMIT``x plain wallclock.

    Warns rather than fails — like the throughput gate, wallclock noise
    on shared CI machines must not break the build — and records the
    measured ratio into ``BENCH_core.json`` so the trend is visible.
    """
    best_ratio = float("inf")
    for _ in range(3):
        _, plain = _run_kernel(telemetry=False)
        _, traced = _run_kernel(telemetry=True)
        best_ratio = min(best_ratio, traced / plain)

    committed = {}
    if BENCH_FILE.exists():
        committed = json.loads(BENCH_FILE.read_text())
    committed["telemetry_overhead"] = round(best_ratio, 3)
    BENCH_FILE.write_text(json.dumps(committed, indent=1) + "\n")

    if best_ratio > TELEMETRY_OVERHEAD_LIMIT:
        warnings.warn(
            f"telemetry overhead {best_ratio:.2f}x exceeds the "
            f"{TELEMETRY_OVERHEAD_LIMIT}x budget",
            stacklevel=1)
    assert best_ratio > 0


#: The sweep slice timed by the tracing-overhead gate: a cold jobs=1
#: fan-out, plain vs fully observed (--telemetry-dir semantics:
#: interval series + span tracing + live progress).
TRACING_PAIRS = [("compress", base_config), ("compress", hybrid_config),
                 ("ijpeg", base_config), ("ijpeg", hybrid_config)]
TRACING_INSTRUCTIONS = 4_000
TRACING_MAX_CYCLES = 200_000


def _run_sweep(tmp: Path, traced: bool) -> float:
    """One cold sweep over TRACING_PAIRS; returns wallclock seconds."""
    settings = {
        "max_instructions": TRACING_INSTRUCTIONS,
        "max_cycles": TRACING_MAX_CYCLES,
        "cache_dir": tmp / "results",
        "quiet": True,
        "jobs": 1,
        "manifests": False,
    }
    if traced:
        settings["telemetry_dir"] = tmp / "results" / "telemetry"
    runner = ExperimentRunner(**settings)
    pairs = [(workload, factory())
             for workload, factory in TRACING_PAIRS]
    start = time.perf_counter()
    runner.run_many(pairs)
    return time.perf_counter() - start


def test_tracing_overhead_gate():
    """A fully observed sweep (interval series + spans + progress) must
    stay within the same ``TELEMETRY_OVERHEAD_LIMIT`` budget as the
    per-run telemetry gate.  Records ``tracing_overhead`` into
    ``BENCH_core.json``; warns (never fails) on a budget miss, exactly
    like the other wallclock legs."""
    best_ratio = float("inf")
    for _ in range(3):
        with tempfile.TemporaryDirectory() as plain_tmp:
            plain = _run_sweep(Path(plain_tmp), traced=False)
        with tempfile.TemporaryDirectory() as traced_tmp:
            traced = _run_sweep(Path(traced_tmp), traced=True)
        best_ratio = min(best_ratio, traced / plain)

    committed = {}
    if BENCH_FILE.exists():
        committed = json.loads(BENCH_FILE.read_text())
    committed["tracing_overhead"] = round(best_ratio, 3)
    BENCH_FILE.write_text(json.dumps(committed, indent=1) + "\n")

    if best_ratio > TELEMETRY_OVERHEAD_LIMIT:
        warnings.warn(
            f"sweep tracing overhead {best_ratio:.2f}x exceeds the "
            f"{TELEMETRY_OVERHEAD_LIMIT}x budget",
            stacklevel=1)
    assert best_ratio > 0


if __name__ == "__main__":
    instructions, seconds = _run_kernel()
    print(f"{instructions} instructions in {seconds:.2f}s "
          f"= {instructions / seconds:.0f} inst/s")
