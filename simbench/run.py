"""Host-time benchmark of the experiment runner and the timing simulator.

Run from the repository root::

    python3 simbench/run.py --workload analog-base --seed 1 --seconds 40 --trace 0

Every workload is a list of (program, machine configuration) cells that
``ExperimentRunner.run_many`` simulates the way ``repro-experiment`` does
by default: ``DEFAULT_INSTRUCTIONS`` committed instructions per cell on a
pool of ``default_jobs()`` workers (one per core), into an empty result
cache with a populated warm-state checkpoint store.  That cache state is
the one a user sweep meets: result-cache keys hold the configuration and
the instruction budget, so a sweep at a new budget or configuration
misses them, while checkpoint keys hold only the program and its warm-up
skip, so every earlier sweep of the same programs has filled them.  The
workloads differ in which simulator layers are on the hot path:

* ``analog-base`` -- the seven SPECint95 analogs and one seed-generated
  program on the base machine: the out-of-order pipeline alone, with the
  value-prediction and instruction-reuse layers bypassed.
* ``generated-vpir`` -- four seed-generated, highly redundant programs
  (``repro.workloads.generator``) under value prediction, instruction
  reuse and the hybrid: the predictor and reuse-buffer layers sit on the
  hot path.

A run sets its inputs up (assembles the programs and captures their
warm-up states into a fresh checkpoint store), re-runs a few cells of the
golden corpus (``tests/golden``) and then one reference pass over the
workload's cells with the functional commit oracle on.  Whole passes then
repeat for ``--seconds``, each preceded by a timed set-up (``setup_s``)
and followed by a host-speed calibration (see ``Calibrator``); the
metrics are medians over passes or cells at the reference host speed.  Every
timed cell must reproduce its reference statistics byte for byte, and
every golden cell its committed file.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` also wraps
each pipeline phase and each runner layer in a timer and prints
per-layer host time and simulated-event counts instead.  The last line
of stdout is one JSON object: ``{"correct", "attempted", "failed",
"metrics"}``.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import dataclasses
import gc
import json
import multiprocessing
import os
import shutil
import statistics
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
GOLDEN = ROOT / "tests" / "golden"
#: Scratch space for result caches and checkpoint stores; removed on exit.
SCRATCH = ROOT / ".simbench"

MIN_ROUNDS = 3

#: Golden-corpus cells (``tests/golden/<workload>__<config>.json``) that
#: every run re-runs through the same runner at the corpus budgets
#: (``tests/uarch/test_golden_stats.py``).  They pin the timing model --
#: cycles, squashes, reuse and prediction counts -- which the seeded
#: cells can only check for determinism.
GOLDEN_CELLS = (("compress", "base"), ("gcc", "hybrid"),
                ("gen-s7-n48-t120-r800-b150", "ir"),
                ("gen-s7-n48-t120-r800-b150", "vp"))
GOLDEN_INSTRUCTIONS = 4_000
GOLDEN_MAX_CYCLES = 200_000

#: Per-cycle pipeline phases, in the order ``step()`` runs them, plus
#: the cycle-skip fast-forward that ``run()`` calls between steps.
PHASES = ("commit", "events", "issue", "dispatch", "fetch", "skip")
#: Technique layers called from inside the phases (nested host time).
TECHNIQUES = ("vp", "ir")
#: A cell's layers inside ``ExperimentRunner.run``.
LAYERS = ("decode", "warm", "simulate", "store")

perf = time.perf_counter

#: Host-speed calibration.  On a shared virtual machine the host's speed
#: drifts by 20% and more between runs a few minutes apart, which no
#: median within one run removes.  A fixed walk over a graph of small
#: objects, of the kind the simulator's hot path is made of (slot
#: attributes, method calls, list and dict accesses over a working set
#: larger than the core's caches), is timed after every pass; the run's
#: host times are divided by its *speed factor* (median walk time /
#: CALIBRATION_REFERENCE_S) and its throughput multiplied by it, so
#: every figure is reported at one reference host speed.  Over 40-second
#: windows of ten minutes of passes on a 2-vCPU x86 virtual machine, the
#: spread (IQR / median) of the pass time was 0.12 uncalibrated, 0.08
#: with this walk and 0.13 with a tight integer loop that stays in cache.
#: The walk is benchmark code: no change to the simulator moves it.
CALIBRATION_NODES = 200_000
CALIBRATION_STEPS = 60_000
#: About the walk's time on an idle core of a 2-vCPU x86 virtual machine
#: running CPython 3.11; it only sets the scale of the figures.
CALIBRATION_REFERENCE_S = 0.07


class _Node:
    __slots__ = ("value", "weight", "link")

    def __init__(self, value: int) -> None:
        self.value = value
        self.weight = value & 7
        self.link: Optional[_Node] = None

    def step(self, x: int) -> int:
        self.value = (self.value + x) & 0xFFFF
        return self.weight + (self.value & 3)


def _calibration_server(conn) -> None:
    """Build the graph once, then time one walk per true request on
    *conn*; a false one ends the process."""
    nodes = [_Node(i) for i in range(CALIBRATION_NODES)]
    for i, node in enumerate(nodes):
        node.link = nodes[(i * 7919) % CALIBRATION_NODES]
    table: Dict[int, int] = {}
    while conn.recv():
        start = perf()
        x = total = 1
        for i in range(CALIBRATION_STEPS):
            x = (x * 1103515245 + 12345) & 0xFFFFFFFF
            node = nodes[x % CALIBRATION_NODES].link
            total += node.step(i)
            table[node.value & 4095] = i
        conn.send(perf() - start)


class Calibrator:
    """Times the calibration walk in a process of its own; ``speed`` is
    the run's speed factor.

    The graph lives outside this process because pool workers are forked
    from it: their garbage collector would traverse the graph's objects.
    The calibration process waits on a pipe between samples.
    """

    def __init__(self) -> None:
        context = multiprocessing.get_context("fork")
        self.conn, child = context.Pipe()
        self.process = context.Process(target=_calibration_server,
                                       args=(child,), daemon=True)
        self.process.start()
        child.close()
        self.samples: List[float] = []

    def sample(self) -> None:
        self.conn.send(True)
        self.samples.append(self.conn.recv())

    def speed(self) -> float:
        return statistics.median(self.samples) / CALIBRATION_REFERENCE_S

    def __enter__(self) -> "Calibrator":
        return self

    def __exit__(self, *exc) -> None:
        with contextlib.suppress(OSError):
            self.conn.send(False)
        self.conn.close()
        self.process.join(10)
        if self.process.is_alive():
            self.process.kill()
            self.process.join()


class Probe:
    """Host seconds per layer and per cell, summed over this process and
    its pool workers.

    Timing wrappers replace class attributes, so they time the real call
    path (``step()`` and the runner look methods up on the class at every
    call), and pool workers forked from this process inherit them.  A
    worker sends each cell's latency and layer times back through a pipe
    when the cell ends; ``collect`` merges them.  Wrappers are undone on
    exit; a method that no longer exists is skipped, so its metric
    reads 0.
    """

    def __init__(self) -> None:
        self.seconds: Dict[str, float] = collections.defaultdict(float)
        self.cells: List[float] = []  # ExperimentRunner.run latencies
        self.pid = os.getpid()
        self.channel = multiprocessing.get_context("fork").SimpleQueue()
        self.saved: List[Tuple[object, str, object]] = []

    def _replace(self, owner, attr: str, make) -> None:
        original = owner.__dict__.get(attr)
        if original is None:
            return
        self.saved.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def wrap(self, owner, attr: str, name: str) -> None:
        """Add each call's duration to ``seconds[name]``."""
        seconds = self.seconds

        def make(original):
            def timed(*args, **kwargs):
                start = perf()
                try:
                    return original(*args, **kwargs)
                finally:
                    seconds[name] += perf() - start
            return timed

        self._replace(owner, attr, make)

    def wrap_cell(self, owner, attr: str) -> None:
        """Record each call's duration as one cell latency; in a worker,
        send it with the layer times the cell took."""
        seconds, cells, channel, parent = (
            self.seconds, self.cells, self.channel, self.pid)

        def make(original):
            def timed(*args, **kwargs):
                worker = os.getpid() != parent
                if worker:
                    seconds.clear()  # drop what the fork copied
                start = perf()
                try:
                    return original(*args, **kwargs)
                finally:
                    elapsed = perf() - start
                    if worker:
                        channel.put((elapsed, dict(seconds)))
                    else:
                        cells.append(elapsed)
            return timed

        self._replace(owner, attr, make)

    def collect(self) -> None:
        """Merge what workers have sent (every put is complete by the
        time ``run_many`` has the worker's result)."""
        while not self.channel.empty():
            elapsed, seconds = self.channel.get()
            self.cells.append(elapsed)
            for name, value in seconds.items():
                self.seconds[name] += value

    def reset(self) -> None:
        self.collect()
        self.seconds.clear()
        self.cells.clear()

    def __enter__(self) -> "Probe":
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self.saved):
            setattr(owner, attr, original)
        self.saved.clear()
        self.channel.close()


def instrument(probe: Probe, trace: bool) -> None:
    """Cell latency and simulate time always; with *trace*, the runner
    layers, the pipeline phases and the VP / IR layers they call."""
    from repro.experiments.runner import ExperimentRunner
    from repro.functional.checkpoint import CheckpointStore
    from repro.reuse.scheme import ReuseEngine
    from repro.uarch.config import vp_config
    from repro.uarch.core import OutOfOrderCore
    from repro.uarch.fetch import FetchUnit
    from repro.vp.predictors import make_predictor
    from repro.workloads import WorkloadSpec
    probe.wrap_cell(ExperimentRunner, "run")
    probe.wrap(OutOfOrderCore, "run", "simulate")
    if not trace:
        return
    probe.wrap(WorkloadSpec, "program", "decode")
    probe.wrap(OutOfOrderCore, "__init__", "decode")
    probe.wrap(CheckpointStore, "get", "warm")
    probe.wrap(OutOfOrderCore, "restore_warm", "warm")
    probe.wrap(ExperimentRunner, "_store", "store")
    probe.wrap(ExperimentRunner, "_write_run_manifest", "store")
    probe.wrap(OutOfOrderCore, "_commit", "commit")
    probe.wrap(OutOfOrderCore, "_process_events", "events")
    probe.wrap(OutOfOrderCore, "_issue", "issue")
    probe.wrap(OutOfOrderCore, "_dispatch", "dispatch")
    probe.wrap(FetchUnit, "step", "fetch")
    probe.wrap(OutOfOrderCore, "_fast_forward", "skip")
    predictor = type(make_predictor(vp_config().vp))
    for method in ("predict_result", "predict_address", "train_result",
                   "train_address"):
        probe.wrap(predictor, method, "vp")
    for method in ("test", "insert", "note_squashed", "on_store_commit"):
        probe.wrap(ReuseEngine, method, "ir")


def config_factories() -> Dict[str, object]:
    """The paper's four machines, by their golden-corpus keys."""
    from repro.uarch.config import (base_config, hybrid_config, ir_config,
                                    vp_config)
    return {"base": base_config, "vp": vp_config, "ir": ir_config,
            "hybrid": hybrid_config}


def analog_base_pairs(seed: int) -> List[Tuple[str, str]]:
    """Every paper analog and one generated program of middling
    redundancy on the base machine; the seeded program goes first."""
    from repro.workloads import GeneratorKnobs, all_workloads
    generated = GeneratorKnobs(seed=seed, size=96, trips=600,
                               result_redundancy=0.5,
                               branch_entropy=0.3).name
    return [(name, "base") for name in [generated] + sorted(all_workloads())]


def generated_vpir_pairs(seed: int) -> List[Tuple[str, str]]:
    """Four generated programs at 80% result redundancy and low branch
    entropy (where VP and IR both find work), each under VP, IR and the
    hybrid: enough programs that the pass's cost hardly depends on the
    seed."""
    from repro.workloads import GeneratorKnobs
    pairs = []
    for index in range(4):
        name = GeneratorKnobs(seed=seed * 4 + index, size=96, trips=600,
                              result_redundancy=0.8,
                              branch_entropy=0.15).name
        pairs += [(name, key) for key in ("vp", "ir", "hybrid")]
    return pairs


WORKLOADS = {"analog-base": analog_base_pairs,
             "generated-vpir": generated_vpir_pairs}


@dataclasses.dataclass
class Round:
    """One ``run_many`` pass over a workload's cells."""

    wall_s: float
    sim_s: float  # host seconds inside OutOfOrderCore.run, all workers
    cell_s: List[float]
    stats: Dict[str, object]  # cell label -> SimStats


class Sweep:
    """The workload's cells run by ``ExperimentRunner.run_many`` at the
    runner's defaults, each pass into a fresh result cache and all
    sharing one checkpoint store that ``setup`` populates."""

    def __init__(self, pairs: List[Tuple[str, str]], scratch: Path) -> None:
        from repro.experiments.runner import default_jobs
        self.pairs = pairs
        self.jobs = min(default_jobs(), len(pairs))
        self.scratch = scratch
        self.store: Optional[Path] = None
        self.serial = 0

    def fresh_dir(self, prefix: str) -> Path:
        self.serial += 1
        return self.scratch / f"{prefix}{self.serial}"

    def setup(self) -> None:
        """Assemble every program and capture its warm-up state."""
        from repro.functional.checkpoint import CheckpointStore
        from repro.workloads import get_workload
        if self.store is not None:
            shutil.rmtree(self.store)
        self.store = self.fresh_dir("store")
        store = CheckpointStore(self.store)
        for workload in sorted({workload for workload, _ in self.pairs}):
            spec = get_workload(workload)
            store.get(spec.program(), spec.skip_instructions)

    def run_round(self, probe: Probe, pairs: List[Tuple[str, str]],
                  verify: bool = False, **budgets) -> Round:
        """One ``run_many`` pass over *pairs* (workload, config key)."""
        from repro.experiments.runner import ExperimentRunner
        factories = config_factories()
        cache_dir = self.fresh_dir("results")
        # The probes reach pool workers only through fork, which is also
        # the runner's default start method on Linux.
        runner = ExperimentRunner(
            cache_dir=cache_dir, checkpoint_dir=self.store, verify=verify,
            quiet=True, jobs=self.jobs, mp_start_method="fork", **budgets)
        probe.collect()
        first, simulated = len(probe.cells), probe.seconds["simulate"]
        started = perf()
        results = runner.run_many(
            [(workload, factories[key]()) for workload, key in pairs])
        wall = perf() - started
        probe.collect()
        cell_s = probe.cells[first:]
        entries = len(list(cache_dir.glob("*.json")))
        shutil.rmtree(cache_dir)
        if entries != len(pairs) or len(results) != len(pairs):
            raise RuntimeError(f"run_many cached {entries} results for "
                               f"{len(pairs)} cells")
        if len(cell_s) != len(pairs):
            raise RuntimeError(f"timed {len(cell_s)} of {len(pairs)} cells: "
                               "pool workers lost the timing probes")
        stats = {f"{workload}/{name}": value
                 for (workload, name), value in results.items()}
        return Round(wall, probe.seconds["simulate"] - simulated, cell_s,
                     stats)


def check_golden(sweep: Sweep, probe: Probe) -> int:
    """Run the golden cells with the commit oracle on; the number whose
    statistics differ from the committed corpus."""
    from repro.functional.simulator import SimulationError
    try:
        stats = sweep.run_round(
            probe, list(GOLDEN_CELLS), verify=True,
            max_instructions=GOLDEN_INSTRUCTIONS,
            max_cycles=GOLDEN_MAX_CYCLES).stats
    except SimulationError as error:
        print(f"commit oracle diverged on a golden cell: {error}",
              file=sys.stderr)
        return len(GOLDEN_CELLS)
    factories = config_factories()
    failed = 0
    for workload, key in GOLDEN_CELLS:
        path = GOLDEN / f"{workload}__{key}.json"
        got = stats[f"{workload}/{factories[key]().name}"].canonical_json()
        if not path.is_file() or path.read_text() != got + "\n":
            print(f"{workload}/{key} differs from {path.name}",
                  file=sys.stderr)
            failed += 1
    return failed


def per_kinst(total: int, committed: int) -> Tuple[float, str]:
    return 1000.0 * total / committed, "1/kinst"


def layer_metrics(rounds: List[Round], probe: Probe, jobs: int,
                  speed: float) -> Dict[str, Tuple[float, str]]:
    seconds = collections.defaultdict(float, {
        name: value / speed for name, value in probe.seconds.items()})
    cells = sum(len(r.cell_s) for r in rounds)
    cell_total = sum(sum(r.cell_s) for r in rounds) / speed
    every = [stats for r in rounds for stats in r.stats.values()]
    committed = sum(s.committed for s in every)
    cycles = sum(s.cycles for s in every)
    metrics = {f"{layer}_ms": (1000 * seconds[layer] / cells, "ms")
               for layer in LAYERS}
    # Cell time outside the four layers: the runner's cache lookup,
    # locking and bookkeeping.
    outside = cell_total - sum(seconds[name] for name in LAYERS)
    metrics["harness_ms"] = (max(0.0, 1000 * outside / cells), "ms")
    # Worker time outside any cell: pool start-up, task and result
    # transfer, and workers idle at the end of a pass.
    pool = sum(r.wall_s for r in rounds) / speed * jobs - cell_total
    metrics["pool_ms"] = (max(0.0, 1000 * pool / cells), "ms")
    metrics["cells"] = (float(cells), "count")
    metrics["calibration_ms"] = (
        1000 * speed * CALIBRATION_REFERENCE_S, "ms")
    for name in PHASES + TECHNIQUES:
        metrics[f"{name}_us"] = (1e6 * seconds[name] / cycles, "us")
    metrics["step_other_us"] = (
        1e6 * (seconds["simulate"] - sum(seconds[p] for p in PHASES))
        / cycles, "us")
    metrics["cycles_per_kinst"] = per_kinst(cycles, committed)
    metrics["squashes_per_kinst"] = per_kinst(
        sum(s.branch_squashes + s.spurious_squashes for s in every),
        committed)
    metrics["reexec_per_kinst"] = per_kinst(
        sum(s.execution_attempts - s.executed_instructions for s in every),
        committed)
    metrics["ir_reused_per_kinst"] = per_kinst(
        sum(s.ir_result_reused for s in every), committed)
    metrics["vp_correct_per_kinst"] = per_kinst(
        sum(s.vp_result_correct for s in every), committed)
    return metrics


def end_to_end_metrics(rounds: List[Round], setup_s: List[float],
                       speed: float) -> Dict[str, Tuple[float, str]]:
    """Medians (and the cell-latency 90th percentile) at the reference
    host speed (see ``Calibrator``)."""
    cell_ms = [1000 * s / speed for r in rounds for s in r.cell_s]
    p90 = statistics.quantiles(cell_ms, n=10)[-1]
    print(f"cell latency: median {statistics.median(cell_ms):.1f} ms, "
          f"p90 {p90:.1f} ms over {len(cell_ms)} cells in "
          f"{len(rounds)} passes")
    return {
        "sim_ips": (statistics.median(
            sum(s.committed for s in r.stats.values()) / r.sim_s
            for r in rounds) * speed, "1/s"),
        "sweep_s": (statistics.median(r.wall_s for r in rounds) / speed,
                    "s"),
        "cell_ms": (statistics.median(cell_ms), "ms"),
        "cell_ms_p90": (p90, "ms"),
        "setup_s": (statistics.median(setup_s) / speed, "s"),
    }


def run(workload_name: str, seed: int, seconds: float, trace: bool,
        scratch: Path) -> Dict[str, object]:
    from repro.experiments.runner import DEFAULT_INSTRUCTIONS
    from repro.functional.simulator import SimulationError
    sweep = Sweep(WORKLOADS[workload_name](seed), scratch)
    with Probe() as probe, Calibrator() as calibrator:
        instrument(probe, trace)
        sweep.setup()
        gc.collect()
        attempted, failed = len(GOLDEN_CELLS), check_golden(sweep, probe)
        attempted += len(sweep.pairs)
        try:
            verified = sweep.run_round(probe, sweep.pairs, verify=True).stats
        except SimulationError as error:
            print(f"commit oracle diverged: {error}", file=sys.stderr)
            verified = {}
        # A cell that commits less than its budget ran off its program.
        failed += len(sweep.pairs) - sum(
            stats.committed >= DEFAULT_INSTRUCTIONS
            for stats in verified.values())
        reference = {label: stats.canonical_json()
                     for label, stats in verified.items()}
        probe.reset()
        rounds: List[Round] = []
        setup_s: List[float] = []
        calibrator.sample()
        deadline = perf() + seconds
        while len(rounds) < MIN_ROUNDS or perf() < deadline:
            if not trace:
                # Set-up is sampled before every round, so its samples
                # span the whole run.
                start = perf()
                sweep.setup()
                setup_s.append(perf() - start)
            gc.collect()
            rounds.append(sweep.run_round(probe, sweep.pairs))
            calibrator.sample()
        speed = calibrator.speed()
        for one in rounds:
            for label, stats in one.stats.items():
                attempted += 1
                failed += stats.canonical_json() != reference.get(label)
        metrics = (layer_metrics(rounds, probe, sweep.jobs, speed) if trace
                   else end_to_end_metrics(rounds, setup_s, speed))
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"simulator sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    scratch = SCRATCH / f"run-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        result = run(args.workload, args.seed, args.seconds,
                     bool(args.trace), scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            SCRATCH.rmdir()
        except OSError:
            pass  # another run still holds its scratch directory
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
