"""Ablation studies beyond the paper's own tables.

Three sweeps probe the design choices the paper fixes by fiat, plus the
hybrid technique its conclusion motivates:

* ``hybrid`` — VP-only vs IR-only vs the combined machine (reuse first,
  predict the misses).  The paper: "a better understanding would help in
  designing other mechanisms (which may be hybrid of VP and IR)".
* ``storage`` — the 4:1 VPT:RB entry ratio equalises hardware storage
  (an RB entry is ~4x a VPT entry).  The sweep varies total storage to
  show both techniques' sensitivity to capacity.
* ``instances`` — the structures are 4-way associative, i.e. up to four
  instances per static instruction.  Varying associativity shows how
  much of the captured redundancy needs multiple instances (VP_Magic's
  oracle selection and the RB's instance matching both depend on it).
"""

from __future__ import annotations

import dataclasses
from typing import Iterable, List

from ..metrics.report import Report
from ..metrics.stats import harmonic_mean, speedup
from ..uarch.config import PredictorKind, hybrid_config, ir_config, vp_config
from ..workloads import all_workloads
from .configs import BASE, IR_EARLY
from .runner import ExperimentRunner, Pair

_DEFAULT_WORKLOADS = ("go", "m88ksim", "perl", "compress")

#: S_n: the reuse scheme without dependence-pointer chaining.
NO_CHAIN = dataclasses.replace(
    IR_EARLY, name="reuse-n",
    ir=dataclasses.replace(IR_EARLY.ir, dependence_chaining=False))


def predictors(runner: ExperimentRunner,
               workloads: Iterable[str] = _DEFAULT_WORKLOADS) -> Report:
    """Predictor-family sweep: Magic vs LVP vs the stride extension.

    The stride predictor targets the 'derivable' slice of Figure 8 that
    neither the paper's predictors nor IR can touch."""
    report = Report(
        title="Ablation: predictor families (ME-SB, 0-cycle verification)",
        headers=["bench", "VP_Magic", "VP_LVP", "VP_Stride",
                 "stride correct %"],
    )
    runner.prefetch(
        [(name, config) for name in workloads
         for config in (BASE, vp_config(PredictorKind.MAGIC),
                        vp_config(PredictorKind.LAST_VALUE),
                        vp_config(PredictorKind.STRIDE))])
    speedups = {kind: [] for kind in PredictorKind}
    for name in workloads:
        base = runner.run(name, BASE)
        cells = []
        stride_stats = None
        for kind in (PredictorKind.MAGIC, PredictorKind.LAST_VALUE,
                     PredictorKind.STRIDE):
            stats = runner.run(name, vp_config(kind))
            speedups[kind].append(speedup(stats, base))
            cells.append(speedups[kind][-1])
            if kind == PredictorKind.STRIDE:
                stride_stats = stats
        report.add_row(name, *cells, 100.0 * stride_stats.vp_result_rate)
    report.add_row("HM", *[harmonic_mean(speedups[kind]) for kind in
                           (PredictorKind.MAGIC, PredictorKind.LAST_VALUE,
                            PredictorKind.STRIDE)], None)
    return report


def hybrid(runner: ExperimentRunner,
           workloads: Iterable[str] = _DEFAULT_WORKLOADS) -> Report:
    report = Report(
        title="Ablation: hybrid VP+IR (reuse first, predict the misses)",
        headers=["bench", "VP speedup", "IR speedup", "hybrid speedup",
                 "hybrid reuse %", "hybrid pred %"],
    )
    runner.prefetch([(name, config) for name in workloads
                     for config in (BASE, vp_config(), ir_config(),
                                    hybrid_config())])
    vp_speedups, ir_speedups, hybrid_speedups = [], [], []
    for name in workloads:
        base = runner.run(name, BASE)
        vp = runner.run(name, vp_config())
        ir = runner.run(name, ir_config())
        combined = runner.run(name, hybrid_config())
        vp_speedups.append(speedup(vp, base))
        ir_speedups.append(speedup(ir, base))
        hybrid_speedups.append(speedup(combined, base))
        report.add_row(name, vp_speedups[-1], ir_speedups[-1],
                       hybrid_speedups[-1],
                       100.0 * combined.ir_result_rate,
                       100.0 * combined.vp_result_rate)
    report.add_row("HM", harmonic_mean(vp_speedups),
                   harmonic_mean(ir_speedups),
                   harmonic_mean(hybrid_speedups), None, None)
    report.add_note("hybrid uses both structures at full size (2x storage "
                    "of either technique alone)")
    return report


def _storage_configs(scales: Iterable[int]) -> List:
    configs = []
    for scale in scales:
        config = vp_config()
        configs.append(dataclasses.replace(
            config, name=f"{config.name}-e{16384 // scale}",
            vp=dataclasses.replace(config.vp, entries=16384 // scale)))
    for scale in scales:
        config = ir_config()
        configs.append(dataclasses.replace(
            config, name=f"{config.name}-e{4096 // scale}",
            ir=dataclasses.replace(config.ir, entries=4096 // scale)))
    return configs


def storage(runner: ExperimentRunner,
            workloads: Iterable[str] = _DEFAULT_WORKLOADS,
            scales: Iterable[int] = (1, 4, 16)) -> Report:
    """Divide both structures' entry counts by each scale factor."""
    scales = tuple(scales)
    report = Report(
        title="Ablation: structure capacity (entries divided by scale; "
              "VPT:RB stays 4:1)",
        headers=["bench"] + [f"VP /{s}" for s in scales]
                + [f"IR /{s}" for s in scales],
    )
    configs = _storage_configs(scales)
    runner.prefetch([(name, config) for name in workloads
                     for config in [BASE] + configs])
    for name in workloads:
        base = runner.run(name, BASE)
        cells = [speedup(runner.run(name, config), base)
                 for config in configs]
        report.add_row(name, *cells)
    return report


def _instance_configs(ways: Iterable[int]) -> List:
    configs = []
    for way in ways:
        config = vp_config()
        configs.append(dataclasses.replace(
            config, name=f"{config.name}-a{way}",
            vp=dataclasses.replace(config.vp, associativity=way)))
    for way in ways:
        config = ir_config()
        configs.append(dataclasses.replace(
            config, name=f"{config.name}-a{way}",
            ir=dataclasses.replace(config.ir, associativity=way)))
    return configs


def instances(runner: ExperimentRunner,
              workloads: Iterable[str] = _DEFAULT_WORKLOADS,
              ways: Iterable[int] = (1, 2, 4)) -> Report:
    """Vary instances-per-instruction at constant entry count."""
    ways = tuple(ways)
    report = Report(
        title="Ablation: instances per static instruction (associativity)",
        headers=["bench"] + [f"VP {w}w" for w in ways]
                + [f"IR {w}w" for w in ways],
    )
    configs = _instance_configs(ways)
    runner.prefetch([(name, config) for name in workloads
                     for config in [BASE] + configs])
    for name in workloads:
        base = runner.run(name, BASE)
        cells = [speedup(runner.run(name, config), base)
                 for config in configs]
        report.add_row(name, *cells)
    report.add_note("VP_Magic's oracle selection and the RB's instance "
                    "matching both lose coverage with fewer instances")
    return report


def upper_bound(runner: ExperimentRunner,
                workloads: Iterable[str] = _DEFAULT_WORKLOADS) -> Report:
    """VP_Perfect: the footnote-3 bound realised in the timing model.

    Wrong-path instructions are still predicted by the oracle (their
    dispatch-time outcome is correct *along that path*), so this bounds
    what any predictor of this machine's structure could deliver."""
    report = Report(
        title="Ablation: oracle upper bound (VP_Perfect) vs realistic "
              "schemes",
        headers=["bench", "VP_Magic", "VP_Perfect", "headroom %"],
    )
    runner.prefetch(
        [(name, config) for name in workloads
         for config in (BASE, vp_config(),
                        vp_config(PredictorKind.PERFECT))])
    for name in workloads:
        base = runner.run(name, BASE)
        magic = speedup(runner.run(name, vp_config()), base)
        perfect = speedup(
            runner.run(name, vp_config(PredictorKind.PERFECT)), base)
        headroom = 100.0 * (perfect - magic) / magic if magic else 0.0
        report.add_row(name, magic, perfect, headroom)
    return report


def _confidence_configs(thresholds: Iterable[int]) -> List:
    configs = []
    for threshold in thresholds:
        config = vp_config()
        configs.append(dataclasses.replace(
            config, name=f"{config.name}-t{threshold}",
            vp=dataclasses.replace(config.vp,
                                   confidence_threshold=threshold)))
    return configs


def confidence(runner: ExperimentRunner,
               workloads: Iterable[str] = _DEFAULT_WORKLOADS,
               thresholds: Iterable[int] = (1, 2, 3)) -> Report:
    """Confidence-threshold sweep for VP_Magic (paper fixes it by fiat).

    Lower thresholds predict sooner but mispredict more; under SB that
    trades spurious squashes against coverage."""
    report = Report(
        title="Ablation: VP_Magic confidence threshold (ME-SB)",
        headers=["bench"] + [f"thr {t}" for t in thresholds]
                + [f"mis% thr {t}" for t in thresholds],
    )
    configs = _confidence_configs(thresholds)
    runner.prefetch([(name, config) for name in workloads
                     for config in [BASE] + configs])
    for name in workloads:
        base = runner.run(name, BASE)
        cells: List[float] = []
        misses: List[float] = []
        for config in configs:
            stats = runner.run(name, config)
            cells.append(speedup(stats, base))
            misses.append(100.0 * stats.vp_result_misp_rate)
        report.add_row(name, *cells, *misses)
    return report


def chaining(runner: ExperimentRunner,
             workloads: Iterable[str] = _DEFAULT_WORKLOADS) -> Report:
    """S_n vs S_{n+d}: what dependence-pointer chaining buys.

    The 'd' is what lets a whole dependent chain reuse in one cycle
    (Figure 2's IR pipeline); without it, each link must wait for its
    producer's value to be architecturally readable at the test."""
    report = Report(
        title="Ablation: dependence chaining (S_n vs S_{n+d})",
        headers=["bench", "S_n speedup", "S_n+d speedup",
                 "S_n reuse %", "S_n+d reuse %"],
    )
    runner.prefetch([(name, config) for name in workloads
                     for config in (BASE, ir_config(), NO_CHAIN)])
    for name in workloads:
        base = runner.run(name, BASE)
        full = runner.run(name, ir_config())
        no_chain = runner.run(name, NO_CHAIN)
        report.add_row(name,
                       speedup(no_chain, base), speedup(full, base),
                       100.0 * no_chain.ir_result_rate,
                       100.0 * full.ir_result_rate)
    return report


def pairs(workloads: Iterable[str] = _DEFAULT_WORKLOADS) -> List[Pair]:
    """Union of every sub-ablation's (workload, config) pairs, so a sweep
    can fan the whole suite out in one pool."""
    workloads = tuple(workloads)
    # The VP-only cells predictors() and upper_bound() read.
    kinds = (PredictorKind.MAGIC, PredictorKind.LAST_VALUE,
             PredictorKind.STRIDE, PredictorKind.PERFECT)
    configs = ([BASE, ir_config(), hybrid_config(), NO_CHAIN]
               + [vp_config(kind) for kind in kinds]
               + _storage_configs((1, 4, 16))
               + _instance_configs((1, 2, 4))
               + _confidence_configs((1, 2, 3)))
    unique = {}
    for config in configs:
        unique.setdefault(config.name, config)
    return [(name, config) for name in workloads
            for config in unique.values()]


def run(runner: ExperimentRunner) -> List[Report]:
    runner.prefetch(pairs())
    return [hybrid(runner), predictors(runner), storage(runner),
            instances(runner), upper_bound(runner), confidence(runner),
            chaining(runner)]
