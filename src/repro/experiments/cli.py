"""Command-line entry point: regenerate any table or figure.

Usage::

    repro-experiment table3
    repro-experiment figure6 --instructions 50000
    repro-experiment all --instructions 30000 --jobs 8
    python -m repro.experiments.cli figure8

``--jobs N`` fans uncached (workload x config) simulations out over N
worker processes (default: all cores).  The result cache is written
canonically and atomically with per-key file locking, so a parallel
sweep produces byte-identical cache files to ``--jobs 1`` — see the
determinism contract in ``docs/internals.md``.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Callable, Dict, List

from ..metrics.report import Report
from .runner import (
    DEFAULT_INSTRUCTIONS,
    ExperimentRunner,
    Pair,
    default_jobs,
    default_runner,
)
from . import (
    ablations,
    breakdown_experiment,
    sensitivity,
    figure3,
    figure4,
    figure5,
    figure6,
    figure7,
    figure8,
    figure9,
    figure10,
    table2,
    table3,
    table4,
    table5,
    table6,
    zoo,
)


def _single(module) -> Callable[[ExperimentRunner], List[Report]]:
    return lambda runner: [module.run(runner)]


EXPERIMENTS: Dict[str, Callable[[ExperimentRunner], List[Report]]] = {
    "table2": _single(table2),
    "table3": _single(table3),
    "table4": _single(table4),
    "table5": _single(table5),
    "table6": _single(table6),
    "figure3": _single(figure3),
    "figure4": figure4.run_both,
    "figure5": _single(figure5),
    "figure6": figure6.run_both,
    "figure7": figure7.run_both,
    "figure8": _single(figure8),
    "figure9": _single(figure9),
    "figure10": _single(figure10),
    "ablations": ablations.run,
    "sensitivity": _single(sensitivity),
    "breakdown": _single(breakdown_experiment),
    "zoo": _single(zoo),
}

#: Each experiment's (workload, config) pairs, so a multi-experiment
#: invocation can warm the cache in one pool instead of one pool per
#: experiment (shared pairs — e.g. every base run — are deduplicated).
PAIRS: Dict[str, Callable[[], List[Pair]]] = {
    "table2": table2.pairs,
    "table3": table3.pairs,
    "table4": table4.pairs,
    "table5": table5.pairs,
    "table6": table6.pairs,
    "figure3": figure3.pairs,
    "figure4": figure4.pairs,
    "figure5": figure5.pairs,
    "figure6": figure6.pairs,
    "figure7": figure7.pairs,
    "figure8": figure8.pairs,
    "figure9": figure9.pairs,
    "figure10": figure10.pairs,
    "ablations": ablations.pairs,
    "sensitivity": sensitivity.pairs,
    "breakdown": breakdown_experiment.pairs,
    "zoo": zoo.pairs,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-experiment",
        description="Regenerate tables and figures from Sodani & Sohi, "
                    "MICRO 1998")
    parser.add_argument("experiment",
                        choices=sorted(EXPERIMENTS) + ["all"],
                        help="which table/figure to regenerate")
    parser.add_argument("--instructions", type=int,
                        default=DEFAULT_INSTRUCTIONS,
                        help="committed-instruction budget per run")
    parser.add_argument("--jobs", "-j", type=int, default=None,
                        help="worker processes for uncached simulations "
                             f"(default: all cores, here {default_jobs()}; "
                             "1 = serial)")
    parser.add_argument("--no-cache", action="store_true",
                        help="do not read or write the results/ cache")
    parser.add_argument("--cache-dir", type=Path, default=None,
                        help="result-cache directory (default: the "
                             "repository's results/; run manifests go "
                             "to its manifests/ subdirectory)")
    parser.add_argument("--telemetry-dir", type=Path, default=None,
                        help="capture a per-run interval time-series "
                             "for every *simulated* pair into this "
                             "directory (cache keys are unchanged, so "
                             "cached results stay valid; see "
                             "docs/telemetry.md)")
    parser.add_argument("--telemetry-interval", type=int, default=None,
                        metavar="CYCLES",
                        help="sampling period for --telemetry-dir "
                             "(default 500 cycles)")
    parser.add_argument("--no-manifests", action="store_true",
                        help="do not write per-run/per-sweep provenance "
                             "manifests")
    parser.add_argument("--checkpoint-dir", type=Path, default=None,
                        help="warm-state checkpoint store directory "
                             "(default: <cache>/checkpoints; see "
                             "docs/internals.md)")
    parser.add_argument("--no-checkpoint", action="store_true",
                        help="re-execute every warm-up skip instead of "
                             "restoring warm-state checkpoints")
    parser.add_argument("--verify", action="store_true",
                        help="cross-check every commit against the "
                             "functional simulator (slower)")
    parser.add_argument("--charts", action="store_true",
                        help="also render each report as an ASCII bar "
                             "chart (speedup figures use a 1.0 marker)")
    return parser


def main(argv: List[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    for flag, value in (("--instructions", args.instructions),
                        ("--jobs", args.jobs),
                        ("--telemetry-interval", args.telemetry_interval)):
        if value is not None and value < 1:
            parser.error(f"{flag} must be positive, got {value}")
    overrides = {"max_instructions": args.instructions,
                 "verify": args.verify,
                 "jobs": args.jobs}
    if args.no_cache:
        overrides["cache_dir"] = None
    if args.cache_dir is not None:
        overrides["cache_dir"] = args.cache_dir
    if args.checkpoint_dir is not None:
        overrides["checkpoint_dir"] = args.checkpoint_dir
    if args.no_checkpoint:
        overrides["use_checkpoints"] = False
    if args.telemetry_dir is not None:
        overrides["telemetry_dir"] = args.telemetry_dir
    if args.telemetry_interval is not None:
        overrides["telemetry_interval"] = args.telemetry_interval
    if args.no_manifests:
        overrides["manifests"] = False
    runner = default_runner(**overrides)
    names = sorted(EXPERIMENTS) if args.experiment == "all" \
        else [args.experiment]
    sweep: List[Pair] = []
    for name in names:
        sweep.extend(PAIRS[name]())
    if sweep:
        runner.prefetch(sweep)
    for name in names:
        for report in EXPERIMENTS[name](runner):
            print()
            print(report.render())
            if args.charts:
                from ..metrics.charts import report_to_chart
                reference = 1.0 if "speedup" in report.title.lower() \
                    else None
                print()
                print(report_to_chart(report, reference=reference))
    return 0


if __name__ == "__main__":
    sys.exit(main())
