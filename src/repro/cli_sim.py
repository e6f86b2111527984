"""``repro-sim``: run an assembly file (or workload) through the machine.

A downstream user's entry point for quick studies::

    repro-sim program.s                       # base machine
    repro-sim program.s --config vp ir hybrid # compare techniques
    repro-sim --workload compress --config ir --breakdown
    repro-sim program.s --config ir --trace 16

Prints cycles/IPC/capture rates per configuration, optionally followed by
a per-class breakdown (see :mod:`repro.metrics.breakdown`) and a pipeline
trace of the first committed instructions, rendered from the run's
event ring by :func:`repro.telemetry.events.figure2_table`.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional

from .functional.checkpoint import CheckpointStore
from .functional.simulator import SimulationError
from .isa import AssemblyError, assemble
from .metrics.breakdown import ClassBreakdown
from .telemetry.events import figure2_table
from .uarch.config import (
    IRValidation,
    MachineConfig,
    PredictorKind,
    base_config,
    hybrid_config,
    ir_config,
    vp_config,
)
from .uarch.core import OutOfOrderCore
from .workloads import get_workload, workload_names

CONFIG_FACTORIES = {
    "base": base_config,
    "ir": ir_config,
    "ir-late": lambda: ir_config(IRValidation.LATE),
    "vp": vp_config,
    "vp-lvp": lambda: vp_config(PredictorKind.LAST_VALUE),
    "vp-stride": lambda: vp_config(PredictorKind.STRIDE),
    "vp-fcm": lambda: vp_config(PredictorKind.FCM),
    "vp-select": lambda: vp_config(PredictorKind.HYBRID_SELECT),
    "hybrid": hybrid_config,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-sim",
        description="Simulate an assembly program on the Sodani & Sohi "
                    "(MICRO 1998) machine model")
    parser.add_argument("source", nargs="?", type=Path,
                        help="assembly file (omit when using --workload)")
    parser.add_argument("--workload", metavar="NAME",
                        help="run a bundled SPECint95 analog "
                             f"({', '.join(sorted(workload_names()))}) "
                             "or a generated 'gen-...' workload "
                             "(see repro-gen)")
    parser.add_argument("--variant", default="ref",
                        help="workload input variant (ref/train)")
    parser.add_argument("--config", nargs="+", default=["base"],
                        choices=sorted(CONFIG_FACTORIES),
                        help="machine configuration(s) to run")
    parser.add_argument("--instructions", type=int, default=50_000,
                        help="committed-instruction budget")
    parser.add_argument("--max-cycles", type=int, default=2_000_000)
    parser.add_argument("--skip", type=int, default=None,
                        help="functional fast-forward before timing "
                             "(defaults to the workload's skip, or 0)")
    parser.add_argument("--breakdown", action="store_true",
                        help="print the per-class capture breakdown")
    parser.add_argument("--trace", type=int, metavar="N", default=0,
                        help="print the pipeline trace of the first N "
                             "commits from cycle 200 in the event ring")
    parser.add_argument("--verify", action="store_true",
                        help="verify every commit against the functional "
                             "simulator")
    parser.add_argument("--profile", action="store_true",
                        help="print per-phase wallclock profile and "
                             "event-queue counters after each run")
    parser.add_argument("--telemetry-out", type=Path, default=None,
                        metavar="FILE",
                        help="write an interval time-series per config "
                             "(JSONL; multiple configs insert the config "
                             "name before the suffix)")
    parser.add_argument("--telemetry-interval", type=int, default=None,
                        metavar="CYCLES",
                        help="sampling period of --telemetry-out "
                             "(default 500 cycles)")
    parser.add_argument("--trace-out", type=Path, default=None,
                        metavar="FILE",
                        help="write the structured event trace per "
                             "config (JSONL; inspect with repro-trace)")
    parser.add_argument("--trace-buffer", type=int, default=None,
                        metavar="N",
                        help="event ring-buffer capacity for --trace "
                             "and --trace-out (default 65536; oldest "
                             "events drop first)")
    parser.add_argument("--checkpoint-dir", type=Path, default=None,
                        help="persist warm-state checkpoints here so "
                             "later invocations skip the warm-up "
                             "(default: share within this invocation "
                             "only)")
    return parser


def _per_config_path(path: Path, config_name: str,
                     many: bool) -> Path:
    """``out.jsonl`` -> ``out.<config>.jsonl`` when several configs run."""
    if not many:
        return path
    return path.with_name(f"{path.stem}.{config_name}{path.suffix}")


def _load_program(args):
    """``(program, skip, label)``; a bad workload, variant or source
    file exits with a one-line message."""
    if args.workload:
        try:
            spec = get_workload(args.workload)
        except (KeyError, ValueError) as exc:
            raise SystemExit(
                f"unknown workload {args.workload!r} "
                f"(bundled: {', '.join(sorted(workload_names()))}; "
                f"or a canonical 'gen-...' name): {exc}")
        if args.variant not in spec.variants:
            raise SystemExit(
                f"workload {args.workload!r} has no input variant "
                f"{args.variant!r} (choose from {', '.join(spec.variants)})")
        skip = args.skip if args.skip is not None \
            else spec.skip_instructions
        label = f"{args.workload} ({args.variant})"
        return spec.program(args.variant), skip, label
    if args.source is None:
        raise SystemExit("provide an assembly file or --workload")
    try:
        program = assemble(args.source.read_text())
    except OSError as exc:
        raise SystemExit(f"cannot read {args.source}: {exc.strerror}")
    except AssemblyError as exc:
        raise SystemExit(f"{args.source}: {exc}")
    return program, (args.skip or 0), str(args.source)


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    for flag, value, least in (
            ("--instructions", args.instructions, 1),
            ("--max-cycles", args.max_cycles, 1),
            ("--skip", args.skip, 0),
            ("--trace", args.trace, 0),
            ("--telemetry-interval", args.telemetry_interval, 1),
            ("--trace-buffer", args.trace_buffer, 1)):
        if value is not None and value < least:
            parser.error(f"{flag} must be "
                         f"{'positive' if least else 'non-negative'}, "
                         f"got {value}")
    # One program image for every configuration (it is immutable), and
    # one warm-up: each config restores the captured warm state.
    program, skip, label = _load_program(args)
    checkpoints = CheckpointStore(args.checkpoint_dir)

    print(f"program: {label}   skip: {skip}   "
          f"budget: {args.instructions} instructions")
    print()
    header = (f"{'config':<22} {'cycles':>9} {'IPC':>6} {'speedup':>8} "
              f"{'bp%':>6} {'reuse%':>7} {'pred%':>6}")
    print(header)
    print("-" * len(header))

    base_cycles = None
    extras = []
    for name in args.config:
        config = CONFIG_FACTORIES[name]()
        if args.verify:
            import dataclasses
            config = dataclasses.replace(config, verify_commits=True)
        core = OutOfOrderCore(config, program)
        if args.workload:
            # Display-only (telemetry context, stats header); cached
            # result bytes never pass through this path.
            core.stats.workload_name = args.workload
        breakdown = ClassBreakdown(core) if args.breakdown else None
        profile = core.enable_profiling() if args.profile else None
        sink = None
        events = bool(args.trace or args.trace_out)
        if events or args.telemetry_out:
            sink = core.enable_telemetry(
                interval=args.telemetry_interval,
                trace_capacity=args.trace_buffer, events=events)
        try:
            core.restore_warm(checkpoints.get(program, skip))
            stats = core.run(max_cycles=args.max_cycles,
                             max_instructions=args.instructions)
        except SimulationError as exc:
            raise SystemExit(f"{config.name}: {exc}")
        if base_cycles is None:
            base_cycles = stats.cycles
        print(f"{config.name:<22} {stats.cycles:>9} {stats.ipc:>6.2f} "
              f"{base_cycles / stats.cycles:>7.2f}x "
              f"{100 * stats.branch_prediction_rate:>5.1f} "
              f"{100 * stats.ir_result_rate:>6.1f} "
              f"{100 * stats.vp_result_rate:>5.1f}")
        if breakdown is not None:
            extras.append(breakdown.report(
                f"Per-class breakdown: {config.name}"))
        if args.trace:
            trace = sink.trace
            commits = trace.select(kinds=["commit"], since=200)
            title = f"Pipeline trace: {config.name}"
            if trace.dropped:
                title += (f" (from the last {len(trace)} events kept; "
                          f"{trace.dropped} dropped)")
            extras.append(f"{title}\n" + figure2_table(commits[:args.trace]))
        if profile is not None:
            extras.append(f"Profile: {config.name}\n"
                          + profile.report())
        if sink is not None:
            many = len(args.config) > 1
            if args.telemetry_out:
                out = _per_config_path(args.telemetry_out, config.name,
                                       many)
                sink.write_timeseries(out)
                extras.append(f"telemetry: {len(sink.series)} interval "
                              f"rows -> {out}")
            if args.trace_out:
                out = _per_config_path(args.trace_out, config.name, many)
                sink.write_trace(out, program=label)
                trace = sink.trace
                extras.append(f"trace: {len(trace)} events kept "
                              f"({trace.dropped} dropped) -> {out}")
    for extra in extras:
        print()
        print(extra.render() if hasattr(extra, "render") else extra)
    return 0


if __name__ == "__main__":
    sys.exit(main())
