"""Where does each technique capture redundancy?  (per-class breakdown)

An analysis beyond the paper's aggregate Table 3: committed instructions
are split into classes (ALU / load / store / branch / jump / mult-div)
and each class's reuse and prediction rates are reported per workload.
The paper's qualitative claims become visible mechanically: branches are
IR-only territory (prediction of branch outcomes is the *branch
predictor's* job), stores reuse only their address computation, and
long-latency mult/div hits are where IR's execution-skipping pays most.
"""

from __future__ import annotations

from typing import Iterable, List

from ..metrics.breakdown import CLASSES, ClassBreakdown
from ..metrics.report import Report
from ..workloads import all_workloads, get_workload
from .configs import IR_EARLY, vp_magic
from .runner import ExperimentRunner


def _measure(runner: ExperimentRunner, workload: str, config):
    """A breakdown needs the commit hook, so it bypasses the JSON cache
    (the warm state and ``verify`` still come from the runner)."""
    core = runner.warm_core(get_workload(workload), config)
    breakdown = ClassBreakdown(core)
    core.run(max_instructions=runner.max_instructions,
             max_cycles=runner.max_cycles)
    return breakdown


def pairs() -> list:
    """Breakdowns need the commit hook and bypass the JSON cache, so
    there is nothing to prefetch (kept for CLI sweep uniformity)."""
    return []


def run(runner: ExperimentRunner,
        workloads: Iterable[str] | None = None) -> Report:
    names = list(workloads) if workloads else list(all_workloads())
    report = Report(
        title="Per-class capture: IR reuse% / VP_Magic correct-pred% by "
              "instruction class",
        headers=["bench"] + [f"{cls} IR/VP" for cls in CLASSES
                             if cls != "jump"],
    )
    for name in names:
        if not runner.quiet:
            print(f"[breakdown] {name}", flush=True)
        reuse = _measure(runner, name, IR_EARLY)
        predict = _measure(runner, name, vp_magic())
        cells: List[str] = []
        for cls in CLASSES:
            if cls == "jump":
                continue
            ir_counts = reuse.counts[cls]
            vp_counts = predict.counts[cls]
            ir_rate = 100.0 * ir_counts.rate(ir_counts.reused)
            vp_rate = 100.0 * vp_counts.rate(vp_counts.predicted_correct)
            cells.append(f"{ir_rate:.0f}/{vp_rate:.0f}")
        report.add_row(name, *cells)
    report.add_note("branches: IR-only (VP does not predict branch "
                    "outcomes); stores: address reuse only, so 0/0 here")
    return report
