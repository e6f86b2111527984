"""Exact identities between configurations.

A value predictor whose table is never confident predicts nothing, so
value speculation never starts: every VP configuration must then time
exactly like the base machine, and every hybrid exactly like IR alone.
Not just the same architectural state, but the same cycles, fetches,
squashes, executions and reuse counts.  Only the fields in
:data:`EXEMPT` may differ: the predictor is still looked up at every
eligible dispatch.

Orderings hold too: a perfect predictor is never wrong and never slower
than VP_Magic, whose values it bounds (the paper's footnote 3), and
reuse validated at decode is never slower than reuse validated at
execute.

The golden corpus pins each cell to its recorded bytes; these cases pin
how cells relate, so they still hold after an intentional regeneration
of the corpus.
"""

import dataclasses

import pytest

from repro.functional.checkpoint import CheckpointStore
from repro.uarch.config import (
    BranchPolicy,
    IRValidation,
    MachineConfig,
    PredictorKind,
    ReexecPolicy,
    base_config,
    hybrid_config,
    ir_config,
    vp_config,
)
from repro.uarch.core import OutOfOrderCore
from repro.workloads import all_workloads, get_workload

INSTRUCTIONS = 2_000

#: The ``SimStats.as_dict()`` keys a never-confident predictor may change.
EXEMPT = frozenset({"config_name", "vp_result_lookups", "vp_addr_lookups"})

#: The realistic kinds: VP_Perfect ignores confidence.
KINDS = [kind for kind in PredictorKind if kind is not PredictorKind.PERFECT]

#: One memo-only store: each analog warms up once for all its cells.
STORE = CheckpointStore()


def never_confident(config: MachineConfig) -> MachineConfig:
    vp = config.vp
    return dataclasses.replace(config, vp=dataclasses.replace(
        vp, confidence_threshold=vp.max_confidence + 1))


def collapses():
    """(config, the configuration it must equal) pairs."""
    magic = PredictorKind.MAGIC
    vp = [vp_config(kind) for kind in KINDS] + [
        vp_config(magic, branches=BranchPolicy.NON_SPECULATIVE),
        vp_config(magic, reexec=ReexecPolicy.SINGLE),
        vp_config(magic, verify_latency=1)]
    return ([(never_confident(config), base_config()) for config in vp]
            + [(never_confident(hybrid_config(kind)), ir_config())
               for kind in KINDS])


def orderings():
    """(config, the configuration it must take no more cycles than)."""
    bounds = [(vp_config(PredictorKind.PERFECT, branches=branches,
                         verify_latency=latency),
               vp_config(PredictorKind.MAGIC, branches=branches,
                         verify_latency=latency))
              for branches in BranchPolicy for latency in (0, 1)]
    return bounds + [(ir_config(), ir_config(IRValidation.LATE))]


def timing(workload: str, config: MachineConfig) -> dict:
    spec = get_workload(workload)
    program = spec.program()
    core = OutOfOrderCore(config, program)
    core.restore_warm(STORE.get(program, spec.skip_instructions))
    stats = core.run(max_instructions=INSTRUCTIONS, max_cycles=100_000)
    return {key: value for key, value in stats.as_dict().items()
            if key not in EXEMPT}


@pytest.mark.parametrize("workload", sorted(all_workloads()))
def test_never_confident_vp_is_base_and_hybrid_is_ir(workload):
    references = {config.name: timing(workload, config)
                  for config in (base_config(), ir_config())}
    mismatches = []
    for config, reference in collapses():
        got = timing(workload, config)
        expected = references[reference.name]
        assert got.keys() == expected.keys()
        fields = sorted(key for key in got if got[key] != expected[key])
        if fields:
            mismatches.append(f"{config.name} != {reference.name}: "
                              + ", ".join(fields))
    assert not mismatches, "\n".join(mismatches)


@pytest.mark.parametrize("workload", sorted(all_workloads()))
def test_perfect_bounds_magic_and_early_bounds_late(workload):
    violations = []
    for config, bound in orderings():
        got = timing(workload, config)
        limit = timing(workload, bound)["cycles"]
        if got["cycles"] > limit:
            violations.append(f"{config.name}: {got['cycles']} cycles > "
                              f"{bound.name}: {limit}")
        if config.vp.kind is PredictorKind.PERFECT \
                and got["vp_result_correct"] != got["vp_result_predicted"]:
            violations.append(f"{config.name}: "
                              f"{got['vp_result_correct']} of "
                              f"{got['vp_result_predicted']} correct")
    assert not violations, "\n".join(violations)
