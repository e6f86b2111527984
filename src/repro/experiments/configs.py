"""The named machine configurations used across the evaluation."""

from __future__ import annotations

from typing import List

from ..uarch.config import (
    BranchPolicy,
    IRValidation,
    MachineConfig,
    PredictorKind,
    ReexecPolicy,
    base_config,
    ir_config,
    vfr_config,
    vp_config,
)

BASE = base_config()
IR_EARLY = ir_config(IRValidation.EARLY)
IR_LATE = ir_config(IRValidation.LATE)


def vp_matrix(kind: PredictorKind, verify_latency: int) -> List[MachineConfig]:
    """The paper's four VP configurations: ME/NME x SB/NSB (Sec 4.1.4)."""
    return [
        vp_config(kind, ReexecPolicy.MULTIPLE, BranchPolicy.SPECULATIVE,
                  verify_latency),
        vp_config(kind, ReexecPolicy.SINGLE, BranchPolicy.SPECULATIVE,
                  verify_latency),
        vp_config(kind, ReexecPolicy.MULTIPLE, BranchPolicy.NON_SPECULATIVE,
                  verify_latency),
        vp_config(kind, ReexecPolicy.SINGLE, BranchPolicy.NON_SPECULATIVE,
                  verify_latency),
    ]


def vp_magic(reexec: ReexecPolicy = ReexecPolicy.MULTIPLE,
             branches: BranchPolicy = BranchPolicy.SPECULATIVE,
             verify_latency: int = 0) -> MachineConfig:
    return vp_config(PredictorKind.MAGIC, reexec, branches, verify_latency)


def vp_lvp(reexec: ReexecPolicy = ReexecPolicy.MULTIPLE,
           branches: BranchPolicy = BranchPolicy.SPECULATIVE,
           verify_latency: int = 0) -> MachineConfig:
    return vp_config(PredictorKind.LAST_VALUE, reexec, branches,
                     verify_latency)


def short_vp_name(config: MachineConfig) -> str:
    """'ME-SB'-style label as the paper prints them."""
    return f"{config.vp.reexec_policy.value}-{config.vp.branch_policy.value}"


#: The realistic predictor-zoo kinds (MAGIC and PERFECT are oracles).
ZOO_KINDS = (PredictorKind.LAST_VALUE, PredictorKind.STRIDE,
             PredictorKind.FCM, PredictorKind.HYBRID_SELECT)


def zoo_configs() -> List[MachineConfig]:
    """Base plus every realistic predictor kind (ME-SB, zero-latency
    verify) plus the variable-fetch-rate frontend on the hybrid: the
    configuration axis of the predictor-zoo experiment."""
    configs = [BASE]
    configs += [vp_config(kind) for kind in ZOO_KINDS]
    configs.append(vfr_config(PredictorKind.HYBRID_SELECT))
    return configs
