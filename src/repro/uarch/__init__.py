"""Out-of-order timing simulation: the paper's Table 1 machine."""

from .config import (
    BranchPolicy,
    BranchPredictorConfig,
    CacheConfig,
    IRConfig,
    IRValidation,
    MachineConfig,
    PredictorKind,
    ReexecPolicy,
    VPConfig,
    base_config,
    ir_config,
    vp_config,
)
from .core import OutOfOrderCore

__all__ = [
    "BranchPolicy",
    "BranchPredictorConfig",
    "CacheConfig",
    "IRConfig",
    "IRValidation",
    "MachineConfig",
    "PredictorKind",
    "ReexecPolicy",
    "VPConfig",
    "base_config",
    "ir_config",
    "vp_config",
    "OutOfOrderCore",
]
