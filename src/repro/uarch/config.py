"""Machine configuration for the out-of-order timing simulator.

Defaults reproduce Table 1 of the paper plus the VP/IR structure sizes from
Section 4.1.3 (16K-entry VPT, 4K-entry RB, both 4-way set associative).
VPT and RB ports (the paper's four reads/writes per cycle) are not
modelled: lookups are bounded only by the decode width, and updates and
insertions not at all.  The named constructors at the bottom build every
configuration the evaluation section simulates (base, IR early/late, the
four VP configurations x two predictors x two verification latencies).

A field is a Table 1 or Section 4.1 parameter, a structure size, or a
setting an experiment or CLI varies; other fixed design points are
constants of the module that reads them (``FCM_ORDER``,
``VFR_LOW_CONF_WIDTH``).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace
from typing import Optional


class BranchPolicy(enum.Enum):
    """How branches with value-speculative operands are resolved (Sec 3.2/4.1.4).

    ``SPECULATIVE`` (SB): resolve as soon as the branch executes, even on
    value-speculative operands — may cause spurious squashes.
    ``NON_SPECULATIVE`` (NSB): defer resolution until all operands are
    non-value-speculative — delays misprediction detection.
    """

    SPECULATIVE = "SB"
    NON_SPECULATIVE = "NSB"


class ReexecPolicy(enum.Enum):
    """Re-execution policy after value misprediction (Sec 4.1.4).

    ``MULTIPLE`` (ME): re-execute every time an instruction sees new inputs.
    ``SINGLE`` (NME): re-execute once, after correct operands are known.
    """

    MULTIPLE = "ME"
    SINGLE = "NME"


class IRValidation(enum.Enum):
    """When reused results are validated (Figure 3 experiment).

    ``EARLY``: at decode — the real IR scheme (reused ops skip execution).
    ``LATE``: at execute — as if the reused ops were value predicted with
    perfect accuracy (they still execute to validate).
    """

    EARLY = "early"
    LATE = "late"


class PredictorKind(enum.Enum):
    MAGIC = "magic"  # VP_Magic: n unique values + oracle selection
    LAST_VALUE = "lvp"  # VP_LVP: single last value per instruction
    STRIDE = "stride"  # two-delta stride predictor (extension)
    FCM = "fcm"  # order-2 finite-context-method predictor (extension)
    HYBRID_SELECT = "select"  # confidence-gated stride/LVP/FCM selector
    PERFECT = "perfect"  # oracle: always correct (upper-bound studies)


@dataclass(frozen=True)
class CacheConfig:
    """One level-1 cache (Table 1: 64KB, 2-way, 32B lines, 6-cycle miss)."""

    size_bytes: int = 64 * 1024
    associativity: int = 2
    line_bytes: int = 32
    miss_latency: int = 6

    @property
    def num_sets(self) -> int:
        return self.size_bytes // (self.line_bytes * self.associativity)


@dataclass(frozen=True)
class BranchPredictorConfig:
    """Gshare (McFarling) per Table 1: 10-bit history, 16K counters."""

    history_bits: int = 10
    counter_entries: int = 16 * 1024
    ras_entries: int = 16
    indirect_entries: int = 512  # last-target table for non-return jr/jalr


@dataclass(frozen=True)
class VPConfig:
    """Value-prediction configuration (Sections 4.1.1, 4.1.3, 4.1.4)."""

    enabled: bool = False
    kind: PredictorKind = PredictorKind.MAGIC
    entries: int = 16 * 1024
    associativity: int = 4  # max instances per instruction
    confidence_bits: int = 2
    confidence_threshold: int = 2  # counter value needed to predict
    verify_latency: int = 0  # 0 or 1 cycle (Sec 4.1.4)
    branch_policy: BranchPolicy = BranchPolicy.SPECULATIVE
    reexec_policy: ReexecPolicy = ReexecPolicy.MULTIPLE

    @property
    def max_confidence(self) -> int:
        return (1 << self.confidence_bits) - 1


@dataclass(frozen=True)
class IRConfig:
    """Instruction-reuse configuration (scheme S_{n+d}, Sec 4.1.2/4.1.3)."""

    enabled: bool = False
    entries: int = 4 * 1024
    associativity: int = 4  # max instances per instruction
    validation: IRValidation = IRValidation.EARLY
    # The "d" of S_{n+d}: dependence-pointer chaining, which lets an
    # entry be reused when its producer was reused this same cycle even
    # though the operand value is not yet readable.  Disabling it yields
    # the weaker S_n-style scheme of the original reuse paper.
    dependence_chaining: bool = True
    # Under LATE validation, may the reuse test chain through hit values
    # that have not been validated yet?  False (default) keeps the test
    # strictly non-speculative: deferring validation then also collapses
    # chained detection, which is what makes late validation lose most of
    # IR's benefit (Figure 3).  True treats detection as identical to the
    # early scheme and defers only the validation point.
    late_chain_detection: bool = False


@dataclass(frozen=True)
class MachineConfig:
    """Full processor configuration (Table 1 defaults)."""

    name: str = "base"
    fetch_width: int = 4
    decode_width: int = 4
    issue_width: int = 4
    commit_width: int = 4
    fetch_queue_size: int = 8
    rob_size: int = 32
    lsq_size: int = 32
    max_unresolved_branches: int = 8

    int_alus: int = 8
    load_store_units: int = 2
    int_mult_div_units: int = 1
    fp_adders: int = 4
    fp_mult_div_units: int = 1

    # Variable instruction fetch rate (arXiv 1707.04657): when enabled,
    # a low-confidence conditional-branch prediction ends the fetch
    # group, and the following cycle fetches at the reduced
    # ``VFR_LOW_CONF_WIDTH`` — modelling a frontend that throttles
    # behind branches it does not trust instead of flooding the window
    # with likely-wrong-path work.  Timing-only: architectural results
    # are unchanged (the differential oracle covers this knob).
    variable_fetch_rate: bool = False

    icache: CacheConfig = field(default_factory=CacheConfig)
    dcache: CacheConfig = field(default_factory=CacheConfig)
    dcache_ports: int = 2  # the D-cache is dual ported
    bpred: BranchPredictorConfig = field(default_factory=BranchPredictorConfig)
    # VP and IR enabled together make the hybrid the paper's conclusion
    # suggests: the reuse test runs first, and instructions that miss in
    # the RB but hit a confident VPT instance are value predicted.
    vp: VPConfig = field(default_factory=VPConfig)
    ir: IRConfig = field(default_factory=IRConfig)

    verify_commits: bool = False  # cross-check committed results vs oracle


# ---------------------------------------------------------------------------
# Named configurations used by the paper's evaluation.
# ---------------------------------------------------------------------------


def base_config() -> MachineConfig:
    """The base 4-way superscalar of Table 1 (no VP, no IR)."""
    return MachineConfig()


def ir_config(validation: IRValidation = IRValidation.EARLY) -> MachineConfig:
    """IR with scheme S_{n+d}: 4K-entry, 4-way RB."""
    name = "reuse-n+d" if validation == IRValidation.EARLY else "reuse-late"
    return MachineConfig(name=name,
                         ir=IRConfig(enabled=True, validation=validation))


def vp_config(kind: PredictorKind = PredictorKind.MAGIC,
              reexec: ReexecPolicy = ReexecPolicy.MULTIPLE,
              branches: BranchPolicy = BranchPolicy.SPECULATIVE,
              verify_latency: int = 0) -> MachineConfig:
    """A VP configuration: 16K-entry, 4-way VPT.

    The paper's four configurations are the cross product of
    ME/NME (re-execution) with SB/NSB (branch resolution), each run at
    0- and 1-cycle verification latency, for both VP_Magic and VP_LVP.
    """
    kind_name = kind.value
    name = (f"vp-{kind_name}-{reexec.value.lower()}"
            f"-{branches.value.lower()}-v{verify_latency}")
    vp = VPConfig(
        enabled=True,
        kind=kind,
        associativity=4 if kind == PredictorKind.MAGIC else 1,
        verify_latency=verify_latency,
        branch_policy=branches,
        reexec_policy=reexec,
    )
    return MachineConfig(name=name, vp=vp)


def vfr_config(kind: Optional[PredictorKind] = None) -> MachineConfig:
    """Variable-fetch-rate frontend, optionally on top of a VP scheme.

    With ``kind=None`` this is the base machine with the throttled
    frontend; with a predictor kind it is that kind's ME-SB-v0
    configuration plus the frontend knob, so the interaction between
    value speculation and a confidence-aware fetch can be studied.
    """
    base = MachineConfig() if kind is None else vp_config(kind)
    return replace(base, name=f"{base.name}-vfr", variable_fetch_rate=True)


def hybrid_config(kind: PredictorKind = PredictorKind.MAGIC,
                  verify_latency: int = 0,
                  branches: BranchPolicy = BranchPolicy.SPECULATIVE
                  ) -> MachineConfig:
    """The hybrid the paper's conclusion motivates: reuse what the RB
    validates non-speculatively, predict the rest.

    Both structures keep their Section 4.1.3 sizes, so the hybrid uses
    twice the storage of either technique alone — this configuration
    explores the mechanism interaction, not an equal-storage comparison
    (see the ablation experiments for storage sweeps).
    """
    kind_name = kind.value
    name = f"hybrid-{kind_name}-{branches.value.lower()}-v{verify_latency}"
    return MachineConfig(
        name=name,
        vp=VPConfig(enabled=True, kind=kind,
                    associativity=4 if kind == PredictorKind.MAGIC else 1,
                    verify_latency=verify_latency, branch_policy=branches),
        ir=IRConfig(enabled=True),
    )

