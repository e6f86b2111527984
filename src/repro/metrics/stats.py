"""Simulation statistics: every counter the paper's tables/figures need."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..util.serial import canonical_dumps


@dataclass
class SimStats:
    """Counters collected by one timing-simulation run."""

    config_name: str = ""
    workload_name: str = ""

    cycles: int = 0
    committed: int = 0  # committed (retired) instructions
    fetched: int = 0
    dispatched: int = 0

    # Execution accounting (Table 5 / Table 6).
    executed_instructions: int = 0  # distinct dynamic insts that executed
    execution_attempts: int = 0  # total executions incl. re-executions
    exec_count_histogram: Dict[int, int] = field(default_factory=dict)
    squashed_instructions: int = 0  # dispatched insts squashed
    squashed_executed: int = 0  # squashed insts that had executed
    squashed_recovered: int = 0  # squashed executed insts later reused

    # Branch behaviour (Tables 2 and 4, Figure 4).
    cond_branches: int = 0  # committed conditional branches
    cond_branch_correct: int = 0
    returns: int = 0  # committed returns (jr $ra)
    returns_correct: int = 0
    branch_squashes: int = 0  # squash events from control resolution
    spurious_squashes: int = 0  # squashes on value-speculative operands
    branch_resolution_cycles: int = 0  # sum over committed cond branches
    branch_resolution_count: int = 0
    reused_branches: int = 0  # branches resolved at dispatch via reuse

    # Resource contention (Figure 5).
    resource_requests: int = 0
    resource_denials: int = 0

    # Value prediction (Table 3).
    vp_result_lookups: int = 0
    vp_result_predicted: int = 0  # committed insts that used a prediction
    vp_result_correct: int = 0
    vp_addr_lookups: int = 0
    vp_addr_predicted: int = 0
    vp_addr_correct: int = 0
    memory_ops: int = 0  # committed loads + stores

    # Instruction reuse (Table 3, Figure 3).
    ir_tests: int = 0
    ir_result_reused: int = 0  # committed insts whose result was reused
    ir_addr_reused: int = 0  # committed memory ops with address reuse

    # Caches.
    icache_misses: int = 0
    dcache_misses: int = 0
    dcache_accesses: int = 0

    halted: bool = False

    # -- derived quantities -------------------------------------------------------

    @property
    def ipc(self) -> float:
        return self.committed / self.cycles if self.cycles else 0.0

    @property
    def branch_prediction_rate(self) -> float:
        if not self.cond_branches:
            return 1.0
        return self.cond_branch_correct / self.cond_branches

    @property
    def return_prediction_rate(self) -> float:
        if not self.returns:
            return 1.0
        return self.returns_correct / self.returns

    @property
    def mean_branch_resolution_latency(self) -> float:
        if not self.branch_resolution_count:
            return 0.0
        return self.branch_resolution_cycles / self.branch_resolution_count

    @property
    def resource_contention(self) -> float:
        if not self.resource_requests:
            return 0.0
        return self.resource_denials / self.resource_requests

    @property
    def vp_result_rate(self) -> float:
        """Correct result predictions as a fraction of committed insts."""
        return self.vp_result_correct / self.committed if self.committed else 0.0

    @property
    def vp_result_misp_rate(self) -> float:
        if not self.committed:
            return 0.0
        return (self.vp_result_predicted - self.vp_result_correct) / self.committed

    @property
    def vp_addr_rate(self) -> float:
        return self.vp_addr_correct / self.memory_ops if self.memory_ops else 0.0

    @property
    def ir_result_rate(self) -> float:
        return self.ir_result_reused / self.committed if self.committed else 0.0

    @property
    def ir_addr_rate(self) -> float:
        return self.ir_addr_reused / self.memory_ops if self.memory_ops else 0.0

    @property
    def squashed_executed_fraction(self) -> float:
        if not self.executed_instructions:
            return 0.0
        return self.squashed_executed / self.executed_instructions

    @property
    def recovered_fraction(self) -> float:
        if not self.squashed_executed:
            return 0.0
        return self.squashed_recovered / self.squashed_executed

    def record_exec_histogram(self, exec_count: int) -> None:
        self.exec_count_histogram[exec_count] = (
            self.exec_count_histogram.get(exec_count, 0) + 1)

    def exec_count_fraction(self, times: int) -> float:
        total = sum(self.exec_count_histogram.values())
        if not total:
            return 0.0
        return self.exec_count_histogram.get(times, 0) / total

    def as_dict(self) -> Dict[str, float]:
        """Flatten to plain numbers (for JSON result caching)."""
        simple = {}
        for name, value in self.__dict__.items():
            if isinstance(value, (int, float, bool, str)):
                simple[name] = value
        simple["exec_count_histogram"] = dict(self.exec_count_histogram)
        return simple

    def canonical_json(self) -> str:
        """Deterministic serialization: sorted keys, fixed layout.

        This is the byte format of the on-disk result cache, and the
        foundation of the determinism contract: two runs of the same
        (workload, config) pair — serial or parallel, in any process —
        must produce byte-identical output.  ``canonical_dumps`` both
        sorts keys (removing the last source of byte-level variation,
        dict insertion order) and *asserts* the payload is sortable —
        e.g. ``exec_count_histogram`` must keep homogeneous int keys,
        because int keys sort numerically while str keys would sort
        lexically ("10" < "2") and silently reorder the cache bytes.
        """
        return canonical_dumps(self.as_dict())

    def diff(self, other: "SimStats") -> Dict[str, Tuple]:
        """Field-by-field comparison: ``{field: (self, other)}`` for every
        counter that differs.  Empty dict means the runs were identical —
        the assertion helper for determinism and differential tests."""
        mine, theirs = self.as_dict(), other.as_dict()
        return {name: (mine.get(name), theirs.get(name))
                for name in sorted(set(mine) | set(theirs))
                if mine.get(name) != theirs.get(name)}

    def same_counters(self, other: "SimStats") -> bool:
        """True when every serialized counter matches (dataclass ``==``
        also works, but this mirrors exactly what the cache persists)."""
        return not self.diff(other)

    @classmethod
    def from_dict(cls, data: Dict) -> "SimStats":
        """Rebuild from a cached ``as_dict`` payload, tolerantly.

        Only declared dataclass fields are restored; anything else —
        fields added by a newer writer, derived quantities such as
        ``ipc`` that a tool may have flattened in — is ignored, so old
        readers can always load newer caches.  (``hasattr`` is the
        wrong membership test here: read-only properties pass it and
        then explode in ``setattr``.)
        """
        fields = cls.__dataclass_fields__
        stats = cls()
        for name, value in data.items():
            if name == "exec_count_histogram":
                stats.exec_count_histogram = {
                    int(k): v for k, v in value.items()}
            elif name in fields:
                setattr(stats, name, value)
        return stats


def speedup(stats: SimStats, base: SimStats) -> float:
    """IPC speedup over the base machine (the paper's Figures 6/7 metric)."""
    if base.ipc == 0:
        return 0.0
    return stats.ipc / base.ipc


def harmonic_mean(values: List[float]) -> float:
    """Harmonic mean, the paper's cross-benchmark summary (HM bars)."""
    values = [v for v in values if v > 0]
    if not values:
        return 0.0
    return len(values) / sum(1.0 / v for v in values)
