"""Stride value predictor (extension).

The paper's Figure 8 classifies a slice of redundancy as *derivable* —
results that fall on a stride, which instruction reuse can never capture
(the operands are new every time) but value prediction in principle can.
The VP_Magic/VP_LVP predictors the paper evaluates do not exploit
strides either; this two-delta stride predictor (Eickemeyer & Vassiliadis
style, as cited in the VP literature the paper builds on) covers exactly
that slice, so the repository can quantify how much of the derivable
category is actually reachable.

Per-instruction state: last value, confirmed stride, candidate stride,
and a 2-bit confidence counter.  A new stride must be seen twice in a
row (two-delta rule) before it replaces the confirmed stride, which
keeps one-off jumps (e.g. loop exits) from destroying a learned pattern.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from ..isa.opcodes import u32
from ..uarch.config import VPConfig


@dataclass
class StrideEntry:
    """Two-delta stride state for one static instruction."""

    tag: int
    last_value: int
    stride: int = 0  # confirmed stride
    candidate: int = 0  # last observed delta (two-delta rule)
    confidence: int = 0
    # Predictions issued for instances that have not committed yet: a
    # tight loop keeps several iterations in flight, so the k-th
    # outstanding prediction must be last + (k+1) * stride.
    outstanding: int = 0


class StrideTable:
    """Set-associative table of :class:`StrideEntry` (LRU)."""

    def __init__(self, config: VPConfig):
        self.config = config
        self.assoc = max(1, config.associativity)
        self.num_sets = max(1, config.entries // self.assoc)
        self.set_mask = self.num_sets - 1
        if self.num_sets & self.set_mask:
            raise ValueError("stride table sets must be a power of two")
        self.sets: List[List[StrideEntry]] = [[] for _ in
                                              range(self.num_sets)]

    def find(self, key: int) -> Optional[StrideEntry]:
        for entry in self.sets[key & self.set_mask]:
            if entry.tag == key:
                return entry
        return None

    def update(self, key: int, actual: int,
               was_predicted: bool = False) -> None:
        ways = self.sets[key & self.set_mask]
        for index, entry in enumerate(ways):
            if entry.tag == key:
                delta = u32(actual - entry.last_value)
                if delta == entry.stride:
                    entry.confidence = min(self.config.max_confidence,
                                           entry.confidence + 1)
                elif delta == entry.candidate:
                    # two-delta: the new stride confirmed itself
                    entry.stride = delta
                    entry.confidence = 1
                else:
                    entry.candidate = delta
                    entry.confidence = max(0, entry.confidence - 1)
                entry.last_value = actual
                if was_predicted:
                    # one in-flight prediction retired; unpredicted
                    # instances never incremented the counter
                    entry.outstanding = max(0, entry.outstanding - 1)
                ways.insert(0, ways.pop(index))
                return
        ways.insert(0, StrideEntry(key, actual))
        if len(ways) > self.assoc:
            ways.pop()


class StrideModel:
    """The stride predictor over a :class:`StrideTable`."""

    def __init__(self, config: VPConfig):
        self.config = config
        self.table = StrideTable(config)

    def predict(self, key: int, oracle: int) -> Optional[int]:
        entry = self.table.find(key)
        if entry is None \
                or entry.confidence < self.config.confidence_threshold:
            return None
        entry.outstanding += 1
        return u32(entry.last_value + entry.stride * entry.outstanding)

    def train(self, key: int, actual: int, predicted: Optional[int]) -> None:
        self.table.update(key, actual, was_predicted=predicted is not None)

    def abort(self, key: int) -> None:
        entry = self.table.find(key)
        if entry is not None:
            entry.outstanding = max(0, entry.outstanding - 1)

    def snapshot(self) -> dict:
        return {"stride_entries": sum(len(ways) for ways in self.table.sets)}
