"""The Value Prediction Table (VPT) and the predictor tables' key layout.

Section 4.1.3: 16K entries, 4-way set associative with LRU replacement —
i.e. up to four value *instances* per static instruction — each instance
carrying a 2-bit confidence counter.  Only confident instances are used
for prediction.  The VP_LVP variant uses the same structure with one
instance per instruction.

Result and address predictions share the table's capacity: a memory
instruction's address instances are stored under a distinct key derived
from its PC (see :func:`vp_key`), so total storage matches the paper's
single 16K-entry budget.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from ..uarch.config import VPConfig

KIND_RESULT = 0
KIND_ADDRESS = 1


def vp_key(pc: int, kind: int) -> int:
    """The table key of the instruction at *pc*'s result or address
    stream (*kind*), shared by every predictor table: the word address
    with the kind in the low bit.  Decode computes it once per static
    instruction (``StaticOp.vp_result_key`` / ``vp_addr_key``)."""
    return ((pc >> 2) << 1) | kind


@dataclass
class VPTInstance:
    """One stored value instance with its confidence counter."""

    tag: int
    value: int
    confidence: int


class ValuePredictionTable:
    """Set-associative instance store with per-instance confidence."""

    def __init__(self, config: VPConfig):
        self.config = config
        self.assoc = config.associativity
        self.num_sets = max(1, config.entries // self.assoc)
        self.set_mask = self.num_sets - 1
        if self.num_sets & self.set_mask:
            raise ValueError("VPT set count must be a power of two")
        # MRU-first lists of instances.
        self.sets: List[List[VPTInstance]] = [[] for _ in range(self.num_sets)]

    def confident(self, key: int) -> List[VPTInstance]:
        """All instances for *key* at or above the threshold, MRU first."""
        threshold = self.config.confidence_threshold
        return [inst for inst in self.sets[key & self.set_mask]
                if inst.tag == key and inst.confidence >= threshold]

    def instances(self, key: int) -> List[VPTInstance]:
        return [inst for inst in self.sets[key & self.set_mask]
                if inst.tag == key]

    def update(self, key: int, actual: int,
               mispredicted: Optional[int] = None) -> None:
        """Train the table with the committed *actual* value.

        * the instance holding *actual* gains confidence (and becomes MRU);
          if absent it is inserted over the LRU victim with confidence 1;
        * when a wrong prediction *mispredicted* was made, the instance
          that supplied it loses confidence.
        """
        ways = self.sets[key & self.set_mask]

        if mispredicted is not None and mispredicted != actual:
            for inst in ways:
                if inst.tag == key and inst.value == mispredicted:
                    inst.confidence = max(0, inst.confidence - 1)
                    break

        for index, inst in enumerate(ways):
            if inst.tag == key and inst.value == actual:
                inst.confidence = min(self.config.max_confidence,
                                      inst.confidence + 1)
                ways.insert(0, ways.pop(index))
                return
        ways.insert(0, VPTInstance(key, actual, 1))
        if len(ways) > self.assoc:
            ways.pop()
