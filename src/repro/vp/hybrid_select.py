"""Confidence-gated hybrid value predictor (stride / LVP / FCM selector).

Wang & Franklin-style component arbitration: three component predictors
run side by side and a per-instruction selector with one 2-bit
confidence counter *per component* decides which one (if any) supplies
the prediction.  At commit, every component is scored against the
actual value — the counter of a component that would have been right
goes up, a wrong one goes down — so the selector converges on the
component whose model matches each static instruction's value stream:
LVP for constants, stride for arithmetic sequences (the paper's
*derivable* slice), FCM for repeating patterns (the context-sensitive
slice).  A prediction is made only when the winning component's
selector counter has reached ``confidence_threshold``, gating early
wild guesses exactly as the paper's 2-bit VPT counters do.

This is a zoo predictor, not an equal-storage design point: each
component keeps its own ``config.entries``-sized table (the ablation
experiments own storage sweeps).
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Tuple

from ..isa.opcodes import u32
from ..uarch.config import VPConfig
from .fcm import FCMTable, InFlight
from .stride import StrideTable
from .table import ValuePredictionTable

#: Fixed arbitration order; earlier wins selector-confidence ties.
COMPONENTS = ("stride", "lvp", "fcm")


class SelectModel(InFlight):
    """The selector over its stride, LVP and FCM component tables.

    Its in-flight count covers predictions from any component: the
    stride candidate for the k-th outstanding instance is
    last + (k+1) * stride, exactly as the standalone predictor.
    """

    def __init__(self, config: VPConfig):
        super().__init__()
        self.config = config
        self.stride = StrideTable(config)
        # The LVP component is a one-instance-per-instruction VPT.
        self.lvp = ValuePredictionTable(
            dataclasses.replace(config, associativity=1))
        self.fcm = FCMTable(config)
        # Selector state, keyed like the component tables: one small
        # confidence vector per static instruction (bounded by the
        # program's static footprint, like the decode table).
        self.selector: Dict[int, List[int]] = {}
        self.component_predictions = {name: 0 for name in COMPONENTS}

    def _candidates(self, key: int,
                    offset: int) -> Tuple[Optional[int], ...]:
        """(stride, lvp, fcm) candidate values; ``None`` = no opinion.

        *offset* is how many strides ahead of the last committed value
        the candidate should be: 1 at train time (the committing
        instance), ``outstanding + 1`` at predict time.
        """
        threshold = self.config.confidence_threshold
        entry = self.stride.find(key)
        stride_candidate = None
        if entry is not None and entry.confidence >= threshold:
            stride_candidate = u32(entry.last_value
                                   + entry.stride * offset)
        confident = self.lvp.confident(key)
        lvp_candidate = confident[0].value if confident else None
        return stride_candidate, lvp_candidate, self.fcm.peek(key, offset)

    def predict(self, key: int, oracle: int) -> Optional[int]:
        candidates = self._candidates(key, self.ahead(key))
        if all(candidate is None for candidate in candidates):
            return None
        confidences = self.selector.get(key)
        if confidences is None:
            confidences = self.selector[key] = [1] * len(COMPONENTS)
        best_index: Optional[int] = None
        for index, candidate in enumerate(candidates):
            if candidate is None:
                continue
            if best_index is None \
                    or confidences[index] > confidences[best_index]:
                best_index = index
        if best_index is None \
                or confidences[best_index] < self.config.confidence_threshold:
            return None
        self.component_predictions[COMPONENTS[best_index]] += 1
        self.enter(key)
        return candidates[best_index]

    def train(self, key: int, actual: int, predicted: Optional[int]) -> None:
        # Score every component on what it would have predicted for the
        # committing instance (offset 1 past the last committed value).
        candidates = self._candidates(key, 1)
        confidences = self.selector.get(key)
        if confidences is None:
            confidences = self.selector[key] = [1] * len(COMPONENTS)
        maximum = self.config.max_confidence
        for index, candidate in enumerate(candidates):
            if candidate is None:
                continue
            if candidate == actual:
                confidences[index] = min(maximum, confidences[index] + 1)
            else:
                confidences[index] = max(0, confidences[index] - 1)
        # Train the components themselves.
        self.stride.update(key, actual)
        self.lvp.update(key, actual,
                        candidates[1] if candidates[1] is not None
                        and candidates[1] != actual else None)
        self.fcm.train(key, actual)
        if predicted is not None:
            self.retire(key)

    def snapshot(self) -> dict:
        snapshot = {"selector_entries": len(self.selector)}
        for name in COMPONENTS:
            snapshot[f"{name}_predictions"] = \
                self.component_predictions[name]
        return snapshot
