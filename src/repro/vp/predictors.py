"""The value-predictor front end, and VP_Magic / VP_LVP (Section 4.1.1).

``VP_Magic`` stores the last *n* unique results of an instruction (n = VPT
associativity = 4) with 2-bit confidence counters and uses an *oracle
selection policy*: if the correct result is among the stored confident
instances, that instance is the prediction; otherwise the most confident
instance is used.  The paper adopts this policy to make VP comparable to
IR (whose reuse test also selects the correct instance from up to four),
and notes it is realistic (Wang & Franklin's hybrid predictor selects
among n buffered values accurately).

``VP_LVP`` is the classic last-value predictor: one instance per
instruction, predicted when confident.

Because the timing core executes instructions functionally at dispatch,
the "correct result" needed by the oracle selection is simply the
dispatch-time outcome — no separate oracle simulator is required.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Protocol

from ..uarch.config import PredictorKind, VPConfig
from .fcm import FCMModel
from .hybrid_select import SelectModel
from .stride import StrideModel
from .table import ValuePredictionTable


class Model(Protocol):
    """What :class:`ValuePredictor` asks of each kind's model."""

    def predict(self, key: int, oracle: int) -> Optional[int]:
        """The prediction for *key*, or ``None``; *oracle* is the
        correct value along the current (possibly wrong) path."""

    def train(self, key: int, actual: int, predicted: Optional[int]) -> None:
        """The committed value, and what was predicted for that
        instance (``None`` when nothing was)."""

    def abort(self, key: int) -> None:
        """A predicted instance of *key* was squashed before commit."""

    def snapshot(self) -> dict:
        """End-of-run facts for the telemetry ``vp`` block."""


class ValuePredictor:
    """The value predictor the core calls, for every :class:`PredictorKind`.

    It owns the entry points and the lookup counters, and hands each
    call's table key (``vp_key`` in :mod:`repro.vp.table`, which decode
    precomputes as ``StaticOp.vp_result_key`` / ``vp_addr_key``) to the
    kind's :class:`Model`.
    """

    def __init__(self, config: VPConfig):
        self.config = config
        self.model: Model = MODELS[config.kind](config)
        self.result_lookups = 0
        self.addr_lookups = 0

    # -- prediction (dispatch time) ----------------------------------------------

    def predict_result(self, key: int, oracle: int) -> Optional[int]:
        """Predict the result of the instruction with result key *key*."""
        self.result_lookups += 1
        return self.model.predict(key, oracle)

    def predict_address(self, key: int, oracle: int) -> Optional[int]:
        """Predict the effective address of the memory op with address
        key *key*."""
        self.addr_lookups += 1
        return self.model.predict(key, oracle)

    # -- training (commit time) -----------------------------------------------------

    def train_result(self, key: int, actual: int,
                     predicted: Optional[int]) -> None:
        self.model.train(key, actual, predicted)

    def train_address(self, key: int, actual: int,
                      predicted: Optional[int]) -> None:
        self.model.train(key, actual, predicted)

    def abort(self, key: int) -> None:
        """A predicted instance (result or address key) was squashed."""
        self.model.abort(key)

    # -- observability ----------------------------------------------------------------

    def telemetry_snapshot(self) -> dict:
        """End-of-run predictor facts for telemetry context blocks."""
        snapshot = {
            "kind": self.config.kind.value,
            "result_lookups": self.result_lookups,
            "addr_lookups": self.addr_lookups,
        }
        snapshot.update(self.model.snapshot())
        return snapshot


class VPTModel:
    """VP_Magic and VP_LVP over a :class:`ValuePredictionTable`."""

    def __init__(self, config: VPConfig):
        self.table = ValuePredictionTable(config)
        self.magic = config.kind == PredictorKind.MAGIC

    def predict(self, key: int, oracle: int) -> Optional[int]:
        confident = self.table.confident(key)
        if not confident:
            return None
        if self.magic:
            for instance in confident:
                if instance.value == oracle:
                    return instance.value
        # Most confident instance; MRU breaks ties (list is MRU-first).
        best = max(confident, key=lambda inst: inst.confidence)
        return best.value

    def train(self, key: int, actual: int, predicted: Optional[int]) -> None:
        self.table.update(key, actual, predicted)

    def abort(self, key: int) -> None:
        """The table is stateless with respect to in-flight predictions."""

    def snapshot(self) -> dict:
        return {"vpt_instances": sum(len(ways) for ways in self.table.sets)}


class PerfectModel:
    """VP_Perfect: every eligible instruction predicted correctly.

    The paper's footnote 3 notes that the measured redundancy (Figure 8)
    is "a rough upper bound on the number of instructions that can be
    value predicted"; this predictor realises the bound in the timing
    model, so limit studies can compare realisable speedup against the
    realistic schemes.  It deliberately masks the "real life" effects the
    paper wants visible (Section 4.1), so it appears only in ablations.
    """

    def __init__(self, config: VPConfig):
        pass

    def predict(self, key: int, oracle: int) -> int:
        return oracle

    def train(self, key: int, actual: int, predicted: Optional[int]) -> None:
        pass

    def abort(self, key: int) -> None:
        pass

    def snapshot(self) -> dict:
        return {}


#: The model behind each kind.
MODELS: Dict[PredictorKind, Callable[[VPConfig], Model]] = {
    PredictorKind.MAGIC: VPTModel,
    PredictorKind.LAST_VALUE: VPTModel,
    PredictorKind.STRIDE: StrideModel,
    PredictorKind.FCM: FCMModel,
    PredictorKind.HYBRID_SELECT: SelectModel,
    PredictorKind.PERFECT: PerfectModel,
}


def make_predictor(config: VPConfig) -> ValuePredictor:
    """The predictor the core builds for *config*."""
    return ValuePredictor(config)
