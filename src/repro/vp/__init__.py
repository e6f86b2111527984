"""Value prediction: the VPT structure and the predictor zoo.

One front end, :class:`ValuePredictor`, serves every predictor kind
through a per-kind model: VP_Magic / VP_LVP (the paper's Section 4.1.1
pair), VP_Perfect, the two-delta stride predictor, the order-2 FCM
predictor, and the confidence-gated stride/LVP/FCM hybrid selector.
"""

from .fcm import FCMTable
from .predictors import ValuePredictor, make_predictor
from .stride import StrideEntry, StrideTable
from .table import (
    KIND_ADDRESS,
    KIND_RESULT,
    ValuePredictionTable,
    VPTInstance,
    vp_key,
)

__all__ = [
    "ValuePredictor",
    "make_predictor",
    "StrideTable",
    "StrideEntry",
    "FCMTable",
    "ValuePredictionTable",
    "VPTInstance",
    "KIND_RESULT",
    "KIND_ADDRESS",
    "vp_key",
]
