"""Tests for the confidence-gated stride/LVP/FCM hybrid selector.

The selector's promise: per static instruction it converges on the
component whose model matches that instruction's value stream — LVP for
constants, stride for arithmetic sequences, FCM for repeating patterns —
and stays quiet when no component has earned confidence.
"""

import pytest

from repro.uarch.config import PredictorKind, VPConfig
from repro.vp.hybrid_select import COMPONENTS, SelectModel
from repro.vp.predictors import ValuePredictor, make_predictor
from repro.vp.table import KIND_ADDRESS, KIND_RESULT, vp_key

#: The result and address keys of the instruction at 0x1000, and the
#: result key of the one at 0x2000.
KEY = vp_key(0x1000, KIND_RESULT)
ADDR_KEY = vp_key(0x1000, KIND_ADDRESS)
OTHER_KEY = vp_key(0x2000, KIND_RESULT)


def config(threshold=2, entries=64):
    return VPConfig(enabled=True, kind=PredictorKind.HYBRID_SELECT,
                    confidence_threshold=threshold, entries=entries)


def feed(p, key, values):
    """Predict+train a committed sequence with no in-flight overlap."""
    results = []
    for value in values:
        results.append(p.predict_result(key, value))
        p.train_result(key, value, results[-1])
    return results


class TestComponentSelection:
    def test_constant_stream_predicted(self):
        results = feed(ValuePredictor(config()), KEY, [42] * 12)
        assert results[-1] == 42

    def test_stride_stream_predicted(self):
        values = list(range(0, 80, 4))
        results = feed(ValuePredictor(config()), KEY, values)
        assert results[-1] == values[-1]

    def test_alternating_stream_routed_to_fcm(self):
        p = ValuePredictor(config())
        results = feed(p, KEY, [7, 9] * 14)
        assert results[-1] == 9
        assert p.model.component_predictions["fcm"] > 0

    def test_each_pc_converges_independently(self):
        p = ValuePredictor(config())
        constant = feed(p, KEY, [5] * 14)
        alternating = feed(p, OTHER_KEY, [7, 9] * 7)
        assert constant[-1] == 5
        assert alternating[-1] == 9

    def test_random_stream_stays_quiet(self):
        values = [1, 17, 5, 99, 3, 54, 23, 8, 71, 12, 66, 2]
        results = feed(ValuePredictor(config()), KEY, values)
        assert all(r is None for r in results)


class TestSelectorState:
    def test_selector_entry_per_static_instruction(self):
        p = ValuePredictor(config())
        feed(p, KEY, [1, 1, 1])
        feed(p, OTHER_KEY, [2, 2, 2])
        assert len(p.model.selector) == 2

    def test_wrong_component_loses_confidence(self):
        p = ValuePredictor(config())
        # Constant phase builds LVP confidence, then a stride phase
        # must drag the selector off the now-wrong LVP component.
        feed(p, KEY, [5] * 8)
        lvp_index = COMPONENTS.index("lvp")
        confident_before = p.model.selector[KEY][lvp_index]
        results = feed(p, KEY, list(range(100, 180, 4)))
        assert p.model.selector[KEY][lvp_index] < confident_before
        assert results[-1] == 176

    def test_outstanding_tracked_across_dispatches(self):
        p = ValuePredictor(config())
        for value in range(0, 64, 4):
            p.train_result(KEY, value, None)
        # Back-to-back dispatches before any commit: stride candidates
        # must advance by one stride per in-flight instance.
        assert p.predict_result(KEY, 0) == 64
        assert p.predict_result(KEY, 0) == 68
        p.abort(KEY)
        assert p.predict_result(KEY, 0) == 68

    def test_telemetry_snapshot(self):
        p = ValuePredictor(config())
        feed(p, KEY, [7, 9] * 10)
        snapshot = p.telemetry_snapshot()
        assert snapshot["kind"] == "select"
        assert snapshot["selector_entries"] == 1
        assert set(COMPONENTS) == {
            name.rsplit("_", 1)[0] for name in snapshot
            if name.endswith("_predictions")}


class TestInterface:
    def test_factory_dispatch(self):
        assert isinstance(make_predictor(config()).model, SelectModel)

    def test_address_stream_predicted(self):
        p = ValuePredictor(config())
        for value in [0x100, 0x104] * 10:
            predicted = p.predict_address(ADDR_KEY, value)
            p.train_address(ADDR_KEY, value, predicted)
        assert p.predict_address(ADDR_KEY, 0) in (0x100, 0x104)
