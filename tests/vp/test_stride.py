"""Tests for the stride value predictor (extension).

The stride predictor targets the paper's *derivable* redundancy category
(Figure 8): results on a stride repeat nothing — IR and the last-value /
magic predictors capture none of it — but are perfectly predictable.
"""

import dataclasses

import pytest

from repro.isa import assemble
from repro.uarch.config import PredictorKind, VPConfig, base_config, vp_config
from repro.uarch.core import OutOfOrderCore
from repro.vp.predictors import ValuePredictor, make_predictor
from repro.vp.stride import StrideModel
from repro.vp.table import KIND_ADDRESS, KIND_RESULT, vp_key

#: The result key of the instruction at 0x1000.
KEY = vp_key(0x1000, KIND_RESULT)


def predictor(threshold=2, assoc=1, entries=64):
    return ValuePredictor(VPConfig(
        enabled=True, kind=PredictorKind.STRIDE,
        confidence_threshold=threshold, associativity=assoc,
        entries=entries))


def feed(p, key, values):
    """Predict+train a committed sequence with no in-flight overlap."""
    results = []
    for value in values:
        results.append(p.predict_result(key, value))
        p.train_result(key, value, results[-1])
    return results


class TestLearning:
    def test_learns_constant_stride(self):
        results = feed(predictor(), KEY, [4, 8, 12, 16, 20, 24])
        assert results[-1] == 24
        assert results[-2] == 20

    def test_no_prediction_until_confident(self):
        results = feed(predictor(), KEY, [4, 8, 12])
        assert all(r is None for r in results)

    def test_zero_stride_is_last_value(self):
        results = feed(predictor(), KEY, [7, 7, 7, 7, 7])
        assert results[-1] == 7

    def test_negative_stride(self):
        values = [100, 97, 94, 91, 88, 85]
        results = feed(predictor(), KEY, values)
        assert results[-1] == 85

    def test_two_delta_survives_one_off_jump(self):
        p = predictor()
        feed(p, KEY, [4, 8, 12, 16, 20])
        # one irregular value, then the stride resumes
        p.train_result(KEY, 100, None)
        p.train_result(KEY, 104, None)
        p.train_result(KEY, 108, None)
        assert p.predict_result(KEY, 112) == 112

    def test_stride_change_relearned(self):
        p = predictor()
        feed(p, KEY, [4, 8, 12, 16])
        results = feed(p, KEY, [26, 36, 46, 56, 66])
        assert results[-1] == 66

    def test_wraps_32_bits(self):
        base = 0xFFFFFFF0
        values = [(base + 8 * i) & 0xFFFFFFFF for i in range(6)]
        results = feed(predictor(), KEY, values)
        assert results[-1] == values[-1]


class TestOutstandingTracking:
    def test_in_flight_predictions_advance(self):
        p = predictor()
        feed(p, KEY, [4, 8, 12, 16, 20])
        # three predictions before any of them commits
        assert p.predict_result(KEY, 0) == 24
        assert p.predict_result(KEY, 0) == 28
        assert p.predict_result(KEY, 0) == 32

    def test_commits_rebalance(self):
        p = predictor()
        feed(p, KEY, [4, 8, 12, 16, 20])
        first = p.predict_result(KEY, 0)
        p.train_result(KEY, 24, first)
        assert p.predict_result(KEY, 0) == 28

    def test_abort_rolls_back(self):
        p = predictor()
        feed(p, KEY, [4, 8, 12, 16, 20])
        p.predict_result(KEY, 0)  # wrong-path instance
        p.abort(KEY)
        assert p.predict_result(KEY, 0) == 24

    def test_untrained_abort_is_noop(self):
        predictor().abort(vp_key(0x9999, KIND_RESULT))  # must not raise


class TestFactory:
    def test_make_predictor_dispatch(self):
        stride_config = VPConfig(enabled=True, kind=PredictorKind.STRIDE)
        assert isinstance(make_predictor(stride_config).model, StrideModel)
        magic_config = VPConfig(enabled=True, kind=PredictorKind.MAGIC)
        assert isinstance(make_predictor(magic_config), ValuePredictor)

    def test_table_predictors_have_abort_interface(self):
        vp = ValuePredictor(VPConfig(enabled=True))
        vp.abort(vp_key(0x1000, KIND_RESULT))
        vp.abort(vp_key(0x1000, KIND_ADDRESS))


class TestEndToEnd:
    STRIDE_CODE = """
    main:   li $s0, 500
    loop:   addi $t0, $t0, 4
            add $t1, $t0, $t0
            add $t2, $t1, $t0
            addi $s0, $s0, -1
            bnez $s0, loop
            halt
    """

    def _run(self, config):
        config = dataclasses.replace(config, verify_commits=True)
        core = OutOfOrderCore(config, assemble(self.STRIDE_CODE))
        return core.run(max_cycles=200_000)

    def test_captures_derivable_redundancy(self):
        stats = self._run(vp_config(PredictorKind.STRIDE))
        assert stats.vp_result_correct > 0.5 * stats.committed

    def test_magic_captures_nothing_here(self):
        stats = self._run(vp_config(PredictorKind.MAGIC))
        assert stats.vp_result_correct == 0

    def test_speedup_over_base(self):
        base = self._run(base_config())
        stride = self._run(vp_config(PredictorKind.STRIDE))
        assert stride.cycles < base.cycles

    def test_accuracy_with_in_flight_iterations(self):
        stats = self._run(vp_config(PredictorKind.STRIDE))
        assert stats.vp_result_correct > 0.98 * stats.vp_result_predicted
