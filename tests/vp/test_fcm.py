"""Tests for the order-2 finite-context-method predictor (extension).

FCM targets the slice neither LVP nor stride can reach: results that
*repeat in a pattern* (alternations, short cycles).  The tests pin the
two-level structure, the confidence gating, the chained lookahead that
keeps tight loops on-pattern with predictions in flight, and the
determinism of the context hash.
"""

import pytest

from repro.uarch.config import PredictorKind, VPConfig
from repro.vp.fcm import FCMModel, FCMTable, mix_context
from repro.vp.predictors import ValuePredictor, make_predictor
from repro.vp.table import KIND_RESULT, vp_key

#: The result key of the instruction at 0x1000.
KEY = vp_key(0x1000, KIND_RESULT)


def config(threshold=2, entries=64):
    return VPConfig(enabled=True, kind=PredictorKind.FCM,
                    confidence_threshold=threshold, entries=entries)


def feed(p, key, values):
    """Predict+train a committed sequence with no in-flight overlap."""
    results = []
    for value in values:
        results.append(p.predict_result(key, value))
        p.train_result(key, value, results[-1])
    return results


class TestMixContext:
    def test_deterministic(self):
        assert mix_context(5, (1, 2)) == mix_context(5, (1, 2))

    def test_order_sensitive(self):
        assert mix_context(5, (1, 2)) != mix_context(5, (2, 1))

    def test_key_sensitive(self):
        assert mix_context(5, (1, 2)) != mix_context(6, (1, 2))

    def test_32_bit(self):
        assert 0 <= mix_context(123456, (0xFFFFFFFF, 7)) <= 0xFFFFFFFF


class TestLearning:
    def test_learns_alternating_pattern(self):
        # 7,9,7,9,... destroys a last-value predictor but is a trivial
        # order-2 context pattern.
        values = [7, 9] * 12
        results = feed(ValuePredictor(config()), KEY, values)
        assert results[-4:] == values[-4:]

    def test_learns_period_three_cycle(self):
        values = [3, 5, 8] * 10
        results = feed(ValuePredictor(config()), KEY, values)
        assert results[-3:] == values[-3:]

    def test_no_prediction_without_context(self):
        p = ValuePredictor(config())
        assert p.predict_result(KEY, 1) is None

    def test_no_prediction_until_confident(self):
        results = feed(ValuePredictor(config()), KEY, [7, 9] * 3)
        # Context fills, then each transition needs 2 confirmations.
        assert results[:4] == [None] * 4

    def test_constant_stream(self):
        results = feed(ValuePredictor(config()), KEY, [42] * 10)
        assert results[-1] == 42

    def test_random_stream_stays_quiet(self):
        values = [1, 17, 5, 99, 3, 54, 23, 8, 71, 12]
        results = feed(ValuePredictor(config()), KEY, values)
        assert all(r is None for r in results)


class TestChainedLookahead:
    def test_peek_chains_through_own_predictions(self):
        table = FCMTable(config())
        for value in [7, 9] * 8:
            table.train(KEY, value)
        # Committed context ends ...7,9 -> next is 7, then 9, then 7.
        assert table.peek(KEY, ahead=1) == 7
        assert table.peek(KEY, ahead=2) == 9
        assert table.peek(KEY, ahead=3) == 7

    def test_outstanding_predictions_advance_the_chain(self):
        p = ValuePredictor(config())
        for value in [7, 9] * 8:
            p.train_result(KEY, value, None)
        # Three dispatches before any commit: each must look one link
        # further ahead (the in-flight lag of a tight loop).
        assert p.predict_result(KEY, 0) == 7
        assert p.predict_result(KEY, 0) == 9
        assert p.predict_result(KEY, 0) == 7

    def test_abort_rewinds_the_chain(self):
        p = ValuePredictor(config())
        for value in [7, 9] * 8:
            p.train_result(KEY, value, None)
        assert p.predict_result(KEY, 0) == 7
        p.abort(KEY)  # squashed before commit
        assert p.predict_result(KEY, 0) == 7

    def test_train_retires_outstanding(self):
        p = ValuePredictor(config())
        for value in [7, 9] * 8:
            p.train_result(KEY, value, None)
        first = p.predict_result(KEY, 0)
        p.train_result(KEY, 7, first)
        # The commit consumed the outstanding slot: next dispatch is
        # again one link past the (new) committed context.
        assert p.predict_result(KEY, 0) == 9


class TestStructure:
    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError):
            FCMTable(config(entries=48))

    def test_distinct_pcs_are_independent(self):
        p = ValuePredictor(config())
        feed(p, KEY, [7, 9] * 8)
        assert p.predict_result(vp_key(0x2000, KIND_RESULT), 1) is None

    def test_factory_dispatch(self):
        assert isinstance(make_predictor(config()).model, FCMModel)

    def test_telemetry_snapshot(self):
        p = ValuePredictor(config())
        feed(p, KEY, [7, 9] * 4)
        snapshot = p.telemetry_snapshot()
        assert snapshot["kind"] == "fcm"
        assert snapshot["fcm_contexts"] >= 1
