"""Unit tests for the value-predictor front end and VP_Magic / VP_LVP."""

import pytest

from repro.uarch.config import PredictorKind, VPConfig, vp_config
from repro.vp.predictors import ValuePredictor, make_predictor
from repro.vp.table import KIND_ADDRESS, KIND_RESULT, vp_key

#: The result and address keys of the instruction at 0x1000.
KEY = vp_key(0x1000, KIND_RESULT)
ADDR_KEY = vp_key(0x1000, KIND_ADDRESS)


def magic(**kw):
    return ValuePredictor(VPConfig(enabled=True, kind=PredictorKind.MAGIC,
                                   associativity=4, **kw))


def lvp(**kw):
    return ValuePredictor(VPConfig(enabled=True,
                                   kind=PredictorKind.LAST_VALUE,
                                   associativity=1, **kw))


def train(predictor, key, values, times=1):
    for _ in range(times):
        for value in values:
            predictor.train_result(key, value, None)


@pytest.mark.parametrize("kind", list(PredictorKind), ids=lambda k: k.value)
def test_one_front_end_serves_every_kind(kind):
    predictor = make_predictor(vp_config(kind).vp)
    assert type(predictor) is ValuePredictor
    predictor.predict_result(KEY, 7)
    predictor.predict_address(ADDR_KEY, 0x8000)
    snapshot = predictor.telemetry_snapshot()
    assert snapshot["kind"] == kind.value
    assert snapshot["result_lookups"] == snapshot["addr_lookups"] == 1


class TestVPMagic:
    def test_no_prediction_when_cold(self):
        assert magic().predict_result(KEY, oracle=5) is None

    def test_oracle_selection_picks_correct_instance(self):
        predictor = magic()
        train(predictor, KEY, [10, 20, 30], times=3)
        # all three values confident; the oracle selects the right one
        assert predictor.predict_result(KEY, oracle=20) == 20
        assert predictor.predict_result(KEY, oracle=30) == 30

    def test_falls_back_to_most_confident(self):
        predictor = magic()
        train(predictor, KEY, [10], times=5)
        train(predictor, KEY, [20], times=2)
        # oracle value 99 is not stored: most confident (10) is predicted
        assert predictor.predict_result(KEY, oracle=99) == 10

    def test_unconfident_instances_not_used(self):
        predictor = magic()
        predictor.train_result(KEY, 10, None)  # confidence 1 < 2
        assert predictor.predict_result(KEY, oracle=10) is None

    def test_four_instances_per_instruction(self):
        predictor = magic()
        train(predictor, KEY, [1, 2, 3, 4], times=3)
        for value in (1, 2, 3, 4):
            assert predictor.predict_result(KEY, oracle=value) == value
        # a fifth value evicts the LRU instance
        train(predictor, KEY, [5], times=3)
        assert predictor.predict_result(KEY, oracle=5) == 5

    def test_address_prediction_independent(self):
        predictor = magic()
        for _ in range(3):
            predictor.train_address(ADDR_KEY, 0x8000, None)
        assert predictor.predict_address(ADDR_KEY, oracle=0x8000) == 0x8000
        assert predictor.predict_result(KEY, oracle=0x8000) is None

    def test_address_prediction_can_be_disabled(self):
        predictor = ValuePredictor(VPConfig(
            enabled=True, kind=PredictorKind.MAGIC,
            predict_addresses=False))
        for _ in range(3):
            predictor.train_address(ADDR_KEY, 0x8000, None)
        assert predictor.predict_address(ADDR_KEY, oracle=0x8000) is None


class TestVPLVP:
    def test_single_instance(self):
        predictor = lvp()
        train(predictor, KEY, [10], times=3)
        train(predictor, KEY, [20], times=1)
        # 20 replaced 10 (assoc 1); 20 is not yet confident
        assert predictor.predict_result(KEY, oracle=20) is None
        train(predictor, KEY, [20], times=1)
        assert predictor.predict_result(KEY, oracle=20) == 20

    def test_no_oracle_advantage(self):
        """LVP predicts the last value even when the oracle differs."""
        predictor = lvp()
        train(predictor, KEY, [10], times=3)
        assert predictor.predict_result(KEY, oracle=77) == 10

    def test_alternating_values_never_confident(self):
        predictor = lvp()
        for _ in range(8):
            predictor.train_result(KEY, 1, None)
            predictor.train_result(KEY, 2, None)
        assert predictor.predict_result(KEY, oracle=1) is None


class TestPerfectPredictor:
    def _make(self, **kw):
        from repro.uarch.config import PredictorKind, VPConfig
        from repro.vp.predictors import PerfectModel, make_predictor
        config = VPConfig(enabled=True, kind=PredictorKind.PERFECT, **kw)
        predictor = make_predictor(config)
        assert isinstance(predictor.model, PerfectModel)
        return predictor

    def test_always_predicts_oracle(self):
        predictor = self._make()
        assert predictor.predict_result(KEY, 42) == 42
        assert predictor.predict_address(ADDR_KEY, 0x8000) == 0x8000

    def test_respects_address_disable(self):
        predictor = self._make(predict_addresses=False)
        assert predictor.predict_address(ADDR_KEY, 0x8000) is None

    def test_training_and_abort_are_noops(self):
        predictor = self._make()
        predictor.train_result(KEY, 1, 2)
        predictor.abort(KEY)

    def test_bounds_realistic_predictors(self):
        """VP_Perfect is a true upper bound on any predictor's cycles."""
        import dataclasses
        from repro.isa import assemble
        from repro.uarch.config import PredictorKind, vp_config
        from repro.uarch.core import OutOfOrderCore
        source = """
        main:   li $s0, 300
        loop:   li $t0, 9
                add $t1, $t0, $t0
                add $t2, $t1, $t1
                addi $s0, $s0, -1
                bnez $s0, loop
                halt
        """
        def cycles(kind):
            config = dataclasses.replace(vp_config(kind),
                                         verify_commits=True)
            core = OutOfOrderCore(config, assemble(source))
            return core.run(max_cycles=100_000).cycles
        assert cycles(PredictorKind.PERFECT) <= cycles(PredictorKind.MAGIC)
        assert cycles(PredictorKind.PERFECT) \
            <= cycles(PredictorKind.LAST_VALUE)
