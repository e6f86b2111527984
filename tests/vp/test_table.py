"""Unit tests for the Value Prediction Table."""

from repro.uarch.config import VPConfig
from repro.vp.table import (
    KIND_ADDRESS,
    KIND_RESULT,
    ValuePredictionTable,
    vp_key,
)

#: The result and address keys of the instruction at 0x1000, and the
#: result key of the one at 0x2000.
KEY = vp_key(0x1000, KIND_RESULT)
ADDR_KEY = vp_key(0x1000, KIND_ADDRESS)
OTHER_KEY = vp_key(0x2000, KIND_RESULT)


def make_table(entries=64, assoc=4, threshold=2):
    return ValuePredictionTable(VPConfig(
        enabled=True, entries=entries, associativity=assoc,
        confidence_threshold=threshold))


class TestInsertionAndConfidence:
    def test_new_value_starts_unconfident(self):
        table = make_table()
        table.update(KEY, 42)
        assert table.confident(KEY) == []
        assert len(table.instances(KEY)) == 1

    def test_value_becomes_confident_after_repeats(self):
        table = make_table()
        table.update(KEY, 42)
        table.update(KEY, 42)
        confident = table.confident(KEY)
        assert [inst.value for inst in confident] == [42]

    def test_confidence_saturates(self):
        table = make_table()
        for _ in range(10):
            table.update(KEY, 42)
        instance = table.instances(KEY)[0]
        assert instance.confidence == 3  # 2-bit counter

    def test_misprediction_decrements(self):
        table = make_table()
        for _ in range(4):
            table.update(KEY, 42)
        table.update(KEY, actual=43, mispredicted=42)
        values = {inst.value: inst.confidence
                  for inst in table.instances(KEY)}
        assert values[42] == 2  # decremented from saturation
        assert values[43] == 1  # newly inserted

    def test_confidence_floor_is_zero(self):
        table = make_table()
        table.update(KEY, 42)
        for _ in range(5):
            table.update(KEY, actual=1, mispredicted=42)
        values = {inst.value: inst.confidence
                  for inst in table.instances(KEY)}
        assert values[42] == 0


class TestInstanceManagement:
    def test_up_to_assoc_instances(self):
        table = make_table(assoc=4)
        for value in range(4):
            table.update(KEY, value)
        assert len(table.instances(KEY)) == 4

    def test_lru_eviction_beyond_assoc(self):
        table = make_table(assoc=4)
        for value in range(5):
            table.update(KEY, value)
        values = [inst.value for inst in table.instances(KEY)]
        assert 0 not in values  # LRU victim
        assert set(values) == {1, 2, 3, 4}

    def test_update_refreshes_lru(self):
        table = make_table(assoc=4)
        for value in range(4):
            table.update(KEY, value)
        table.update(KEY, 0)  # value 0 becomes MRU
        table.update(KEY, 9)  # evicts value 1
        values = {inst.value for inst in table.instances(KEY)}
        assert 0 in values and 1 not in values

    def test_result_and_address_spaces_are_disjoint(self):
        table = make_table()
        table.update(KEY, 42)
        table.update(ADDR_KEY, 0x8000)
        assert [i.value for i in table.instances(KEY)] == [42]
        assert [i.value for i in table.instances(ADDR_KEY)] \
            == [0x8000]

    def test_distinct_pcs_distinct_instances(self):
        table = make_table(entries=1 << 16)
        table.update(KEY, 1)
        table.update(OTHER_KEY, 2)
        assert [i.value for i in table.instances(KEY)] == [1]
        assert [i.value for i in table.instances(OTHER_KEY)] == [2]

    def test_paper_geometry(self):
        table = ValuePredictionTable(VPConfig(enabled=True))
        assert table.num_sets * table.assoc == 16 * 1024
        assert table.assoc == 4
