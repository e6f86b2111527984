"""Unit tests for statistics and derived metrics."""

import json
import typing

import pytest

from repro.metrics import SimStats, harmonic_mean, speedup
from repro.uarch.config import hybrid_config, vp_config
from repro.uarch.core import OutOfOrderCore
from repro.workloads import get_workload


class TestDerivedMetrics:
    def test_ipc(self):
        stats = SimStats(cycles=100, committed=250)
        assert stats.ipc == 2.5

    def test_ipc_zero_cycles(self):
        assert SimStats().ipc == 0.0

    def test_branch_prediction_rate(self):
        stats = SimStats(cond_branches=100, cond_branch_correct=90)
        assert stats.branch_prediction_rate == 0.9

    def test_branch_rate_with_no_branches(self):
        assert SimStats().branch_prediction_rate == 1.0

    def test_resource_contention(self):
        stats = SimStats(resource_requests=200, resource_denials=20)
        assert stats.resource_contention == 0.1

    def test_vp_rates(self):
        stats = SimStats(committed=1000, vp_result_predicted=400,
                         vp_result_correct=350)
        assert stats.vp_result_rate == 0.35
        assert stats.vp_result_misp_rate == 0.05

    def test_ir_rates(self):
        stats = SimStats(committed=1000, memory_ops=200,
                         ir_result_reused=100, ir_addr_reused=50)
        assert stats.ir_result_rate == 0.1
        assert stats.ir_addr_rate == 0.25

    def test_squash_recovery_fractions(self):
        stats = SimStats(executed_instructions=1000, squashed_executed=100,
                         squashed_recovered=30)
        assert stats.squashed_executed_fraction == 0.1
        assert stats.recovered_fraction == 0.3

    def test_resolution_latency_mean(self):
        stats = SimStats(branch_resolution_cycles=30,
                         branch_resolution_count=10)
        assert stats.mean_branch_resolution_latency == 3.0


class TestHistogram:
    def test_record_and_fraction(self):
        stats = SimStats()
        for times in (1, 1, 1, 2):
            stats.record_exec_histogram(times)
        assert stats.exec_count_fraction(1) == 0.75
        assert stats.exec_count_fraction(2) == 0.25
        assert stats.exec_count_fraction(3) == 0.0

    def test_empty_histogram(self):
        assert SimStats().exec_count_fraction(1) == 0.0


class TestSerialisation:
    def test_round_trip(self):
        stats = SimStats(config_name="base", cycles=10, committed=20)
        stats.record_exec_histogram(1)
        stats.record_exec_histogram(2)
        clone = SimStats.from_dict(stats.as_dict())
        assert clone.config_name == "base"
        assert clone.cycles == 10
        assert clone.exec_count_histogram == {1: 1, 2: 1}

    def test_from_dict_ignores_unknown_keys(self):
        stats = SimStats.from_dict({"cycles": 5, "not_a_field": 1})
        assert stats.cycles == 5

    def test_from_dict_ignores_derived_property_keys(self):
        # A newer writer may serialize derived metrics alongside the raw
        # counters.  Property names pass hasattr() but reject setattr();
        # from_dict must skip them rather than crash (forward-compat).
        stats = SimStats.from_dict({"cycles": 100, "committed": 250,
                                    "ipc": 2.5, "branch_prediction_rate": 1.0})
        assert stats.cycles == 100
        assert stats.ipc == 2.5  # recomputed, not assigned

    def test_from_dict_tolerates_future_schema(self):
        payload = SimStats(cycles=10, committed=20).as_dict()
        payload["telemetry_format"] = "repro-interval-v9"
        payload["new_counter_block"] = {"a": 1}
        clone = SimStats.from_dict(payload)
        assert clone.cycles == 10 and clone.committed == 20


class TestCanonicalJson:
    """canonical_json() is a byte contract: explicit key-order checks."""

    def test_keys_are_sorted(self):
        stats = SimStats(config_name="base", cycles=10, committed=20)
        payload = json.loads(stats.canonical_json())
        assert list(payload) == sorted(payload)

    def test_bytes_independent_of_insertion_order(self):
        forward, backward = SimStats(), SimStats()
        forward.record_exec_histogram(2)
        forward.record_exec_histogram(10)
        backward.record_exec_histogram(10)
        backward.record_exec_histogram(2)
        assert forward.canonical_json() == backward.canonical_json()

    def test_histogram_int_keys_sort_numerically(self):
        # int keys sort 2 < 10; stringified keys would sort "10" < "2"
        # and silently reorder every cache/golden byte stream.  The
        # numeric order is pinned here as part of the byte format.
        stats = SimStats()
        stats.record_exec_histogram(10)
        stats.record_exec_histogram(2)
        text = stats.canonical_json()
        assert text.index('"2"') < text.index('"10"')

    def test_matches_plain_sorted_dumps(self):
        # The validating serializer must not change a single byte
        # relative to the historical format (cache compatibility).
        stats = SimStats(cycles=7, committed=9)
        stats.record_exec_histogram(3)
        assert stats.canonical_json() == json.dumps(
            stats.as_dict(), indent=1, sort_keys=True)

    def test_rejects_unsortable_payload(self):
        # A refactor that mixes key types in any serialized dict now
        # fails at the writer instead of corrupting byte identity.
        stats = SimStats()
        stats.exec_count_histogram[1] = 1
        stats.exec_count_histogram["1"] = 1
        with pytest.raises(ValueError, match="mixed str/int"):
            stats.canonical_json()


class TestIntegralCounters:
    """Counters are exact integers and derived ratios are properties:
    float sums depend on summation order, so a float counter would break
    the byte-exact result cache and golden corpus."""

    def test_fields_are_integral(self):
        hints = typing.get_type_hints(SimStats)
        allowed = (int, bool, str, typing.Dict[int, int])
        assert [name for name in SimStats.__dataclass_fields__
                if hints[name] not in allowed] == []

    @pytest.mark.parametrize("factory", [vp_config, hybrid_config])
    def test_simulated_counters_hold_no_float(self, factory):
        spec = get_workload("compress")
        core = OutOfOrderCore(factory(), spec.program())
        core.skip(spec.skip_instructions)
        payload = core.run(max_cycles=80_000,
                           max_instructions=2_000).as_dict()
        histogram = payload.pop("exec_count_histogram")
        values = list(payload.values()) + list(histogram) \
            + list(histogram.values())
        assert histogram
        assert [v for v in values if isinstance(v, float)] == []


class TestAggregation:
    def test_speedup(self):
        base = SimStats(cycles=100, committed=100)
        fast = SimStats(cycles=50, committed=100)
        assert speedup(fast, base) == pytest.approx(2.0)

    def test_speedup_zero_base(self):
        assert speedup(SimStats(cycles=1, committed=1), SimStats()) == 0.0

    def test_harmonic_mean(self):
        assert harmonic_mean([1.0, 1.0]) == pytest.approx(1.0)
        assert harmonic_mean([2.0, 4.0]) == pytest.approx(8.0 / 3.0)

    def test_harmonic_mean_dominated_by_slowest(self):
        assert harmonic_mean([1.0, 100.0]) < 2.0

    def test_harmonic_mean_empty(self):
        assert harmonic_mean([]) == 0.0
        assert harmonic_mean([0.0]) == 0.0
