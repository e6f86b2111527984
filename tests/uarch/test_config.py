"""Unit tests for machine configurations."""

import dataclasses

import pytest

from repro.uarch.config import (
    BranchPolicy,
    CacheConfig,
    IRValidation,
    MachineConfig,
    PredictorKind,
    ReexecPolicy,
    base_config,
    hybrid_config,
    ir_config,
    vp_config,
)


class TestTable1Defaults:
    def test_widths(self):
        config = base_config()
        assert config.fetch_width == 4
        assert config.issue_width == 4
        assert config.commit_width == 4

    def test_window(self):
        config = base_config()
        assert config.rob_size == 32
        assert config.lsq_size == 32
        assert config.max_unresolved_branches == 8

    def test_functional_units(self):
        config = base_config()
        assert config.int_alus == 8
        assert config.load_store_units == 2
        assert config.int_mult_div_units == 1

    def test_caches(self):
        config = base_config()
        for cache in (config.icache, config.dcache):
            assert cache.size_bytes == 64 * 1024
            assert cache.associativity == 2
            assert cache.line_bytes == 32
            assert cache.miss_latency == 6
        assert config.dcache_ports == 2

    def test_branch_predictor(self):
        config = base_config()
        assert config.bpred.history_bits == 10
        assert config.bpred.counter_entries == 16 * 1024

    def test_vp_ir_disabled_by_default(self):
        config = base_config()
        assert not config.vp.enabled
        assert not config.ir.enabled


class TestSection413Structures:
    def test_vpt_sizing(self):
        config = vp_config()
        assert config.vp.entries == 16 * 1024
        assert config.vp.associativity == 4

    def test_rb_sizing(self):
        config = ir_config()
        assert config.ir.entries == 4 * 1024
        assert config.ir.associativity == 4

    def test_storage_ratio_is_4_to_1(self):
        assert vp_config().vp.entries == 4 * ir_config().ir.entries

    def test_lvp_single_instance(self):
        assert vp_config(PredictorKind.LAST_VALUE).vp.associativity == 1


class TestNamedConstructors:
    def test_vp_matrix_has_four_configs(self):
        from repro.experiments.configs import vp_matrix
        configs = vp_matrix(PredictorKind.MAGIC, 0)
        names = {c.name for c in configs}
        assert len(names) == 4
        assert any("me-sb" in n for n in names)
        assert any("nme-nsb" in n for n in names)

    def test_config_names_encode_parameters(self):
        config = vp_config(PredictorKind.LAST_VALUE, ReexecPolicy.SINGLE,
                           BranchPolicy.NON_SPECULATIVE, 1)
        assert config.name == "vp-lvp-nme-nsb-v1"

    def test_ir_names(self):
        assert ir_config().name == "reuse-n+d"
        assert ir_config(IRValidation.LATE).name == "reuse-late"

    def test_hybrid_enables_both(self):
        config = hybrid_config()
        assert config.vp.enabled and config.ir.enabled

    def test_configs_are_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            base_config().rob_size = 64

    def test_cache_set_count(self):
        assert CacheConfig().num_sets == 1024


class TestZooEnumeration:
    """The predictor-zoo configurations the sweeps build."""

    def test_vfr_config_naming_and_knobs(self):
        from repro.uarch.config import vfr_config
        plain = vfr_config()
        assert plain.name == "base-vfr"
        assert plain.variable_fetch_rate
        assert not plain.vp.enabled
        stacked = vfr_config(PredictorKind.HYBRID_SELECT)
        assert stacked.name == "vp-select-me-sb-v0-vfr"
        assert stacked.vp.enabled
        assert stacked.variable_fetch_rate

    def test_zoo_configs_cover_realistic_kinds(self):
        from repro.experiments.configs import ZOO_KINDS, zoo_configs
        kinds = {c.vp.kind for c in zoo_configs() if c.vp.enabled}
        assert kinds == set(ZOO_KINDS)
        assert any(c.variable_fetch_rate for c in zoo_configs())
