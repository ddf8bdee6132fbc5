"""End-to-end pipeline: SuperFE vs the software reference, result
handling, and the hardware path's error bounds."""

import numpy as np
import pytest

import repro.api as api
from repro import pktstream
from repro.net.trace import generate_trace


def compare_hw_sw(policy, packets, rel_tol=0.02):
    hw = api.compile(policy).run(packets)
    sw = api.compile(policy, software=True).run(packets)
    hw_map, sw_map = hw.by_key(), sw.by_key()
    assert set(hw_map) == set(sw_map)
    for key in sw_map:
        ref, got = sw_map[key], hw_map[key]
        scale = np.abs(ref).max() + 1e-9
        assert np.abs(got - ref).max() / scale < rel_tol, key
    return hw, sw


class TestEquivalence:
    def test_basic_flow_policy(self, basic_flow_policy, enterprise_trace):
        hw, sw = compare_hw_sw(basic_flow_policy, enterprise_trace)
        assert len(hw) == len(sw) > 50

    def test_histogram_policy_exact(self, enterprise_trace):
        """Histogram counters involve no division: the hardware path must
        match the software path exactly."""
        policy = (pktstream().groupby("flow")
                  .map("ipt", "tstamp", "f_ipt")
                  .reduce("ipt", ["ft_hist{1000000, 32}"])
                  .reduce("size", ["ft_hist{100, 16}"])
                  .collect("flow"))
        hw = api.compile(policy).run(enterprise_trace)
        sw = api.compile(policy, software=True).run(enterprise_trace)
        hw_map, sw_map = hw.by_key(), sw.by_key()
        assert set(hw_map) == set(sw_map)
        for key in sw_map:
            assert np.array_equal(hw_map[key], sw_map[key]), key

    def test_direction_sequence_policy(self, enterprise_trace):
        policy = (pktstream().filter("tcp.exist").groupby("flow")
                  .map("one", None, "f_one")
                  .map("direction", "one", "f_direction")
                  .reduce("direction", ["f_array"])
                  .synthesize("ft_sample{64}")
                  .collect("flow"))
        hw, sw = compare_hw_sw(policy, enterprise_trace, rel_tol=1e-9)
        mat = hw.to_matrix()
        assert mat.shape[1] == 64
        assert set(np.unique(mat)) <= {-1.0, 0.0, 1.0}

    def test_multi_granularity_per_group(self, campus_trace):
        policy = (pktstream().groupby("host")
                  .reduce("size", ["f_sum"]).collect("pkt")
                  .groupby("socket")
                  .reduce("size", ["f_sum"]).collect("pkt"))
        hw = api.compile(policy).run(campus_trace)
        sw = api.compile(policy, software=True).run(campus_trace)
        # Per-packet vectors: same count, and per-group sequences match.
        assert hw.engine.stats.cells == sw.engine.stats.cells


class TestResultHandling:
    def test_to_matrix(self, basic_flow_policy, enterprise_trace):
        result = api.compile(basic_flow_policy).run(enterprise_trace)
        mat = result.to_matrix()
        assert mat.shape == (len(result), 9)
        assert list(result.feature_names)[0] == "f_sum(one)"

    def test_to_matrix_varying_width_raises(self, enterprise_trace):
        policy = (pktstream().groupby("flow")
                  .reduce("size", ["f_array"]).collect("flow"))
        result = api.compile(policy).run(enterprise_trace[:500])
        with pytest.raises(ValueError, match="varying widths"):
            result.to_matrix()

    def test_empty_input(self, basic_flow_policy):
        result = api.compile(basic_flow_policy).run([])
        assert len(result) == 0
        # Empty results keep the feature dimension so they compose with
        # detector code expecting (n, d) input.
        assert result.to_matrix().shape == (0, 9)

    def test_filter_drops_everything(self, basic_flow_policy):
        udp_only = [p for p in generate_trace("ENTERPRISE", 50, seed=1)
                    if p.is_udp]
        result = api.compile(basic_flow_policy).run(udp_only)
        assert len(result) == 0


class TestConfiguration:
    def test_mgpv_config_derived_from_policy(self, basic_flow_policy):
        fe = api.compile(basic_flow_policy)
        assert fe.mgpv_config.cell_bytes == \
            fe.compiled.metadata_bytes_per_pkt
        assert fe.mgpv_config.fg_key_bytes == 13

    def test_placement_solved(self, basic_flow_policy):
        fe = api.compile(basic_flow_policy)
        assert fe._build["placement"] is not None
        assert set(fe._build["placement"].placement) == set(
            f.name for s in fe.compiled.sections for f in s.features)

    def test_division_free_toggle(self, basic_flow_policy,
                                  enterprise_trace):
        exact = api.compile(basic_flow_policy, division_free=False)
        sw = api.compile(basic_flow_policy, software=True)
        hw_map = exact.run(enterprise_trace).by_key()
        sw_map = sw.run(enterprise_trace).by_key()
        for key in sw_map:
            assert np.allclose(hw_map[key], sw_map[key], rtol=1e-12)

    def test_manifests(self, basic_flow_policy):
        switch, nic = api.compile(basic_flow_policy).manifests()
        assert "FE-Switch" in switch and "FE-NIC" in nic


class TestAggregation:
    def test_switch_reduces_traffic(self, basic_flow_policy,
                                    enterprise_trace):
        result = api.compile(basic_flow_policy).run(enterprise_trace)
        # Fig 12's headline: >80% reduction.
        assert result.switch_stats.aggregation_ratio_bytes < 0.2
        assert result.switch_stats.aggregation_ratio_rate < 1.0
