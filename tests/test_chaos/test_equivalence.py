"""Fault-free equivalence (the machinery is inert without faults), the
remaining scripted fault kinds, and the issue's acceptance scenario."""

import numpy as np
import pytest

import repro.api as api
from repro.core.dataplane import LinkConfig
from repro.core.faults import FaultAction, FaultPlan

pytestmark = pytest.mark.chaos


class TestFaultFreeEquivalence:
    def test_empty_plan_is_byte_identical(self, flow_policy,
                                          enterprise_trace):
        """No FaultPlan vs empty FaultPlan with the default lossless
        LinkConfig: identical vectors and identical Fig 12 link-byte
        accounting."""
        plain = api.compile(flow_policy).run(enterprise_trace)
        planned = api.compile(flow_policy,
                          fault_plan=FaultPlan()).run(enterprise_trace)

        assert plain.by_key().keys() == planned.by_key().keys()
        for key, values in plain.by_key().items():
            np.testing.assert_array_equal(values, planned.by_key()[key])
        assert not any(v.degraded for v in planned.vectors)
        assert (plain.dataplane.link.counters()
                == planned.dataplane.link.counters())
        assert (plain.dataplane.link.aggregation_ratio_bytes
                == planned.dataplane.link.aggregation_ratio_bytes)
        # Only the injector's own ledger distinguishes the runs.
        plain_c = plain.dataplane.counters()
        planned_c = planned.dataplane.counters()
        assert set(planned_c) - set(plain_c) == {"faults"}
        for stage in plain_c:
            assert plain_c[stage] == planned_c[stage]

    def test_retransmit_knobs_inert_without_loss(self, flow_policy,
                                                 enterprise_trace):
        base = api.compile(flow_policy).run(enterprise_trace)
        armed = api.compile(flow_policy, link_config=LinkConfig(
            retransmit_retries=8, retransmit_backoff_ns=500.0)) \
            .run(enterprise_trace)
        assert armed.dataplane.link.retransmit_requests == 0
        assert (base.dataplane.link.counters()
                == armed.dataplane.link.counters())

    def test_cluster_empty_plan_equivalent(self, flow_policy,
                                           enterprise_trace):
        plain = api.compile(flow_policy, n_nics=3).run(enterprise_trace)
        planned = api.compile(flow_policy, n_nics=3,
                          fault_plan=FaultPlan()).run(enterprise_trace)
        assert plain.by_key().keys() == planned.by_key().keys()
        assert not any(v.degraded for v in planned.vectors)


class TestOtherFaultKinds:
    def test_mgpv_squeeze_blocks_long_allocs(self, flow_policy,
                                             enterprise_trace,
                                             chaos_dump):
        plan = FaultPlan(actions=(
            FaultAction(kind="mgpv_squeeze", at_packet=0,
                        keep_fraction=0.0),))
        squeezed = api.compile(flow_policy,
                           fault_plan=plan).run(enterprise_trace)
        chaos_dump(squeezed.dataplane.counters())
        clean = api.compile(flow_policy).run(enterprise_trace)
        assert clean.switch_stats.long_allocs > 0
        assert squeezed.switch_stats.long_allocs == 0
        # Pressure, not loss: the flows still come out the other end.
        assert squeezed.by_key().keys() == clean.by_key().keys()

    def test_mgpv_squeeze_window_reverts(self, flow_policy,
                                         enterprise_trace):
        plan = FaultPlan(actions=(
            FaultAction(kind="mgpv_squeeze", at_packet=0,
                        until_packet=100, keep_fraction=0.0),))
        result = api.compile(flow_policy,
                         fault_plan=plan).run(enterprise_trace)
        faults = result.dataplane.counters()["faults"]
        assert faults["applied"] == {"mgpv_squeeze": 1}
        assert faults["reverted"] == {"mgpv_squeeze": 1}
        # After the window lifts, long allocations resume.
        assert result.switch_stats.long_allocs > 0

    def test_queue_clamp_causes_backpressure(self, flow_policy,
                                             enterprise_trace,
                                             chaos_dump):
        plan = FaultPlan(actions=(
            FaultAction(kind="queue_clamp", at_packet=0,
                        until_packet=400, capacity=1),))
        cfg = LinkConfig(batch_records=8, batch_header_bytes=16)
        result = api.compile(flow_policy, link_config=cfg,
                         fault_plan=plan).run(enterprise_trace)
        chaos_dump(result.dataplane.counters())
        link = result.dataplane.link
        assert link.drops_backpressure > 0
        faults = result.dataplane.counters()["faults"]
        assert faults["reverted"] == {"queue_clamp": 1}


class TestAcceptanceScenario:
    """The issue's scripted chaos run: 1% sync loss for the whole trace
    plus one NIC death mid-stream, with bounded retransmission armed."""

    RETRIES = 5

    def _run(self, flow_policy, trace, small_mgpv):
        plan = FaultPlan(seed=13, actions=(
            FaultAction(kind="link_loss", at_packet=0, rate=0.01,
                        drop_kind="sync"),
            FaultAction(kind="nic_kill", at_packet=len(trace) // 2,
                        nic=1),
        ))
        cfg = LinkConfig(retransmit_retries=self.RETRIES,
                         retransmit_backoff_ns=200.0)
        return api.compile(flow_policy, n_nics=3, mgpv_config=small_mgpv,
                       link_config=cfg, fault_plan=plan).run(trace)

    def test_zero_silently_lost_flows(self, flow_policy,
                                      enterprise_trace, small_mgpv,
                                      chaos_dump):
        chaos = self._run(flow_policy, enterprise_trace, small_mgpv)
        chaos_dump(chaos.dataplane.counters())
        clean = api.compile(flow_policy, n_nics=3,
                        mgpv_config=small_mgpv).run(enterprise_trace)

        # Every flow of the clean run is accounted for: recovered with
        # identical features, or present and flagged degraded.
        chaos_by_key = {tuple(v.key): v for v in chaos.vectors}
        clean_by_key = clean.by_key()
        assert chaos_by_key.keys() == clean_by_key.keys()
        for key, values in clean_by_key.items():
            vec = chaos_by_key[key]
            if not vec.degraded:
                np.testing.assert_allclose(vec.values, values)

        link = chaos.dataplane.link.counters()
        cluster = chaos.dataplane.counters()["cluster"]
        # Retries respect the configured bound.
        attempted = (link["retransmits_ok"]
                     + link["retransmits_exhausted"])
        assert attempted == link["drops_fault"] > 0
        assert link["retransmit_requests"] <= attempted * self.RETRIES
        # Failover engaged and the dead shard re-routed.
        assert cluster["failovers"] == 1
        assert cluster["live_nics"] == 2
        assert cluster["rerouted_events"] > 0
        # The unrecovered tail is visible, not silent: any exhausted
        # sync or demoted group shows up in the degradation ledger.
        stats = chaos.dataplane.cluster.stats
        assert stats.orphan_cells == (stats.degraded_cells
                                      + stats.unrecoverable_cells)
