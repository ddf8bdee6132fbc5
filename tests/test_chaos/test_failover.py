"""NIC failover: consistent re-route of the dead shard, FG-mirror
resync, residual-state reconciliation, restarts, and the guard rails."""

import pytest

import repro.api as api
from repro.core.faults import FaultAction, FaultPlan
from repro.nicsim.loadbalance import NICCluster

pytestmark = pytest.mark.chaos


def _kill_plan(at_packet, nic=1):
    return FaultPlan(actions=(
        FaultAction(kind="nic_kill", at_packet=at_packet, nic=nic),))


class TestFailover:
    def test_dead_nic_receives_nothing_after_kill(self, flow_policy,
                                                  enterprise_trace,
                                                  small_mgpv,
                                                  chaos_dump):
        """100% of the dead NIC's shard re-routes: the dead engine's
        event counters freeze at the kill point."""
        half = len(enterprise_trace) // 2
        fe = api.compile(flow_policy, n_nics=3, mgpv_config=small_mgpv,
                     fault_plan=_kill_plan(half))
        dp = fe.dataplane()
        dp.process(enterprise_trace[:half])
        dead = dp.cluster.engines[1]
        frozen = (dead.stats.records, dead.stats.syncs, dead.stats.cells)
        dp.process(enterprise_trace[half:])
        vectors = dp.flush()
        chaos_dump(dp.counters())

        assert dp.cluster.alive == [True, False, True]
        assert (dead.stats.records, dead.stats.syncs,
                dead.stats.cells) == frozen
        assert dp.cluster.failovers == 1
        assert dp.cluster.rerouted_events > 0
        # The dead NIC's FG mirror was replayed to the survivors.
        assert dp.cluster.fg_resyncs > 0
        # Its in-flight groups surface at drain instead of vanishing.
        assert any(v.degraded for v in vectors)

    def test_no_silently_lost_flows(self, flow_policy, enterprise_trace,
                                    small_mgpv, chaos_dump):
        """Every flow of the clean run appears in the chaos run —
        recovered on a survivor or demoted to a degraded vector."""
        half = len(enterprise_trace) // 2
        chaos = api.compile(flow_policy, n_nics=3, mgpv_config=small_mgpv,
                        fault_plan=_kill_plan(half)).run(enterprise_trace)
        chaos_dump(chaos.dataplane.counters())
        clean = api.compile(flow_policy, n_nics=3,
                        mgpv_config=small_mgpv).run(enterprise_trace)
        assert chaos.by_key().keys() == clean.by_key().keys()
        counters = chaos.dataplane.counters()["cluster"]
        assert counters["residual_vectors"] > 0

    def test_restart_rejoins_the_rotation(self, flow_policy,
                                          enterprise_trace):
        third = len(enterprise_trace) // 3
        plan = FaultPlan(actions=(
            FaultAction(kind="nic_kill", at_packet=third, nic=1),
            FaultAction(kind="nic_restart", at_packet=2 * third, nic=1),
        ))
        fe = api.compile(flow_policy, n_nics=3, fault_plan=plan)
        result = fe.run(enterprise_trace)
        cluster = result.dataplane.cluster
        assert cluster.failovers == 1
        assert cluster.restarts == 1
        assert cluster.alive == [True, True, True]
        # The restarted NIC serves its shard again.
        assert cluster.engines[1].stats.cells > 0

    def test_failover_is_consistent(self, flow_policy,
                                    enterprise_trace):
        """Same plan, same trace: the re-routed shard lands on the same
        survivors both times."""
        half = len(enterprise_trace) // 2

        def run():
            result = api.compile(flow_policy, n_nics=4,
                             fault_plan=_kill_plan(half)) \
                .run(enterprise_trace)
            return result.dataplane.cluster.cells_per_nic()

        assert run() == run()


class TestGuards:
    def test_cannot_fail_last_live_nic(self, compiled_flow_policy):
        cluster = NICCluster(compiled_flow_policy, 2)
        cluster.fail_nic(0)
        with pytest.raises(ValueError, match="last live NIC"):
            cluster.fail_nic(1)

    def test_cannot_fail_dead_nic_twice(self, compiled_flow_policy):
        cluster = NICCluster(compiled_flow_policy, 3)
        cluster.fail_nic(0)
        with pytest.raises(ValueError, match="already dead"):
            cluster.fail_nic(0)

    def test_cannot_restore_live_nic(self, compiled_flow_policy):
        cluster = NICCluster(compiled_flow_policy, 2)
        with pytest.raises(ValueError, match="already alive"):
            cluster.restore_nic(0)

    def test_nic_bounds_checked(self, compiled_flow_policy):
        cluster = NICCluster(compiled_flow_policy, 2)
        with pytest.raises(ValueError, match="no NIC"):
            cluster.fail_nic(7)

    def test_restart_before_kill_raises(self, flow_policy,
                                        enterprise_trace):
        plan = FaultPlan(actions=(
            FaultAction(kind="nic_restart", at_packet=0, nic=1),))
        fe = api.compile(flow_policy, n_nics=2, fault_plan=plan)
        with pytest.raises(ValueError, match="already alive"):
            fe.run(enterprise_trace)
