"""Operational runtime: incremental processing, counter polling, live
reconfiguration, hot swap."""

import numpy as np
import pytest

import repro.api as api
from repro.core.compiler import PolicyError
from repro.core.policy import pktstream
from repro.net.trace import generate_trace


def flow_policy():
    return (pktstream().filter("tcp.exist").groupby("flow")
            .reduce("size", ["f_sum", "f_max"]).collect("flow"))


def pkt_policy():
    return (pktstream().groupby("host")
            .reduce("size", ["f_sum"]).collect("pkt"))


@pytest.fixture(scope="module")
def packets():
    return generate_trace("ENTERPRISE", n_flows=120, seed=11)


class TestIncremental:
    def test_batched_equals_oneshot(self, packets):
        runtime = api.compile(flow_policy()).deploy()
        for start in range(0, len(packets), 100):
            runtime.process(packets[start:start + 100])
        incremental = {tuple(v.key): v.values
                       for v in runtime.drain()}
        oneshot = api.compile(flow_policy()).run(packets).by_key()
        assert incremental.keys() == oneshot.keys()
        for key in oneshot:
            assert np.array_equal(incremental[key], oneshot[key])

    def test_per_packet_vectors_returned_per_batch(self, packets):
        runtime = api.compile(pkt_policy()).deploy()
        total = 0
        for start in range(0, 400, 100):
            vectors = runtime.process(packets[start:start + 100])
            total += len(vectors)
        # Most packets produce a vector once their cells reach the NIC;
        # resident (unflushed) groups hold the remainder.
        assert 0 < total <= 400
        runtime.drain()

    def test_snapshot_non_destructive(self, packets):
        runtime = api.compile(flow_policy()).deploy()
        runtime.process(packets[:300])
        a = runtime.snapshot()
        b = runtime.snapshot()
        assert {tuple(v.key) for v in a} == {tuple(v.key) for v in b}
        runtime.process(packets[300:600])    # keeps running fine


class TestControlPlane:
    def test_poll_counters_deltas(self, packets):
        runtime = api.compile(flow_policy()).deploy()
        runtime.process(packets[:200])
        first = runtime.poll_counters()
        assert first.pkts_in > 0
        second = runtime.poll_counters()
        assert second.pkts_in == 0           # nothing since last poll
        runtime.process(packets[200:260])
        third = runtime.poll_counters()
        assert 0 < third.pkts_in <= 60

    def test_live_aging_retune(self, packets):
        runtime = api.compile(flow_policy()).deploy()
        runtime.process(packets[:100])
        runtime.set_aging_timeout(1_000)     # aggressive
        runtime.process(packets[100:])
        assert runtime.cache.stats.evictions["aging"] > 0
        with pytest.raises(ValueError):
            runtime.set_aging_timeout(0)
        runtime.set_aging_timeout(None)      # disable again

    def test_install_filter_at_runtime(self, packets):
        runtime = api.compile(flow_policy()).deploy()
        runtime.process(packets[:100])
        before = runtime.filter_stage.misses
        runtime.install_filter("size > 100000")    # drops everything
        runtime.process(packets[100:200])
        assert runtime.filter_stage.misses > before
        assert runtime.poll_counters().pkts_in < 200

    def test_install_invalid_filter(self):
        runtime = api.compile(flow_policy()).deploy()
        with pytest.raises(PolicyError):
            runtime.install_filter("payload == 1")


class TestCountersViaObserve:
    """poll_counters() is now implemented over repro.core.observe; its
    delta semantics must be indistinguishable from the hand-rolled
    CounterSnapshot arithmetic it replaced."""

    def test_deltas_sum_to_absolutes(self, packets):
        runtime = api.compile(flow_policy()).deploy()
        polled = []
        for start in range(0, 600, 200):
            runtime.process(packets[start:start + 200])
            polled.append(runtime.poll_counters())
        assert sum(c.pkts_in for c in polled) == \
            runtime.cache.stats.pkts_in
        assert sum(c.bytes_to_nic for c in polled) == \
            runtime.link.bytes_out
        assert sum(c.cells_processed for c in polled) == \
            runtime.engine.stats.cells

    def test_eviction_deltas_are_per_reason(self, packets):
        runtime = api.compile(flow_policy()).deploy()
        runtime.set_aging_timeout(1_000)
        runtime.process(packets[:300])
        first = runtime.poll_counters()
        runtime.process(packets[300:600])
        second = runtime.poll_counters()
        total = runtime.cache.stats.evictions
        for reason in total:
            assert first.evictions[reason] + second.evictions[reason] \
                == total[reason]

    def test_counters_sourced_from_link_stage(self, packets):
        runtime = api.compile(flow_policy()).deploy()
        runtime.process(packets[:300])
        runtime.drain()
        snap = runtime.poll_counters()
        assert snap.records_to_nic == runtime.link.records_out
        assert snap.bytes_to_nic == runtime.link.bytes_out
        assert snap.fg_syncs == runtime.link.syncs_out


class TestHotSwap:
    def test_swap_emits_final_vectors_and_installs(self, packets):
        runtime = api.compile(flow_policy()).deploy()
        runtime.process(packets[:400])
        final = runtime.hot_swap(pkt_policy())
        assert len(final) > 10
        assert runtime.compiled.collect_unit == "pkt"
        # New deployment starts with fresh counters.
        assert runtime.poll_counters().pkts_in == 0
        vectors = runtime.process(packets[400:500])
        assert runtime.cache.stats.pkts_in == 100

    def test_swap_drains_exactly_the_old_policy_vectors(self, packets):
        """The swap's final vectors are the old deployment's complete
        output: identical to a one-shot run of the old policy."""
        runtime = api.compile(flow_policy()).deploy()
        for start in range(0, len(packets), 150):
            runtime.process(packets[start:start + 150])
        final = {tuple(v.key): v.values
                 for v in runtime.hot_swap(pkt_policy())}
        oneshot = api.compile(flow_policy()).run(packets).by_key()
        assert final.keys() == {tuple(k) for k in oneshot}
        for key, values in oneshot.items():
            assert np.array_equal(final[tuple(key)], values)

    def test_counters_reset_across_swap(self, packets):
        runtime = api.compile(flow_policy()).deploy()
        runtime.process(packets[:200])
        runtime.hot_swap(pkt_policy())
        fresh = runtime.poll_counters()
        assert fresh.pkts_in == 0
        assert fresh.bytes_to_nic == 0
        assert fresh.vectors_emitted == 0
        assert all(v == 0 for v in fresh.evictions.values())
        runtime.process(packets[200:260])
        after = runtime.poll_counters()
        assert 0 < after.pkts_in <= 60

    def test_result_view(self, packets):
        runtime = api.compile(flow_policy()).deploy()
        runtime.process(packets[:200])
        result = runtime.result()
        assert result.feature_names == ["f_sum(size)", "f_max(size)"]
        assert len(result) >= 0


class TestSwapObservability:
    def test_detached_faults_surface_removed_marker(self, packets):
        """Regression: an external poller watching the full per-stage
        counter dict across a hot swap that drops the fault plan must
        see the ``faults`` stage disappear explicitly, not silently."""
        from repro.core.faults import FaultAction, FaultPlan
        from repro.core.observe import DeltaPoller

        plan = FaultPlan(actions=(
            FaultAction(kind="queue_clamp", at_packet=0, capacity=64),))
        runtime = api.compile(flow_policy(), fault_plan=plan).deploy()
        runtime.process(packets[:200])
        poller = DeltaPoller(lambda: runtime.dataplane.counters())
        first = poller.poll()
        assert first["faults"]["actions_applied"] == 1

        runtime.hot_swap(pkt_policy(), fault_plan=None)
        runtime.process(packets[200:260])
        delta = poller.poll()
        assert delta["faults.removed"] is True
        assert "faults" not in delta

    def test_swap_keeps_fault_plan_by_default(self, packets):
        from repro.core.faults import FaultAction, FaultPlan

        plan = FaultPlan(actions=(
            FaultAction(kind="queue_clamp", at_packet=0, capacity=64),))
        runtime = api.compile(flow_policy(), fault_plan=plan).deploy()
        runtime.process(packets[:100])
        runtime.hot_swap(pkt_policy())
        runtime.process(packets[100:200])
        assert runtime.dataplane.counters()["faults"][
            "actions_applied"] == 1

    def test_telemetry_counters_accumulate_across_swap(self, packets):
        from repro.core.telemetry import Telemetry, TelemetryConfig

        tel = Telemetry(TelemetryConfig(sample_rate=0.0))
        runtime = api.compile(flow_policy(), telemetry=tel).deploy()
        runtime.process(packets[:200])
        before = tel.registry.snapshot()["counters"]["pipeline.packets"]
        runtime.hot_swap(pkt_policy())
        runtime.process(packets[200:300])
        snap = tel.registry.snapshot()
        # Counters are monotonic across swaps; gauge sources were
        # re-bound to the new graph rather than left dangling.
        assert snap["counters"]["pipeline.packets"] > before
        assert "mgpv.resident_groups" in snap["gauges"]
        runtime.drain()
