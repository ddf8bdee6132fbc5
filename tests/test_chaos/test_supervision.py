"""Supervised executor chaos: crash/stall recovery with exact replay,
poison-batch quarantine, hot swap while a restart ledger is live, and
the worker-fault plan validation surface.

The acceptance bar: a worker_crash run completes with at least one
supervisor restart and a vector set bit-identical to serial; a
worker_stall run trips the request deadline and recovers in bounded
time (far less than the stall itself) instead of hanging.
"""

import time

import pytest

import repro.api as api
from repro import pktstream
from repro.core.compiler import PolicyCompiler
from repro.core.faults import FaultAction, FaultPlan, FaultPlanError
from repro.core.parallel import ExecutionConfig, ShardedCluster
from repro.net.trace import generate_trace
from repro.switchsim.mgpv import MGPVRecord

pytestmark = pytest.mark.chaos


def supervised(workers=2, timeout=5.0, **kw):
    return ExecutionConfig(workers=workers, backend="process",
                           request_timeout_s=timeout, supervise=True,
                           **kw)


def sorted_rows(result):
    return sorted((tuple(v.key), v.values.tobytes(), v.degraded)
                  for v in result.vectors)


@pytest.fixture(scope="module")
def packets():
    return generate_trace("ENTERPRISE", n_flows=100, seed=11)


class TestCrashRecovery:
    def test_worker_crash_replay_checksum_equal(self, flow_policy,
                                                small_mgpv, packets,
                                                chaos_dump):
        """SIGKILL one worker mid-trace: the run completes, the
        supervisor logs >= 1 restart, and replay makes the vectors
        bit-identical to serial (no loss, no duplication)."""
        plan = FaultPlan(actions=(
            FaultAction(kind="worker_crash",
                        at_packet=len(packets) // 2, worker=0),))
        serial = api.compile(flow_policy, n_nics=3,
                             mgpv_config=small_mgpv).run(packets)
        chaos = api.compile(flow_policy, n_nics=3,
                            mgpv_config=small_mgpv,
                            execution=supervised(),
                            fault_plan=plan).run(packets)
        chaos_dump(chaos.dataplane.counters())
        sup = chaos.dataplane.health()["supervision"]
        assert sup["restarts"] >= 1
        assert sup["poison_batches"] == []
        assert sorted_rows(serial) == sorted_rows(chaos)
        assert sup["restart_latency"]["count"] >= 1
        chaos.dataplane.close()

    def test_worker_stall_trips_deadline_bounded(self, flow_policy,
                                                 small_mgpv, packets,
                                                 chaos_dump):
        """A stalled worker blows the 1s request deadline; the
        supervisor restarts it instead of waiting out the 60s stall —
        the whole run must finish in a small multiple of the deadline,
        not of the stall."""
        stall_s = 60.0
        plan = FaultPlan(actions=(
            FaultAction(kind="worker_stall",
                        at_packet=len(packets) // 3, worker=1,
                        seconds=stall_s),))
        serial = api.compile(flow_policy, n_nics=3,
                             mgpv_config=small_mgpv).run(packets)
        start = time.perf_counter()
        chaos = api.compile(flow_policy, n_nics=3,
                            mgpv_config=small_mgpv,
                            execution=supervised(timeout=1.0),
                            fault_plan=plan).run(packets)
        elapsed = time.perf_counter() - start
        chaos_dump(chaos.dataplane.counters())
        assert elapsed < stall_s / 2, (
            f"stall recovery took {elapsed:.1f}s — the deadline did "
            f"not trip")
        sup = chaos.dataplane.health()["supervision"]
        assert sup["restarts"] >= 1
        assert sorted_rows(serial) == sorted_rows(chaos)
        chaos.dataplane.close()

    def test_worker_slow_window_reverts(self, flow_policy, small_mgpv,
                                        packets):
        """worker_slow is windowed and purely temporal — it must not
        change any vector, and the injector must revert it."""
        third = len(packets) // 3
        plan = FaultPlan(actions=(
            FaultAction(kind="worker_slow", at_packet=third,
                        until_packet=2 * third, worker=0, factor=3.0),))
        serial = api.compile(flow_policy, n_nics=2,
                             mgpv_config=small_mgpv).run(packets)
        with api.compile(flow_policy, n_nics=2, mgpv_config=small_mgpv,
                         execution=ExecutionConfig(
                             workers=2, backend="process"),
                         fault_plan=plan) as ex:
            slow = ex.run(packets)
        assert sorted_rows(serial) == sorted_rows(slow)
        faults = slow.dataplane.counters()["faults"]
        assert faults["applied"] == {"worker_slow": 1}
        assert faults["reverted"] == {"worker_slow": 1}


class TestPoisonQuarantine:
    def test_poison_batch_quarantined_and_enumerated(self, tuned):
        """A batch that crashes its worker on every replay is
        quarantined after POISON_THRESHOLD blames: the run completes,
        health() enumerates the batch, and clean groups survive."""
        # f_mean's Welford state does arithmetic on the first update, so
        # the poison cell crashes the worker at consume time — inside
        # the blamed batch (lazy reducers like f_sum would defer the
        # explosion to finalize, where no batch can be blamed).
        policy = (pktstream().groupby("flow")
                  .reduce("size", ["f_mean"]).collect("flow"))
        compiled = PolicyCompiler().compile(policy)
        tuned(POISON_THRESHOLD=2, DISPATCH_BATCH=1)
        cluster = ShardedCluster(compiled, 2,
                                 supervised(workers=2, timeout=5.0))
        try:
            for i in range(8):
                key = (i % 4,)
                cluster.consume_batch([MGPVRecord(
                    cg_key=key, cg_hash32=hash(key) & 0xFFFFFFFF,
                    cells=((0, (float(i + 1),)),), reason="evict")])
            # A cell payload no reducer can digest: the owning worker
            # dies on it, replay dies on it again, quarantine follows.
            cluster.consume_batch([MGPVRecord(
                cg_key=("poison",), cg_hash32=12345,
                cells=((0, ("boom",)),), reason="evict")])
            vectors = cluster.finalize()
            sup = cluster.health()["supervision"]
            assert sup["restarts"] >= 2        # threshold blames
            assert len(sup["poison_batches"]) == 1
            entry = sup["poison_batches"][0]
            assert entry["events"] == 1
            assert entry["failures"] >= 2
            assert entry["cg_keys"] == ["('poison',)"]
            # Quarantine lost only the poison event: every clean group
            # finalizes to its exact serial mean.  (Hand-fed records
            # with no FGSync are orphan cells, so every vector here is
            # a degraded coarse one — the values are what prove the
            # clean batches were replayed, not dropped.)
            by_key = {v.key[0]: float(v.values[0]) for v in vectors
                      if v.key != ("poison",)}
            assert by_key == {0: 3.0, 1: 4.0, 2: 5.0, 3: 6.0}
            # Any salvage of the poison group is force-flagged.
            assert all(v.degraded for v in vectors
                       if v.key == ("poison",))
        finally:
            cluster.close()


class TestHotSwapUnderSupervision:
    def test_hot_swap_with_restart_in_flight(self, flow_policy,
                                             small_mgpv, packets):
        """Crash a worker, keep processing (forcing the restart), hot
        swap the policy, crash again: vectors from both halves match a
        serial runtime driven identically, and the supervisor telemetry
        counters are monotonic across the swap."""
        from repro.core.telemetry import Telemetry, TelemetryConfig
        new_policy = (pktstream().groupby("host")
                      .reduce("size", ["f_sum"]).collect("host"))
        half = len(packets) // 2

        def drive(execution, telemetry=None, chaos=False):
            rt = api.compile(flow_policy, n_nics=3,
                             mgpv_config=small_mgpv,
                             execution=execution,
                             telemetry=telemetry).deploy()
            rt.process(packets[:half])
            if chaos:
                rt.cluster.chaos_crash_worker(0)
            first = rt.hot_swap(new_policy)
            if chaos:
                rt.cluster.chaos_crash_worker(1)
            rt.process(packets[half:])
            second = rt.drain()
            rows = (sorted((tuple(v.key), v.values.tobytes())
                           for v in first),
                    sorted((tuple(v.key), v.values.tobytes())
                           for v in second))
            return rt, rows

        _, serial_rows = drive(None)
        tel = Telemetry(TelemetryConfig(sample_rate=1.0))
        rt, chaos_rows = drive(supervised(), telemetry=tel, chaos=True)
        assert serial_rows == chaos_rows
        counters = rt.dataplane.telemetry_snapshot()["counters"]
        # One crash before the swap, one after: the registry counter is
        # get-or-create, so the ledger survives the swap and keeps
        # counting — monotonic across deployments.
        assert counters["supervisor.restarts"] >= 2
        sup = rt.dataplane.health()["supervision"]
        assert sup["restarts"] >= 1   # post-swap supervisor: new journal
        rt.dataplane.close()


class TestWorkerFaultValidation:
    def test_action_knob_validation(self):
        with pytest.raises(FaultPlanError, match="worker must be >= 0"):
            FaultAction(kind="worker_crash", at_packet=0, worker=-1)
        with pytest.raises(FaultPlanError, match="seconds must be > 0"):
            FaultAction(kind="worker_stall", at_packet=0, seconds=0.0)
        with pytest.raises(FaultPlanError, match="factor must be >= 1"):
            FaultAction(kind="worker_slow", at_packet=0, factor=0.5)
        with pytest.raises(FaultPlanError, match="one-shot"):
            FaultAction(kind="worker_crash", at_packet=0,
                        until_packet=10)

    def test_worker_faults_need_executor(self, flow_policy, packets):
        plan = FaultPlan(actions=(
            FaultAction(kind="worker_crash", at_packet=0, worker=0),))
        with pytest.raises(FaultPlanError, match="executor workers"):
            api.compile(flow_policy, n_nics=2, execution=ExecutionConfig(),
                        fault_plan=plan).run(packets)

    def test_crash_needs_supervision(self, flow_policy, packets):
        plan = FaultPlan(actions=(
            FaultAction(kind="worker_crash", at_packet=0, worker=0),))
        with pytest.raises(FaultPlanError,
                           match="supervised process backend"), \
                api.compile(flow_policy, n_nics=2,
                            execution=ExecutionConfig(
                                workers=2, backend="process",
                                supervise=False),
                            fault_plan=plan) as ex:
            ex.run(packets)

    def test_worker_index_checked_against_pool(self, flow_policy,
                                               packets):
        plan = FaultPlan(actions=(
            FaultAction(kind="worker_slow", at_packet=0, worker=9),))
        with pytest.raises(FaultPlanError, match="pool has"), \
                api.compile(flow_policy, n_nics=2,
                            execution=ExecutionConfig(workers=2,
                                                      backend="process"),
                            fault_plan=plan) as ex:
            ex.run(packets)
