"""Observability acceptance under chaos (ISSUE 10).

Two bars, asserted end to end:

(a) a supervised worker_crash run with tracing on yields a causal
    trace that stitches coordinator ``shard.dispatch`` -> worker
    ``worker.engine`` -> coordinator ``shard.merge`` across a real
    process boundary for at least one batch, exports to Chrome
    trace_event JSON, and still produces vectors bit-identical to the
    serial run (the tracing-off variant is covered by
    test_supervision.py's checksum test);

(b) a run driven past its restart budget raises an
    :class:`ExecutorError` whose ``flight`` excerpt includes the
    injected ``fault.applied`` event recorded before the crash landed.
"""

import json

import pytest

import repro.api as api
from repro import pktstream
from repro.core import flightrec
from repro.core.faults import FaultAction, FaultPlan
from repro.core.parallel import ExecutionConfig, ExecutorError
from repro.core.telemetry import Telemetry, TelemetryConfig
from repro.core.tracecontext import build_tree, stitched_seqs
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


@pytest.fixture(autouse=True)
def fresh_ring():
    flightrec.reset()
    yield
    flightrec.reset()


@pytest.fixture(scope="module")
def packets():
    return generate_trace("ENTERPRISE", n_flows=100, seed=11)


class TestStitchedTraceUnderCrash:
    def test_crash_run_stitches_across_process_boundary(
            self, flow_policy, small_mgpv, packets, tmp_path,
            chaos_dump):
        """SIGKILL one worker mid-trace with tracing on: the vectors
        stay bit-identical to serial, and the gathered trace events
        stitch dispatch -> worker stage -> merge into one tree with no
        orphans, crossing the coordinator/worker pid boundary."""
        plan = FaultPlan(actions=(
            FaultAction(kind="worker_crash",
                        at_packet=len(packets) // 2, worker=0),))
        serial = api.compile(flow_policy, n_nics=3,
                             mgpv_config=small_mgpv).run(packets)
        tel = Telemetry(TelemetryConfig(sample_rate=1.0, trace=True))
        chaos = api.compile(flow_policy, n_nics=3,
                            mgpv_config=small_mgpv,
                            execution=supervised(),
                            fault_plan=plan,
                            telemetry=tel).run(packets)
        chaos_dump(chaos.dataplane.counters())
        try:
            assert sorted_rows(serial) == sorted_rows(chaos)

            tev = chaos.dataplane.telemetry_trace_events()
            names = {e["name"] for e in tev}
            assert {"shard.dispatch", "worker.engine",
                    "shard.merge"} <= names

            # Causal stitching: the worker.engine span's parent event
            # was recorded in a *different process* (the coordinator).
            stitched = stitched_seqs(tev)
            assert stitched, "no batch stitched across the boundary"

            tree = build_tree(tev)
            assert tree["n_orphans"] == 0
            assert tree["roots"]

            # The same events round-trip through the Chrome exporter.
            from repro.core.tracecontext import write_chrome_trace
            out = tmp_path / "chaos-trace.json"
            write_chrome_trace(str(out), tev)
            with open(out) as fh:
                doc = json.load(fh)
            assert len(doc["traceEvents"]) == len(tev)
            assert doc["otherData"]["format"] == "superfe-trace-v1"
            assert len({e["pid"] for e in doc["traceEvents"]}) >= 2

            # The injected fault and the recovery it forced both left
            # flight-recorder breadcrumbs.
            kinds = {e["kind"] for e in chaos.dataplane.flight_events()}
            assert "fault.applied" in kinds
            assert "worker.restart" in kinds
        finally:
            chaos.dataplane.close()


class TestExecutorErrorFlight:
    def test_give_up_error_carries_injected_fault_event(self,
                                                        small_mgpv,
                                                        packets, tuned):
        """Drive a supervised run to ExecutorError: a worker_crash
        fault lands first (recovered, but recorded), then a poison
        batch out-lives the restart budget.  The escaping error's
        flight excerpt must include the injected fault event."""
        # f_mean crashes at consume time on a non-numeric cell, so the
        # poison batch kills its worker on every replay.
        policy = (pktstream().groupby("flow")
                  .reduce("size", ["f_mean"]).collect("flow"))
        plan = FaultPlan(actions=(
            FaultAction(kind="worker_crash",
                        at_packet=len(packets) // 3, worker=0),))
        # POISON_THRESHOLD far above MAX_RESTARTS: the replay ladder
        # exhausts its budget before quarantine can rescue the run.
        tuned(MAX_RESTARTS=2, POISON_THRESHOLD=10, DISPATCH_BATCH=1)
        rt = api.compile(policy, n_nics=2, mgpv_config=small_mgpv,
                         execution=supervised(),
                         fault_plan=plan).deploy()
        try:
            rt.process(packets)   # injected crash applied + recovered
            rt.cluster.consume_batch([MGPVRecord(
                cg_key=("poison",), cg_hash32=12345,
                cells=((0, ("boom",)),), reason="evict")])
            with pytest.raises(ExecutorError) as err:
                rt.drain()
            exc = err.value
            assert "giving up" in str(exc)
            assert exc.flight, "ExecutorError carried no flight excerpt"
            assert any(e["kind"] == "fault.applied"
                       and e.get("fault") == "worker_crash"
                       for e in exc.flight), \
                [e["kind"] for e in exc.flight]
            assert any(e["kind"] == "worker.restart"
                       for e in exc.flight)
        finally:
            rt.dataplane.close()
