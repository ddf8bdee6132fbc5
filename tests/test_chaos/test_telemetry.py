"""Telemetry under chaos: the acceptance scenario re-run with tracing
enabled — spans/metrics must be well-formed, the retransmit histogram
must record the injected loss, and tracing must not perturb recovery."""

import os

import numpy as np
import pytest

import repro.api as api
from repro.core.dataplane import LinkConfig
from repro.core.faults import FaultAction, FaultPlan
from repro.core.telemetry import (
    Telemetry,
    TelemetryConfig,
    read_jsonl,
    write_jsonl,
)

pytestmark = pytest.mark.chaos

RETRIES = 5


def run_acceptance(flow_policy, trace, small_mgpv, telemetry=None):
    """The issue's scripted chaos run (1% sync loss + mid-trace NIC
    death, bounded retransmission armed), optionally traced."""
    plan = FaultPlan(seed=13, actions=(
        FaultAction(kind="link_loss", at_packet=0, rate=0.01,
                    drop_kind="sync"),
        FaultAction(kind="nic_kill", at_packet=len(trace) // 2, nic=1),
    ))
    cfg = LinkConfig(retransmit_retries=RETRIES,
                     retransmit_backoff_ns=200.0)
    return api.compile(flow_policy, n_nics=3, mgpv_config=small_mgpv,
                   link_config=cfg, fault_plan=plan,
                   telemetry=telemetry).run(trace)


class TestChaosTelemetry:
    def test_traced_chaos_run_well_formed(self, flow_policy,
                                          enterprise_trace, small_mgpv,
                                          tmp_path, request):
        tel = Telemetry(TelemetryConfig(sample_rate=1 / 16))
        chaos = run_acceptance(flow_policy, enterprise_trace,
                               small_mgpv, telemetry=tel)
        snap = chaos.dataplane.telemetry_snapshot()
        spans = chaos.dataplane.telemetry_spans()

        # Dump the JSONL trace where the CI chaos job uploads artifacts
        # from, so every run ships its telemetry evidence.
        out_dir = os.environ.get("CHAOS_DUMP_DIR") or str(tmp_path)
        os.makedirs(out_dir, exist_ok=True)
        path = os.path.join(out_dir, request.node.name + ".jsonl")
        write_jsonl(path, snap, spans, meta={"scenario": "acceptance"})
        dump = read_jsonl(path)

        assert dump["meta"]["format"] == "superfe-telemetry-v1"
        assert dump["meta"]["scenario"] == "acceptance"
        assert dump["snapshot"]["counters"]["pipeline.packets"] \
            == len(enterprise_trace)
        assert dump["spans"]
        for span in dump["spans"]:
            assert span["name"]
            assert span["start_ns"] > 0
            assert span["dur_ns"] >= 0
        span_names = {s["name"] for s in dump["spans"]}
        assert "link.retransmit" in span_names
        assert "stage.switch" in span_names

    def test_retransmit_histogram_records_injected_loss(
            self, flow_policy, enterprise_trace, small_mgpv):
        tel = Telemetry(TelemetryConfig(sample_rate=1 / 16))
        chaos = run_acceptance(flow_policy, enterprise_trace,
                               small_mgpv, telemetry=tel)
        snap = chaos.dataplane.telemetry_snapshot()
        link = chaos.dataplane.link.counters()

        attempts = snap["histograms"]["link.retransmit.attempts"]
        recoveries = (link["retransmits_ok"]
                      + link["retransmits_exhausted"])
        assert attempts["count"] == recoveries > 0
        # Bounded loop: no recovery observed more attempts than armed.
        assert attempts["max"] <= RETRIES
        # The span histogram timed every recovery too.
        retx_spans = snap["histograms"]["span.link.retransmit"]
        assert retx_spans["count"] == recoveries

        assert snap["counters"]["faults.applied"] == 2
        assert snap["counters"]["cluster.failovers"] == 1

    def test_tracing_does_not_perturb_recovery(self, flow_policy,
                                               enterprise_trace,
                                               small_mgpv):
        plain = run_acceptance(flow_policy, enterprise_trace,
                               small_mgpv)
        tel = Telemetry(TelemetryConfig(sample_rate=1 / 8))
        traced = run_acceptance(flow_policy, enterprise_trace,
                                small_mgpv, telemetry=tel)
        plain_by_key = {tuple(v.key): v for v in plain.vectors}
        traced_by_key = {tuple(v.key): v for v in traced.vectors}
        assert plain_by_key.keys() == traced_by_key.keys()
        for key, vec in plain_by_key.items():
            other = traced_by_key[key]
            assert vec.degraded == other.degraded
            np.testing.assert_array_equal(vec.values, other.values)
        assert (plain.dataplane.link.counters()
                == traced.dataplane.link.counters())
