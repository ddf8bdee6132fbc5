"""The composable dataplane graph: stage wiring, the modeled switch→NIC
link (accounting, batching, loss/backpressure injection), per-stage
counters, the trace hook, and multi-NIC pipeline equivalence."""

import numpy as np
import pytest

import repro.api as api
from repro.core.dataplane import Dataplane, LinkConfig, SwitchNICLink
from repro.core.observe import (
    DeltaPoller,
    counter_delta,
    degradation_report,
    render_counters,
)
from repro.core.policy import pktstream
from repro.net.trace import generate_trace
from repro.switchsim.mgpv import FGSync, MGPVRecord


def flow_policy():
    return (pktstream().filter("tcp.exist").groupby("flow")
            .reduce("size", ["f_sum", "f_max"]).collect("flow"))


def multi_gran_policy():
    return (pktstream().groupby("host")
            .reduce("size", ["f_sum"]).collect("socket")
            .groupby("socket")
            .reduce("size", ["f_sum", "f_max"]).collect("socket"))


@pytest.fixture(scope="module")
def packets():
    return generate_trace("ENTERPRISE", n_flows=150, seed=17)


def run_dataplane(policy, packets, **build_kwargs):
    fe = api.compile(policy)
    dataplane = Dataplane.build(fe.compiled, ctx=fe._build["ctx"], **build_kwargs)
    dataplane.process(packets)
    vectors = dataplane.flush()
    return dataplane, vectors


class TestWiring:
    def test_single_engine_matches_superfe_run(self, packets):
        """The composed graph is exactly what SuperFE.run executes."""
        dataplane, vectors = run_dataplane(flow_policy(), packets)
        reference = api.compile(flow_policy()).run(packets)
        got = {tuple(v.key): v.values for v in vectors}
        want = reference.by_key()
        assert got.keys() == {tuple(k) for k in want.keys()}
        for key, values in want.items():
            assert np.array_equal(got[tuple(key)], values)

    def test_counters_cover_every_stage(self, packets):
        dataplane, _ = run_dataplane(flow_policy(), packets)
        counters = dataplane.counters()
        assert set(counters) == {"filter", "mgpv", "link", "engine"}
        assert counters["filter"]["admitted"] > 0
        assert counters["mgpv"]["records_out"] > 0
        assert counters["link"]["bytes_out"] > 0
        assert counters["engine"]["vectors_emitted"] > 0

    def test_trace_hook_sees_every_stage(self, packets):
        seen: dict[str, int] = {}

        def trace(stage, event):
            seen[stage] = seen.get(stage, 0) + 1

        dataplane, _ = run_dataplane(flow_policy(), packets[:200],
                                     trace=trace)
        stats = dataplane.switch.stats
        assert seen["filter"] == 200
        assert seen["mgpv"] == stats.pkts_in         # admitted only
        assert seen["link"] == stats.records_out + stats.syncs_out
        assert seen["engine"] == seen["link"]        # lossless default

    def test_null_sink_for_switch_side_measurement(self, packets):
        dataplane, vectors = run_dataplane(flow_policy(), packets,
                                           compute=False)
        assert vectors == []
        assert dataplane.engine is None
        assert dataplane.sink.counters()["records"] == \
            dataplane.switch.stats.records_out


class TestSwitchNICLink:
    def test_accounting_matches_cache_emission(self, packets):
        """Fig 12's ratios, sourced from the link, must equal the values
        the cache computes about its own emissions."""
        dataplane, _ = run_dataplane(flow_policy(), packets)
        link, stats = dataplane.link, dataplane.switch.stats
        assert link.bytes_out == stats.bytes_out
        assert link.records_out == stats.records_out
        assert link.syncs_out == stats.syncs_out
        assert link.cells_out == stats.cells_out
        assert link.aggregation_ratio_bytes == \
            stats.aggregation_ratio_bytes
        assert link.aggregation_ratio_rate == stats.aggregation_ratio_rate
        assert link.aggregation_ratio_bytes < 0.2   # the paper's headline

    def test_batching_preserves_results_and_accounts_overhead(
            self, packets):
        plain, vectors = run_dataplane(flow_policy(), packets)
        batched, batched_vectors = run_dataplane(
            flow_policy(), packets,
            link_config=LinkConfig(batch_records=8, batch_header_bytes=16))
        # FIFO batching delays delivery but never reorders: identical
        # final vectors.
        want = {tuple(v.key): v.values for v in vectors}
        got = {tuple(v.key): v.values for v in batched_vectors}
        assert want.keys() == got.keys()
        for key in want:
            assert np.array_equal(want[key], got[key])
        # Fewer, larger transmissions; framing accounted per batch.
        assert batched.link.batches_out < plain.link.batches_out
        assert batched.link.batch_overhead_bytes == \
            16 * batched.link.batches_out
        assert batched.link.bytes_out == \
            plain.link.bytes_out + batched.link.batch_overhead_bytes

    def test_bandwidth_busy_time(self, packets):
        dataplane, _ = run_dataplane(
            flow_policy(), packets,
            link_config=LinkConfig(bandwidth_gbps=80.0))
        link = dataplane.link
        assert link.busy_ns == pytest.approx(link.bytes_out * 8 / 80.0)
        duration = dataplane.switch.now_ns
        assert 0 < link.utilization(duration) < 1

    def test_sync_loss_injection_degrades_gracefully(self, packets):
        """Dropped FG syncs orphan cells downstream but never crash the
        engine or corrupt surviving groups."""
        clean, clean_vectors = run_dataplane(multi_gran_policy(), packets)
        lossy, lossy_vectors = run_dataplane(
            multi_gran_policy(), packets,
            link_config=LinkConfig(drop_rate=0.3, drop_kind="sync",
                                   seed=5))
        link = lossy.link
        assert link.drops_injected > 0
        assert link.syncs_out == link.syncs_in - link.drops_injected
        assert link.records_out == link.records_in
        engine = lossy.engine
        assert engine.stats.orphan_cells > 0
        clean_keys = {tuple(v.key) for v in clean_vectors}
        for vec in lossy_vectors:
            assert tuple(vec.key) in clean_keys     # no invented keys
            assert np.isfinite(vec.values).all()

    def test_record_loss_injection(self, packets):
        lossy, vectors = run_dataplane(
            flow_policy(), packets,
            link_config=LinkConfig(drop_rate=0.5, drop_kind="record",
                                   seed=9))
        link = lossy.link
        assert link.drops_injected > 0
        assert link.records_out < link.records_in
        assert link.syncs_out == link.syncs_in
        # The engine only sees delivered cells.
        assert lossy.engine.stats.cells == link.cells_out
        for vec in vectors:
            assert np.isfinite(vec.values).all()

    def test_backpressure_capacity_drops(self, packets):
        """A bounded queue that never drains fast enough loses the
        newest messages instead of stalling the switch."""
        dataplane, vectors = run_dataplane(
            flow_policy(), packets,
            link_config=LinkConfig(batch_records=64, capacity_records=8))
        link = dataplane.link
        assert link.drops_backpressure > 0
        delivered = link.records_out + link.syncs_out
        offered = link.records_in + link.syncs_in
        assert delivered == offered - link.drops_backpressure
        for vec in vectors:
            assert np.isfinite(vec.values).all()

    def test_config_validation(self):
        with pytest.raises(ValueError):
            LinkConfig(batch_records=0)
        with pytest.raises(ValueError):
            LinkConfig(drop_rate=1.5)
        with pytest.raises(ValueError):
            LinkConfig(drop_kind="bursty")
        with pytest.raises(ValueError):
            LinkConfig(bandwidth_gbps=0)
        with pytest.raises(ValueError, match="capacity_records"):
            LinkConfig(capacity_records=0)
        with pytest.raises(ValueError, match="seed"):
            LinkConfig(seed=-1)
        with pytest.raises(ValueError, match="retransmit_retries"):
            LinkConfig(retransmit_retries=-1)
        with pytest.raises(ValueError, match="retransmit_backoff_ns"):
            LinkConfig(retransmit_backoff_ns=-1.0)
        with pytest.raises(ValueError, match="retransmit_request_bytes"):
            LinkConfig(retransmit_request_bytes=-1)

    def test_unattached_link_reports_zero_ratio(self):
        link = SwitchNICLink(api.compile(flow_policy()).mgpv_config)
        assert link.aggregation_ratio_bytes == 0.0
        assert link.aggregation_ratio_rate == 0.0


class TestMultiNICEquivalence:
    """§8.5: the same trace + policy through 1..4 hash-steered NICs must
    produce the same vector set as the single-engine pipeline."""

    @pytest.mark.parametrize("n_nics", [1, 2, 3, 4])
    def test_cluster_matches_single_engine(self, packets, n_nics):
        single = api.compile(multi_gran_policy()).run(packets)
        cluster = api.compile(multi_gran_policy(), n_nics=n_nics).run(packets)
        want = {tuple(k): v for k, v in single.by_key().items()}
        got = {tuple(k): v for k, v in cluster.by_key().items()}
        assert want.keys() == got.keys()
        for key in want:
            assert np.array_equal(want[key], got[key])

    def test_load_balanced_within_tolerance(self, packets):
        result = api.compile(multi_gran_policy(), n_nics=4).run(packets)
        cluster = result.engine
        loads = cluster.cells_per_nic()
        mean = sum(loads) / len(loads)
        assert sum(loads) == cluster.stats.cells > 0
        assert all(load > 0.35 * mean for load in loads)

    def test_cluster_counters_exported(self, packets):
        result = api.compile(multi_gran_policy(), n_nics=2).run(packets)
        counters = result.dataplane.counters()
        assert counters["cluster"]["n_nics"] == 2
        assert set(counters["cluster"]["cells_per_nic"]) == {"0", "1"}


class TestObserve:
    def test_counter_delta_nested(self):
        last = {"a": 1, "ev": {"x": 2}, "label": "keep"}
        now = {"a": 5, "ev": {"x": 3, "y": 1}, "label": "keep", "new": 2}
        delta = counter_delta(now, last)
        assert delta == {"a": 4, "ev": {"x": 1, "y": 1},
                         "label": "keep", "new": 2}

    def test_delta_poller_and_reset(self):
        counters = {"n": 0}
        poller = DeltaPoller(lambda: dict(counters))
        counters["n"] = 7
        assert poller.poll() == {"n": 7}
        assert poller.peek() == {"n": 0}
        counters["n"] = 9
        assert poller.poll() == {"n": 2}
        poller.reset()
        assert poller.poll() == {"n": 9}    # absolutes after teardown

    def test_render_counters(self):
        text = render_counters(
            {"link": {"bytes_out": 10, "evictions": {"aging": 1}}})
        assert "link:" in text
        assert "bytes_out: 10" in text
        assert "aging=1" in text

    def test_counter_delta_marks_removed_keys(self):
        # A stage present in the last sample but missing from the
        # current one (hot swap detached it) must not vanish silently.
        last = {"a": 1, "faults": {"applied": 2}}
        now = {"a": 3}
        delta = counter_delta(now, last)
        assert delta == {"a": 2, "faults.removed": True}

    def test_counter_delta_marks_removed_nested_keys(self):
        last = {"ev": {"aging": 1, "pressure": 2}}
        now = {"ev": {"aging": 4}}
        assert counter_delta(now, last) \
            == {"ev": {"aging": 3, "pressure.removed": True}}

    def test_render_counters_survives_removed_markers(self):
        text = render_counters({"faults.removed": True, "a": {"n": 1}})
        assert "faults.removed: True" in text

    def test_degradation_report_engine_layout(self):
        counters = {"engine": {"orphan_cells": 1, "degraded_cells": 2},
                    "link": {"drops_injected": 3, "retransmits_ok": 1}}
        report = degradation_report(counters)
        assert report["injected"] == {"drops_injected": 3}
        assert report["recovered"] == {"retransmits_ok": 1}
        assert report["degraded"] == {"orphan_cells": 1,
                                      "degraded_cells": 2}

    def test_degradation_report_prefers_engine_even_when_falsy(self):
        # Regression: an empty engine dict is falsy, and a
        # truthiness-chained lookup used to fall through to "cluster"
        # and report the wrong sink's ledger.
        counters = {"engine": {},
                    "cluster": {"orphan_cells": 9, "degraded_cells": 9},
                    "link": {}}
        report = degradation_report(counters)
        assert report["degraded"] == {}

    def test_degradation_report_cluster_layout(self):
        counters = {"cluster": {"orphan_cells": 4, "degraded_cells": 5,
                                "failovers": 2},
                    "link": {}}
        report = degradation_report(counters)
        assert report["degraded"] == {"orphan_cells": 4,
                                      "degraded_cells": 5}
        assert report["recovered"] == {"failovers": 2}
