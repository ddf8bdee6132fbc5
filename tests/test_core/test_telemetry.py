"""Telemetry layer invariants: bucket math against a numpy oracle,
snapshot merge associativity (property-tested), tracer sampling,
exporters, and cross-backend aggregate equality."""

import gc
import io
import json
import pickle
import sys
import threading
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.api as api
from repro.core.dataplane import LinkConfig
from repro.core.faults import FaultAction, FaultPlan
from repro.core.parallel import ExecutionConfig
from repro.core.telemetry import (
    Histogram,
    MetricsRegistry,
    Telemetry,
    TelemetryConfig,
    TelemetryError,
    Tracer,
    histogram_percentiles,
    merge_snapshots,
    prometheus_text,
    read_jsonl,
    render_dashboard,
    write_jsonl,
)
from repro.net.trace import generate_trace
from tests.conftest import inline_cluster


def numpy_bucket_counts(bounds, values):
    """Oracle: searchsorted(side='left') bucketing with one overflow
    bucket, the documented semantics of :class:`Histogram`."""
    idx = np.searchsorted(np.asarray(bounds), np.asarray(values),
                          side="left")
    return np.bincount(idx, minlength=len(bounds) + 1).tolist()


class TestHistogram:
    @given(st.lists(st.integers(0, 5000), max_size=200))
    @settings(max_examples=50, deadline=None)
    def test_bucketing_matches_numpy(self, values):
        bounds = (10, 100, 1000)
        h = Histogram("h", bounds)
        for v in values:
            h.observe(v)
        assert h.counts == numpy_bucket_counts(bounds, values)
        assert h.count == len(values)
        assert h.total == sum(values)

    def test_edge_values_land_inclusive(self):
        h = Histogram("h", (10, 100))
        for v in (10, 100, 101):
            h.observe(v)
        # Inclusive upper edges: 10 -> bucket 0, 100 -> bucket 1,
        # 101 -> overflow.
        assert h.counts == [1, 1, 1]

    def test_streaming_extremes_and_mean(self):
        h = Histogram("h", (10,))
        assert (h.min, h.max, h.mean) == (None, None, 0.0)
        for v in (7, 3, 40):
            h.observe(v)
        assert (h.min, h.max) == (3, 40)
        assert h.mean == pytest.approx(50 / 3)

    def test_bounds_validation(self):
        with pytest.raises(TelemetryError):
            Histogram("h", ())
        with pytest.raises(TelemetryError):
            Histogram("h", (10, 10))
        with pytest.raises(TelemetryError):
            Histogram("h", (10, 5))

    def test_percentiles_clamped_to_observed_range(self):
        h = Histogram("h", (10, 100, 1000))
        for v in (20, 30, 40):
            h.observe(v)
        pct = histogram_percentiles(h.snapshot())
        assert set(pct) == {"p50", "p90", "p99"}
        assert 20 <= pct["p50"] <= pct["p90"] <= pct["p99"] <= 40

    def test_percentiles_empty(self):
        pct = histogram_percentiles(Histogram("h", (10,)).snapshot())
        assert pct == {"p50": 0.0, "p90": 0.0, "p99": 0.0}


class TestRegistry:
    def test_get_or_create_identity(self):
        reg = MetricsRegistry()
        assert reg.counter("a") is reg.counter("a")
        assert reg.histogram("h") is reg.histogram("h")

    def test_cross_kind_name_conflicts(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(TelemetryError):
            reg.gauge("x")
        with pytest.raises(TelemetryError):
            reg.histogram("x")

    def test_histogram_bounds_conflict(self):
        reg = MetricsRegistry()
        reg.histogram("h", (1, 2))
        reg.histogram("h", (1, 2))              # same bounds: fine
        with pytest.raises(TelemetryError):
            reg.histogram("h", (1, 3))

    def test_gauge_sources_sum_at_snapshot(self):
        reg = MetricsRegistry()
        graph = object()
        with reg.owned_by(graph):
            reg.gauge_source("depth", lambda: 3)
        reg.gauge_source("depth", lambda: 4)
        assert reg.snapshot()["gauges"]["depth"] == 7
        reg.release(graph)
        assert reg.snapshot()["gauges"]["depth"] == 4
        reg.release(None)
        assert "depth" not in reg.snapshot()["gauges"]

    def test_released_counter_sources_keep_their_totals(self):
        reg = MetricsRegistry()
        counts = {"a": 3, "b": 4}
        for owner in counts:
            with reg.owned_by(owner):
                reg.counter_source("records", lambda o=owner: counts[o])
        assert reg.snapshot()["counters"]["records"] == 7
        reg.release("a")
        counts["a"] = 100               # a released source is not read
        counts["b"] = 5
        assert reg.snapshot()["counters"]["records"] == 8
        reg.release("b")
        reg.release("b")                # idempotent
        assert reg.snapshot()["counters"]["records"] == 8
        with pytest.raises(TelemetryError):
            reg.gauge_source("records", lambda: 0)

    def test_snapshots_race_registration_and_release(self):
        """An ops thread's snapshots while graphs come and go: each
        source counts once — never both live and in its total — and a
        snapshot never trips over the source table changing."""
        reg = MetricsRegistry()
        registered = [0]

        def churn():
            for owner in range(3000):
                registered[0] = owner + 1
                with reg.owned_by(owner):
                    reg.counter_source("n", lambda: 1)
                    reg.gauge_source("live", lambda: 1)
                reg.release(owner)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            thread = threading.Thread(target=churn)
            thread.start()
            last = 0
            while thread.is_alive():
                snap = reg.snapshot()
                n = snap["counters"].get("n", 0)
                assert last <= n <= registered[0]
                assert snap["gauges"].get("live", 0) <= 1
                last = n
            thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not thread.is_alive()
        assert reg.snapshot()["counters"]["n"] == 3000


# One registry's worth of activity, as data: counter increments,
# and histogram observations (integers — float addition is not
# associative).
registry_activity = st.fixed_dictionaries({
    "counters": st.dictionaries(
        st.sampled_from(("a", "b", "c")), st.integers(0, 100),
        max_size=3),
    "observations": st.lists(st.integers(0, 5000), max_size=30),
})


def build_snapshot(activity):
    reg = MetricsRegistry()
    for name, n in activity["counters"].items():
        reg.counter(name).inc(n)
    h = reg.histogram("lat", (10, 100, 1000))
    for v in activity["observations"]:
        h.observe(v)
    return reg.snapshot()


class TestMerge:
    @given(registry_activity, registry_activity, registry_activity)
    @settings(max_examples=50, deadline=None)
    def test_merge_is_associative_and_commutative(self, a, b, c):
        sa, sb, sc = (build_snapshot(x) for x in (a, b, c))
        left = merge_snapshots(merge_snapshots(sa, sb), sc)
        right = merge_snapshots(sa, merge_snapshots(sb, sc))
        flat = merge_snapshots(sa, sb, sc)
        swapped = merge_snapshots(sc, sa, sb)
        assert left == right == flat == swapped

    @given(registry_activity)
    @settings(max_examples=20, deadline=None)
    def test_empty_snapshot_is_identity(self, a):
        snap = build_snapshot(a)
        empty = MetricsRegistry().snapshot()
        merged = merge_snapshots(snap, empty)
        # Identity up to instruments the empty side never registered.
        for kind in ("counters", "gauges", "histograms"):
            assert merged[kind] == snap[kind]
        assert merge_snapshots() == {
            "counters": {}, "gauges": {}, "histograms": {}}

    def test_mismatched_histogram_bounds_refused(self):
        ra, rb = MetricsRegistry(), MetricsRegistry()
        ra.histogram("h", (1, 2)).observe(1)
        rb.histogram("h", (1, 3)).observe(1)
        with pytest.raises(TelemetryError):
            merge_snapshots(ra.snapshot(), rb.snapshot())


class TestTracer:
    def test_stride_sampling_is_deterministic(self):
        tracer = Tracer(MetricsRegistry(), sample_rate=0.25)
        assert [tracer.should_sample() for _ in range(8)] \
            == [False, False, False, True] * 2

    def test_rate_zero_is_inert(self):
        tracer = Tracer(MetricsRegistry(), sample_rate=0.0)
        assert not tracer.active
        assert not any(tracer.should_sample() for _ in range(10))
        with tracer.span("x"):
            pass
        assert tracer.spans == []

    def test_record_feeds_span_histogram(self):
        reg = MetricsRegistry()
        tracer = Tracer(reg, sample_rate=1.0)
        tracer.record("stage.switch", 100, 350)
        assert tracer.spans == [("stage.switch", 100, 250)]
        h = reg.snapshot()["histograms"]["span.stage.switch"]
        assert (h["count"], h["total"]) == (1, 250)

    def test_max_spans_cap_counts_drops(self, tuned):
        tuned(MAX_SPANS=2)
        tracer = Tracer(MetricsRegistry(), sample_rate=1.0)
        for i in range(5):
            tracer.record("s", 0, i)
        assert len(tracer.spans) == 2
        assert tracer.spans_dropped == 3

    def test_invalid_rates_rejected(self):
        with pytest.raises(TelemetryError):
            Tracer(MetricsRegistry(), sample_rate=1.5)
        with pytest.raises(TelemetryError):
            TelemetryConfig(sample_rate=-0.1)

    def test_config_is_picklable(self):
        cfg = TelemetryConfig(sample_rate=0.125, trace=True)
        assert pickle.loads(pickle.dumps(cfg)) == cfg


class TestExporters:
    def make_snapshot(self):
        reg = MetricsRegistry()
        reg.counter("mgpv.evictions").inc(5)
        reg.gauge("link.queue_depth").set(2)
        reg.histogram("span.stage.switch", (10, 100)).observe(42)
        reg.counter("engine.records").inc(3)
        return reg.snapshot()

    def test_jsonl_round_trip(self, tmp_path):
        path = tmp_path / "t.jsonl"
        snap = self.make_snapshot()
        spans = [("stage.switch", 100, 42)]
        lines = write_jsonl(path, snap, spans, meta={"run": "x"})
        assert lines == 3
        dump = read_jsonl(path)
        assert dump["meta"]["format"] == "superfe-telemetry-v1"
        assert dump["meta"]["run"] == "x"
        assert dump["snapshot"] == json.loads(json.dumps(snap))
        assert dump["spans"] == [{"kind": "span", "name": "stage.switch",
                                  "start_ns": 100, "dur_ns": 42}]

    def test_jsonl_accepts_open_file(self):
        buf = io.StringIO()
        write_jsonl(buf, self.make_snapshot())
        rows = [json.loads(line) for line in buf.getvalue().splitlines()]
        assert [r["kind"] for r in rows] == ["meta", "metrics"]

    def test_prometheus_text_format(self):
        text = prometheus_text(self.make_snapshot())
        assert "# TYPE superfe_mgpv_evictions counter" in text
        assert "superfe_mgpv_evictions 5" in text
        assert "superfe_link_queue_depth 2" in text
        assert 'superfe_span_stage_switch_bucket{le="10"} 0' in text
        assert 'superfe_span_stage_switch_bucket{le="100"} 1' in text
        assert 'superfe_span_stage_switch_bucket{le="+Inf"} 1' in text
        assert "superfe_span_stage_switch_sum 42" in text
        assert "# TYPE superfe_engine_records counter" in text
        assert "superfe_engine_records 3" in text

    def test_committed_soak_record_still_loads_and_renders(self):
        """``benchmarks/results/soak_telemetry.jsonl`` was written when
        snapshots had a ``rates`` family (empty there): it still loads,
        merges into the three families and renders."""
        path = (Path(__file__).parents[2] / "benchmarks" / "results"
                / "soak_telemetry.jsonl")
        snap = read_jsonl(path)["snapshot"]
        assert snap["rates"] == {}
        merged = merge_snapshots(snap)
        assert merged == {kind: snap[kind]
                          for kind in ("counters", "gauges", "histograms")}
        for view in (snap, merged):
            assert "superfe_supervisor_restarts 2\n" in prometheus_text(view)
            assert "restarts" in render_dashboard(view)

    def test_dashboard_mentions_everything(self):
        snap = merge_snapshots(self.make_snapshot(),
                               {"counters": {"bare": 1}})
        text = render_dashboard(snap, spans=[("s", 0, 1)], title="t")
        for needle in ("t", "[mgpv]", "evictions", "queue_depth",
                       "span.stage.switch", "[engine]", "records",
                       "[metrics]", "bare", "spans collected: 1"):
            assert needle in text


def flow_policy():
    from repro.core.policy import pktstream
    return (pktstream().groupby("flow")
            .reduce("size", ["f_sum", "f_mean", "f_max"])
            .collect("flow"))


class TestEndToEnd:
    #: Lossy link so the retransmit totals compared below are non-zero.
    LINK = LinkConfig(drop_rate=0.05, drop_kind="sync",
                      retransmit_retries=4, seed=5)

    def run_with(self, inline: bool = False, **kw):
        tel = Telemetry(TelemetryConfig(sample_rate=0.0))
        ex = api.compile(flow_policy(), n_nics=3, link_config=self.LINK,
                         telemetry=tel, **kw)
        if inline:
            inline_cluster(ex)
        packets = generate_trace("ENTERPRISE", n_flows=60, seed=11)
        result = ex.run(packets)
        snap = result.dataplane.telemetry_snapshot()
        return result, snap

    def totals(self, snap):
        hist = snap["histograms"]["link.retransmit.attempts"]
        return {
            "packets": snap["counters"]["pipeline.packets"],
            "evictions": snap["counters"]["mgpv.evictions"],
            "records": snap["counters"]["engine.records"],
            "retransmits": hist["count"],
        }

    def test_process_backend_matches_serial_totals(self):
        """Acceptance: the process-backend run reports identical
        aggregate packet / eviction / retransmit totals to the serial
        run over the same seeded input."""
        serial_result, serial_snap = self.run_with()
        proc_result, proc_snap = self.run_with(workers=2,
                                               backend="process")
        serial_totals = self.totals(serial_snap)
        assert serial_totals == self.totals(proc_snap)
        assert serial_totals["packets"] > 0
        assert serial_totals["retransmits"] > 0
        assert len(serial_result.vectors) == len(proc_result.vectors)

    def test_inline_cluster_matches_serial_totals(self):
        """Worker-side registries on the inline cluster merge into the
        same totals as the serial run's."""
        _, serial_snap = self.run_with()
        _, inline_snap = self.run_with(inline=True)
        assert self.totals(serial_snap) == self.totals(inline_snap)

    def test_sampling_does_not_change_vectors(self):
        packets = generate_trace("ENTERPRISE", n_flows=40, seed=3)
        plain = api.compile(flow_policy()).run(packets)
        traced = api.compile(flow_policy(), telemetry=0.25).run(packets)
        assert plain.to_matrix().tobytes() \
            == traced.to_matrix().tobytes()

    def test_api_telemetry_spellings(self):
        assert api.compile(flow_policy()).telemetry is None
        ex = api.compile(flow_policy(), telemetry=True)
        assert ex.telemetry is not None and not ex.telemetry.sampling
        ex = api.compile(flow_policy(), telemetry=0.5)
        assert ex.telemetry.config.sample_rate == 0.5
        with pytest.raises(TypeError):
            api.compile(flow_policy(), telemetry="yes")

    def test_span_histograms_populated_when_sampling(self):
        tel = Telemetry(TelemetryConfig(sample_rate=0.25))
        ex = api.compile(flow_policy(), telemetry=tel)
        packets = generate_trace("ENTERPRISE", n_flows=60, seed=2)
        result = ex.run(packets)
        snap = result.dataplane.telemetry_snapshot()
        span_hists = {n for n, h in snap["histograms"].items()
                      if n.startswith("span.") and h["count"]}
        assert "span.stage.switch" in span_hists
        assert "span.pipeline.flush" in span_hists
        assert result.dataplane.telemetry_spans()


def stage_counts(dataplane, ingest: dict) -> dict:
    """Each registry counter's name and the stage count it stands for,
    read from a finished stream session's graph and ingestion ledger
    (one ``process`` call per chunk, so the session's chunks are the
    pipeline's batches)."""
    counters = dataplane.counters()
    sink = dataplane.sink
    stats = [engine.stats for engine in getattr(sink, "engines", [sink])]
    counts = {
        "engine.records": sum(s.records for s in stats),
        "engine.syncs": sum(s.syncs for s in stats),
        "engine.cells.columnar": sum(s.cells_columnar for s in stats),
        "engine.cells.per_cell": sum(s.cells - s.cells_columnar
                                     for s in stats),
        "mgpv.evictions": counters["mgpv"]["records_out"],
        "mgpv.fg_syncs": counters["mgpv"]["syncs_out"],
        "pipeline.packets": ingest["packets_processed"],
        "pipeline.batches": ingest["batches_processed"],
        "ingest.packets": ingest["packets_processed"],
        "ingest.batches": ingest["batches_processed"],
        "ingest.deadline_missed": ingest["deadline_missed"],
        "ingest.shed": ingest["dropped_packets"],
        "faults.applied": counters["faults"]["actions_applied"],
        "faults.reverted": counters["faults"]["actions_reverted"],
        "cluster.failovers": counters["cluster"]["failovers"],
    }
    health = dataplane.health()
    if health is not None:
        transport = health["transport"]
        counts.update({
            "dispatch.batches": sink.batches_dispatched,
            "dispatch.events": sink.events_dispatched,
            "transport.bytes": transport["bytes"],
            "transport.frames": transport["frames"],
            "transport.fallback_chunks": transport["fallback_chunks"],
            "transport.parked_frames": transport["parked_frames"],
        })
    supervision = health and health["supervision"]
    if supervision:
        counts.update({
            "supervisor.restarts": supervision["restarts"],
            "supervisor.redispatched": supervision["redispatched_batches"],
            "supervisor.poison_batches": len(supervision["poison_batches"]),
        })
    return counts


@pytest.mark.parametrize("backend", ["serial", "inline", "process"])
def test_registry_counters_equal_the_stage_counts(backend):
    """Every counter in the registry reads the count its stage keeps,
    on each backend, through link loss, a NIC failover and (on the
    process backend) a worker restart."""
    packets = generate_trace("ENTERPRISE", n_flows=60, seed=11)
    actions = [FaultAction(kind="link_loss", at_packet=60,
                           until_packet=300, rate=0.2),
               FaultAction(kind="nic_kill", at_packet=150, nic=1)]
    execution = ExecutionConfig()
    if backend == "process":
        execution = ExecutionConfig(workers=2, backend="process")
        actions.append(FaultAction(kind="worker_crash", at_packet=250,
                                   worker=0))
    tel = Telemetry()
    ex = api.compile(flow_policy(), n_nics=4, telemetry=tel,
                     execution=execution,
                     link_config=LinkConfig(retransmit_retries=2),
                     fault_plan=FaultPlan(seed=3, actions=tuple(actions)))
    if backend == "inline":
        inline_cluster(ex)
    with ex:
        for _chunk in ex.stream(packets, batch_size=64):
            pass
        dataplane = ex._session.dataplane
        counts = stage_counts(dataplane, ex.health()["ingest"])
        snapshot = dataplane.telemetry_snapshot()["counters"]
    assert snapshot == counts
    assert counts["engine.records"] > 0 and counts["mgpv.fg_syncs"] > 0
    assert counts["faults.applied"] == len(actions)
    assert counts["faults.reverted"] == counts["cluster.failovers"] == 1
    assert dataplane.counters()["link"]["drops_fault"] > 0
    assert ("dispatch.batches" in counts) == (backend != "serial")
    assert counts.get("supervisor.restarts", 1) >= 1
    assert ("supervisor.restarts" in counts) == (backend == "process")


def test_finished_runs_leave_the_registry():
    """Three ``run()`` calls on one registry: no finished run's switch,
    link or engine stays reachable, no gauge of a closed graph is left,
    the counters keep every run's total, and a live graph's table gauge
    counts its own groups only."""
    packets = generate_trace("ENTERPRISE", n_flows=40, seed=3)
    tel = Telemetry()
    ex = api.compile(flow_policy(), telemetry=tel)
    stages, records = [], []
    for _ in range(3):
        result = ex.run(packets)
        graph = result.dataplane
        stages += [weakref.ref(s) for s in (graph.switch, graph.link,
                                            graph.engine)]
        records.append(graph.engine.stats.records)
        del result, graph
    gc.collect()
    assert [ref() for ref in stages] == [None] * len(stages)
    snap = tel.snapshot()
    assert snap["gauges"] == {}
    assert snap["counters"]["engine.records"] == sum(records) > 0
    assert snap["counters"]["pipeline.packets"] == 3 * len(packets)

    live = ex.dataplane()
    live.process(packets)
    groups = tel.snapshot()["gauges"]["engine.table.flow.groups"]
    assert groups == live.engine.table_stats()["flow"].inserts > 0
    live.close()
    assert tel.snapshot()["gauges"] == {}
