"""Observability-layer unit tests riding the tracing PR:

- Prometheus name/label sanitization for the metric names the chaos
  and columnar layers actually emit (dotted names with array-column
  suffixes like ``name[3]``, chaos-kind labels with dashes).
- ``merge_snapshots`` under partial worker death: a snapshot missing
  whole metric families must not drop or double-count survivors.
- SLO rule parsing and evaluation, including the flight-recorder
  breadcrumb every breach leaves behind.
"""

import re

import pytest

from repro.core import flightrec
from repro.core.telemetry import (
    MetricsRegistry,
    SLORule,
    TelemetryError,
    _prom_label_value,
    _prom_name,
    evaluate_slo,
    merge_snapshots,
    parse_slo_rules,
    prometheus_text,
)

#: Prometheus metric-name legality (the exposition-format grammar).
_LEGAL = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")


class TestPromSanitization:
    @pytest.mark.parametrize("raw,expected", [
        # Array-column suffixes from the columnar frame layer.
        ("name[3]", "superfe_name_3"),
        ("frame.col[0].sum", "superfe_frame_col_0_sum"),
        # Chaos-kind labels with dashes.
        ("faults.applied.worker-crash",
         "superfe_faults_applied_worker_crash"),
        ("ingest.deadline_missed", "superfe_ingest_deadline_missed"),
        # Degenerate inputs still yield a legal identifier.
        ("[]", "superfe_unnamed"),
        ("", "superfe_unnamed"),
        ("__x__", "superfe_x"),
    ])
    def test_prom_name_escapes_to_legal_identifier(self, raw, expected):
        name = _prom_name(raw)
        assert name == expected
        assert _LEGAL.match(name), name

    def test_prom_name_never_emits_consecutive_underscores(self):
        assert "__" not in _prom_name("a[1][2]...b")

    def test_prom_label_value_escapes(self):
        assert _prom_label_value('say "hi"\n') == 'say \\"hi\\"\\n'
        assert _prom_label_value("back\\slash") == "back\\\\slash"

    def test_prometheus_text_with_offending_names_is_legal(self):
        reg = MetricsRegistry()
        reg.counter("frame.col[3].nulls").inc(2)
        reg.counter("faults.applied.worker-crash").inc()
        reg.histogram("span.shard.dispatch[0]").observe(100)
        text = prometheus_text(reg.snapshot())
        for line in text.splitlines():
            if not line or line.startswith("#"):
                continue
            metric = line.split("{")[0].split(" ")[0]
            assert _LEGAL.match(metric), line
        assert "superfe_frame_col_3_nulls 2" in text
        assert "superfe_faults_applied_worker_crash 1" in text


class TestMergeUnderPartialDeath:
    """A worker that died mid-run reports a snapshot with whole metric
    families missing (or arrives as None/{}).  Survivors' totals must
    come through exactly once."""

    def _survivor(self):
        reg = MetricsRegistry()
        reg.counter("engine.events").inc(10)
        reg.gauge("engine.depth").set(4)
        reg.histogram("span.engine").observe(100)
        return reg.snapshot()

    def test_missing_families_do_not_drop_survivor_totals(self):
        survivor = self._survivor()
        # The dead worker's partial snapshot: counters only — no
        # gauges / histograms families at all.
        partial = {"counters": {"engine.events": 3}}
        merged = merge_snapshots(survivor, partial)
        assert merged["counters"]["engine.events"] == 13
        assert merged["gauges"]["engine.depth"] == 4
        assert merged["histograms"]["span.engine"]["count"] == 1

    def test_merge_order_does_not_double_count(self):
        survivor = self._survivor()
        partial = {"counters": {"engine.events": 3}}
        ab = merge_snapshots(survivor, partial)
        ba = merge_snapshots(partial, survivor)
        assert ab == ba

    def test_empty_and_none_snapshots_are_identity(self):
        survivor = self._survivor()
        merged = merge_snapshots(survivor, {}, None)
        assert merged["counters"] == survivor["counters"]
        assert merged["histograms"]["span.engine"]["count"] == 1


class TestSLO:
    @pytest.fixture(autouse=True)
    def fresh_ring(self):
        flightrec.reset()
        yield
        flightrec.reset()

    def test_parse_slo_rules(self):
        rules = parse_slo_rules(
            "supervisor.restarts<=3, p99:span.shard.dispatch<=5e6")
        assert rules == (
            SLORule("supervisor.restarts", 3.0),
            SLORule("p99:span.shard.dispatch", 5e6),
        )
        assert rules[0].spec == "supervisor.restarts<=3"

    @pytest.mark.parametrize("bad", ["", "restarts", "x<=y", "<=3"])
    def test_parse_rejects_malformed(self, bad):
        with pytest.raises(TelemetryError):
            parse_slo_rules(bad)

    def test_evaluate_counters_gauges_and_percentiles(self):
        reg = MetricsRegistry()
        reg.counter("supervisor.restarts").inc(5)
        reg.gauge("ingest.queue_depth").set(2)
        hist = reg.histogram("span.shard.dispatch")
        for _ in range(100):
            hist.observe(1000)
        snapshot = reg.snapshot()
        breaches = evaluate_slo(snapshot, parse_slo_rules(
            "supervisor.restarts<=3,ingest.queue_depth<=8,"
            "p99:span.shard.dispatch<=100"))
        assert [b["metric"] for b in breaches] \
            == ["supervisor.restarts", "p99:span.shard.dispatch"]
        assert breaches[0]["value"] == 5.0
        assert breaches[0]["limit"] == 3.0

    def test_absent_metric_is_not_a_breach(self):
        breaches = evaluate_slo({}, parse_slo_rules("no.such<=1"))
        assert breaches == []

    def test_extras_take_precedence_and_feed_rates(self):
        rules = parse_slo_rules("shed_rate<=0.25")
        assert evaluate_slo({}, rules, extras={"shed_rate": 0.1}) == []
        breaches = evaluate_slo({}, rules, extras={"shed_rate": 0.5})
        assert breaches and breaches[0]["value"] == 0.5

    def test_breach_records_flight_event(self):
        evaluate_slo({}, parse_slo_rules("shed_rate<=0.25"),
                     extras={"shed_rate": 0.5})
        events = flightrec.snapshot()
        assert [e["kind"] for e in events] == ["slo.breach"]
        assert events[0]["metric"] == "shed_rate"
        assert events[0]["value"] == 0.5
