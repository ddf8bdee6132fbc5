"""Live ops surface: serve_ops endpoints, Extractor.flight, and the
observability CLI verbs (telemetry trace / bench-report)."""

import json
import urllib.error
import urllib.request

import pytest

import repro.api as api
from repro import pktstream
from repro.cli import main
from repro.core import flightrec
from repro.core.telemetry import Telemetry, TelemetryConfig
from repro.core.tracecontext import (
    derive_span_id,
    make_event,
    new_trace_id,
    root_span_id,
    write_chrome_trace,
)
from repro.net.trace import generate_trace


@pytest.fixture(autouse=True)
def fresh_ring():
    flightrec.reset()
    yield
    flightrec.reset()


@pytest.fixture()
def policy():
    return (pktstream().groupby("flow")
            .reduce("size", ["f_sum", "f_max"]).collect("flow"))


@pytest.fixture(scope="module")
def packets():
    return generate_trace("ENTERPRISE", n_flows=60, seed=9)


def _get(url, timeout=10):
    with urllib.request.urlopen(url, timeout=timeout) as resp:
        return resp.status, resp.headers["Content-Type"], \
            resp.read().decode("utf-8")


class TestServeOps:
    def test_endpoints_serve_metrics_health_and_flight(self, policy,
                                                       packets):
        tel = Telemetry(TelemetryConfig(sample_rate=1.0))
        ex = api.compile(policy, n_nics=2, telemetry=tel)
        # A shedding stream session: populates metrics, the health
        # ledger, and the flight ring in one go.
        list(ex.stream(packets, batch_size=16, queue_batches=1,
                       overload="shed"))
        with api.serve_ops(ex) as srv:
            status, ctype, metrics = _get(srv.url + "/metrics")
            assert status == 200 and ctype.startswith("text/plain")
            assert "superfe_" in metrics

            status, ctype, body = _get(srv.url + "/health")
            assert status == 200 and ctype == "application/json"
            health = json.loads(body)
            assert health["state"] == "drained"
            assert health["ingest"]["shed_batches"] >= 1
            # Shed packets export as a counter, like every other count.
            shed = health["ingest"]["shed_packets"]
            assert (f"# TYPE superfe_ingest_shed counter\n"
                    f"superfe_ingest_shed {shed}\n") in metrics

            status, _, body = _get(srv.url + "/debug/flight")
            assert status == 200
            kinds = {e["kind"] for e in json.loads(body)}
            assert "ingest.shed" in kinds

            with pytest.raises(urllib.error.HTTPError) as err:
                _get(srv.url + "/no/such")
            assert err.value.code == 404

    def test_metrics_without_telemetry_is_a_comment(self, policy):
        ex = api.compile(policy, n_nics=1)
        with api.serve_ops(ex) as srv:
            status, _, body = _get(srv.url + "/metrics")
        assert status == 200
        assert body.startswith("#")

    def test_close_is_idempotent_and_stops_serving(self, policy):
        ex = api.compile(policy)
        srv = api.serve_ops(ex)
        url = srv.url
        srv.close()
        srv.close()
        with pytest.raises((urllib.error.URLError, OSError)):
            urllib.request.urlopen(url + "/health", timeout=1)

    def test_serve_ops_rejects_non_extractor(self):
        with pytest.raises(TypeError, match="Extractor"):
            api.serve_ops(object())


class TestExtractorFlight:
    def test_flight_dumps_coordinator_ring(self, policy):
        flightrec.record("custom.event", n=1)
        ex = api.compile(policy)
        events = ex.flight()
        assert [e["kind"] for e in events] == ["custom.event"]
        assert ex.flight(last=0) == []

    def test_degrade_session_leaves_flight_breadcrumbs(self, policy,
                                                       packets, tuned):
        tuned(DEGRADE_STRIDE=4)
        ex = api.compile(policy, n_nics=2)
        list(ex.stream(packets, batch_size=16, queue_batches=1,
                       overload="degrade"))
        kinds = [e["kind"] for e in ex.flight()]
        assert "ingest.degrade" in kinds


def _chain_events():
    tid = new_trace_id(seed=21)
    dispatch = derive_span_id(tid, "shard.dispatch", 1)
    return [
        make_event("shard.dispatch", 0, 10_000, span_id=dispatch,
                   parent_id=root_span_id(tid), trace_id=tid, seq=1,
                   pid=100),
        make_event("worker.engine", 2_000, 5_000,
                   span_id=derive_span_id(tid, "worker.engine", 1,
                                          salt=dispatch),
                   parent_id=dispatch, trace_id=tid, seq=1, pid=200),
    ]


class TestTelemetryTraceCLI:
    def test_reads_chrome_trace_and_renders_tree(self, tmp_path,
                                                 capsys):
        path = tmp_path / "trace.json"
        write_chrome_trace(str(path), _chain_events())
        assert main(["telemetry", "trace", "--input", str(path)]) == 0
        out = capsys.readouterr().out
        assert "stitched seqs: [1]" in out
        assert "worker.engine" in out

    def test_reads_jsonl_and_exports_chrome(self, tmp_path, capsys):
        from repro.core.telemetry import MetricsRegistry, write_jsonl
        jsonl = tmp_path / "run.jsonl"
        write_jsonl(str(jsonl), MetricsRegistry().snapshot(),
                    tevents=_chain_events())
        chrome = tmp_path / "chrome.json"
        assert main(["telemetry", "trace", "--input", str(jsonl),
                     "--chrome-out", str(chrome)]) == 0
        with open(chrome) as fh:
            assert len(json.load(fh)["traceEvents"]) == 2

    def test_untraced_dump_fails_loudly(self, tmp_path, capsys):
        from repro.core.telemetry import MetricsRegistry, write_jsonl
        jsonl = tmp_path / "plain.jsonl"
        write_jsonl(str(jsonl), MetricsRegistry().snapshot())
        assert main(["telemetry", "trace", "--input", str(jsonl)]) == 2
        assert "no trace events" in capsys.readouterr().err


class TestBenchReportCLI:
    def test_validates_and_renders_committed_records(self, capsys):
        # The repository commits all three records at its root.
        import pathlib
        root = pathlib.Path(__file__).resolve().parents[1]
        assert main(["bench-report", "--dir", str(root)]) == 0
        out = capsys.readouterr().out
        assert "hotpath" in out and "parallel" in out and "soak" in out
        assert "end_to_end" in out

    def test_missing_records_exit_2(self, tmp_path, capsys):
        assert main(["bench-report", "--dir", str(tmp_path)]) == 2
        assert "no BENCH_" in capsys.readouterr().err

    def test_schema_violation_exit_2(self, tmp_path, capsys):
        (tmp_path / "BENCH_hotpath.json").write_text(
            json.dumps({"bench": "hotpath"}))
        assert main(["bench-report", "--dir", str(tmp_path)]) == 2
        assert "missing" in capsys.readouterr().err

    def test_variant_stems_validate_against_their_family(self,
                                                         tmp_path,
                                                         capsys):
        # CI's BENCH_hotpath_smoke declares the family bench: it must
        # meet the full hotpath schema (here it does not).
        (tmp_path / "BENCH_hotpath_smoke.json").write_text(
            json.dumps({"bench": "hotpath"}))
        assert main(["bench-report", "--dir", str(tmp_path)]) == 2
        assert "missing" in capsys.readouterr().err
        # A sibling record under a variant stem passes through on its
        # self-declaration alone (no spurious FAIL in the footer).
        (tmp_path / "BENCH_hotpath_smoke.json").unlink()
        (tmp_path / "BENCH_hotpath_overhead.json").write_text(
            json.dumps({"bench": "trace_overhead",
                        "overhead_fraction": 0.01}))
        assert main(["bench-report", "--dir", str(tmp_path)]) == 0
