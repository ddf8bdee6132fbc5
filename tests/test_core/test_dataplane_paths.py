"""The two ``Dataplane.process`` code paths and what observes them.

``process`` has a columnar path (a ``PacketBatch`` through batch-capable
stages) and one per-packet loop.  Observation — an event tap (``trace=``)
and/or stride-sampled spans — is a branch *inside* each path, never a
different path, so:

- span sampling keeps a ``PacketBatch`` on the columnar path (the tracer
  is asked once per batch and times the three batch calls);
- the per-packet loop under a tap, under sampling, and under both
  reproduces goldens recorded from the four-tier ladder it replaced
  (``golden_per_packet_loop.json``; regenerate only on purpose with
  ``PYTHONPATH=src python tests/test_core/test_dataplane_paths.py``).
"""

import hashlib
import importlib
import json
from collections import Counter
from pathlib import Path

import pytest

import repro
import repro.api as api
from repro.bench.parallel import vectors_checksum
from repro.core.dataplane import Dataplane, LinkConfig
from repro.core.faults import FaultAction, FaultPlan
from repro.core.policy import pktstream
from repro.core.telemetry import Telemetry, TelemetryConfig
from repro.net.packet import PacketBatch
from repro.net.trace import generate_trace
from repro.switchsim.mgpv import MGPVCache, MGPVConfig

GOLDEN = Path(__file__).with_name("golden_per_packet_loop.json")
STAGE_SPANS = ("stage.switch", "stage.fg_sync", "stage.link", "stage.sink")


def flow_policy():
    return (pktstream().filter("tcp.exist").groupby("flow")
            .map("one", None, "f_one").reduce("one", ["f_sum"])
            .map("ipt", "tstamp", "f_ipt")
            .reduce("size", ["f_mean", "f_var", "f_min", "f_max"])
            .reduce("ipt", ["f_mean", "f_max"])
            .collect("flow"))


def packets():
    return generate_trace("ENTERPRISE", n_flows=400, seed=1)


def fault_plan():
    return FaultPlan(seed=9, actions=(
        FaultAction(kind="link_loss", at_packet=500, until_packet=1500,
                    rate=0.3, drop_kind="sync"),
        FaultAction(kind="mgpv_squeeze", at_packet=1000,
                    until_packet=2500, keep_fraction=0.25)))


def observed_run(*, tap: bool, sampling: bool) -> dict:
    """One faulted per-packet run under the requested observers:
    per-stage tap digests, span name counts, vectors and counters."""
    seen: dict[str, list[str]] = {}

    def trace(stage, event):
        seen.setdefault(stage, []).append(repr(event))

    tel = (Telemetry(TelemetryConfig(sample_rate=1 / 64))
           if sampling else None)
    dataplane = Dataplane.build(
        api.compile(flow_policy()).compiled,
        # A cache small enough that sampled packets evict records too.
        mgpv_config=MGPVConfig(n_short=256, short_size=2, n_long=32,
                               long_size=4, fg_table_size=512),
        link_config=LinkConfig(retransmit_retries=1),
        fault_plan=fault_plan(),
        trace=trace if tap else None,
        telemetry=tel)
    pkts = packets()
    dataplane.process(pkts[:2000])
    dataplane.process(pkts[2000:])
    vectors = dataplane.flush()
    return {
        "tap": {stage: {"events": len(events),
                        "sha256": hashlib.sha256(
                            "\n".join(events).encode()).hexdigest()}
                for stage, events in sorted(seen.items())},
        "spans": dict(sorted(Counter(
            name for name, _, _ in dataplane.telemetry_spans()).items())),
        "vectors": vectors_checksum(vectors),
        "counters": json.loads(json.dumps(dataplane.counters())),
    }


def record_golden() -> dict:
    return {"tap_only": observed_run(tap=True, sampling=False),
            "sampling_only": observed_run(tap=False, sampling=True),
            "both": observed_run(tap=True, sampling=True)}


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


class TestPerPacketLoopMatchesParent:
    def test_tap_only(self, golden):
        got = observed_run(tap=True, sampling=False)
        assert got["tap"] == golden["tap_only"]["tap"]
        assert set(got["tap"]) == {"filter", "mgpv", "link", "engine"}
        assert got["vectors"] == golden["tap_only"]["vectors"]
        assert got["counters"] == golden["tap_only"]["counters"]

    def test_sampling_only(self, golden):
        got = observed_run(tap=False, sampling=True)
        assert got["spans"] == golden["sampling_only"]["spans"]
        assert all(got["spans"][name] > 0 for name in STAGE_SPANS)
        assert got["vectors"] == golden["sampling_only"]["vectors"]
        assert got["counters"] == golden["sampling_only"]["counters"]

    def test_tap_and_sampling_are_both_honoured(self, golden):
        """The ladder picked the tap tier and silently dropped span
        sampling; the single loop serves both observers at once."""
        got = observed_run(tap=True, sampling=True)
        assert got["vectors"] == golden["both"]["vectors"]
        assert got["counters"] == golden["both"]["counters"]
        assert got["tap"] == golden["tap_only"]["tap"]
        want = golden["sampling_only"]["spans"]
        assert ({name: got["spans"].get(name) for name in STAGE_SPANS}
                == {name: want[name] for name in STAGE_SPANS})


def _no_per_packet_insert(self, pkt, out=None):
    raise AssertionError("sampling left the columnar path")


class TestSamplingStaysColumnar:
    def test_sampled_batch_never_touches_per_packet_insert(
            self, monkeypatch):
        batch = PacketBatch.from_packets(packets())
        plain = api.compile(flow_policy()).run(batch)
        monkeypatch.setattr(MGPVCache, "insert", _no_per_packet_insert)
        ex = api.compile(flow_policy(), telemetry=1 / 64)
        sampled = ex.run(batch)
        assert (vectors_checksum(sampled.vectors)
                == vectors_checksum(plain.vectors))
        hists = ex.telemetry.snapshot()["histograms"]
        for name in ("stage.switch", "stage.link", "stage.sink"):
            assert hists[f"span.{name}"]["count"] > 0
        counters = ex.telemetry.snapshot()["counters"]
        assert counters["pipeline.packets"] == len(batch)

    def test_short_batches_sample_by_packet_stride(self, monkeypatch):
        """A batch is sampled when a per-packet stride sampler would
        have picked one of its packets: 16-packet chunks at stride 64
        time every fourth chunk."""
        monkeypatch.setattr(MGPVCache, "insert", _no_per_packet_insert)
        pkts = packets()[:1024]
        tel = Telemetry(TelemetryConfig(sample_rate=1 / 64))
        dataplane = api.compile(flow_policy(), telemetry=tel).dataplane()
        for lo in range(0, len(pkts), 16):
            dataplane.process(PacketBatch.from_packets(pkts[lo:lo + 16]))
        dataplane.flush()
        spans = Counter(name for name, _, _ in tel.tracer.spans)
        assert spans["stage.switch"] == len(pkts) // 64


class TestFacadeLayerIsGone:
    @pytest.mark.parametrize("module", ["software", "deprecation"])
    def test_modules_removed(self, module):
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module(f"repro.core.{module}")

    def test_no_facade_exports(self):
        import repro.core
        import repro.core.pipeline
        for namespace in (repro, repro.core, repro.core.pipeline):
            assert not hasattr(namespace, "SuperFE")
            assert not hasattr(namespace, "SoftwareExtractor")
        assert "SuperFE" not in repro.__all__
        assert repro.ExtractionResult is repro.core.pipeline.ExtractionResult
        assert api.FeatureFrame is repro.core.pipeline.FeatureFrame

    def test_dataplane_has_one_loop(self):
        assert not hasattr(Dataplane, "_process_sampled")
        assert not hasattr(Dataplane, "_push")


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(record_golden(), indent=1,
                                 sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
