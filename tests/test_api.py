"""repro.api — the single entry point: compile() configuration
resolution and the Extractor surface (run/stream/baseline/deploy)."""

import numpy as np
import pytest

import repro.api as api
from repro.core.parallel import ExecutionConfig
from repro.core.policy import pktstream
from repro.net.trace import generate_trace


@pytest.fixture(scope="module")
def policy():
    return (pktstream().filter("tcp.exist").groupby("flow")
            .reduce("size", ["f_sum", "f_mean", "f_max"])
            .collect("flow"))


@pytest.fixture(scope="module")
def packets():
    return generate_trace("ENTERPRISE", n_flows=80, seed=5)


class TestCompile:
    def test_run_roundtrip(self, policy, packets):
        result = api.compile(policy).run(packets)
        assert len(result.vectors) > 0
        assert result.feature_names == [
            "f_sum(size)", "f_mean(size)", "f_max(size)"]

    def test_requires_policy(self):
        with pytest.raises(TypeError, match="must be a Policy"):
            api.compile("groupby flow")

    def test_software_path(self, policy, packets):
        ex = api.compile(policy, software=True)
        assert ex.software
        assert len(ex.run(packets).vectors) > 0

    def test_software_rejects_cluster(self, policy):
        with pytest.raises(ValueError, match="n_nics"):
            api.compile(policy, software=True, n_nics=4)
        with pytest.raises(ValueError, match="shard-parallel"):
            api.compile(policy, software=True, workers=4)

    def test_workers_imply_process_backend(self, policy):
        ex = api.compile(policy, n_nics=2, workers=2)
        assert ex._build["execution"].backend == "process"

    def test_explicit_execution_config(self, policy):
        cfg = ExecutionConfig(workers=2, backend="process")
        ex = api.compile(policy, n_nics=2, execution=cfg)
        assert ex._build["execution"] is cfg

    def test_execution_and_workers_conflict(self, policy):
        with pytest.raises(ValueError, match="not both"):
            api.compile(policy, execution=ExecutionConfig(), workers=2)

    def test_unknown_backend(self, policy):
        with pytest.raises(ValueError, match="unknown backend"):
            api.compile(policy, backend="gpu")

    def test_no_deprecation_warning_through_api(self, policy,
                                                recwarn):
        api.compile(policy)
        api.compile(policy, software=True)
        assert not [w for w in recwarn
                    if issubclass(w.category, DeprecationWarning)]


class TestExtractor:
    def test_manifests(self, policy):
        switch, nic = api.compile(policy).manifests()
        assert "FE-Switch" in switch
        assert "FE-NIC" in nic

    def test_stream_matches_run(self, policy, packets):
        ex = api.compile(policy)
        streamed = [v for chunk in ex.stream(packets, batch_size=100)
                    for v in chunk]
        ran = ex.run(packets).vectors
        assert (sorted((tuple(v.key), v.values.tobytes())
                       for v in streamed)
                == sorted((tuple(v.key), v.values.tobytes())
                          for v in ran))

    def test_stream_parallel_backend(self, policy, packets):
        with api.compile(policy, n_nics=2, workers=2) as ex:
            streamed = [v for chunk in ex.stream(packets, batch_size=64)
                        for v in chunk]
            assert len(streamed) == len(ex.run(packets).vectors)

    def test_stream_validates_batch_size(self, policy, packets):
        with pytest.raises(ValueError, match="batch_size"):
            next(api.compile(policy).stream(packets, batch_size=0))

    def test_baseline_is_software_oracle(self, policy, packets):
        ex = api.compile(policy, division_free=False)
        base = ex.baseline()
        assert base.software
        assert base.baseline() is base
        hw = ex.run(packets).by_key()
        sw = base.run(packets).by_key()
        assert hw.keys() == sw.keys()
        for key in sw:
            assert np.allclose(hw[key], sw[key], rtol=1e-9, atol=1e-6)

    def test_deploy_runtime(self, policy, packets):
        runtime = api.compile(policy).deploy()
        runtime.process(packets)
        assert len(runtime.drain()) > 0

    def test_deploy_carries_every_knob(self, packets):
        """deploy() builds from the extractor's own arguments — the
        solved placement included, so the runtime's group tables sit in
        the same memory levels (same access cycles) as a one-shot run."""
        ex = api.compile(pktstream().groupby("flow")
                         .reduce("size", ["f_sum", "f_max"])
                         .collect("flow"))
        runtime = ex.deploy()
        runtime.process(packets)
        runtime.drain()

        def cycles(engine):
            return {name: stats.access_cycles
                    for name, stats in engine.table_stats().items()}

        assert cycles(runtime.engine) == cycles(ex.run(packets).engine)

    def test_software_has_no_deploy(self, policy):
        with pytest.raises(ValueError, match="no runtime"):
            api.compile(policy, software=True).deploy()

    def test_dataplane_lifecycle(self, policy, packets):
        with api.compile(policy, n_nics=2, workers=2) as ex:
            dp = ex.dataplane()
            dp.process(packets)
            assert len(dp.flush()) > 0
            dp.close()

    def test_repr(self, policy):
        assert "superfe" in repr(api.compile(policy))
        assert "software" in repr(api.compile(policy, software=True))


class TestStreamIngestion:
    def test_stream_validates_knobs(self, policy, packets):
        ex = api.compile(policy)
        with pytest.raises(ValueError, match="queue_batches"):
            ex.stream(packets, queue_batches=0)
        with pytest.raises(ValueError, match="overload"):
            ex.stream(packets, overload="panic")
        with pytest.raises(ValueError, match="deadline_s"):
            ex.stream(packets, deadline_s=0)

    def test_block_policy_loses_nothing(self, policy, packets):
        """A one-slot queue with backpressure: every packet still
        arrives, so the stream matches run() exactly."""
        ex = api.compile(policy)
        streamed = [v for chunk in ex.stream(packets, batch_size=32,
                                             queue_batches=1,
                                             overload="block")
                    for v in chunk]
        ran = ex.run(packets).vectors
        assert (sorted((tuple(v.key), v.values.tobytes())
                       for v in streamed)
                == sorted((tuple(v.key), v.values.tobytes())
                          for v in ran))
        report = ex.health()["ingest"]
        assert report["state"] == "drained"
        assert report["packets_in"] == len(packets)
        assert report["packets_processed"] == len(packets)
        assert report["dropped_packets"] == 0
        assert report["shed_rate"] == 0.0

    @pytest.mark.parametrize("overload", ["shed", "degrade"])
    def test_lossy_policies_account_for_every_packet(self, policy,
                                                     packets, overload,
                                                     tuned):
        """shed/degrade may drop packets under pressure, but the ledger
        must balance: in == processed + dropped, and shed_rate reflects
        exactly the counted drops."""
        tuned(DEGRADE_STRIDE=4)
        ex = api.compile(policy)
        gen = ex.stream(packets, batch_size=16, queue_batches=1,
                        overload=overload)
        for _chunk in gen:
            pass
        report = ex.health()["ingest"]
        assert report["state"] == "drained"
        assert report["overload_policy"] == overload
        assert report["packets_in"] == len(packets)
        assert (report["packets_processed"] + report["dropped_packets"]
                == len(packets))
        if report["packets_in"]:
            assert report["shed_rate"] == pytest.approx(
                report["dropped_packets"] / report["packets_in"],
                abs=1e-6)

    def test_degrade_keeps_stride_sample(self, policy, packets):
        """Degrade never drops a whole batch: overflowing chunks shrink
        to the stride sample, so some packets of every batch survive."""
        ex = api.compile(policy)
        for _chunk in ex.stream(packets, batch_size=16, queue_batches=1,
                                overload="degrade"):
            pass
        report = ex.health()["ingest"]
        assert report["shed_batches"] == 0
        if report["degraded_batches"]:
            assert report["packets_processed"] > 0

    def test_health_before_and_after_stream(self, policy, packets):
        with api.compile(policy, n_nics=2, workers=2) as ex:
            assert ex.health() == {"state": "idle", "ingest": None,
                                   "cluster": None}
            gen = ex.stream(packets, batch_size=64, deadline_s=30.0)
            first = next(gen)
            live = ex.health()
            assert live["state"] == "running"
            assert live["ingest"]["deadline_s"] == 30.0
            assert live["cluster"] is not None
            assert live["cluster"]["n_workers"] == 2
            rest = [v for chunk in gen for v in chunk]
            done = ex.health()
            assert done["state"] == "drained"
            assert done["ingest"]["deadline_missed"] == 0
            assert len(first) + len(rest) == len(ex.run(packets).vectors)

    def test_stream_telemetry_counters(self, policy, packets):
        from repro.core.telemetry import Telemetry, TelemetryConfig
        tel = Telemetry(TelemetryConfig(sample_rate=1.0))
        ex = api.compile(policy, telemetry=tel)
        for _chunk in ex.stream(packets, batch_size=50):
            pass
        snap = tel.registry.snapshot()
        assert snap["counters"]["ingest.packets"] == len(packets)
        assert snap["counters"]["ingest.batches"] >= 1
        assert snap["gauges"]["ingest.queue_depth"] == 0

    def test_second_stream_resets_session(self, policy, packets):
        ex = api.compile(policy)
        for _chunk in ex.stream(packets, batch_size=100):
            pass
        first = ex.health()["ingest"]
        for _chunk in ex.stream(packets, batch_size=100):
            pass
        second = ex.health()["ingest"]
        assert first["packets_in"] == second["packets_in"]


#: Run in a fresh interpreter: records the top-level module of every
#: import statement executed by repro's own code while the three public
#: modules load, then prints the ones outside the standard library.
_IMPORT_PROBE = """
import sys

class Probe:
    names = set()

    def find_spec(self, fullname, path=None, target=None):
        frame = sys._getframe(1)
        while frame.f_code.co_filename.startswith("<frozen importlib"):
            frame = frame.f_back
        if str(frame.f_globals.get("__name__")).startswith("repro"):
            self.names.add(fullname.partition(".")[0])
        return None

sys.meta_path.insert(0, Probe())
import repro, repro.api, repro.cli
print(" ".join(sorted(n for n in Probe.names
                      if n not in sys.stdlib_module_names
                      and n != "repro")))
"""


def test_import_loads_only_declared_dependencies():
    """``import repro, repro.api, repro.cli`` imports no third-party
    module that ``pyproject.toml`` does not declare."""
    import os
    import pathlib
    import re
    import subprocess
    import sys

    root = pathlib.Path(__file__).resolve().parents[1]
    block = re.search(r"^dependencies = \[(.*?)\]",
                      (root / "pyproject.toml").read_text(),
                      re.M | re.S).group(1)
    declared = {re.match(r"[A-Za-z0-9_.-]+", dep).group(0).lower()
                for dep in re.findall(r'"([^"]+)"', block)}
    proc = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE], capture_output=True,
        text=True, check=True,
        env={**os.environ, "PYTHONPATH": str(root / "src")})
    imported = set(proc.stdout.split())
    assert imported and imported <= declared, proc.stdout
