"""Shared fixtures: small deterministic traces and common policies."""

import json
import os
from contextlib import contextmanager
from dataclasses import asdict
from unittest import mock

import pytest

from repro import api, pktstream
from repro.core import dataplane as dataplane_mod
from repro.core import parallel, telemetry
from repro.core.dataplane import Dataplane
from repro.core.parallel import ExecutionConfig, ShardedCluster
from repro.net.trace import generate_trace
from repro.nicsim import loadbalance
from repro.nicsim.engine import FeatureEngine
from tests.reference.engine import ReferenceEngine


def _production_engine_in_window(engine, *args, **kwargs):
    raise AssertionError(
        "a production FeatureEngine was built inside reference_path(); "
        "build tests.reference.engine.ReferenceEngine there instead")


@contextmanager
def reference_path():
    """``with reference_path():`` builds what is constructed inside as
    the oracle (stages are built at ``run()`` / ``stream()``, so the
    window must span those): the switch under ``SUPERFE_REFERENCE_PATH=1``
    and every serial engine as the per-cell
    :class:`tests.reference.engine.ReferenceEngine`.  Shards run serial
    (``SUPERFE_EXEC_BACKEND=serial``), so no pooled worker's production
    engine stands in for it.  A production ``FeatureEngine`` built in the
    window (a test constructing one by hand, an inline sharded cluster)
    raises, so no session compares the slab engine with itself.  The
    variables are restored to what the window found."""
    with mock.patch.dict(os.environ, {"SUPERFE_REFERENCE_PATH": "1",
                                      "SUPERFE_EXEC_BACKEND": "serial"}), \
            mock.patch.object(dataplane_mod, "FeatureEngine",
                              ReferenceEngine), \
            mock.patch.object(loadbalance, "FeatureEngine", ReferenceEngine), \
            mock.patch.object(FeatureEngine, "__init__",
                              _production_engine_in_window):
        yield


def reference_drive(dataplane, packets) -> list:
    """``packets`` through ``dataplane`` one event at a time: the fault
    schedule advanced before each packet, then ``admit``, ``insert``,
    ``link.consume`` and the sink's ``consume_batch((event,))`` per
    delivered event — the calls the benchmark harness's per-packet drive
    makes, against which ``Dataplane.process``'s batch pieces are
    checked.  Returns the per-packet vectors, as ``process`` does."""
    faults = dataplane.faults
    for pkt in packets:
        if faults is not None:
            faults.on_packet(dataplane._pkt_index)
        dataplane._pkt_index += 1
        if not dataplane.filter.admit(pkt):
            continue
        for event in dataplane.switch.insert(pkt):
            for delivered in dataplane.link.consume(event):
                dataplane.sink.consume_batch((delivered,))
    dataplane.sink.advance_clock(dataplane.switch.now_ns)
    if dataplane.compiled.collect_unit == "pkt":
        return dataplane.sink.take_packet_vectors()
    return []


def engine_ledger(sink) -> list:
    """Per engine of ``sink`` (a ``FeatureEngine`` or a cluster of
    them): every counter, and every field of every section's
    ``GroupTableStats``."""
    return [(engine.counters(), {name: asdict(stats) for name, stats
                                 in engine.table_stats().items()})
            for engine in getattr(sink, "engines", [sink])]


def shape_free_counters(dataplane) -> dict:
    """``dataplane.counters()`` as plain data, plus a sharded cluster's
    dispatched event count (its frame count depends on the call shape
    by design).  Every counter stays exact."""
    counters = json.loads(json.dumps(dataplane.counters()))
    if isinstance(dataplane.sink, ShardedCluster):
        counters["cluster"]["events_dispatched"] = \
            dataplane.sink.events_dispatched
    return counters


def inline_cluster(extractor, workers: int = 2, **execution):
    """Rewire ``extractor`` (compiled with ``n_nics > 1``) so every
    dataplane it builds — for ``run``, ``stream`` or ``dataplane()`` —
    ends in the inline ``serial`` :class:`ShardedCluster` as its sink:
    the process backend's batching, frame codec and worker driver, run
    in this process with nothing forked.  Extra keywords go to the
    cluster's :class:`ExecutionConfig`.  Returns the extractor."""
    build = extractor._build

    def dataplane() -> Dataplane:
        graph = Dataplane.build(extractor.compiled,
                                **{**build, "execution": ExecutionConfig()})
        cluster = ShardedCluster(
            extractor.compiled, build["n_nics"],
            ExecutionConfig(workers=workers, **execution),
            ctx=build["ctx"], **{k: build[k] for k in (
                "placement", "table_indices", "table_width")})
        if graph.telemetry is not None:
            with graph.telemetry.registry.owned_by(graph):
                cluster.attach_telemetry(graph.telemetry)
        graph.sink = graph.stages[-1] = cluster
        return graph

    extractor.dataplane = dataplane
    return extractor


#: The module holding each tuning constant ``tuned`` may set.
TUNABLES = {"DISPATCH_BATCH": parallel, "MAX_RESTARTS": parallel,
            "POISON_THRESHOLD": parallel, "MAX_SPANS": telemetry,
            "DEGRADE_STRIDE": api}


@pytest.fixture()
def tuned(monkeypatch):
    """``tuned(DISPATCH_BATCH=1, ...)`` sets tuning constants for the
    rest of one test (forked shard workers inherit them).  Every stage
    reads its constant where it is built or used, so set them before
    ``compile`` / ``run``."""
    def tune(**values):
        for name, value in values.items():
            monkeypatch.setattr(TUNABLES[name], name, value)
    return tune


@pytest.fixture(scope="session")
def enterprise_trace():
    """A small ENTERPRISE trace (deterministic)."""
    return generate_trace("ENTERPRISE", n_flows=200, seed=42)


@pytest.fixture(scope="session")
def campus_trace():
    return generate_trace("CAMPUS", n_flows=120, seed=42)


@pytest.fixture()
def basic_flow_policy():
    """The Fig 3 per-flow statistics policy."""
    return (
        pktstream()
        .filter("tcp.exist")
        .groupby("flow")
        .map("one", None, "f_one")
        .reduce("one", ["f_sum"])
        .map("ipt", "tstamp", "f_ipt")
        .reduce("size", ["f_mean", "f_var", "f_min", "f_max"])
        .reduce("ipt", ["f_mean", "f_var", "f_min", "f_max"])
        .collect("flow")
    )
