"""Columnar-vs-per-record equivalence sweep.

Feeding the dataplane a :class:`PacketBatch` must produce bit-identical
vectors to feeding the same packets one ``Packet`` at a time: the
columnar tier (vectorized admission, batched MGPV insert, the engine's
deferred grouped drain) is an execution strategy, never a semantic one.
The sweep stresses the places that equivalence could plausibly break:

- dtype edges — ports/addresses at the top of their unsigned ranges,
  zero-length and jumbo sizes, duplicate timestamps — where a wrong
  numpy width would wrap or a float cast would round;
- degenerate shapes (empty batch, single packet) where off-by-one
  chunking bugs live;
- every execution path (serial cluster, inline sharded cluster, process
  workers), since batches are resliced across shard queues; and
- chaos schedules (nic_kill, worker_crash) whose recovery paths replay
  records through the per-record fallback.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.api as api
from repro.core.faults import FaultAction, FaultPlan
from repro.core.parallel import ExecutionConfig
from repro.core.policy import pktstream
from repro.net.packet import PACKET_DTYPE, Packet, PacketBatch
from repro.net.trace import generate_trace
from tests.conftest import inline_cluster
from repro.switchsim.mgpv import MGPVConfig

#: Reducers whose results are bit-exact regardless of update batching
#: (same set as tests/test_property_equivalence.py).
EXACT_REDUCERS = ["f_sum", "f_min", "f_max", "f_mean", "f_var"]
SOURCES = ["size", "tstamp"]
GRANULARITIES = ["flow", "host", "channel", "socket"]

policy_strategy = st.builds(
    lambda gran, reduces, with_filter, with_ipt: (
        gran, reduces, with_filter, with_ipt),
    gran=st.sampled_from(GRANULARITIES),
    reduces=st.lists(
        st.tuples(st.sampled_from(SOURCES),
                  st.sampled_from(EXACT_REDUCERS)),
        min_size=1, max_size=3),
    with_filter=st.booleans(),
    with_ipt=st.booleans(),
)

#: Unsigned-boundary values for each wire-width column of PACKET_DTYPE —
#: a uint16 port at 0xFFFF or a uint32 address at 0xFFFFFFFF must
#: round-trip through the structured array without wrapping or sign
#: flips.
EDGE_U16 = [0, 1, 0x7FFF, 0x8000, 0xFFFE, 0xFFFF]
EDGE_U32 = [0, 1, 0x7FFFFFFF, 0x80000000, 0xFFFFFFFE, 0xFFFFFFFF]
EDGE_SIZE = [0, 1, 64, 1500, 9000, 2 ** 40]

packets_strategy = st.lists(
    st.tuples(
        st.sampled_from(EDGE_U32),                  # src_ip
        st.sampled_from(EDGE_U32),                  # dst_ip
        st.sampled_from(EDGE_U16),                  # src_port
        st.sampled_from(EDGE_U16),                  # dst_port
        st.sampled_from([6, 17]),                   # proto
        st.sampled_from([0, 0x12, 0xFF]),           # tcp_flags
        st.sampled_from([1, -1]),                   # direction
        st.sampled_from(EDGE_SIZE),                 # size
        st.integers(min_value=0, max_value=10 ** 9)  # tstamp delta
    ),
    min_size=1, max_size=64)


def build(gran, reduces, with_filter, with_ipt):
    policy = pktstream()
    if with_filter:
        policy = policy.filter("tcp.exist")
    policy = policy.groupby(gran)
    if with_ipt:
        policy = policy.map("ipt", "tstamp", "f_ipt")
        policy = policy.reduce("ipt", ["f_sum"])
    for src, fn in reduces:
        policy = policy.reduce(src, [fn])
    return policy.collect(gran)


def make_packets(rows):
    """Edge-value packets with monotone (possibly duplicate) tstamps."""
    packets, ts = [], 10 ** 15
    for sip, dip, sp, dp, proto, flags, direction, size, delta in rows:
        ts += delta                      # delta 0 => equal timestamps
        packets.append(Packet(
            tstamp=ts, size=size, src_ip=sip, dst_ip=dip,
            src_port=sp, dst_port=dp, proto=proto, tcp_flags=flags,
            direction=direction))
    return packets


def sorted_rows(result):
    """Order-normalized exact representation of a vector set."""
    return sorted((tuple(v.key), v.values.tobytes(), v.degraded)
                  for v in result.vectors)


@pytest.fixture(scope="module")
def packets():
    return generate_trace("ENTERPRISE", n_flows=120, seed=17)


@given(spec=policy_strategy, rows=packets_strategy)
@settings(max_examples=25, deadline=None)
def test_columnar_matches_per_record_dtype_edges(spec, rows):
    pkts = make_packets(rows)
    ex = api.compile(build(*spec))
    per_record = ex.run(iter(pkts))
    columnar = ex.run(PacketBatch.from_packets(pkts))
    assert sorted_rows(per_record) == sorted_rows(columnar)
    assert per_record.feature_names == columnar.feature_names


def test_edge_values_round_trip_exactly():
    """The structured array itself must not truncate boundary values."""
    pkts = make_packets([(0xFFFFFFFF, 0, 0xFFFF, 0, 6, 0xFF, -1,
                          2 ** 40, 0)])
    batch = PacketBatch.from_packets(pkts)
    assert batch.data.dtype == PACKET_DTYPE
    for name in PACKET_DTYPE.names:
        assert batch.column(name).tolist() == [getattr(pkts[0], name)]


@pytest.mark.parametrize("n_packets", [0, 1])
def test_degenerate_batches(n_packets, packets):
    """Empty and single-packet batches: the chunked insert loop and the
    engine's drain must not assume a populated block."""
    pkts = packets[:n_packets]
    policy = build("flow", [("size", "f_sum"), ("size", "f_mean")],
                   False, True)
    ex = api.compile(policy)
    per_record = ex.run(iter(pkts))
    columnar = ex.run(PacketBatch.from_packets(pkts))
    assert sorted_rows(per_record) == sorted_rows(columnar)
    assert len(columnar.vectors) == (0 if n_packets == 0 else 1)


@pytest.mark.parametrize("backend,workers", [
    ("serial", None), ("inline", 2), ("process", 3)])
def test_columnar_identical_on_every_backend(backend, workers,
                                             packets):
    """Batches are resliced across shard queues; each execution path
    must still equal the per-record serial oracle bit for bit."""
    policy = build("flow", [("size", "f_mean"), ("size", "f_var"),
                            ("tstamp", "f_max")], True, True)
    kwargs = {} if backend != "process" else {
        "workers": workers, "backend": backend}
    oracle = api.compile(policy, n_nics=3).run(iter(packets))
    with api.compile(policy, n_nics=3, **kwargs) as ex:
        if backend == "inline":
            inline_cluster(ex, workers)
        columnar = ex.run(PacketBatch.from_packets(packets))
    assert sorted_rows(oracle) == sorted_rows(columnar)


@pytest.mark.parametrize("backend", ["serial", "inline"])
def test_columnar_nic_kill_identical(backend, packets):
    """Failover replays records through the per-record fallback; the
    batch tier must hand it the same records in the same order."""
    policy = build("flow", [("size", "f_mean"), ("size", "f_max")],
                   True, False)
    plan = FaultPlan(actions=(
        FaultAction(kind="nic_kill", at_packet=len(packets) // 2,
                    nic=1),))
    config = MGPVConfig(n_short=32, n_long=16)
    per_record = api.compile(policy, n_nics=3, mgpv_config=config,
                             fault_plan=plan).run(iter(packets))
    ex = api.compile(policy, n_nics=3, mgpv_config=config,
                     fault_plan=plan)
    if backend == "inline":
        inline_cluster(ex, workers=3)
    columnar = ex.run(PacketBatch.from_packets(packets))
    assert sorted_rows(per_record) == sorted_rows(columnar)
    assert any(v.degraded for v in columnar.vectors)


def test_columnar_worker_crash_identical(packets):
    """SIGKILL a supervised worker mid-trace with batch input: replay
    must restore bit-identical vectors against the per-record serial
    run."""
    policy = build("flow", [("size", "f_sum"), ("size", "f_max")],
                   False, False)
    plan = FaultPlan(actions=(
        FaultAction(kind="worker_crash",
                    at_packet=len(packets) // 2, worker=0),))
    config = MGPVConfig(n_short=32, n_long=16)
    execution = ExecutionConfig(workers=2, backend="process",
                                request_timeout_s=10.0,
                                supervise=True)
    serial = api.compile(policy, n_nics=3,
                         mgpv_config=config).run(iter(packets))
    chaos = api.compile(policy, n_nics=3, mgpv_config=config,
                        execution=execution, fault_plan=plan).run(
        PacketBatch.from_packets(packets))
    sup = chaos.dataplane.health()["supervision"]
    assert sup["restarts"] >= 1
    assert sorted_rows(serial) == sorted_rows(chaos)
    chaos.dataplane.close()


def test_mixed_welford_paths_agree(packets):
    """f_var shares a Welford accumulator with f_mean; the columnar
    update_many fold must equal per-value updates exactly (integer
    recurrence, no float reassociation)."""
    policy = (pktstream().groupby("socket")
              .reduce("size", ["f_mean", "f_var", "f_std"])
              .collect("socket"))
    ex = api.compile(policy)
    a = ex.run(iter(packets))
    b = ex.run(PacketBatch.from_packets(packets))
    assert sorted_rows(a) == sorted_rows(b)
