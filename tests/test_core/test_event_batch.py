"""The columnar switch -> engine hand-off: ``EventBatch``.

``MGPVCache.insert_batch`` / ``flush`` return one struct-of-arrays
``EventBatch``; the link, both clusters, the engine and the null sink
read its tables and columns.  Everything here pins that this is a
representation change only:

- the batch path equals the per-event path (events, every stage
  counter, ``busy_ns`` to the bit, vectors) over a sweep of traces,
  cache configs (a 1-slot FG table, a long-buffer squeeze), NIC counts
  and a failed NIC, and under a lossy, queued link;
- a batch is a read-only sequence of the event objects it encodes, with
  plain ints, that concatenates with batches and lists — the contract
  ``benchmarks/perf`` drives (``probe_transport`` is replayed verbatim);
- the wire configs the link does arithmetic on reject what would make
  that arithmetic wrong.
"""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.api as api
from repro import pktstream
from repro.bench.parallel import vectors_checksum
from repro.core.dataplane import Dataplane, LinkConfig, NullSink
from repro.core.granularity import FLOW, HOST, SOCKET
from repro.core.transport import apply_frame, encode_rows
from repro.net.packet import PROTO_TCP, Packet, PacketBatch
from repro.net.trace import generate_trace
from repro.nicsim.loadbalance import route_shard
from repro.switchsim.mgpv import (
    EventBatch,
    FGSync,
    MGPVCache,
    MGPVConfig,
    MGPVRecord,
)


def flow_policy():
    return (pktstream().filter("tcp.exist").groupby("flow")
            .map("ipt", "tstamp", "f_ipt")
            .reduce("size", ["f_mean", "f_var", "f_max"])
            .reduce("ipt", ["f_mean"]).collect("flow"))


def chain_policy():
    return (pktstream().groupby("host").reduce("size", ["f_sum"])
            .groupby("socket").reduce("size", ["f_mean", "f_min"])
            .collect("socket"))


TRACES = {"enterprise": ("ENTERPRISE", 120, 5),
          "mawi": ("MAWI-IXP", 12, 6),
          "campus": ("CAMPUS", 30, 7)}
CONFIGS = {
    "small": dict(n_short=64, short_size=4, n_long=8, long_size=6,
                  fg_table_size=64),
    "fg1": dict(n_short=32, short_size=3, n_long=4, long_size=8,
                fg_table_size=1),
    "crowded": dict(n_short=16, short_size=2, n_long=3, long_size=5,
                    fg_table_size=13),
}
N_PACKETS = 400


def packets(trace: str) -> list:
    profile, flows, seed = TRACES[trace]
    return generate_trace(profile, n_flows=flows, seed=seed)[:N_PACKETS]


def drive(dataplane: Dataplane, pkts: list, step: int | None,
          squeeze_at: int | None) -> list:
    """``pkts`` through the graph: per packet (``step`` None) or as
    ``PacketBatch`` slices of ``step``, squeezing the long buffers
    before packet ``squeeze_at``."""
    cuts = sorted({0, len(pkts)} | ({squeeze_at} if squeeze_at else set()))
    for lo, hi in zip(cuts, cuts[1:]):
        if lo == squeeze_at:
            dataplane.switch.squeeze_long_buffers(0.25)
        if step is None:
            dataplane.process(pkts[lo:hi])
            continue
        for at in range(lo, hi, step):
            dataplane.process(PacketBatch.from_packets(
                pkts[at:min(at + step, hi)]))
    return dataplane.flush()


sweep = dict(
    trace=st.sampled_from(sorted(TRACES)),
    config=st.sampled_from(sorted(CONFIGS)),
    chain=st.booleans(),
    step=st.sampled_from([1, 7, 64, N_PACKETS]),
    n_nics=st.sampled_from([1, 4]),
    fail=st.booleans(),
    squeeze=st.booleans(),
)


@given(**sweep)
@settings(max_examples=6, deadline=None)
def test_batch_path_equals_per_event_path(trace, config, chain, step,
                                          n_nics, fail, squeeze):
    """Switch events, every stage counter, the link's ``busy_ns`` bits
    and the vectors are the per-event path's, on a serial cluster with
    or without a failed NIC."""
    compiled = api.compile(chain_policy() if chain
                           else flow_policy()).compiled
    pkts = packets(trace)
    cfg = MGPVConfig(**CONFIGS[config])
    squeeze_at = len(pkts) // 3 if squeeze else None
    runs = []
    for batch_step in (None, step):
        dp = Dataplane.build(compiled, mgpv_config=cfg, n_nics=n_nics)
        if fail and n_nics > 1:
            dp.cluster.fail_nic(2)
        vectors = drive(dp, pkts, batch_step, squeeze_at)
        runs.append((dp.counters(), dp.link.busy_ns.hex(),
                     vectors_checksum(vectors)))
    assert runs[0] == runs[1]

    # The bare switch: concatenated batches list the per-packet events.
    caches = [MGPVCache(compiled.cg, compiled.fg, cfg,
                        compiled.metadata_fields) for _ in range(2)]
    one = [e for p in pkts for e in caches[0].insert(p)]
    one += caches[0].flush()
    batched = []
    for at in range(0, len(pkts), step):
        batched += list(caches[1].insert_batch(
            PacketBatch.from_packets(pkts[at:at + step])))
    batched += list(caches[1].flush())
    assert batched == one
    assert caches[0].stats == caches[1].stats


def test_per_packet_insert_after_a_batch_call_keeps_every_slot():
    """A cache fed by batch calls, then packet by packet (an aging retune
    sends ``insert_batch`` down the per-packet loop): a group whose long
    buffer just filled is resident with no pending cell, and must take
    the next cell like any other."""
    flow = [Packet(t, 100, 1, 2, 10, 20, PROTO_TCP) for t in range(6)]
    cfg = MGPVConfig(n_short=8, short_size=2, n_long=2, long_size=2,
                     fg_table_size=8)
    one, mixed = MGPVCache(FLOW, FLOW, cfg), MGPVCache(FLOW, FLOW, cfg)
    want = [e for p in flow for e in one.insert(p)] + list(one.flush())
    got = list(mixed.insert_batch(PacketBatch.from_packets(flow[:4])))
    (slot,) = np.flatnonzero(mixed._slot_key >= 0)
    assert mixed._pend_n[slot] == 0               # long_full emptied it
    mixed.config = replace(cfg, aging_timeout_ns=10**12)
    got += list(mixed.insert_batch(PacketBatch.from_packets(flow[4:])))
    assert got + list(mixed.flush()) == want


@pytest.mark.parametrize("link", [
    LinkConfig(drop_rate=0.2, drop_kind="sync", seed=3),
    LinkConfig(drop_rate=0.1, seed=5, batch_records=4,
               batch_header_bytes=6, capacity_records=3),
    LinkConfig(drop_rate=0.3, drop_kind="sync", seed=3,
               retransmit_retries=10, retransmit_backoff_ns=50.0),
    LinkConfig(drop_rate=0.2, seed=7, retransmit_retries=2,
               batch_records=3, batch_header_bytes=6),
], ids=["lossy", "queued", "retransmit", "retransmit-queued"])
def test_lossy_link_batch_run_equals_per_event_run(link):
    """Seeded loss draws stay one per event in event order, and a lost
    sync's stale-slot check reads the switch's FG table as of the sync's
    stream position (where it held the sync's own key), not as it stands
    after the whole batch call."""
    compiled = api.compile(flow_policy()).compiled
    pkts = packets("enterprise")
    cfg = MGPVConfig(**CONFIGS["small"])
    runs = []
    for step in (None, 97):
        dp = Dataplane.build(compiled, mgpv_config=cfg, n_nics=4,
                             link_config=link)
        vectors = drive(dp, pkts, step, None)
        runs.append((dp.counters(), dp.link.busy_ns.hex(),
                     vectors_checksum(vectors)))
    assert runs[0] == runs[1]
    assert runs[0][0]["link"]["drops_injected"] > 0
    if link.retransmit_retries:
        assert runs[0][0]["link"]["retransmits_ok"] > 0


def switch_batches():
    cache = MGPVCache(FLOW, FLOW, MGPVConfig(**CONFIGS["small"]),
                      ("size", "tstamp", "direction"))
    batch = cache.insert_batch(PacketBatch.from_packets(
        packets("enterprise")))
    return batch, cache.flush()


class TestSequenceContract:
    def test_iteration_and_indexing_yield_plain_int_events(self):
        batch, _ = switch_batches()
        events = list(batch)
        assert len(batch) == len(events) > 0
        assert batch[0] == events[0] and batch[-1] == events[-1]
        assert {type(e) for e in events} == {FGSync, MGPVRecord}
        for event in events:
            if isinstance(event, FGSync):
                values = (event.index, *event.key)
            else:
                values = (event.cg_hash32, *event.cg_key, *(
                    v for fg, meta in event.cells for v in (fg, *meta)))
            assert all(type(v) is int for v in values)

    def test_concatenation(self):
        batch, tail = switch_batches()
        whole = list(batch) + list(tail)
        assert list(batch + tail) == whole
        assert list(batch + list(tail)) == whole
        assert list(list(batch) + tail) == whole
        events = list(batch)
        events += tail
        assert events == whole
        acc = batch
        acc += tail
        assert isinstance(acc, EventBatch) and list(acc) == whole

    def test_a_list_normalises_to_the_same_tables(self):
        batch, _ = switch_batches()
        again = EventBatch.of(list(batch))
        for name in ("rec_pos", "rec_hash", "rec_start", "rec_len",
                     "sync_pos", "sync_index", "cell_fg"):
            assert np.array_equal(getattr(again, name),
                                  getattr(batch, name)), name
        assert [again.keys[k] for k in again.rec_key] == [
            batch.keys[k] for k in batch.rec_key]
        assert all(np.array_equal(a, b) for a, b in
                   zip(again.cell_meta, batch.cell_meta))
        with pytest.raises(TypeError, match="unknown event"):
            EventBatch.of([42])


def test_probe_transport_call_sequence():
    """The calls ``benchmarks/perf/worker.py::probe_transport`` makes,
    verbatim: two link batches concatenated with ``+=``, iterated as
    event objects into wire rows that ``encode_rows`` must accept."""
    spec_packets = generate_trace("ENTERPRISE", n_flows=200, seed=1)[:1000]
    with api.compile(flow_policy(), n_nics=4) as serial:
        dp = serial.dataplane()
        prefix = api.PacketBatch(PacketBatch.from_packets(spec_packets).data)
        admitted = prefix.compress(dp.filter.admit_batch(prefix))
        events = dp.link.consume_batch(
            dp.switch.insert_batch(admitted))
        events += dp.link.consume_batch(dp.switch.flush())
        engines = dict(enumerate(dp.cluster.engines))
        alive = [True] * len(engines)
        project = serial.compiled.cg.project
        rows = []
        for ev in events:
            if isinstance(ev, FGSync):
                shard = route_shard(project(ev.key), alive)[0]
                rows.append((shard, 1, ev.index, ev.key))
                continue
            shard = route_shard(ev.cg_key, alive, ev.cg_hash32)[0]
            if len(ev.cells) > 1:
                rows.append((shard, 2, ev.cg_key, ev.cg_hash32,
                             tuple(c[0] for c in ev.cells),
                             tuple(zip(*(c[1] for c in ev.cells))),
                             ev.reason))
            else:
                rows.append((shard, 0, ev.cg_key, ev.cg_hash32,
                             ev.cells, ev.reason))
        frames = [encode_rows(rows[i:i + 1024])
                  for i in range(0, len(rows), 1024)]
        assert frames and None not in frames
        for frame in frames:
            apply_frame(frame, engines)
        dp.close()


def test_every_consume_batch_takes_a_plain_list():
    """A list of event objects is normalised once at each batch entry
    and lands exactly where the same events as a batch land."""
    compiled = api.compile(flow_policy()).compiled
    cache = MGPVCache(compiled.cg, compiled.fg,
                      MGPVConfig(**CONFIGS["small"]),
                      compiled.metadata_fields)
    batch = cache.insert_batch(PacketBatch.from_packets(
        packets("enterprise")))
    batch += cache.flush()
    ledgers = []
    for events in (batch, list(batch)):
        dp = Dataplane.build(compiled, n_nics=4)
        delivered = dp.link.consume_batch(events)
        dp.sink.consume_batch(delivered)
        null = NullSink()
        null.consume_batch(list(delivered))
        ledgers.append((dp.link.counters(), dp.link.busy_ns.hex(),
                        dp.sink.counters(), null.counters(),
                        vectors_checksum(dp.sink.finalize())))
    assert ledgers[0] == ledgers[1]
    assert ledgers[0][3]["cells"] == ledgers[0][0]["cells_out"]


class TestWireConfigValidation:
    @pytest.mark.parametrize("field, value, error", [
        ("n_short", 2.5, TypeError),
        ("short_size", True, TypeError),
        ("fg_table_size", np.int64(8), TypeError),
        ("cell_bytes", -9, ValueError),
        ("cg_key_bytes", 4.0, TypeError),
    ])
    def test_mgpv_config(self, field, value, error):
        with pytest.raises(error, match=field if error is TypeError
                           else "byte widths"):
            replace(MGPVConfig(), **{field: value})

    @pytest.mark.parametrize("field, value, error", [
        ("bandwidth_gbps", math.nan, ValueError),
        ("bandwidth_gbps", math.inf, ValueError),
        ("batch_records", 2.5, TypeError),
        ("batch_records", True, TypeError),
        ("capacity_records", 1.5, TypeError),
        ("retransmit_retries", 1.5, TypeError),
        ("seed", 0.5, TypeError),
        ("batch_header_bytes", -1, ValueError),
    ])
    def test_link_config(self, field, value, error):
        with pytest.raises(error, match=field.split("_")[0]):
            LinkConfig(**{field: value})

    def test_defaults_and_widths_zero_still_build(self):
        assert MGPVConfig(cell_bytes=0).sram_bytes > 0
        assert LinkConfig(capacity_records=None, bandwidth_gbps=1).seed == 0
        MGPVCache(HOST, SOCKET, MGPVConfig(record_header_bytes=0))
