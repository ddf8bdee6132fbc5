"""Columnar shard frames: the ``EventBatch`` itself is the shard wire.

- the codec round-trips any batch event for event, value types intact
  (int64 / float64 columns raw, everything else pickled in-frame);
- a hostile frame raises ``TransportError`` before any engine is
  touched, and a corrupt frame in a live process pool is quarantined
  without a wrong vector or a leaked segment;
- the coordinator's per-worker, per-frame split hands every shard the
  sub-stream ``NICCluster`` hands its engine;
- an engine fed the decoded read-only views equals one fed copies;
- supervision journals the frame bytes and replays them unchanged.
"""

import os
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.api as api
import repro.core.parallel as parallel_mod
from repro import pktstream
from repro.apps import build_policy
from repro.bench.parallel import scaling_policy, vectors_checksum
from repro.core.compiler import PolicyCompiler
from repro.core.faults import FaultAction, FaultPlan
from repro.core.parallel import ExecutionConfig, ShardedCluster
from repro.core.transport import (
    REASONS,
    ShmRing,
    TransportError,
    apply_frame,
    decode_frame,
    encode_frame,
    key_matrix,
    shm_available,
)
from repro.net.packet import PacketBatch
from repro.net.trace import generate_trace
from repro.nicsim.engine import FeatureEngine
from repro.nicsim.loadbalance import NICCluster, steer
from repro.switchsim.mgpv import EventBatch, FGSync, MGPVCache, MGPVRecord


def flow_policy():
    return (pktstream().filter("tcp.exist").groupby("flow")
            .map("ipt", "tstamp", "f_ipt")
            .reduce("size", ["f_mean", "f_var", "f_max"])
            .reduce("ipt", ["f_mean"]).collect("flow"))


def switch_batch(policy, n_flows=60, seed=5, n_packets=None):
    """A policy's switch output for a small ENTERPRISE trace, flush
    included, as one batch."""
    compiled = PolicyCompiler().compile(policy)
    packets = generate_trace("ENTERPRISE", n_flows=n_flows, seed=seed)
    cache = MGPVCache(compiled.cg, compiled.fg,
                      metadata_fields=compiled.metadata_fields)
    batch = cache.insert_batch(PacketBatch.from_packets(
        packets[:n_packets]))
    return compiled, EventBatch.of(batch + cache.flush())


def shard_columns(batch, n_shards):
    rec, _ = steer(batch.rec_hash, [True] * n_shards)
    syncs, _ = steer(batch.sync_hash, [True] * n_shards)
    return rec, syncs


def encode(batch, rec_shard, sync_shard):
    return encode_frame(batch, rec_shard, sync_shard,
                        key_matrix(batch.keys))[0]


# ---------------------------------------------------------------------------
# Round trip
# ---------------------------------------------------------------------------

INT64 = st.integers(-2 ** 63, 2 ** 63 - 1)
ODD = st.one_of(st.booleans(), st.integers(2 ** 63, 2 ** 80),
                st.floats(allow_nan=True), INT64)


@st.composite
def batches(draw):
    """A batch of hand-made events with its shard columns: int, float
    and object metadata columns (bools, ints past int64, mixes), equal-
    or mixed-width keys, odd key values, non-default reasons, empty
    batches, cell-less records and zero metadata fields."""
    columns = draw(st.lists(st.sampled_from([INT64, st.floats(), ODD]),
                            max_size=3))
    width = draw(st.integers(0, 3))
    plain = draw(st.booleans())
    keys = (st.tuples(*[INT64] * width) if plain
            else st.lists(ODD, max_size=3).map(tuple))
    cell = st.tuples(st.integers(0, 2 ** 20), st.tuples(*columns))
    record = st.builds(MGPVRecord, keys, st.integers(0, 2 ** 32 - 1),
                       st.lists(cell, max_size=4).map(tuple),
                       st.sampled_from(REASONS + ("custom", 7)))
    sync = st.builds(FGSync, st.integers(0, 2 ** 31), keys)
    events = draw(st.lists(st.one_of(record, sync), max_size=12))
    batch = EventBatch.of(events)
    shards = np.array(draw(st.lists(st.integers(0, 3), min_size=len(batch),
                                    max_size=len(batch))), np.int64)
    return batch, shards[batch.rec_pos], shards[batch.sync_pos]


def from_tables(batch):
    """The batch rebuilt from its tables alone.  ``EventBatch.of`` keeps
    the event objects it was given, while its key table interns keys by
    equality (``(0,)`` and ``(False,)`` share an id); the wire carries
    the tables."""
    return EventBatch(
        batch.keys, (batch.rec_pos, batch.rec_key, batch.rec_hash,
                     batch.rec_reason, batch.rec_start, batch.rec_len),
        (batch.sync_pos, batch.sync_index, batch.sync_key, batch.sync_hash),
        (batch.cell_fg, batch.cell_meta), batch.reasons)


@given(batches())
@settings(max_examples=80, deadline=None)
def test_decode_of_encode_is_the_batch(case):
    batch, rec_shard, sync_shard = case
    payload, pickled = encode_frame(batch, rec_shard, sync_shard,
                                    key_matrix(batch.keys))
    decoded, rec, syncs = decode_frame(payload)
    # repr, not ==: a bool for an int, a float for an int or a numpy
    # scalar would compare equal and still change a repr checksum.
    assert repr(list(decoded)) == repr(list(from_tables(batch)))
    assert rec.tolist() == rec_shard.tolist()
    assert syncs.tolist() == sync_shard.tolist()
    assert decoded.reasons == batch.reasons
    assert [c.dtype for c in decoded.cell_meta] == [
        c.dtype for c in batch.cell_meta]
    arrays = (decoded.rec_pos, decoded.rec_key, decoded.rec_hash,
              decoded.rec_reason, decoded.rec_start, decoded.rec_len,
              decoded.sync_pos, decoded.sync_index, decoded.sync_key,
              decoded.sync_hash, decoded.cell_fg, *decoded.cell_meta)
    assert not any(a.flags.writeable for a in arrays)
    raw = {np.dtype(np.int64), np.dtype(np.float64)}
    assert pickled == (batch.reasons != REASONS
                       or key_matrix(batch.keys) is None
                       or any(c.dtype not in raw for c in batch.cell_meta))


def test_a_switch_batch_ships_without_a_pickled_section():
    _, batch = switch_batch(flow_policy())
    payload, pickled = encode_frame(batch, *shard_columns(batch, 4),
                                    key_matrix(batch.keys))
    assert not pickled
    decoded = decode_frame(payload)[0]
    assert list(decoded) == list(batch)
    assert all(type(v) is int for key in decoded.keys for v in key)


# ---------------------------------------------------------------------------
# Hostile frames
# ---------------------------------------------------------------------------

_, HOSTILE_BATCH = switch_batch(flow_policy(), n_flows=20, n_packets=300)
VALID = encode(HOSTILE_BATCH, *shard_columns(HOSTILE_BATCH, 2))
HEADER = struct.Struct("<4sHHqqqqqq")
(_, _, N_META, N_REC, N_SYNC, N_CELLS, N_KEYS, WIDTH,
 _) = HEADER.unpack_from(VALID)
BODY = HEADER.size + -(-N_META // 8) * 8
COUNTS = {"n_rec": 8, "n_sync": 16, "n_cells": 24, "n_keys": 32,
          "key_width": 40, "n_pickled": 48}
#: Column index within the record and the sync table.
REC_COL = {"shard": 0, "pos": 1, "key": 2, "start": 5, "len": 6}
SYNC_COL = {"shard": 0, "pos": 1, "key": 3}


def rec_at(column, row):
    return BODY + 8 * (REC_COL[column] * N_REC + row)


def sync_at(column, row):
    return BODY + 8 * (7 * N_REC + SYNC_COL[column] * N_SYNC + row)


class Spy:
    def __init__(self):
        self.calls = 0

    def consume_batch(self, events):
        self.calls += 1


@st.composite
def hostile(draw):
    bad = bytearray(VALID)
    kind = draw(st.sampled_from(["truncate", "magic", "version", "overrun",
                                 "negative", "cells", "key", "shard",
                                 "position"]))
    if kind == "truncate":
        return bytes(bad[:draw(st.integers(0, len(VALID) - 1))])
    if kind == "magic":
        bad[:4] = draw(st.binary(min_size=4, max_size=4).filter(
            lambda m: m != b"SFEB"))
    elif kind == "version":
        struct.pack_into("<H", bad, 4, draw(st.integers(0, 65535).filter(
            lambda v: v != 1)))
    elif kind == "overrun":
        field = draw(st.sampled_from(sorted(COUNTS) + ["n_meta"]))
        if field == "n_meta":
            struct.pack_into("<H", bad, 6, N_META + draw(st.integers(1, 9)))
        else:
            value = struct.unpack_from("<q", bad, COUNTS[field])[0]
            struct.pack_into("<q", bad, COUNTS[field],
                             value + draw(st.integers(1, 2 ** 40)))
    elif kind == "negative":
        field = draw(st.sampled_from(sorted(COUNTS)))
        low = -2 if field == "key_width" else -1
        struct.pack_into("<q", bad, COUNTS[field],
                         draw(st.integers(-2 ** 63, low)))
    else:
        outside = draw(st.one_of(st.integers(-2 ** 63, -1),
                                 st.integers(N_REC + N_SYNC + N_KEYS
                                             + N_CELLS + 1, 2 ** 62)))
        if kind == "cells":
            at = rec_at(draw(st.sampled_from(["start", "len"])),
                        draw(st.integers(0, N_REC - 1)))
        elif kind == "key":
            at = draw(st.one_of(
                st.integers(0, N_REC - 1).map(lambda r: rec_at("key", r)),
                st.integers(0, N_SYNC - 1).map(lambda i: sync_at("key", i))))
        elif kind == "shard":
            outside = draw(st.one_of(st.integers(-2 ** 63, -1),
                                     st.integers(2, 2 ** 62)))
            at = draw(st.one_of(
                st.integers(0, N_REC - 1).map(lambda r: rec_at("shard", r)),
                st.integers(0, N_SYNC - 1).map(
                    lambda i: sync_at("shard", i))))
        else:
            at = draw(st.one_of(
                st.integers(0, N_REC - 1).map(lambda r: rec_at("pos", r)),
                st.integers(0, N_SYNC - 1).map(lambda i: sync_at("pos", i))))
        struct.pack_into("<q", bad, at, outside)
    return bytes(bad)


def test_hostile_fixture_is_a_valid_frame():
    spies = {0: Spy(), 1: Spy()}
    assert apply_frame(VALID, spies) == len(HOSTILE_BATCH)
    assert spies[0].calls == spies[1].calls == 1
    assert min(N_REC, N_SYNC, N_CELLS, N_KEYS, WIDTH) > 0


@given(hostile())
@settings(max_examples=200, deadline=None)
def test_hostile_frames_raise_before_any_engine(bad):
    spies = {0: Spy(), 1: Spy()}
    with pytest.raises(TransportError):
        apply_frame(bad, spies)
    assert spies[0].calls == spies[1].calls == 0


needs_shm = pytest.mark.skipif(not shm_available(),
                               reason="no usable shared memory")


def _segments() -> list[str]:
    prefix = f"superfe-{os.getpid()}-"
    return [n for n in os.listdir("/dev/shm") if n.startswith(prefix)]


@needs_shm
def test_corrupt_frame_in_a_live_pool_is_quarantined_cleanly(tuned):
    """A corrupt frame reaches a real worker through its ring: the
    worker rejects it on every replay, the supervisor quarantines it
    (nothing to salvage), every clean event still lands exactly, and no
    segment outlives close()."""
    compiled, batch = switch_batch(flow_policy(), n_flows=30)
    serial = NICCluster(compiled, 2)
    serial.consume_batch(batch)
    tuned(POISON_THRESHOLD=2)
    cluster = ShardedCluster(compiled, 2, ExecutionConfig(
        workers=2, backend="process", transport="shm", supervise=True,
        request_timeout_s=20.0))
    try:
        cluster.consume_batch(batch)
        truncated = encode(batch, *shard_columns(batch, 2))[:-9]
        cluster._post_batch(0, "frame", truncated)
        vectors = cluster.finalize()
        poison = cluster.health()["supervision"]["poison_batches"]
        assert [p["events"] for p in poison] == [0]
    finally:
        cluster.close()
    assert vectors_checksum(vectors) == vectors_checksum(serial.finalize())
    assert _segments() == []


# ---------------------------------------------------------------------------
# The coordinator's split, and read-only views
# ---------------------------------------------------------------------------

def test_per_shard_split_equals_nic_cluster_split(monkeypatch, tuned):
    """Frames of at most ``DISPATCH_BATCH`` events, per worker, decode to
    exactly the per-engine sub-streams of the serial cluster."""
    compiled, batch = switch_batch(flow_policy())
    tuned(DISPATCH_BATCH=50)
    cluster = ShardedCluster(compiled, 4, ExecutionConfig(workers=2))
    frames = []
    post = cluster._post_batch
    monkeypatch.setattr(cluster, "_post_batch", lambda worker, kind, pay: (
        frames.append((worker, pay)), post(worker, kind, pay)))
    cluster.consume_batch(batch)
    cluster.close()
    got = {shard: [] for shard in range(4)}
    for worker, payload in frames:
        decoded, rec, syncs = decode_frame(payload)
        assert len(decoded) <= 50
        for shard in np.union1d(rec, syncs).tolist():
            assert cluster._owner[shard] == worker
            got[shard] += list(decoded.select(rec == shard, syncs == shard))
    rec, syncs = shard_columns(batch, 4)
    assert got == {shard: list(batch.select(rec == shard, syncs == shard))
                   for shard in range(4)}
    assert cluster.batches_dispatched == len(frames)


@pytest.mark.parametrize("policy", [flow_policy, lambda: build_policy("MPTD"),
                                    lambda: build_policy("Kitsune")],
                         ids=["flow", "MPTD", "Kitsune"])
def test_engine_on_read_only_views_equals_engine_on_copies(policy):
    compiled, batch = switch_batch(policy(), n_flows=40)
    shards = (np.zeros(len(batch.rec_pos), np.int64),
              np.zeros(len(batch.sync_pos), np.int64))
    views = decode_frame(encode(batch, *shards))[0]
    assert not views.cell_fg.flags.writeable
    copies = EventBatch(
        list(views.keys),
        tuple(a.copy() for a in (views.rec_pos, views.rec_key,
                                 views.rec_hash, views.rec_reason,
                                 views.rec_start, views.rec_len)),
        tuple(a.copy() for a in (views.sync_pos, views.sync_index,
                                 views.sync_key, views.sync_hash)),
        (views.cell_fg.copy(), tuple(c.copy() for c in views.cell_meta)),
        views.reasons)
    runs = []
    for events in (views, copies):
        engine = FeatureEngine(compiled)
        engine.consume_batch(events)
        runs.append(vectors_checksum(engine.take_packet_vectors()
                                     + engine.finalize()))
    assert runs[0] == runs[1]


# ---------------------------------------------------------------------------
# Byte journal
# ---------------------------------------------------------------------------

@needs_shm
def test_crash_replay_pushes_the_journaled_bytes(monkeypatch, tuned):
    """worker_crash mid-run: the checksum equals serial, every frame is
    encoded exactly once (replay re-pushes the journaled bytes, it never
    re-encodes), and the journal holds the very bytes shipped."""
    packets = generate_trace("ENTERPRISE", n_flows=40, seed=11)
    serial = api.compile(scaling_policy(), n_nics=4,
                         execution=ExecutionConfig()).run(packets)
    encoded, pushed = [], []
    encode_frame_ = parallel_mod.encode_frame
    monkeypatch.setattr(parallel_mod, "encode_frame", lambda *a, **k: (
        encoded.append(encode_frame_(*a, **k)) or encoded[-1]))
    try_push = ShmRing.try_push
    monkeypatch.setattr(ShmRing, "try_push", lambda ring, payload, *a: (
        try_push(ring, payload, *a) and not pushed.append(payload)))
    plan = FaultPlan(actions=(FaultAction(
        kind="worker_crash", at_packet=len(packets) // 2, worker=0),))
    tuned(DISPATCH_BATCH=64)
    ex = api.compile(scaling_policy(), n_nics=4, fault_plan=plan,
                     execution=ExecutionConfig(
                         workers=2, backend="process", transport="shm",
                         supervise=True))
    try:
        result = ex.run(packets)
        cluster = result.engine
        assert result.dataplane.health()["supervision"]["restarts"] >= 1
        assert vectors_checksum(result.vectors) \
            == vectors_checksum(serial.vectors)
        journal = [entry.payload for entries in cluster.supervisor.journals
                   for entry in entries if entry.kind == "frame"]
        shipped = [payload for payload, _ in encoded]
        assert len(journal) == len(shipped) == cluster.batches_dispatched
        assert sorted(journal) == sorted(shipped)
        # Replay pushed journaled bytes again: more pushes than frames,
        # and every push is a journaled frame, byte for byte.
        assert len(pushed) > len(journal)
        assert set(pushed) == set(journal)
    finally:
        ex.close()
