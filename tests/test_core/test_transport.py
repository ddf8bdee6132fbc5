"""Zero-copy shard transport: frame codec round-trips, the
shared-memory ring (wraparound, backpressure, sequence checks,
segment hygiene), transport selection/degrade, the persistent worker
pool, and the end-to-end proof that the shm hot path ships no pickled
batch payloads while staying checksum-equal to serial."""

import gc
import os
import subprocess
import sys
import warnings

import pytest

import repro.api as api
import repro.core.transport as transport_mod
from repro.bench.parallel import scaling_policy, vectors_checksum
from repro.core.faults import FaultAction, FaultPlan
from repro.core.parallel import RING_BYTES, ExecutionConfig
from repro.core.transport import (
    FRAME_OVERHEAD,
    REASONS,
    TRANSPORTS,
    ShmRing,
    TransportError,
    decode_frame,
    encode_rows,
    resolve_transport,
    shm_available,
)
from repro.net.trace import generate_trace
from repro.switchsim.mgpv import FGSync, MGPVRecord
from tests.conftest import inline_cluster


def _segments() -> list[str]:
    """superfe-* segments created by THIS process (the coordinator is
    always the segment creator, and names embed the creator pid)."""
    if not os.path.isdir("/dev/shm"):
        pytest.skip("no /dev/shm on this host")
    prefix = f"superfe-{os.getpid()}-"
    return [n for n in os.listdir("/dev/shm") if n.startswith(prefix)]


# ---------------------------------------------------------------------------
# Frame codec
# ---------------------------------------------------------------------------

RECORD_ROW = (2, 0, (10, 20, 6), 0xDEADBEEF,
              ((0, (1, 2)), (4, (7, 8))), "evict")
SYNC_ROW = (1, 1, 3, (40, 41))
BLOCK_ROW = (0, 2, (8, 9), 12345, (0, 1, 2),
             ((5, 6, 7), (8, 9, 10)), "flush")


def row_events(rows) -> list:
    """``(shard, event)`` per compact wire row, as the module docstring
    defines them (independent of the codec)."""
    out = []
    for row in rows:
        if row[1] == 1:
            out.append((row[0], FGSync(row[2], row[3])))
        elif row[1] == 0:
            out.append((row[0], MGPVRecord(row[2], row[3], row[4], row[5])))
        else:
            cells = tuple(zip(row[4], zip(*row[5]) if row[5]
                              else [()] * len(row[4])))
            out.append((row[0], MGPVRecord(row[2], row[3], cells, row[6])))
    return out


def frame_events(payload) -> list:
    """``(shard, event)`` per event a frame decodes to, in stream
    order."""
    batch, rec_shard, sync_shard = decode_frame(payload)
    shards = [None] * len(batch)
    for pos, shard in zip(batch.rec_pos.tolist(), rec_shard.tolist()):
        shards[pos] = shard
    for pos, shard in zip(batch.sync_pos.tolist(), sync_shard.tolist()):
        shards[pos] = shard
    return list(zip(shards, batch))


#: Rows whose values no int64 / float64 column holds exactly: they ship
#: in the frame's pickled section, value types intact.
EXACT_ROWS = [
    (0, 0, (1,), 2, ((0, (1.5,)),), "flush"),        # float
    (0, 0, (1,), 2, ((0, (True,)),), "flush"),       # bool
    (0, 0, (1.0,), 2, (), "flush"),                  # float in key
    (0, 0, (1,), 2, (), "meteor_strike"),            # unknown reason
    (0, 0, (1,), 2, ((0, (2 ** 70,)),), "flush"),    # int past int64
]
MALFORMED_ROWS = [
    (0, 0, (1,), 2 ** 70, (), "flush"),              # hash past int64
    (0, 1, (1,), "x", (), "flush"),                  # junk field
    (0, 9, (1,), 2, (), "flush"),                    # unknown tag
    "not a row at all",
    (0, 0, (1,), 2, ((0, (1, 2)), (1, (3,))), "flush"),   # ragged cells
]


class TestFrameCodec:
    @pytest.mark.parametrize("rows", [
        [RECORD_ROW], [SYNC_ROW], [BLOCK_ROW],
        [RECORD_ROW, SYNC_ROW, BLOCK_ROW, RECORD_ROW],
        [(0, 2, (1,), 7, (), (), "aging")],        # empty block
        [(0, 0, (1,), 7, (), "collision")],        # cell-less record
    ])
    def test_roundtrip_exact(self, rows):
        payload = encode_rows(rows)
        assert payload is not None
        decoded = frame_events(payload)
        # repr, not ==: a numpy scalar or a bool for an int would pass
        # == and change the repr-based checksums downstream.
        assert repr(decoded) == repr(row_events(rows))
        assert all(type(shard) is int for shard, _ in decoded)

    @pytest.mark.parametrize("reason", REASONS)
    def test_every_reason_ships(self, reason):
        row = (0, 0, (1,), 2, ((0, (3,)),), reason)
        payload = encode_rows([row])
        assert frame_events(payload) == row_events([row])
        assert decode_frame(payload)[0].reasons is REASONS

    @pytest.mark.parametrize("poison", EXACT_ROWS[:4] + MALFORMED_ROWS[:4]
                             + EXACT_ROWS[4:] + MALFORMED_ROWS[4:])
    def test_unshippable_chunks_return_none(self, poison):
        """Only malformed rows are unshippable.  Values no raw column
        holds exactly ship in the pickled section, as themselves."""
        clean = (2, 0, (10, 20, 6), 7, ((0, (1,)), (4, (7,))), "evict")
        for rows in ([poison], [clean, poison]):
            payload = encode_rows(rows)
            if poison in EXACT_ROWS:
                assert repr(frame_events(payload)) == repr(row_events(rows))
            else:
                # One bad row poisons only its own chunk, never crashes.
                assert payload is None

    def test_decode_rejects_corrupt_tag(self):
        import numpy as np
        blob = np.array([7, 0], dtype=np.int64).tobytes()
        with pytest.raises(TransportError, match="truncated"):
            decode_frame(blob)
        payload = encode_rows([RECORD_ROW])
        with pytest.raises(TransportError, match="magic"):
            decode_frame(b"SFE1" + payload[4:])


# ---------------------------------------------------------------------------
# Shared-memory ring
# ---------------------------------------------------------------------------

needs_shm = pytest.mark.skipif(not shm_available(),
                               reason="no usable shared memory")


@needs_shm
class TestShmRing:
    def test_push_pop_roundtrip(self):
        ring = ShmRing(256)
        try:
            assert ring.try_push(b"hello", 0)
            assert ring.occupancy == FRAME_OVERHEAD + 5
            assert ring.pop() == b"hello"
            assert ring.occupancy == 0
        finally:
            ring.close()

    def test_wraparound_preserves_bytes(self):
        """Frames cross the capacity boundary byte-wise; a few hundred
        push/pop cycles of co-prime sizes walk the seam repeatedly."""
        ring = ShmRing(4 * FRAME_OVERHEAD)
        try:
            for seq in range(300):
                payload = bytes((seq + i) % 251 for i in range(37))
                assert ring.try_push(payload, seq)
                assert ring.pop() == payload
        finally:
            ring.close()

    def test_full_ring_refuses_then_accepts(self):
        ring = ShmRing(4 * FRAME_OVERHEAD)
        try:
            payload = b"\xab" * (3 * FRAME_OVERHEAD)
            assert ring.try_push(payload, 0)       # exactly fills
            assert not ring.try_push(b"x", 1)      # full: parked, not lost
            assert ring.pop() == payload
            assert ring.try_push(b"x", 1)          # space reclaimed
        finally:
            ring.close()

    def test_oversize_frame_rejected_loudly(self):
        size = 4 * FRAME_OVERHEAD
        ring = ShmRing(size)
        try:
            assert not ring.fits(size)
            with pytest.raises(ValueError, match="exceeds ring capacity"):
                ring.try_push(b"\0" * size, 0)
        finally:
            ring.close()

    def test_pop_on_empty_is_desync(self):
        ring = ShmRing(4 * FRAME_OVERHEAD)
        try:
            with pytest.raises(TransportError, match="out of sync"):
                ring.pop()
        finally:
            ring.close()

    def test_sequence_skew_detected(self):
        ring = ShmRing(256)
        try:
            ring.try_push(b"abc", 5)       # consumer expects seq 0
            with pytest.raises(TransportError, match="sequence skew"):
                ring.pop()
        finally:
            ring.close()

    def test_reset_consumer_fast_forwards(self):
        """The pool-lease reset: unconsumed frames are discarded and
        the sequence check re-arms at the producer's next seq."""
        ring = ShmRing(256)
        try:
            ring.try_push(b"stale-1", 0)
            ring.try_push(b"stale-2", 1)
            ring.reset_consumer(expect_seq=2)
            assert ring.occupancy == 0
            ring.try_push(b"fresh", 2)
            assert ring.pop() == b"fresh"
        finally:
            ring.close()

    def test_capacity_floor_validated(self):
        with pytest.raises(ValueError, match="ring capacity"):
            ShmRing(FRAME_OVERHEAD)

    def test_close_unlinks_segment_and_is_idempotent(self):
        ring = ShmRing(256)
        name = ring.name
        assert name in _segments()
        ring.close()
        ring.close()
        assert name not in _segments()
        with pytest.raises(TransportError, match="closed"):
            ring.try_push(b"x", 0)
        assert ring.occupancy == 0         # readable, just empty

    def test_gc_finalizer_unlinks_abandoned_ring(self):
        """An abandoned ring (worker spawn failed) must not leak its
        segment — and must not BufferError on the GC path either."""
        ring = ShmRing(256)
        ring.try_push(b"orphan", 0)
        name = ring.name
        del ring
        gc.collect()
        assert name not in _segments()


# ---------------------------------------------------------------------------
# Transport selection
# ---------------------------------------------------------------------------

class TestResolveTransport:
    def test_explicit_request_wins_over_env(self):
        assert resolve_transport(
            "oob", env={"SUPERFE_TRANSPORT": "shm"},
            probe=lambda: True) == "oob"

    def test_env_binds_when_unrequested(self):
        assert resolve_transport(
            None, env={"SUPERFE_TRANSPORT": "oob"},
            probe=lambda: True) == "oob"

    def test_env_rejects_unknown_value(self):
        for raw in ("carrier-pigeon", "legacy"):
            with pytest.raises(ValueError, match="SUPERFE_TRANSPORT"):
                resolve_transport(None, env={"SUPERFE_TRANSPORT": raw})

    def test_auto_probes_shm(self):
        assert resolve_transport(None, env={}, probe=lambda: True) == "shm"

    def test_degrade_warns_exactly_once(self, monkeypatch):
        monkeypatch.setattr(transport_mod, "_degrade_warned", False)
        with pytest.warns(RuntimeWarning, match="degrades"):
            assert resolve_transport(None, env={},
                                     probe=lambda: False) == "oob"
        with warnings.catch_warnings():
            warnings.simplefilter("error")     # a second warning fails
            assert resolve_transport(None, env={},
                                     probe=lambda: False) == "oob"


class TestExecutionConfigTransport:
    def test_unknown_transport_rejected(self):
        for transport in ("telepathy", "legacy"):
            with pytest.raises(ValueError,
                               match="unknown shard transport"):
                ExecutionConfig(backend="process", workers=2,
                                transport=transport)

    @pytest.mark.parametrize("transport", ["shm", "oob"])
    def test_wire_transports_need_process_backend(self, transport):
        with pytest.raises(ValueError, match="backend='process'"):
            ExecutionConfig(backend="serial", workers=2,
                            transport=transport)

    def test_ring_bytes_floor(self):
        """The ring size is a constant above the ring's own floor, and a
        config cannot set it."""
        assert RING_BYTES >= 4 * FRAME_OVERHEAD
        with pytest.raises(TypeError, match="'ring_bytes'"):
            ExecutionConfig(ring_bytes=8)

    def test_from_env_transport_binds_on_process(self):
        cfg = ExecutionConfig.from_env(env={
            "SUPERFE_EXEC_BACKEND": "process",
            "SUPERFE_EXEC_WORKERS": "2",
            "SUPERFE_TRANSPORT": "oob"})
        assert cfg.transport == "oob"

    def test_from_env_transport_ignored_off_process(self):
        """The CI matrix exports SUPERFE_TRANSPORT suite-wide; the
        serial leg must not trip over it."""
        cfg = ExecutionConfig.from_env(env={
            "SUPERFE_EXEC_BACKEND": "serial",
            "SUPERFE_TRANSPORT": "oob"})
        assert cfg.transport is None

    def test_from_env_transport_rejects_garbage(self):
        with pytest.raises(ValueError, match="SUPERFE_TRANSPORT"):
            ExecutionConfig.from_env(env={
                "SUPERFE_EXEC_BACKEND": "process",
                "SUPERFE_TRANSPORT": "smoke-signals"})


# ---------------------------------------------------------------------------
# End to end: equivalence, instrumentation, pool persistence, hygiene
# ---------------------------------------------------------------------------

def _run_parallel(packets, execution, fault_plan=None):
    ex = api.compile(scaling_policy(), n_nics=4, execution=execution,
                     fault_plan=fault_plan)
    result = ex.run(packets)
    return ex, result


@pytest.fixture(scope="module")
def trace():
    packets = generate_trace("ENTERPRISE", n_flows=40, seed=11)
    serial = api.compile(scaling_policy(), n_nics=4,
                         execution=ExecutionConfig()).run(packets)
    return packets, vectors_checksum(serial.vectors)


class TestTransportEndToEnd:
    @needs_shm
    def test_shm_hot_path_ships_zero_pickled_batches(self, trace):
        """The tentpole's observable claim: with the shm transport, no
        pickled batch payload crosses the worker queue — only frame
        pointers and control messages — while output stays
        checksum-equal to serial."""
        packets, serial_sum = trace
        ex, result = _run_parallel(
            packets, ExecutionConfig(workers=2, backend="process",
                                     transport="shm"))
        try:
            assert vectors_checksum(result.vectors) == serial_sum
            report = result.engine.transport_report()
            assert report["mode"] == "shm"
            assert report["frames"] > 0
            assert report["bytes"] > 0
            assert result.engine.events_dispatched > 0
            kinds = report["queue_message_kinds"]
            assert kinds.get("frame", 0) == report["frames"]
            # The proof proper: no batch payload crossed the queue.
            assert kinds.get("oframe", 0) == 0
            assert report["fallback_chunks"] == 0
        finally:
            ex.close()

    @pytest.mark.parametrize("transport", ["oob"])
    def test_fallback_transports_stay_equivalent(self, trace, transport):
        packets, serial_sum = trace
        ex, result = _run_parallel(
            packets, ExecutionConfig(workers=2, backend="process",
                                     transport=transport))
        try:
            assert vectors_checksum(result.vectors) == serial_sum
            report = result.engine.transport_report()
            assert report["mode"] == transport
            kinds = report["queue_message_kinds"]
            assert kinds.get("oframe", 0) == report["frames"] > 0
            assert kinds.get("frame", 0) == 0
        finally:
            ex.close()

    def test_inline_cluster_ships_frames_in_memory(self, trace):
        """The serial backend's inline cluster runs the same wire: every
        chunk is an encoded frame handed over as an ``oob`` payload."""
        packets, serial_sum = trace
        result = inline_cluster(
            api.compile(scaling_policy(), n_nics=4)).run(packets)
        assert vectors_checksum(result.vectors) == serial_sum
        report = result.engine.transport_report()
        assert report["mode"] == "oob"
        assert report["frames"] == result.engine.batches_dispatched > 0
        assert report["fallback_chunks"] == 0

    def test_pool_persists_across_runs(self, trace):
        """Satellite: the worker pool (and its rings) is spawned once
        and reused — same pids, no respawn — across run() calls, and a
        closed extractor lazily respawns a fresh pool."""
        packets, serial_sum = trace
        ex = api.compile(scaling_policy(), n_nics=4,
                         execution=ExecutionConfig(workers=2,
                                                   backend="process"))
        try:
            r1 = ex.run(packets)
            pids1 = [w["pid"] for w in r1.dataplane.health()["workers"]]
            r2 = ex.run(packets)
            pids2 = [w["pid"] for w in r2.dataplane.health()["workers"]]
            assert pids1 == pids2
            pool = r2.engine.transport_report()["pool"]
            assert pool["leases"] == 2
            assert pool["spawns"] == 2          # 2 workers, spawned once
            assert vectors_checksum(r2.vectors) == serial_sum
        finally:
            ex.close()
        # Lazy respawn after close: the extractor is still usable.
        r3 = ex.run(packets)
        assert vectors_checksum(r3.vectors) == serial_sum
        ex.close()

    def test_context_manager_releases_pool(self, trace):
        packets, serial_sum = trace
        with api.compile(scaling_policy(), n_nics=4,
                         execution=ExecutionConfig(
                             workers=2, backend="process")) as ex:
            result = ex.run(packets)
            assert vectors_checksum(result.vectors) == serial_sum
        if os.path.isdir("/dev/shm"):
            assert _segments() == []


@needs_shm
class TestSegmentHygiene:
    def test_no_leak_after_close(self, trace):
        packets, _ = trace
        ex, result = _run_parallel(
            packets, ExecutionConfig(workers=2, backend="process"))
        assert result.vectors
        ex.close()
        assert _segments() == []

    def test_no_leak_after_crash_restart(self, trace):
        """Supervised worker_crash chaos: the dead incarnation's ring
        is unlinked, the replacement gets a fresh one, replay stays
        checksum-equal, and close() leaves no segment behind."""
        packets, serial_sum = trace
        plan = FaultPlan(actions=(
            FaultAction(kind="worker_crash",
                        at_packet=max(1, len(packets) // 3), worker=0),))
        ex, result = _run_parallel(
            packets,
            ExecutionConfig(workers=2, backend="process",
                            supervise=True, request_timeout_s=30.0),
            fault_plan=plan)
        try:
            health = result.dataplane.health()
            assert health["supervision"]["restarts"] >= 1
            assert vectors_checksum(result.vectors) == serial_sum
        finally:
            ex.close()
        assert _segments() == []

    def test_no_leak_or_tracker_noise_at_interpreter_exit(self):
        """A process that never calls close() must still exit clean:
        GC finalizers release the segments and the resource tracker has
        nothing to complain about on stderr."""
        src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
        code = (
            "import os, sys\n"
            "import repro.api as api\n"
            "from repro.bench.parallel import scaling_policy\n"
            "from repro.core.parallel import ExecutionConfig\n"
            "from repro.net.trace import generate_trace\n"
            "packets = generate_trace('ENTERPRISE', n_flows=20, seed=3)\n"
            "ex = api.compile(scaling_policy(), n_nics=4,\n"
            "                 execution=ExecutionConfig(\n"
            "                     workers=2, backend='process',\n"
            "                     transport='shm'))\n"
            "result = ex.run(packets)\n"
            "assert result.vectors\n"
            "print(os.getpid())\n"          # no ex.close(): exit path
        )
        env = dict(os.environ,
                   PYTHONPATH=os.path.abspath(src),
                   PYTHONWARNINGS="default")
        proc = subprocess.run([sys.executable, "-c", code],
                              capture_output=True, text=True, env=env,
                              timeout=180)
        assert proc.returncode == 0, proc.stderr
        child_pid = int(proc.stdout.strip().splitlines()[-1])
        leaked = [n for n in os.listdir("/dev/shm")
                  if n.startswith(f"superfe-{child_pid}-")]
        assert leaked == []
        assert "leaked shared_memory" not in proc.stderr
        assert "resource_tracker" not in proc.stderr


def test_transports_constant_is_closed():
    assert TRANSPORTS == ("shm", "oob")
