"""Zero-copy shard transport: shared-memory rings over columnar frames.

The process execution backend used to pickle every dispatch batch
through a ``multiprocessing.Queue`` — one object-graph serialization
per chunk of events, the cost BENCH_parallel.json records as
``overhead_dominated``.  This module replaces that wire with two
transports, selected per worker pool by :func:`resolve_transport`:

- ``shm`` — the default on hosts with POSIX shared memory.  Each worker
  owns one :class:`ShmRing`: a single-producer/single-consumer byte
  ring inside a ``multiprocessing.shared_memory`` segment.  The
  coordinator flattens a dispatch chunk into one int64 *frame*
  (:func:`encode_rows`), memcpys it into the ring, and posts a tiny
  ``("frame", seq)`` pointer message on the worker's existing FIFO
  queue; the worker pops the frame and applies it straight to its
  engines (:func:`apply_frame`).  No event object is ever pickled —
  pickle remains only for control messages (clock, crash, stats,
  barrier), which is what the instrumentation test asserts.
- ``oob`` — the fallback for hosts without a usable /dev/shm: the same
  encoded frame crosses the queue as one opaque ``bytes`` payload.
  Pickle protocol 5 ships a large contiguous buffer with a single
  header + memcpy (the out-of-band buffer path), so the per-event
  serialization cost is still gone; only the shared-memory segment is.
  The inline ``serial`` cluster hands the same payload over in memory.

A chunk a frame cannot encode (non-int cell payloads, e.g. hand-fed
float records in tests) ships as its wire rows instead — a counted,
per-chunk correctness fallback, not a transport.

Frame format (all values int64, little-endian, one flat stream)::

    FGSync row    : 1, shard, index, len(key), *key
    MGPVRecord row: 0, shard, len(cg_key), *cg_key, cg_hash32,
                    reason_id, n_cells, {fg_idx, len(meta), *meta}...
    columnar block: 2, shard, len(cg_key), *cg_key, cg_hash32,
                    reason_id, n_cells, n_meta_fields,
                    *fg_col, *meta_col[0], *meta_col[1], ...

``reason_id`` indexes :data:`REASONS`, the closed eviction-reason
vocabulary of the MGPV cache.  Every value must be a plain Python int
(``type(v) is int``): the serial-equivalence checksum hashes
``repr(key)``, so a bool or numpy scalar sneaking through would change
the digest.  :func:`encode_rows` returns None for chunks that violate
this, and the cluster falls back to one pickled row chunk (counted,
never silent).

Ring layout: ``[head u64][tail u64][data: capacity bytes]``.  ``head``
and ``tail`` are *monotonic* byte counters (offsets are taken mod
capacity), so ``head - tail`` is the live occupancy and the ring never
needs a full/empty disambiguation bit.  Frames are
``[magic u32][len u32][ring_seq u64]`` + payload, written with byte
wraparound.  There are no locks in the segment: the coordinator posts
the FIFO pointer message only after the frame write completes, and the
pipe round-trip orders the memory operations; the consumer advances
``tail`` only after fully copying a frame out, and the producer treats
a stale (small) ``tail`` as "ring fuller than it is", which parks the
frame — a liveness delay, never a correctness hazard.

Cleanup: segments are named ``superfe-<pid>-...`` so tests can audit
/dev/shm, and only the *creating* process ever unlinks (a
``weakref.finalize`` guarded by creator pid — forked workers inherit
the ring object but must never destroy the coordinator's segment).
"""

from __future__ import annotations

import os
import secrets
from itertools import repeat
import struct
import warnings
import weakref

import numpy as np

from repro.nicsim.engine import FeatureEngine
from repro.switchsim.mgpv import REASONS, FGSync, MGPVRecord

__all__ = [
    "REASONS",
    "TRANSPORTS",
    "FRAME_OVERHEAD",
    "ShmRing",
    "TransportError",
    "apply_frame",
    "apply_rows",
    "decode_rows",
    "encode_rows",
    "resolve_transport",
    "rows_to_events",
    "shm_available",
]

TRANSPORTS = ("shm", "oob")

_REASON_ID = {reason: i for i, reason in enumerate(REASONS)}

_MAGIC = 0x53464531            # "SFE1"
_RING_HEADER = 16              # head u64 + tail u64
#: Per-frame ring overhead: magic u32, payload length u32, ring seq u64,
#: then the causal trace context — trace_id u64, parent_span_id u64,
#: ctx seq u64 (all zero when tracing is off).
FRAME_OVERHEAD = 40
_FRAME_STRUCT = struct.Struct("<IIQQQQ")
#: The all-zero wire context ("no trace attached").
_NO_CTX = (0, 0, 0)


class TransportError(RuntimeError):
    """The shard transport itself failed (corrupt frame, seq skew)."""


# ---------------------------------------------------------------------------
# Frame codec
# ---------------------------------------------------------------------------

def _flatten_rows(rows) -> list | None:
    """The flat int64 value stream for a chunk of compact wire rows, or
    None when the chunk cannot ship as a frame (unknown reason, non-row
    payload).  Value *types* are validated by the caller in one pass."""
    out: list = []
    append = out.append
    extend = out.extend
    for row in rows:
        tag = row[1]
        if tag == 1:                              # FGSync
            key = row[3]
            extend((1, row[0], row[2], len(key)))
            extend(key)
        elif tag == 0:                            # MGPVRecord, cells
            reason_id = _REASON_ID.get(row[5])
            if reason_id is None:
                return None
            cg_key = row[2]
            extend((0, row[0], len(cg_key)))
            extend(cg_key)
            cells = row[4]
            extend((row[3], reason_id, len(cells)))
            for fg_idx, meta in cells:
                append(fg_idx)
                append(len(meta))
                extend(meta)
        elif tag == 2:                            # columnar block
            reason_id = _REASON_ID.get(row[6])
            if reason_id is None:
                return None
            cg_key = row[2]
            fg_col = row[4]
            meta_cols = row[5]
            extend((2, row[0], len(cg_key)))
            extend(cg_key)
            extend((row[3], reason_id, len(fg_col), len(meta_cols)))
            extend(fg_col)
            for col in meta_cols:
                extend(col)
        else:
            return None
    return out


def encode_rows(rows) -> bytes | None:
    """One int64 frame payload for a chunk of compact wire rows.

    Returns None when the chunk cannot round-trip exactly — any value
    that is not a plain Python int (floats would truncate, bools and
    numpy scalars would change ``repr``-based checksums), an int outside
    int64, or an unknown eviction reason.  Callers fall back to the
    pickled row chunk and count it.
    """
    try:
        flat = _flatten_rows(rows)
    except TypeError:                  # len() of a non-sequence, etc.
        return None
    if flat is None:
        return None
    # Strict round-trip gate: np.array would silently truncate floats
    # and coerce bools, so reject anything that is not exactly an int.
    if any(type(v) is not int for v in flat):
        return None
    try:
        arr = np.array(flat, dtype=np.int64)
    except (OverflowError, ValueError, TypeError):
        return None
    return arr.tobytes()


def rows_to_events(rows):
    """Yield ``(shard, event)`` per compact wire row (tag 0: shard, 0,
    cg_key, cg_hash32, cells, reason; tag 1: shard, 1, index, key; tag 2:
    shard, 2, cg_key, cg_hash32, fg_col, meta_cols, reason) — the one
    interpreter behind :func:`apply_frame`, the ``pbatch`` fallback and
    poison salvage."""
    for row in rows:
        tag = row[1]
        if tag == 0:
            event = MGPVRecord(row[2], row[3], row[4], row[5])
        elif tag == 2:
            event = MGPVRecord(row[2], row[3], tuple(zip(row[4], zip(
                *row[5]) if row[5] else repeat(()))), row[6])
        else:
            event = FGSync(row[2], row[3])
        yield row[0], event


def decode_rows(payload: bytes) -> list:
    """The compact wire rows a frame payload encodes (the inverse of
    :func:`encode_rows`).  All decoded values are plain Python ints
    (``.tolist()``), so downstream state — and the serial-equivalence
    checksum — is bit-identical to the pickled path."""
    vals = np.frombuffer(payload, dtype=np.int64).tolist()
    rows: list = []
    i = 0
    while i < len(vals):
        tag, shard = vals[i], vals[i + 1]
        if tag == 1:
            k = vals[i + 3]
            rows.append((shard, 1, vals[i + 2], tuple(vals[i + 4:i + 4 + k])))
            i += 4 + k
            continue
        if tag not in (0, 2):
            raise TransportError(f"corrupt frame: unknown row tag {tag}")
        k = vals[i + 2]
        i += 3
        cg_key = tuple(vals[i:i + k])
        i += k
        hash32, reason, n_cells = vals[i], REASONS[vals[i + 1]], vals[i + 2]
        if tag == 0:
            i += 3
            cells = []
            for _ in range(n_cells):
                m = vals[i + 1]
                cells.append((vals[i], tuple(vals[i + 2:i + 2 + m])))
                i += 2 + m
            rows.append((shard, 0, cg_key, hash32, tuple(cells), reason))
            continue
        n_meta = vals[i + 3]
        i += 4
        cols = [tuple(vals[i + j * n_cells:i + (j + 1) * n_cells])
                for j in range(1 + n_meta)]
        i += (1 + n_meta) * n_cells
        rows.append((shard, 2, cg_key, hash32, cols[0], tuple(cols[1:]),
                     reason))
    return rows


def apply_frame(payload: bytes,
                engines: dict[int, FeatureEngine]) -> int:
    """Decode one frame and apply its rows (:func:`apply_rows`)."""
    return apply_rows(decode_rows(payload), engines)


def apply_rows(rows: list, engines: dict[int, FeatureEngine]) -> int:
    """Hand each shard engine its rows' events as one batch, in stream
    order.  Returns the number of rows applied."""
    shards: dict = {}
    for shard, event in rows_to_events(rows):
        shards.setdefault(shard, []).append(event)
    for shard, events in shards.items():
        engines[shard].consume_batch(events)
    return len(rows)


# ---------------------------------------------------------------------------
# Shared-memory ring
# ---------------------------------------------------------------------------

class _Segment:
    """Mutable holder shared between a ring and its finalizer: the
    numpy views pin the segment's exported buffer, so whoever closes
    the mapping (explicit ``close()`` or the GC finalizer) must be able
    to drop them first — and the finalizer cannot reference the ring
    itself without keeping it alive."""

    __slots__ = ("shm", "ctl", "data")

    def __init__(self, shm, ctl, data) -> None:
        self.shm = shm
        self.ctl = ctl
        self.data = data


def _destroy_segment(seg: _Segment, creator_pid: int) -> None:
    """Close and unlink one segment — creator process only.  Forked
    workers inherit the ring object (and, on a clean exit path, its
    finalizer), and must never unlink the coordinator's segment."""
    if os.getpid() != creator_pid:
        return
    seg.ctl = None
    seg.data = None
    try:
        seg.shm.close()
    except Exception:
        pass
    try:
        seg.shm.unlink()
    except Exception:
        pass


class ShmRing:
    """Single-producer/single-consumer byte ring in one POSIX shared
    memory segment (see the module docstring for the layout and the
    synchronization argument).

    The coordinator is the producer (:meth:`try_push`); the worker —
    which inherits this object through fork, never attaching by name,
    so the resource tracker sees exactly one registration — is the
    consumer (:meth:`pop`).  ``next_seq`` is the producer-side frame
    sequence counter; the consumer verifies it on every pop, so a
    restart that pairs a stale ring with a fresh worker (or vice versa)
    fails loudly instead of silently skewing state.
    """

    def __init__(self, capacity: int, label: str = "ring") -> None:
        from multiprocessing import shared_memory
        if capacity < 4 * FRAME_OVERHEAD:
            raise ValueError(f"ring capacity must be >= "
                             f"{4 * FRAME_OVERHEAD} bytes, got {capacity}")
        self.capacity = int(capacity)
        self._creator_pid = os.getpid()
        shm = None
        for _ in range(16):
            name = (f"superfe-{self._creator_pid}-{label}-"
                    f"{secrets.token_hex(4)}")
            try:
                shm = shared_memory.SharedMemory(
                    create=True, size=_RING_HEADER + self.capacity,
                    name=name)
                break
            except FileExistsError:
                continue
        if shm is None:                          # pragma: no cover
            raise TransportError("could not allocate a uniquely named "
                                 "shared-memory ring")
        self.name = shm.name
        ctl = np.frombuffer(shm.buf, dtype=np.uint64, count=2)
        ctl[:] = 0
        data = np.frombuffer(shm.buf, dtype=np.uint8,
                             count=self.capacity,
                             offset=_RING_HEADER)
        self._seg = _Segment(shm, ctl, data)
        #: Producer-side sequence number of the next frame to push.
        self.next_seq = 0
        self._expect_seq = 0                     # consumer-side mirror
        #: Trace context of the most recently popped frame (consumer
        #: side), or None when that frame carried no context.
        self.last_ctx = None
        self._closed = False
        self._finalizer = weakref.finalize(
            self, _destroy_segment, self._seg, self._creator_pid)

    # The views live on the holder (never directly on the ring) so the
    # finalizer can release them on the GC path too.

    @property
    def _ctl(self):
        return self._seg.ctl

    @property
    def _data(self):
        return self._seg.data

    # -- counters ----------------------------------------------------------

    @property
    def head(self) -> int:
        return int(self._ctl[0]) if self._ctl is not None else 0

    @property
    def tail(self) -> int:
        return int(self._ctl[1]) if self._ctl is not None else 0

    @property
    def occupancy(self) -> int:
        """Bytes currently in flight (written, not yet consumed)."""
        if self._closed or self._ctl is None:
            return 0
        head, tail = int(self._ctl[0]), int(self._ctl[1])
        return head - tail

    @property
    def free_bytes(self) -> int:
        return self.capacity - self.occupancy

    def fits(self, payload_len: int) -> bool:
        """Whether a payload of this size can *ever* occupy the ring
        (not whether it fits right now)."""
        return FRAME_OVERHEAD + payload_len <= self.capacity

    # -- producer ----------------------------------------------------------

    def try_push(self, payload, seq: int, ctx=None) -> bool:
        """Write one frame; False when the ring lacks space right now.
        ``seq`` is stamped into the frame header for the consumer's
        sequence check.  ``ctx`` is an optional ``(trace_id,
        parent_span_id, seq)`` trace context carried in the header
        (zeros when absent)."""
        if self._closed:
            raise TransportError("ring is closed")
        need = FRAME_OVERHEAD + len(payload)
        if need > self.capacity:
            raise ValueError(f"frame of {len(payload)} bytes exceeds "
                             f"ring capacity {self.capacity}")
        head = int(self._ctl[0])
        if need > self.capacity - (head - int(self._ctl[1])):
            return False
        trace_id, parent_span, ctx_seq = ctx if ctx is not None else _NO_CTX
        offset = head % self.capacity
        self._write(offset, _FRAME_STRUCT.pack(
            _MAGIC, len(payload), seq, trace_id, parent_span, ctx_seq))
        self._write((offset + FRAME_OVERHEAD) % self.capacity, payload)
        # Publish after the data is fully written (see the module
        # docstring for why no further barrier is needed).
        self._ctl[0] = head + need
        return True

    def _write(self, offset: int, blob) -> None:
        view = np.frombuffer(blob, dtype=np.uint8)
        end = offset + len(view)
        if end <= self.capacity:
            self._data[offset:end] = view
        else:
            first = self.capacity - offset
            self._data[offset:] = view[:first]
            self._data[:len(view) - first] = view[first:]

    # -- consumer ----------------------------------------------------------

    def pop(self) -> bytes:
        """Copy out and release the frame at ``tail``.  The caller
        learns a frame exists from the FIFO pointer message, so an empty
        ring here means the transport lost sync — an error, not a wait.
        """
        if self._closed:
            raise TransportError("ring is closed")
        tail = int(self._ctl[1])
        if int(self._ctl[0]) == tail:
            raise TransportError(
                "frame pointer arrived for an empty ring (transport "
                "out of sync)")
        offset = tail % self.capacity
        magic, length, seq, trace_id, parent_span, ctx_seq = (
            _FRAME_STRUCT.unpack(self._read(offset, FRAME_OVERHEAD)))
        if magic != _MAGIC:
            raise TransportError(f"corrupt frame header at offset "
                                 f"{offset} (magic {magic:#x})")
        if seq != self._expect_seq:
            raise TransportError(f"frame sequence skew: expected "
                                 f"{self._expect_seq}, ring holds {seq}")
        self.last_ctx = (None if trace_id == 0
                         else (trace_id, parent_span, ctx_seq))
        payload = self._read((offset + FRAME_OVERHEAD) % self.capacity,
                             length)
        self._expect_seq = seq + 1
        # Release only after the copy-out: the producer may reuse the
        # bytes the moment tail advances.
        self._ctl[1] = tail + FRAME_OVERHEAD + length
        return payload

    def _read(self, offset: int, length: int) -> bytes:
        end = offset + length
        if end <= self.capacity:
            return self._data[offset:end].tobytes()
        first = self.capacity - offset
        return (self._data[offset:].tobytes()
                + self._data[:length - first].tobytes())

    def reset_consumer(self, expect_seq: int) -> None:
        """Fast-forward past any unconsumed frames and re-arm the
        sequence check — the worker-side half of a pool lease's
        ``reset``: the coordinator's producer counter survives across
        runs, so the fresh engines must expect exactly its next seq."""
        if self._closed:
            return
        self._ctl[1] = int(self._ctl[0])
        self._expect_seq = int(expect_seq)

    # -- lifecycle ---------------------------------------------------------

    def close(self) -> None:
        """Release this process's mapping (both sides); the creator
        also unlinks the segment.  Idempotent."""
        if self._closed:
            return
        self._closed = True
        # _destroy_segment drops the buffer-pinning views before
        # SharedMemory.close() (which would otherwise BufferError).
        self._finalizer()

    def __repr__(self) -> str:
        return (f"ShmRing(name={self.name!r}, capacity={self.capacity}, "
                f"occupancy={self.occupancy})")


# ---------------------------------------------------------------------------
# Transport selection
# ---------------------------------------------------------------------------

def shm_available() -> bool:
    """Whether POSIX shared memory actually works here (probed by
    creating and unlinking a minimal segment, not by guessing from the
    platform)."""
    try:
        from multiprocessing import shared_memory
        probe = shared_memory.SharedMemory(create=True, size=16)
    except Exception:
        return False
    try:
        probe.close()
        probe.unlink()
    except Exception:
        pass
    return True


_degrade_warned = False


def resolve_transport(requested: str | None, env=None,
                      probe=shm_available) -> str:
    """The effective transport for one process worker pool.

    ``requested`` (the :class:`~repro.core.parallel.ExecutionConfig`
    field) wins over the ``SUPERFE_TRANSPORT`` environment variable;
    both default to auto, which probes shared memory and degrades to
    ``oob`` — once, with a single warning — on hosts without it, instead
    of failing at first dispatch."""
    global _degrade_warned
    if requested is None:
        env = os.environ if env is None else env
        raw = (env.get("SUPERFE_TRANSPORT") or "").strip().lower()
        if raw:
            if raw not in TRANSPORTS:
                raise ValueError(f"SUPERFE_TRANSPORT must be one of "
                                 f"{TRANSPORTS}, got {raw!r}")
            requested = raw
    if requested == "oob":
        return requested
    if probe():
        return "shm"
    if not _degrade_warned:
        _degrade_warned = True
        warnings.warn(
            "shared memory is unavailable on this host; the shard "
            "transport degrades to single-buffer frames over the "
            "worker queues (transport='oob'). Results are identical; "
            "dispatch pays one extra copy per chunk.",
            RuntimeWarning, stacklevel=2)
    return "oob"
