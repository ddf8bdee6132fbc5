"""Zero-copy shard transport: shared-memory rings over columnar frames.

The process execution backend ships each worker's share of the event
stream as *frames* — the worker's slice of an
:class:`~repro.switchsim.mgpv.EventBatch` as raw column buffers, never
as Python objects — over one of two transports, selected per worker
pool by :func:`resolve_transport`:

- ``shm`` — the default where POSIX shared memory works.  Each worker
  owns one :class:`ShmRing`, a single-producer/single-consumer byte
  ring in a ``multiprocessing.shared_memory`` segment.  The coordinator
  memcpys a frame (:func:`encode_frame`) into the ring and posts a tiny
  ``("frame", seq)`` pointer on the worker's FIFO queue; the worker
  pops the frame and applies it to its engines (:func:`apply_frame`).
  Pickle carries only control messages (clock, crash, stats, barrier).
- ``oob`` — hosts without a usable /dev/shm: the same frame crosses the
  queue as one ``bytes`` payload (pickle protocol 5 ships it with a
  single header + memcpy).  The inline ``serial`` cluster hands the same
  payload over in memory.

Frame format (little-endian; every section starts 8-byte aligned)::

    header   : magic b"SFEB", version u16, n_meta u16, then int64
               n_rec, n_sync, n_cells, n_keys, key_width, n_pickled
    codes    : one dtype code u8 per metadata column (0 int64,
               1 float64, 2 pickled), zero-padded to 8 bytes
    records  : 7 int64 columns of n_rec — shard, pos, key, hash32,
               reason, cell start, cell count
    syncs    : 5 int64 columns of n_sync — shard, pos, FG index, key,
               owner hash32
    cells    : the FG-index column, then each int64 / float64 metadata
               column, n_cells values each
    keys     : the key table as an n_keys x key_width int64 matrix
    pickled  : n_pickled bytes, one pickle of (object metadata columns
               by index, key list, reason vocabulary), present only for
               columns neither int64 nor float64 (bools, mixed
               int/float, ints past int64), keys that are not
               equal-width int tuples (``key_width`` -1), or a
               non-default reason vocabulary

``pos`` is the event's position in the frame's slice of the stream,
``key`` a row of the key table, ``reason`` an index into
:data:`REASONS`; records' cells lie back to back.  Decoding
(:func:`decode_frame`) returns read-only ``np.frombuffer`` views and
plain-int key tuples (``tolist()``: the serial-equivalence checksum
hashes ``repr(key)``, so no numpy scalar may surface).  A frame the
encoder could not have written — truncated, a bad magic or version,
counts that overrun the payload, negative lengths, cell ranges outside
the columns, key, position or shard ids outside their tables — raises
:class:`TransportError` before any engine is touched.
:func:`encode_rows` builds the same frame from compact wire rows.

Ring layout: ``[head u64][tail u64][data: capacity bytes]``.  ``head``
and ``tail`` are *monotonic* byte counters (offsets are taken mod
capacity), so ``head - tail`` is the live occupancy and the ring never
needs a full/empty disambiguation bit.  Ring frames are
``[magic u32][len u32][ring_seq u64]`` + trace context + payload,
written with byte wraparound.  There are no locks in the segment: the
coordinator posts the FIFO pointer message only after the frame write
completes, and the pipe round-trip orders the memory operations; the
consumer advances ``tail`` only after fully copying a frame out, and
the producer treats a stale (small) ``tail`` as "ring fuller than it
is", which parks the frame — a liveness delay, never a correctness
hazard.

Cleanup: segments are named ``superfe-<pid>-...`` so tests can audit
/dev/shm, and only the *creating* process ever unlinks (a
``weakref.finalize`` guarded by creator pid — forked workers inherit
the ring object but must never destroy the coordinator's segment).
"""

from __future__ import annotations

import os
import pickle
import secrets
import struct
import warnings
import weakref
from itertools import chain, repeat

import numpy as np

from repro.nicsim.engine import FeatureEngine
from repro.switchsim.mgpv import (
    REASONS,
    EventBatch,
    EventBuffer,
    FGSync,
    MGPVRecord,
)

__all__ = [
    "REASONS",
    "TRANSPORTS",
    "FRAME_OVERHEAD",
    "ShmRing",
    "TransportError",
    "apply_frame",
    "decode_frame",
    "encode_frame",
    "encode_rows",
    "key_matrix",
    "resolve_transport",
    "shm_available",
]

TRANSPORTS = ("shm", "oob")

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

_FRAME_MAGIC = b"SFEB"
_FRAME_VERSION = 1
_HEADER = struct.Struct("<4sHHqqqqqq")
_INT, _FLOAT, _PICKLED = 0, 1, 2               # metadata column codes
_REC_COLS, _SYNC_COLS = 7, 5
_I8 = np.dtype("<i8")


def _pad8(n: int) -> int:
    return -(-n // 8) * 8


def key_matrix(keys: list) -> np.ndarray | None:
    """``keys`` as an int64 matrix, one row per key — None unless they
    are equal-width tuples of plain ints within int64 (the rest ship
    pickled)."""
    widths = set(map(len, keys))
    if (len(widths) > 1 or set(map(type, keys)) - {tuple}
            or set(map(type, chain.from_iterable(keys))) - {int}):
        return None
    try:
        return np.fromiter(chain.from_iterable(keys), np.int64).reshape(
            len(keys), widths.pop() if keys else 0)
    except OverflowError:
        return None


def encode_frame(batch: EventBatch, rec_shard: np.ndarray,
                 sync_shard: np.ndarray, keys: np.ndarray | None,
                 lo: int = 0, hi: int | None = None) -> tuple[bytes, bool]:
    """The frame of ``batch``'s events at stream positions ``[lo, hi)``
    (all of them by default), each table with its shard column.
    ``keys`` is :func:`key_matrix` of ``batch.keys``; the records' cells
    must lie back to back in record order, as
    :meth:`~repro.switchsim.mgpv.EventBatch.select` lays them out.
    Returns the payload and whether it carries a pickled section."""
    hi = len(batch) if hi is None else hi
    ra, rb = np.searchsorted(batch.rec_pos, (lo, hi)).tolist()
    sa, sb = np.searchsorted(batch.sync_pos, (lo, hi)).tolist()
    n_rec = rb - ra
    used, ids = np.unique(np.concatenate((
        batch.rec_key[ra:rb], batch.sync_key[sa:sb])), return_inverse=True)
    cs, ce = ((int(batch.rec_start[ra]), int(batch.rec_start[rb - 1]
                                             + batch.rec_len[rb - 1]))
              if n_rec else (0, 0))
    meta = [col[cs:ce] for col in batch.cell_meta]
    codes = bytes(_INT if col.dtype == _I8 else
                  _FLOAT if col.dtype == np.float64 else _PICKLED
                  for col in meta)
    words = [rec_shard[ra:rb], batch.rec_pos[ra:rb] - lo, ids[:n_rec],
             batch.rec_hash[ra:rb], batch.rec_reason[ra:rb],
             batch.rec_start[ra:rb] - cs, batch.rec_len[ra:rb],
             sync_shard[sa:sb], batch.sync_pos[sa:sb] - lo,
             batch.sync_index[sa:sb], ids[n_rec:], batch.sync_hash[sa:sb],
             batch.cell_fg[cs:ce]]
    words += [col.view(_I8) for col, code in zip(meta, codes)
              if code != _PICKLED]
    objects = {j: col for j, col in enumerate(meta) if codes[j] == _PICKLED}
    key_list = None
    if keys is None:
        width, key_list = -1, list(map(batch.keys.__getitem__,
                                       used.tolist()))
    else:
        width = keys.shape[1]
        words.append(keys[used].ravel())
    reasons = None if batch.reasons == REASONS else batch.reasons
    pickled = (pickle.dumps((objects, key_list, reasons), protocol=5)
               if objects or key_list is not None or reasons is not None
               else b"")
    header = _HEADER.pack(_FRAME_MAGIC, _FRAME_VERSION, len(meta), n_rec,
                          sb - sa, ce - cs, len(used), width, len(pickled))
    return b"".join((header, codes.ljust(_pad8(len(codes)), b"\0"),
                     np.concatenate(words).astype(_I8, copy=False).tobytes(),
                     pickled)), bool(pickled)


def _check_ids(name: str, ids: np.ndarray, size: int) -> None:
    if len(ids) and (int(ids.min()) < 0 or int(ids.max()) >= size):
        raise TransportError(f"corrupt frame: {name} outside its table "
                             f"of {size}")


def decode_frame(payload) -> tuple[EventBatch, np.ndarray, np.ndarray]:
    """The batch a frame encodes, with its record and sync shard
    columns: read-only views of ``payload``, plain-int key tuples, and
    pickled columns as the objects they were.  Raises
    :class:`TransportError` for anything :func:`encode_frame` could not
    have written (see the module docstring)."""
    size = len(payload)
    if size < _HEADER.size:
        raise TransportError(f"truncated frame: {size} bytes")
    (magic, version, n_meta, n_rec, n_sync, n_cells, n_keys, width,
     n_pickled) = _HEADER.unpack_from(payload)
    if magic != _FRAME_MAGIC or version != _FRAME_VERSION:
        raise TransportError(f"corrupt frame: magic {magic!r} version "
                             f"{version}, not a v{_FRAME_VERSION} frame")
    if min(n_rec, n_sync, n_cells, n_keys, n_pickled, width + 1) < 0:
        raise TransportError("corrupt frame: negative count in header")
    at = _HEADER.size + _pad8(n_meta)
    codes = bytes(payload[_HEADER.size:_HEADER.size + n_meta])
    raw = [j for j, code in enumerate(codes) if code != _PICKLED]
    words = (_REC_COLS * n_rec + _SYNC_COLS * n_sync
             + (1 + len(raw)) * n_cells + n_keys * max(width, 0))
    if at + 8 * words + n_pickled != size:
        raise TransportError(f"corrupt frame: header counts "
                             f"{at + 8 * words + n_pickled} bytes, "
                             f"payload has {size}")
    if not set(codes) <= {_INT, _FLOAT, _PICKLED}:
        raise TransportError(f"corrupt frame: dtype codes {codes!r}")
    body = np.frombuffer(payload, _I8, words, at)
    body.flags.writeable = False
    (rec_shard, rec_pos, rec_key, rec_hash, rec_reason, rec_start,
     rec_len) = body[:_REC_COLS * n_rec].reshape(_REC_COLS, n_rec)
    at = _REC_COLS * n_rec
    (sync_shard, sync_pos, sync_index, sync_key,
     sync_hash) = body[at:at + _SYNC_COLS * n_sync].reshape(_SYNC_COLS,
                                                             n_sync)
    at += _SYNC_COLS * n_sync
    columns = body[at:at + (1 + len(raw)) * n_cells].reshape(
        1 + len(raw), n_cells)
    cols = {j: col.view(np.float64) if codes[j] == _FLOAT else col
            for j, col in zip(raw, columns[1:])}
    objects, keys, reasons = {}, None, REASONS
    if n_pickled:
        try:
            objects, keys, vocabulary = pickle.loads(payload[-n_pickled:])
        except Exception as exc:
            raise TransportError(f"corrupt frame: pickled section "
                                 f"({exc!r})") from None
        reasons = REASONS if vocabulary is None else vocabulary
    if width >= 0:                     # a raw key table, not a pickled one
        keys = None if keys is not None else list(map(tuple, body[
            at + len(columns) * n_cells:].reshape(n_keys, width).tolist()))
    if not (type(keys) is list and len(keys) == n_keys
            and type(objects) is dict and type(reasons) is tuple
            and set(objects) == set(range(n_meta)) - set(raw)
            and all(isinstance(col, np.ndarray) and col.shape == (n_cells,)
                    for col in objects.values())):
        raise TransportError("corrupt frame: the pickled section does not "
                             "match the header")
    n = n_rec + n_sync
    _check_ids("record key", rec_key, n_keys)
    _check_ids("sync key", sync_key, n_keys)
    _check_ids("reason", rec_reason, len(reasons))
    _check_ids("record position", rec_pos, n)
    _check_ids("sync position", sync_pos, n)
    _check_ids("FG index", sync_index, 1 << 63)
    seen = np.zeros(n, bool)
    seen[rec_pos] = seen[sync_pos] = True
    if not (seen.all() and (np.diff(rec_pos) > 0).all()
            and (np.diff(sync_pos) > 0).all()):
        raise TransportError("corrupt frame: positions are not the "
                             "stream order")
    _check_ids("cell count", rec_len, n_cells + 1)
    if (rec_len.sum() != n_cells
            or not np.array_equal(rec_start, np.cumsum(rec_len) - rec_len)):
        raise TransportError("corrupt frame: cell ranges do not tile the "
                             "cell columns")
    for col in objects.values():
        col.flags.writeable = False
    cols.update(objects)
    return EventBatch(
        keys, (rec_pos, rec_key, rec_hash, rec_reason, rec_start, rec_len),
        (sync_pos, sync_index, sync_key, sync_hash),
        (columns[0], tuple(cols[j] for j in range(n_meta))),
        reasons), rec_shard, sync_shard


def apply_frame(payload, engines: dict[int, FeatureEngine]) -> int:
    """Decode one frame and hand each shard engine its sub-batch
    (:meth:`~repro.switchsim.mgpv.EventBatch.select`, the serial
    cluster's split).  Every shard id is checked against ``engines``
    before any engine is touched.  Returns the events applied."""
    batch, rec_shard, sync_shard = decode_frame(payload)
    shards = np.union1d(rec_shard, sync_shard).tolist()
    if not engines.keys() >= set(shards):
        raise TransportError(f"corrupt frame: shard ids {shards}, this "
                             f"worker has {sorted(engines)}")
    for shard in shards:
        engines[shard].consume_batch(batch.select(rec_shard == shard,
                                                  sync_shard == shard))
    return len(batch)


def encode_rows(rows) -> bytes | None:
    """The frame of a chunk of compact wire rows — tag 0: ``(shard, 0,
    cg_key, cg_hash32, cells, reason)``; tag 1: ``(shard, 1, index,
    key)``; tag 2: ``(shard, 2, cg_key, cg_hash32, fg column, metadata
    columns, reason)`` — or None when a row is malformed: an unknown tag
    or arity, a shard, hash32 or FG / cell index that is not an int
    within int64, or ragged cell metadata.  Values the int64 / float64
    columns cannot hold exactly ship in the pickled section."""
    buffer, shards = EventBuffer(), []
    try:
        for row in rows:
            shape = (row[1], len(row))
            if shape == (1, 4):
                buffer.add(FGSync(row[2], row[3]))
            elif shape in ((0, 6), (2, 7)):
                cells = row[4] if shape[0] == 0 else zip(row[4], zip(
                    *row[5]) if row[5] else repeat(()))
                buffer.add(MGPVRecord(row[2], row[3], tuple(cells), row[-1]))
            else:
                return None
            shards.append(row[0])
        if (len(set(map(len, buffer.meta))) > 1 or not set(map(type, chain(
                shards, buffer.nums, buffer.fg))) <= {int}):
            return None
        batch = buffer.batch()
        shards = np.array(shards, np.int64)
    except (TypeError, ValueError, OverflowError, IndexError):
        return None
    return encode_frame(batch, shards[batch.rec_pos], shards[batch.sync_pos],
                        key_matrix(batch.keys))[0]


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
    def occupancy(self) -> int:
        """Bytes currently in flight (written, not yet consumed)."""
        if self._closed or self._ctl is None:
            return 0
        head, tail = int(self._ctl[0]), int(self._ctl[1])
        return head - tail

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
