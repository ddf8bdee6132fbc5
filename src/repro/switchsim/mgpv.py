"""The MGPV (Multi-granularity Grouped Packet Vector) cache system (§5).

The switch groups packets at the *coarsest* granularity (CG) of the
policy's dependency chain and stores, per packet, a small metadata cell
that includes an index into a separate FG-key hash table holding the
*finest*-granularity key.  The FG table is synchronized to the SmartNIC,
which recovers every intermediate granularity by projecting FG keys — so
one copy of the metadata serves all granularities (Fig 6/7).

Storage follows the long-tail flow distribution (§5.2): every CG group
gets a small *short buffer* (hash-indexed array); groups that fill it pop
a pointer to a much larger *long buffer* from a stack.  Metadata leaves
the switch toward the NIC as :class:`MGPVRecord` messages, triggered by

1. **hash collision** — a new group maps to an occupied slot: the older
   group is evicted (an LRU-like policy, §5.2);
2. **buffer fill-up** — a short buffer fills with no long buffer
   available, or a long buffer fills;
3. **aging** — recirculated internal packets scan entries and evict
   groups idle longer than the timeout ``T``.

The cache maintains the invariant that an FG-table entry is referenced
only by the CG group its key projects onto; evicting a CG group frees all
of its FG entries.

The control state is the switch's register arrays: per short slot the
resident CG key id, hash, long-buffer index and ``last_access``; the free
stack of long buffers; the FG table's key id and owner slot (keys are
interned to exact ids).  ``insert`` is one scalar body per packet, and
``insert_batch`` has none: its rows sort by slot into *lifetimes* (runs of
one CG key), whose evictions, syncs and buffer thresholds are slot-local
numpy.  Only the long-buffer pool and FG collisions couple slots, so a
*ledger* replays just the requests, frees and FG rows in stream order —
which makes its outcome the per-packet one — and one pass assembles the
:class:`EventBatch` from it (DESIGN.md, *MGPV*).
"""

from __future__ import annotations

import operator
import os
from bisect import bisect_left
from dataclasses import dataclass, field
from heapq import heappop, heappush
from itertools import chain, repeat
from time import perf_counter_ns
from typing import Iterable, Iterator, Union

import numpy as np

from repro.core.granularity import Granularity
from repro.net.packet import PLAIN_FIELDS, Packet, compile_field_accessor
from repro.streaming.folds import typed_column
from repro.streaming.hyperloglog import hash_key, hash_key_columns

#: Fig 14 buffer-efficiency accounting: occupancy is sampled every
#: ``_OCC_STRIDE`` packets, and a resident group counts as *active* when
#: it was last accessed within ``_OCC_WINDOW_NS`` of the running clock.
_OCC_STRIDE = 64
_OCC_WINDOW_NS = 100_000_000

#: ``last_access`` of an empty slot: below every activity threshold.
_NEVER = np.iinfo(np.int64).min


@dataclass(frozen=True)
class MGPVConfig:
    """Sizing and policy knobs, defaulting to the prototype's values (§7):
    16384 short buffers of 4 cells, 4096 long buffers of 20 cells, an FG
    table the size of the short-buffer array."""

    n_short: int = 16384
    short_size: int = 4
    n_long: int = 4096
    long_size: int = 20
    fg_table_size: int = 16384
    aging_timeout_ns: int | None = None     # None disables aging
    aging_scan_per_pkt: int = 2             # entries checked per recirculation
    cell_bytes: int = 9                     # metadata bytes per packet cell
    cg_key_bytes: int = 4
    fg_key_bytes: int = 13
    record_header_bytes: int = 10           # cg key hash + length + seq

    def __post_init__(self) -> None:
        sizes = ("n_short", "short_size", "n_long", "long_size",
                 "fg_table_size", "aging_scan_per_pkt")
        widths = ("cell_bytes", "cg_key_bytes", "fg_key_bytes",
                  "record_header_bytes")
        for name in sizes + widths:
            value = getattr(self, name)
            if type(value) is not int:
                raise TypeError(f"MGPV {name} must be an int, got {value!r}")
        if min(getattr(self, name) for name in sizes[:-1]) < 1:
            raise ValueError("all MGPV sizes must be positive")
        if min(getattr(self, name) for name in widths) < 0:
            raise ValueError("MGPV byte widths must be >= 0")
        if self.aging_timeout_ns is not None and self.aging_timeout_ns <= 0:
            raise ValueError("aging timeout must be positive or None")
        if self.aging_scan_per_pkt < 1:
            raise ValueError("aging must scan at least one entry per packet")

    @property
    def sram_bytes(self) -> int:
        """Total switch SRAM footprint of the MGPV structures."""
        short = self.n_short * (self.short_size * self.cell_bytes
                                + self.cg_key_bytes + 8)   # key + bookkeeping
        long = self.n_long * self.long_size * self.cell_bytes
        stack = self.n_long * 2
        fg = self.fg_table_size * self.fg_key_bytes
        return short + long + stack + fg


@dataclass(frozen=True)
class FGSync:
    """Switch -> NIC notification: FG-table slot ``index`` now holds
    ``key`` (§5.1's synchronized hash table).  ``owner_hash`` is the CG
    hash32 of the slot's owner group when the producer held it (-1 when
    not); it steers the sync and is no part of ``==`` or ``repr``."""

    index: int
    key: tuple
    owner_hash: int = field(default=-1, compare=False, repr=False)

    def wire_bytes(self, config: MGPVConfig) -> int:
        return 2 + config.fg_key_bytes


@dataclass(frozen=True)
class MGPVRecord:
    """One evicted MGPV: the CG group key, the switch's 32-bit hash of it
    (reused by the NIC, §6.2), and the packet metadata cells — each cell
    is ``(fg_index, metadata_tuple)``."""

    cg_key: tuple
    cg_hash32: int
    cells: tuple
    reason: str                              # collision|short_full|long_full|aging|flush

    def wire_bytes(self, config: MGPVConfig) -> int:
        return (config.record_header_bytes + config.cg_key_bytes
                + len(self.cells) * config.cell_bytes)


Event = Union[FGSync, MGPVRecord]

#: The closed vocabulary of eviction reasons (plus the software path's
#: synthetic one): batches and wire frames carry the index.
REASONS = ("collision", "short_full", "long_full", "aging", "flush",
           "software", "evict")
_REASON_ID = {reason: i for i, reason in enumerate(REASONS)}
_NONE = np.zeros(0, np.int64)
#: The last batches that handed out event objects, by the identity of
#: the first (held, so the identity stays theirs; see ``of``).
_ORIGINS: dict = {}


class EventBuffer:
    """Event objects appended one at a time into the flat lists an
    :class:`EventBatch` is built from: the one normaliser of event
    objects (:meth:`EventBatch.of`, the engine's per-event queue).  It
    holds no object per event, nor a record's cell tuples."""

    __slots__ = ("kinds", "keys", "nums", "owners", "reasons", "fg", "meta")

    def __init__(self) -> None:
        self.kinds, self.keys, self.nums = [], [], []   # per event
        self.owners = []                                # per sync
        self.reasons, self.fg, self.meta = [], [], []   # per record, cell

    def __len__(self) -> int:
        return len(self.kinds)

    def add(self, event: Event) -> None:
        """A record as its cell count, CG key, hash32 and reason plus its
        cells; a sync as -1, its key, FG index and owner hash."""
        if isinstance(event, MGPVRecord):
            self.kinds.append(len(event.cells))
            self.keys.append(event.cg_key)
            self.nums.append(event.cg_hash32)
            self.reasons.append(event.reason)
            for fg, meta in event.cells:
                self.fg.append(fg)
                self.meta.append(meta)
        elif isinstance(event, FGSync):
            self.kinds.append(-1)
            self.keys.append(event.key)
            self.nums.append(event.index)
            self.owners.append(event.owner_hash)
        else:
            raise TypeError(f"unknown event {event!r}")

    def batch(self, objs: list | None = None) -> "EventBatch":
        """The events added, as a batch (``objs``: them as objects)."""
        kinds = np.array(self.kinds, np.int64)
        nums = np.array(self.nums, np.int64)
        rec, ids, reasons = kinds >= 0, {}, dict(_REASON_ID)
        lens = kinds[rec]
        keys = np.fromiter((ids.setdefault(key, len(ids)) for key in self.keys),
                           np.int64, len(kinds))
        return EventBatch(
            list(ids),
            (np.flatnonzero(rec), keys[rec], nums[rec], np.fromiter(
                (reasons.setdefault(r, len(reasons)) for r in self.reasons),
                np.int64, len(lens)), np.cumsum(lens) - lens, lens),
            (np.flatnonzero(~rec), nums[~rec], keys[~rec],
             np.array(self.owners, np.int64)),
            (np.array(self.fg, np.int64),
             tuple(typed_column(list(col)) for col in zip(*self.meta))),
            tuple(reasons), objs)


class EventBatch:
    """A slice of the switch->NIC event stream as struct-of-arrays, in
    §5's fixed record layout: a record table (``rec_pos`` stream
    position, ``rec_key`` id into ``keys``, ``rec_hash`` CG hash32,
    ``rec_reason`` index into ``reasons``, ``rec_start`` / ``rec_len``
    cells), a sync table (``sync_pos``, ``sync_index`` FG-table slot,
    ``sync_key``, ``sync_hash`` owner CG hash32 or -1 when a normalised
    list did not say), the cell columns ``cell_fg`` plus ``cell_meta`` (one
    typed column per metadata field) and ``keys``, the batch's own key
    table (switch ids are renumbered).

    It is also a read-only sequence of the :class:`FGSync` /
    :class:`MGPVRecord` objects it encodes, with plain Python values,
    built once on first use (tests, the benches, the per-cell oracle
    and the lossy link read events so).
    """

    __slots__ = ("keys", "reasons", "rec_pos", "rec_key", "rec_hash",
                 "rec_reason", "rec_start", "rec_len", "sync_pos",
                 "sync_index", "sync_key", "sync_hash", "cell_fg",
                 "cell_meta", "_objs")

    def __init__(self, keys: list, records, syncs, cells: tuple,
                 reasons: tuple = REASONS, objs: list | None = None) -> None:
        self.keys, self.reasons, self._objs = keys, reasons, objs
        (self.rec_pos, self.rec_key, self.rec_hash, self.rec_reason,
         self.rec_start, self.rec_len) = records
        self.sync_pos, self.sync_index, self.sync_key, self.sync_hash = syncs
        self.cell_fg, self.cell_meta = cells

    @classmethod
    def of(cls, events, project=None) -> "EventBatch":
        """``events`` as a batch — itself when it is one, else the event
        list normalised once (every ``consume_batch`` entry).  Given the
        CG ``project``ion, unknown sync owner hashes are filled in."""
        objs = None if isinstance(events, EventBatch) else list(events)
        # A list of a batch's own event objects is that batch again.
        origin = _ORIGINS.get(id(objs[0])) if objs else None
        if origin is not None and len(origin) == len(objs) and all(
                map(operator.is_, objs, origin._objs)):
            events = origin
        elif objs is not None:
            buffer = EventBuffer()
            for event in objs:
                buffer.add(event)
            events = buffer.batch(objs)
        if project is not None and (events.sync_hash < 0).any():
            unknown = np.flatnonzero(events.sync_hash < 0)
            cg_keys = [project(events.keys[k])
                       for k in events.sync_key[unknown].tolist()]
            events.sync_hash = events.sync_hash.copy()
            events.sync_hash[unknown] = hash_key_columns(
                list(zip(*cg_keys))).astype(np.int64)
        return events

    def events(self) -> list:
        """The batch as event objects, in stream order."""
        if self._objs is None:
            cells = list(zip(self.cell_fg.tolist(), zip(*(
                col.tolist() for col in self.cell_meta))
                if self.cell_meta else repeat(())))
            keys, reasons = self.keys, self.reasons
            objs = [None] * len(self)
            for pos, key, hash32, reason, start, n in zip(*(
                    a.tolist() for a in (self.rec_pos, self.rec_key,
                                         self.rec_hash, self.rec_reason,
                                         self.rec_start, self.rec_len))):
                objs[pos] = MGPVRecord(keys[key], hash32,
                                       tuple(cells[start:start + n]),
                                       reasons[reason])
            for pos, index, key, owner in zip(*(
                    a.tolist() for a in (self.sync_pos, self.sync_index,
                                         self.sync_key, self.sync_hash))):
                objs[pos] = FGSync(index, keys[key], owner)
            self._objs = objs
        if self._objs:
            _ORIGINS[id(self._objs[0])] = self
            if len(_ORIGINS) > 2:
                del _ORIGINS[next(iter(_ORIGINS))]
        return self._objs

    def select(self, records: np.ndarray, syncs: np.ndarray) -> "EventBatch":
        """The sub-stream of the records and syncs two boolean masks keep,
        in order (a cluster's per-engine share)."""
        keep = np.zeros(len(self), bool)
        keep[self.rec_pos[records]] = keep[self.sync_pos[syncs]] = True
        renumber = np.cumsum(keep) - 1
        lens = self.rec_len[records]
        at = _expand(self.rec_start[records], lens)
        return EventBatch(
            self.keys,
            (renumber[self.rec_pos[records]], self.rec_key[records],
             self.rec_hash[records], self.rec_reason[records],
             np.cumsum(lens) - lens, lens),
            (renumber[self.sync_pos[syncs]], self.sync_index[syncs],
             self.sync_key[syncs], self.sync_hash[syncs]),
            (self.cell_fg[at], tuple(col[at] for col in self.cell_meta)),
            self.reasons)

    def __len__(self) -> int:
        return len(self.rec_pos) + len(self.sync_pos)

    def __iter__(self):
        return iter(self.events())

    def __getitem__(self, index):
        return self.events()[index]

    def __eq__(self, other) -> bool:
        if isinstance(other, (EventBatch, list, tuple)):
            return self.events() == list(other)
        return NotImplemented

    def __add__(self, other) -> "EventBatch":
        return EventBatch.of(self.events() + list(other))

    def __radd__(self, other) -> list:
        # ``events += batch`` on a list lands here too: stay a list.
        return list(other) + self.events()


@dataclass
class CacheStats:
    """Counters the Fig 12-14 benches read."""

    pkts_in: int = 0
    bytes_in: int = 0
    records_out: int = 0
    cells_out: int = 0
    bytes_out: int = 0
    syncs_out: int = 0
    evictions: dict = field(default_factory=lambda: {
        "collision": 0, "short_full": 0, "long_full": 0, "aging": 0,
        "flush": 0})
    long_allocs: int = 0
    long_alloc_failures: int = 0
    fg_collisions: int = 0

    @property
    def aggregation_ratio_bytes(self) -> float:
        """Bytes to the NIC / original traffic bytes (Fig 12)."""
        return self.bytes_out / self.bytes_in if self.bytes_in else 0.0

    @property
    def aggregation_ratio_rate(self) -> float:
        """Messages to the NIC / packets received (Fig 12)."""
        if not self.pkts_in:
            return 0.0
        return (self.records_out + self.syncs_out) / self.pkts_in

    def as_dict(self) -> dict:
        """The counters as a flat observe-convention dict."""
        return {**vars(self), "evictions": dict(self.evictions)}


def _distinct_rows(columns) -> tuple[np.ndarray, np.ndarray]:
    """Exact distinct rows of integer key columns: ``(first, inverse)``,
    a representative row per key and each row's key index.  Rows group by
    a 64-bit fold of their columns, verified column by column; a fold
    collision between distinct keys falls back to sorting the rows."""
    fold = np.zeros(len(columns[0]), np.uint64)
    for col in columns:
        fold = fold * np.uint64(0x100000001B3) ^ col.astype(np.uint64)
    order = np.argsort(fold)
    fold = fold[order]
    new = np.ones(len(fold), bool)
    np.not_equal(fold[1:], fold[:-1], out=new[1:])
    first = order[new]
    inverse = np.empty(len(fold), np.intp)
    inverse[order] = np.cumsum(new) - 1
    if not all(np.array_equal(col, col[first][inverse]) for col in columns):
        _, first, inverse = np.unique(
            np.stack(columns, axis=1).astype(np.int64), axis=0,
            return_index=True, return_inverse=True)
    return first, inverse.reshape(-1)


def _expand(at: np.ndarray, lens: np.ndarray) -> np.ndarray:
    """The indices of ``(start, length)`` ranges, laid back to back."""
    ends = np.cumsum(lens)
    return np.arange(ends[-1] if len(ends) else 0) + np.repeat(
        at - ends + lens, lens)


class MGPVCache:
    """Functional simulator of the FE-Switch MGPV batching engine.

    Feed packets with :meth:`insert` (a whole ``PacketBatch`` with
    :meth:`insert_batch`, a trace with :meth:`process`); each yields the
    ordered switch->NIC event stream of :class:`FGSync` and
    :class:`MGPVRecord` messages.  Call :meth:`flush` at end-of-trace to
    drain resident groups.
    """

    name = "mgpv"
    _wire_syncs = True          # FG-table syncs cross the wire to the NIC

    def __init__(self, cg: Granularity, fg: Granularity,
                 config: MGPVConfig | None = None,
                 metadata_fields: tuple[str, ...] = ("size", "tstamp"),
                 ) -> None:
        self.cg = cg
        self.fg = fg
        self.config = cfg = config or MGPVConfig()
        self.metadata_fields = metadata_fields
        self.stats = CacheStats()
        # Per-packet precompilation — a metadata accessor for the string
        # dispatch of Packet.field, interned routes for key projection and
        # hashing — which SUPERFE_REFERENCE_PATH=1 turns off (the oracle).
        self._meta_accessor = compile_field_accessor(tuple(metadata_fields))
        self._fg_packet_key = fg.packet_key
        self._cg_project = cg.project
        self._reference = os.environ.get("SUPERFE_REFERENCE_PATH") == "1"
        self._key_cache: dict[tuple, tuple] = {}    # FG key -> route
        # Exact key ids (_keys[id] is the key), renumbered to the live
        # ones whenever more than _key_cap are interned.
        self._ids: dict[tuple, int] = {}
        self._keys: list[tuple] = []
        self._key_cap = 4 * (cfg.n_short + cfg.fg_table_size)
        # The register arrays, and memoryviews of the same memory for
        # scalar access (plain Python ints, no numpy scalars).
        self._slot_key = np.full(cfg.n_short, -1, np.int64)
        self._slot_hash = np.zeros(cfg.n_short, np.int64)
        self._slot_long = np.full(cfg.n_short, -1, np.int64)
        self._slot_last = np.full(cfg.n_short, _NEVER, np.int64)
        self._long_stack = np.arange(cfg.n_long, dtype=np.int64)
        self._long_top = cfg.n_long
        self._fg_key = np.full(cfg.fg_table_size, -1, np.int64)
        self._fg_owner = np.full(cfg.fg_table_size, -1, np.int64)
        (self._v_key, self._v_hash, self._v_long, self._v_last, self._v_stack,
         self._v_fg_key, self._v_fg_owner) = map(memoryview, (
             self._slot_key, self._slot_hash, self._slot_long, self._slot_last,
             self._long_stack, self._fg_key, self._fg_owner))
        # Pending cells: per resident slot a list of (fg index, metadata)
        # cells between per-packet inserts; in batch calls the rows
        # _pend_at[s] .. _pend_at[s] + _pend_n[s] of the arena (FG index,
        # then one column per metadata field; None between inserts).
        self._cells: list | None = [None] * cfg.n_short
        self._arena: list[np.ndarray] | None = None
        self._pend_at, self._pend_n = np.zeros((2, cfg.n_short), np.int64)
        self._n_resident = self._aging_cursor = 0
        self._long_allowed: int | None = None   # fault-injected squeeze
        self._now = 0
        # Occupancy-time integrals for buffer-efficiency reporting (Fig 14).
        self._occ_occupied = self._occ_active = 0
        # Telemetry instruments (attach_telemetry); None = not attached.
        # Only amortized paths (evictions, aging scans, batch calls) are
        # instrumented — the per-packet insert body is not.
        self._t_tracer = self._t_record_cells = None

    def attach_telemetry(self, telemetry) -> None:
        """Register the cache's typed instruments: eviction/sync counts
        read from :attr:`stats`, the cells-per-record distribution, live
        occupancy gauges, and (when sampling) spans around scalar
        evictions and aging scans."""
        from repro.core.telemetry import DEFAULT_COUNT_BOUNDS
        reg = telemetry.registry
        self._t_tracer = (telemetry.tracer if telemetry.tracer.active
                          else None)
        reg.counter_source("mgpv.evictions", lambda: self.stats.records_out)
        reg.counter_source("mgpv.fg_syncs", lambda: self.stats.syncs_out)
        self._t_record_cells = reg.histogram("mgpv.record.cells",
                                             DEFAULT_COUNT_BOUNDS)
        reg.gauge_source("mgpv.resident_groups",
                         lambda: self._n_resident)
        reg.gauge_source("mgpv.active_groups", lambda: self.active_groups)
        reg.gauge_source("mgpv.long_buffers_in_use",
                         lambda: self.long_buffers_in_use)

    # -- public API ----------------------------------------------------------

    def insert(self, pkt: Packet, out: list[Event] | None = None
               ) -> list[Event]:
        """Process one packet, appending the switch->NIC events it caused
        to ``out`` (a fresh list when not given) and returning that list.

        Passing a reusable buffer lets a caller inserting packet by
        packet avoid one list allocation per insert; the buffer is *not*
        cleared here — clear it between packets.
        """
        events: list[Event] = [] if out is None else out
        if self._arena is not None:
            self._unpack_cells()
        ts = pkt.tstamp
        if ts > self._now:
            self._now = ts
        stats = self.stats
        stats.pkts_in += 1
        stats.bytes_in += pkt.size
        if self.config.aging_timeout_ns is not None:
            self._aging_scan(events)
        if self._reference:
            route = self._route(self.fg.packet_key(pkt))
            meta = tuple(pkt.field(f) for f in self.metadata_fields)
        else:
            fg_key = self._fg_packet_key(pkt)
            route = self._key_cache.get(fg_key) or self._route(fg_key)
            meta = self._meta_accessor(pkt)
        self._apply(route, ts, (route[3], meta), events)
        if not stats.pkts_in % _OCC_STRIDE:       # one Fig 14 sample
            self._occ_occupied += self._n_resident
            self._occ_active += self.active_groups
        return events

    def insert_batch(self, batch, out: list[Event] | None = None
                     ) -> EventBatch:
        """Columnar twin of :meth:`insert`: one :class:`EventBatch`
        (``out``, when given, is extended with its events as objects)
        from :meth:`_insert_columnar`, equal to inserting the packets one
        at a time — which the reference oracle, aging (its cursor scan
        reads the clock row by row) and non-columnar keys or metadata do.
        """
        cfg = self.config
        if (self._reference or self.fg.batch_key is None
                or cfg.aging_timeout_ns is not None
                or not all(f in PLAIN_FIELDS for f in self.metadata_fields)):
            events = EventBatch.of([e for p in batch for e in self.insert(p)])
        else:
            events = self._insert_columnar(batch)
        if out is not None:
            out.extend(events)
        return events

    def _insert_columnar(self, batch) -> EventBatch:
        """:meth:`insert_batch`'s kernel: the slot-local phase in numpy,
        the ledger, then one assembly of the records, syncs, cells,
        counters, registers and Fig 14 samples."""
        cfg = self.config
        if self._arena is None:
            self._pack_cells()
        n, ns, base = len(batch), cfg.n_short, len(self._arena[0])
        short, full = cfg.short_size, cfg.short_size + cfg.long_size
        routes, inverse = self._batch_routes(batch)
        table = np.array(routes, np.int64).reshape(-1, 5)
        tstamps = batch.column("tstamp")
        # Position space: a marker per resident group the batch reaches (in
        # its slots or as an owner of its FG indices) holding its registers
        # and pending cells, then the rows, stable-sorted by short slot.
        reach = np.zeros(ns + 1, bool)          # (owner -1: reach[ns])
        reach[table[:, 2]] = reach[self._fg_owner[table[:, 3]]] = True
        res, idle = (np.flatnonzero(r[:ns] & (self._slot_key >= 0))
                     for r in (reach, ~reach))
        m, nil = len(res), np.full(len(res), -1)
        table = np.concatenate((np.stack((self._slot_key[res], self._slot_hash[
            res], res, nil, nil), 1), table)).T
        ext = np.append(np.arange(m), m + inverse)
        order = np.argsort(table[2][ext].astype(np.uint16) if ns <= 1 << 16
                           else table[2][ext], kind="stable")
        scg, shash, sslot, sfidx, sfg = table[:, ext[order]]
        srow = order - m                        # the row; < 0: a marker
        srow_n, marker, N = np.append(srow, n), srow < 0, len(order)
        ts = np.append(self._slot_last[res], tstamps)   # last access, row ts
        c_n = np.where(marker, self._pend_n[sslot], 1)  # cells a position has
        off, cell_at = np.append(0, np.cumsum(c_n)), _expand(np.where(
            marker, self._pend_at[sslot], base + srow), c_n)
        head = np.ones(N + 1, bool)             # slot segments, then N
        np.not_equal(sslot[1:], sslot[:-1], out=head[1:N])
        last = np.flatnonzero(head[1:])         # each slot's last position
        life = head.copy()                      # static lifetimes, then N
        life[1:N] |= scg[1:] != scg[:-1]
        ls, lid = np.flatnonzero(life[:N]), np.cumsum(life[:N]) - 1
        lend = np.append(ls, N)[1:][lid]        # a position's lifetime end
        lend_row = srow_n[lend]                 # and the row evicting it
        lend_row[head[lend]] = n                # (n: none in the batch)
        # Each lifetime's first long-buffer request: at the short size, or
        # once a resident group's long buffer filled, which frees it.
        longs = marker[ls] & (self._slot_long[sslot[ls]] >= 0)
        first = ls + short - c_n[ls] + np.where(longs, full, 0)
        mk, filled = ls[longs], first[longs] - short
        free = np.where(filled < lend[mk], srow_n[np.minimum(filled, N)],
                        lend_row[mk])
        held = np.where(self._slot_long >= 0, n, -1)    # the row it returns
        held[sslot[mk]] = free                  # (n: after the batch)
        ends = np.full(ns, n)                   # a resident group's end row
        ends[sslot[marker]] = lend_row[marker]
        same = np.array_equal(table[0, m:], table[4, m:])   # CG == FG

        def syncs(lids, starts):
            # Each FG key's first row per lifetime, but a resident's keys.
            at = starts if same else np.sort(np.unique(lids * (len(
                self._keys) + 1) + sfg + 1, return_index=True)[1])
            return at[~marker[at] & ~(marker[starts][lids[at]] & (
                self._fg_key[sfidx[at]] == sfg[at]))]

        # Phase 2, the ledger: a heap of requests (row << 1 | 1) and FG rows
        # (row << 1), the frees due (row * n_short + slot), chains per slot.
        heap = np.sort(np.append(srow[first[first < lend[ls]]] << 1 | 1,
                                 srow[syncs(lid, ls)] << 1)).tolist()
        frees = np.sort((free * ns + sslot[mk])[free < n]).tolist()
        cap = cfg.n_long if self._long_allowed is None else self._long_allowed
        used, rank = cfg.n_long - self._long_top, np.empty(N, np.int64)
        rank[order] = np.arange(N)
        v_row, v_rank, v_slot, v_start, v_end, v_end_row, v_fg, v_fidx, \
            hv, v_key, v_owner, v_ends = map(memoryview, (
                srow, rank[m:], sslot, ls[lid], lend, lend_row, sfg, sfidx,
                held, self._fg_key, self._fg_owner, ends))
        # Per slot its chain's start, next request and generation; per FG
        # index its holder (key, slot, generation, end row of its lifetime).
        since, nxt, gen, holders, ok, fail, cuts = {}, {}, {}, {}, [], [], []
        while heap:
            key = heappop(heap)
            row = key >> 1
            x = v_rank[row]
            s = v_slot[x]
            while frees and frees[0] < (row + 1) * ns:
                r, t = divmod(heappop(frees), ns)
                if hv[t] == r:
                    hv[t] = -1
                    used -= 1
            if key & 1:
                # The slot's due request (a new lifetime's first), or stale.
                if since.get(s, -1) < v_start[x]:
                    since[s] = v_start[x]
                elif nxt.get(s) != x:
                    continue
                end = v_end[x]
                if used < cap:
                    used += 1
                    ok.append(x)
                    y = x + cfg.long_size
                    r = hv[s] = v_row[y] if y < end else v_end_row[x]
                    if r < n:
                        heappush(frees, r * ns + s)
                    x = y
                else:
                    fail.append(x)
                x = nxt[s] = x + short
                if x < end:
                    heappush(heap, v_row[x] << 1 | 1)
                continue
            f, g = v_fidx[x], v_fg[x]
            h = holders.get(f)
            if h is None and v_key[f] >= 0:
                h = (v_key[f], v_owner[f], 0, v_ends[v_owner[f]])
            if h is not None and gen.get(h[1], 0) == h[2] and row < h[3]:
                if h[0] == g:
                    continue                    # live already: no sync
                t = h[1]
                gen[t] = gen.get(t, 0) + 1
                if hv[t] >= 0:
                    hv[t] = -1
                    used -= 1
                lo, hi = sslot.searchsorted((t, t + 1)).tolist()
                q = bisect_left(v_row, row, lo, hi)
                cuts.append((q, row))
                if q < hi:
                    # A fresh request chain, and each FG key's first row.
                    since[t], e = q, v_end[q]
                    y = nxt[t] = q + short - 1
                    if y < e:
                        heappush(heap, v_row[y] << 1 | 1)
                    for j in (np.unique(sfg[q:e], return_index=True)[1]
                              + q).tolist():
                        heappush(heap, v_row[j] << 1)
            holders[f] = (g, s, gen.get(s, 0), v_end_row[x])

        del lid, lend, lend_row, rank, c_n, ext, heap, v_rank, v_start, v_end, \
            v_end_row                   # freed before the assembly's peak
        # Dynamic lifetimes: the static ones cut where the ledger evicted;
        # each ends at ``erow`` (n: resident), by an FG collision if esub.
        bound = life.copy()
        bound[[q for q, _ in cuts]] = True
        starts, L = np.flatnonzero(bound[:N]), np.cumsum(bound[:N]) - 1
        stops = np.append(starts, N)[1:]
        erow, esub = srow_n[stops], np.zeros(len(starts), np.int64)
        erow[head[stops]] = n
        if cuts:
            q, r = np.array(cuts).T
            erow[L[q - 1]], esub[L[q - 1]] = r, 1
        # Threshold records — failed requests (short_full), filled long
        # buffers (long_full) — take the cells since the last one, and a
        # lifetime's eviction record the rest.
        ok, fail = np.array(ok, np.int64), np.array(fail, np.int64)
        lf = np.append(ok + cfg.long_size, filled)
        lf = lf[lf < stops[L[np.append(ok, mk)]]]
        thr = np.append(fail, lf)
        o = np.argsort(thr)
        thr, reason = thr[o], np.repeat([1, 2], [len(fail), len(lf)])[o]
        t_from = np.maximum(starts[L[thr]], np.append(0, thr[:-1] + 1))
        tail = np.maximum(starts, np.append(0, thr + 1)[np.searchsorted(
            thr + 1, stops, "right")])
        ev, sx = np.flatnonzero(erow < n), syncs(L, starts)
        # Fig 14 samples: a row (a marker: from its last_access) keeps its slot
        # active until its next row, its group's end or ts + window passes.
        samples = np.arange((-self.stats.pkts_in - 1) % _OCC_STRIDE, n,
                            _OCC_STRIDE)
        runmax = np.maximum.accumulate(np.maximum(tstamps, self._now))

        def upto(rows):
            return np.cumsum(np.bincount(rows, minlength=n + 1))[samples]

        self._occ_occupied += int((self._n_resident + upto(srow[starts[
            ~marker[starts]]]) - upto(erow[ev])).sum())
        self._occ_active += int((self._n_resident + samples + 1 - upto(
            np.maximum(np.minimum(np.minimum(np.where(
                head[1:], n, srow_n[1:]), erow[L]), np.searchsorted(
                runmax, ts + _OCC_WINDOW_NS, "right")[order]), srow))
            - upto(np.searchsorted(runmax, self._slot_last[idle]
                                   + _OCC_WINDOW_NS, "right"))).sum())
        src = [np.concatenate(col) for col in zip(self._arena, [table[
            3, m + inverse]] + [batch.column(f) for f in self.metadata_fields])]
        events = self._emit_batch([np.concatenate(col) for col in zip(
            (srow[thr] << 2 | 3, scg[thr], shash[thr], reason, off[t_from],
             off[thr + 1]),
            (erow[ev] << 2 | esub[ev], scg[starts[ev]], shash[starts[ev]],
             0 * ev, off[tail[ev]], off[stops[ev]]))],
            tuple(col[sx if self._wire_syncs else sx[:0]] for col in (
                srow << 2 | 2, sfidx, sfg, shash)), src, cell_at)
        stats = self.stats
        stats.long_allocs += len(ok)
        stats.long_alloc_failures += len(fail)
        stats.fg_collisions += len(cuts)
        # The registers: FG entries of the groups still resident, slots,
        # pending cells (each surviving group's tail, gathered into a fresh
        # arena) and long buffers (the ledger fixed which slots hold one).
        alive, stays = erow == n, np.ones(ns, bool)
        stays[sslot[marker]] = alive[L[marker]]
        owned = np.flatnonzero(self._fg_key >= 0)
        drop = np.append(owned[~stays[self._fg_owner[owned]]], sfidx[sx])
        self._fg_key[drop] = self._fg_owner[drop] = -1
        live = sx[alive[L[sx]]]
        self._fg_key[sfidx[live]], self._fg_owner[sfidx[live]] = sfg[live], \
            sslot[live]
        on, slots = alive[L[last]], sslot[last]
        self._slot_key[slots] = np.where(on, scg[last], -1)
        self._slot_hash[slots] = shash[last]
        self._slot_last[slots] = np.where(on, ts[order[last]], _NEVER)
        self._n_resident = int(np.count_nonzero(self._slot_key >= 0))
        lo, hi = off[tail[L[last[on]]]], off[last[on] + 1]
        at = np.append(_expand(self._pend_at[idle], self._pend_n[idle]),
                       cell_at[_expand(lo, hi - lo)])
        counts = np.append(self._pend_n[idle], hi - lo)
        self._pend_n[slots] = 0
        self._pend_n[np.append(idle, slots[on])] = counts
        self._pend_at[np.append(idle, slots[on])] = np.cumsum(counts) - counts
        self._arena = [col[at] for col in src]
        hold = held == n
        self._long_top = cfg.n_long - int(np.count_nonzero(hold))
        self._long_stack[:] = np.arange(cfg.n_long)
        self._slot_long[:] = np.where(hold, np.cumsum(hold) - 1
                                      + self._long_top, -1)
        stats.pkts_in += n
        stats.bytes_in += int(batch.column("size").sum())
        self._now = int(tstamps.max(initial=self._now))
        return events

    def _emit_batch(self, records: list, syncs: tuple, src: list,
                    cell_at: np.ndarray) -> EventBatch:
        """The :class:`EventBatch` of ``records`` (stream-order key, CG id,
        hash32, reason id, first and end cell: rows ``cell_at`` maps onto
        ``src``) and ``syncs`` (stream-order key, FG index, FG id, owner
        hash32), counted into the stats and telemetry."""
        o, so = np.argsort(records[0]), np.argsort(syncs[0])
        key, cg, hash32, reason, lo, hi = (col[o] for col in records)
        s_key, s_index, s_id, s_hash = (col[so] for col in syncs)
        pos = np.argsort(np.argsort(np.append(key, s_key)))
        # The key table: record keys, then sync keys, by first appearance.
        ids, first, local = np.unique(np.append(cg, s_id), return_index=True,
                                      return_inverse=True)
        rank = np.argsort(first)
        local = np.argsort(rank)[local]
        counts, cells = hi - lo, cell_at[_expand(lo, hi - lo)]
        n_rec, n_sync = len(key), len(s_key)
        cfg, stats = self.config, self.stats
        stats.records_out += n_rec
        stats.cells_out += len(cells)
        stats.syncs_out += n_sync
        stats.bytes_out += (n_rec * (cfg.record_header_bytes + cfg.cg_key_bytes)
                            + len(cells) * cfg.cell_bytes
                            + n_sync * (2 + cfg.fg_key_bytes))
        for name, k in zip(REASONS, np.bincount(reason, minlength=5).tolist()):
            stats.evictions[name] += k
        if self._t_record_cells is not None:
            self._t_record_cells.observe_many(counts)
        return EventBatch(
            list(map(self._keys.__getitem__, ids[rank].tolist())),
            (pos[:n_rec], local[:n_rec], hash32, reason,
             np.cumsum(counts) - counts, counts),
            (pos[n_rec:], s_index, local[n_rec:], s_hash),
            (src[0][cells], tuple(col[cells] for col in src[1:])))

    def process(self, packets: Iterable[Packet],
                flush_at_end: bool = True) -> Iterator[Event]:
        """Drive a whole trace through the cache."""
        buf: list[Event] = []
        for pkt in packets:
            buf.clear()
            self.insert(pkt, buf)
            yield from buf
        if flush_at_end:
            yield from self.flush()

    def flush(self) -> EventBatch:
        """Drain every resident group (end of measurement), in slot
        order: one record per group with pending cells."""
        if self._arena is None:
            self._pack_cells()
        slots = np.flatnonzero((self._slot_key >= 0) & (self._pend_n > 0))
        events = self._emit_batch(
            (slots, self._slot_key[slots], self._slot_hash[slots],
             np.full(len(slots), _REASON_ID["flush"]), self._pend_at[slots],
             self._pend_at[slots] + self._pend_n[slots]), (_NONE,) * 4,
            self._arena, np.arange(len(self._arena[0])))
        self._slot_key[:] = self._slot_long[:] = -1
        self._slot_last[:] = _NEVER
        self._fg_key[:] = self._fg_owner[:] = -1
        self._pend_n[:] = 0
        self._long_top = self.config.n_long
        self._n_resident = 0
        self._arena = [col[:0] for col in self._arena]
        return events

    def counters(self) -> dict:
        """Uniform stage counters (observe convention)."""
        counters = self.stats.as_dict()
        counters["resident_groups"] = self.resident_groups
        counters["long_buffers_in_use"] = self.long_buffers_in_use
        return counters

    @property
    def now_ns(self) -> int:
        """The switch's notion of current time (last packet seen)."""
        return self._now

    @property
    def resident_groups(self) -> int:
        return self._n_resident

    @property
    def active_groups(self) -> int:
        """Resident groups accessed within ``_OCC_WINDOW_NS`` of now."""
        return int(np.count_nonzero(
            self._slot_last >= self._now - _OCC_WINDOW_NS))

    @property
    def long_buffers_in_use(self) -> int:
        return self.config.n_long - self._long_top

    def buffer_efficiency(self) -> float:
        """Time-averaged fraction of occupied buffer slots whose group was
        active within the last ``_OCC_WINDOW_NS`` (Fig 14's
        buffer-efficiency metric), sampled every ``_OCC_STRIDE`` packets."""
        if self._occ_occupied == 0:
            return 1.0
        return self._occ_active / self._occ_occupied

    def memory_bytes(self) -> int:
        """Configured SRAM footprint (Fig 13's memory axis)."""
        return self.config.sram_bytes

    def fg_entry(self, index: int) -> tuple | None:
        """Current key of FG-table slot ``index`` — the authoritative
        copy a lost sync is re-fetched from (link retransmission)."""
        if 0 <= index < self.config.fg_table_size:
            key_id = self._v_fg_key[index]
            return self._keys[key_id] if key_id >= 0 else None
        return None

    def squeeze_long_buffers(self, keep_fraction: float) -> None:
        """Fault injection: clamp the usable long-buffer pool to
        ``keep_fraction`` of the configured count.  Buffers already in
        use stay valid; new allocations fail while usage is at or above
        the clamp, raising buffer-fill-up pressure."""
        if not 0.0 <= keep_fraction <= 1.0:
            raise ValueError("keep_fraction must be in [0, 1]")
        self._long_allowed = int(self.config.n_long * keep_fraction)

    def release_long_buffers(self) -> None:
        """Lift a :meth:`squeeze_long_buffers` clamp."""
        self._long_allowed = None

    # -- internals -----------------------------------------------------------

    def _intern(self, key: tuple) -> int:
        key_id = self._ids.get(key)
        if key_id is None:
            key_id = self._ids[key] = len(self._keys)
            self._keys.append(key)
        return key_id

    def _compact_keys(self) -> None:
        """Renumber the interned keys to the live ones (resident CG keys,
        FG-table keys): the key tables stay bounded by the register sizes
        however many flows pass.  Interned routes hold old ids: dropped."""
        live = np.unique(np.concatenate((self._slot_key, self._fg_key)))
        live = live[live >= 0]
        renumber = np.full(len(self._keys), -1, np.int64)
        renumber[live] = np.arange(len(live))
        for ids in (self._slot_key, self._fg_key):
            held = ids >= 0
            ids[held] = renumber[ids[held]]
        self._keys = [self._keys[i] for i in live.tolist()]
        self._ids = {key: i for i, key in enumerate(self._keys)}
        self._key_cache.clear()

    def _route(self, fg_key: tuple) -> tuple:
        """The per-flow routing tuple ``(cg id, cg hash32, short slot,
        FG-table slot, fg id)`` — a pure function of the FG key and the
        config, interned unless this is the reference oracle.  When the CG
        and FG keys coincide (``flow``) one hash serves both tables."""
        if len(self._keys) > self._key_cap:
            self._compact_keys()
        cfg = self.config
        cg_key = self._cg_project(fg_key)
        hash32 = hash_key(cg_key)
        fg_hash = hash32 if cg_key == fg_key else hash_key(fg_key)
        route = (self._intern(cg_key), hash32, hash32 % cfg.n_short,
                 fg_hash % cfg.fg_table_size, self._intern(fg_key))
        if not self._reference:
            self._key_cache[fg_key] = route
        return route

    def _batch_routes(self, batch) -> tuple[list[tuple], np.ndarray]:
        """The :meth:`_route` of every distinct FG key of ``batch`` (keys
        not routed yet hashed by :func:`hash_key_columns`, and interned
        once when CG and FG keys coincide) and each row's index into that
        list."""
        if len(self._keys) > self._key_cap:
            self._compact_keys()
        cfg = self.config
        columns = self.fg.batch_key(batch)
        first, inverse = _distinct_rows(columns)
        fg_keys = list(zip(*(col[first].tolist() for col in columns)))
        routes = list(map(self._key_cache.get, fg_keys))
        missing = [key for key, route in zip(fg_keys, routes) if route is None]
        if missing:
            cg_keys = list(map(self._cg_project, missing))
            fg_hash = hash_key_columns(list(zip(*missing)))
            fg_ids = list(map(self._intern, missing))
            cg_hash, cg_ids = (fg_hash, fg_ids) if cg_keys == missing else (
                hash_key_columns(list(zip(*cg_keys))),
                list(map(self._intern, cg_keys)))
            self._key_cache.update(zip(missing, zip(
                cg_ids, cg_hash.tolist(), (cg_hash % cfg.n_short).tolist(),
                (fg_hash % cfg.fg_table_size).tolist(), fg_ids)))
            routes = list(map(self._key_cache.__getitem__, fg_keys))
        return routes, inverse

    def _apply(self, route: tuple, ts: int, cell: tuple,
               events: list[Event]) -> None:
        """The slot / FG / cell transitions of one packet whose route is
        resolved: the body of :meth:`insert`."""
        cg_id, hash32, slot, fg_idx, fg_id = route
        key = self._v_key
        if key[slot] != cg_id:
            if key[slot] >= 0:
                # Case 1: hash collision — evict the older group (LRU-like).
                events.append(self._evict(slot, "collision"))
            self._create(slot, cg_id, hash32)
        if self._v_fg_key[fg_idx] != fg_id:
            if self._v_fg_key[fg_idx] >= 0:
                # FG slot collision: the displaced key's owner group must
                # be flushed first — its resident cells reference this
                # index.  It may be this very group: re-create it.
                self.stats.fg_collisions += 1
                events.append(self._evict(self._v_fg_owner[fg_idx],
                                          "collision"))
                if key[slot] != cg_id:
                    self._create(slot, cg_id, hash32)
            self._v_fg_key[fg_idx] = fg_id
            self._v_fg_owner[fg_idx] = slot
            if self._wire_syncs:
                events.append(FGSync(fg_idx, self._keys[fg_id], hash32))
                self.stats.syncs_out += 1
                self.stats.bytes_out += 2 + self.config.fg_key_bytes
        self._v_last[slot] = ts
        cells = self._cells[slot]
        cells.append(cell)
        if len(cells) < self.config.short_size:
            return
        cfg, stats = self.config, self.stats
        if self._v_long[slot] >= 0:
            if len(cells) >= cfg.short_size + cfg.long_size:
                # Case 2b: long buffer full — evict short + long, release
                # the long pointer; the (likely long) flow keeps its entry.
                events.append(self._emit(slot, "long_full"))
                self._free_long(slot)
        elif self._long_top and (self._long_allowed is None
                                 or self.long_buffers_in_use
                                 < self._long_allowed):
            self._long_top -= 1
            self._v_long[slot] = self._v_stack[self._long_top]
            stats.long_allocs += 1
        else:
            # Case 2a: short full, no long buffer — evict the short buffer
            # so it can be reused.
            stats.long_alloc_failures += 1
            events.append(self._emit(slot, "short_full"))

    def _create(self, slot: int, cg_id: int, hash32: int) -> None:
        self._v_key[slot] = cg_id
        self._v_hash[slot] = hash32
        self._cells[slot] = []
        self._n_resident += 1

    def _free_long(self, slot: int) -> None:
        self._v_stack[self._long_top] = self._v_long[slot]
        self._long_top += 1
        self._v_long[slot] = -1

    def _emit(self, slot: int, reason: str) -> MGPVRecord:
        """The record of ``slot``'s pending cells, which it empties."""
        cells = self._cells[slot]
        self._cells[slot] = []
        cfg, stats = self.config, self.stats
        stats.records_out += 1
        stats.cells_out += len(cells)
        stats.bytes_out += (cfg.record_header_bytes + cfg.cg_key_bytes
                            + len(cells) * cfg.cell_bytes)
        stats.evictions[reason] += 1
        if self._t_record_cells is not None:
            self._t_record_cells.observe(len(cells))
        return MGPVRecord(self._keys[self._v_key[slot]], self._v_hash[slot],
                          tuple(cells), reason)

    def _pack_cells(self) -> None:
        """Pending cells from the per-packet form to the arena."""
        slots = np.flatnonzero(self._slot_key >= 0)
        cells = [self._cells[s] for s in slots.tolist()]
        counts = np.fromiter(map(len, cells), np.int64, len(cells))
        self._pend_n[:] = 0
        self._pend_n[slots] = counts
        self._pend_at[slots] = np.cumsum(counts) - counts
        self._arena = [typed_column(list(col)) for col in zip(*(
            (fg, *meta) for fg, meta in chain.from_iterable(cells)))] or [
            _NONE] * (1 + len(self.metadata_fields))
        self._cells = None

    def _unpack_cells(self) -> None:
        """Pending cells from the arena to the per-packet form."""
        fg, *metas = (col.tolist() for col in self._arena)
        pending = list(zip(fg, zip(*metas) if metas else repeat(())))
        self._arena, self._cells = None, [None] * self.config.n_short
        slots = np.flatnonzero(self._slot_key >= 0)
        for s, at, k in zip(slots.tolist(), self._pend_at[slots].tolist(),
                            self._pend_n[slots].tolist()):
            self._cells[s] = pending[at:at + k]

    def _evict(self, slot: int, reason: str) -> MGPVRecord:
        start = perf_counter_ns() if self._t_tracer is not None else 0
        record = self._emit(slot, reason)
        self._remove(slot)
        if self._t_tracer is not None:
            self._t_tracer.record("mgpv.evict", start, perf_counter_ns())
        return record

    def _remove(self, slot: int) -> None:
        """Free a resident slot: its long buffer back onto the stack, the
        FG entries it owns cleared."""
        if self._v_long[slot] >= 0:
            self._free_long(slot)
        owned = np.flatnonzero(self._fg_owner == slot)
        self._fg_key[owned] = self._fg_owner[owned] = -1
        self._v_key[slot] = -1
        self._v_last[slot] = _NEVER
        self._cells[slot] = None
        self._n_resident -= 1

    def _aging_scan(self, events: list[Event]) -> None:
        """Model of the recirculated internal packets: each arriving packet
        advances the scan cursor over a few entries, evicting timed-out
        groups entirely in the data plane (§5.2)."""
        timeout = self.config.aging_timeout_ns
        start = perf_counter_ns() if self._t_tracer is not None else 0
        evicted = False
        for _ in range(self.config.aging_scan_per_pkt):
            slot = self._aging_cursor
            self._aging_cursor = (slot + 1) % self.config.n_short
            if (self._v_key[slot] < 0
                    or self._now - self._v_last[slot] <= timeout):
                continue
            if self._cells[slot]:
                events.append(self._evict(slot, "aging"))
                evicted = True
            else:
                self._remove(slot)
        # Only scans that actually evicted are span-worthy — recording
        # the no-op cursor advance would flood the span buffer.
        if evicted and self._t_tracer is not None:
            self._t_tracer.record("mgpv.recirculate", start,
                                  perf_counter_ns())
