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

The control state is the switch's register arrays at their configured
shapes: per short slot the resident CG key id, hash, long-buffer index and
``last_access``; the long-buffer free stack with a top pointer; the FG
table as key id plus owner slot.  Pending cells stay per-slot lists (their
length is the fill count); keys are interned to exact ids.
"""

from __future__ import annotations

import os
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from heapq import heappop, heappush, heappushpop
from time import perf_counter_ns
from typing import Iterable, Iterator, Union

import numpy as np

from repro.core.granularity import Granularity
from repro.net.packet import PLAIN_FIELDS, Packet, compile_field_accessor
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
        if min(self.n_short, self.short_size, self.n_long, self.long_size,
               self.fg_table_size) < 1:
            raise ValueError("all MGPV sizes must be positive")
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
    ``key`` (§5.1's synchronized hash table)."""

    index: int
    key: tuple

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
        return {
            "pkts_in": self.pkts_in,
            "bytes_in": self.bytes_in,
            "records_out": self.records_out,
            "cells_out": self.cells_out,
            "bytes_out": self.bytes_out,
            "syncs_out": self.syncs_out,
            "evictions": dict(self.evictions),
            "long_allocs": self.long_allocs,
            "long_alloc_failures": self.long_alloc_failures,
            "fg_collisions": self.fg_collisions,
        }


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


class MGPVCache:
    """Functional simulator of the FE-Switch MGPV batching engine.

    Feed packets with :meth:`insert` (a whole ``PacketBatch`` with
    :meth:`insert_batch`, a trace with :meth:`process`); each yields the
    ordered switch->NIC event stream of :class:`FGSync` and
    :class:`MGPVRecord` messages.  Call :meth:`flush` at end-of-trace to
    drain resident groups.
    """

    name = "mgpv"

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
        # Per resident slot: pending cells (short then long) and the FG
        # entries it owns.
        self._cells: list[list | None] = [None] * cfg.n_short
        self._fgs: list[list | None] = [None] * cfg.n_short
        self._n_resident = 0
        self._aging_cursor = 0
        self._long_allowed: int | None = None   # fault-injected squeeze
        self._now = 0
        # Occupancy-time integrals for buffer-efficiency reporting (Fig 14).
        self._occ_occupied = 0
        self._occ_active = 0
        # Telemetry instruments (attach_telemetry); None = not attached.
        # Only amortized paths (_emit/_resolve_fg/_evict/_aging_scan) are
        # instrumented — the per-packet insert body is untouched.
        self._t_tracer = None
        self._t_evictions = None
        self._t_fg_syncs = None
        self._t_record_cells = None

    def attach_telemetry(self, telemetry) -> None:
        """Register the cache's typed instruments: eviction/sync counts,
        the cells-per-record distribution, live occupancy gauges, and
        (when sampling) spans around evictions and aging scans."""
        from repro.core.telemetry import DEFAULT_COUNT_BOUNDS
        reg = telemetry.registry
        self._t_tracer = (telemetry.tracer if telemetry.tracer.active
                          else None)
        self._t_evictions = reg.counter("mgpv.evictions")
        self._t_fg_syncs = reg.counter("mgpv.fg_syncs")
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

        Passing a reusable buffer lets per-packet callers (the dataplane
        loop) avoid one list allocation per insert; the buffer is *not*
        cleared here — clear it between packets.
        """
        events: list[Event] = [] if out is None else out
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
                     ) -> list[Event]:
        """Columnar twin of :meth:`insert`: a per-slot segment kernel.

        Rows are keyed and hashed in numpy and stable-sorted by short slot
        once; only *event* rows — a new group or collision, an FG-table
        miss, a short or long buffer filling — run the scalar body, in row
        order, which also resolves what couples slots (the long-buffer
        pool, FG collisions evicting another slot's group).  Plain appends
        join their slot's pending cells as slices of one slot-sorted cell
        list; the Fig 14 samples come from an interval sweep.  Events,
        counters and state equal inserting the packets one at a time —
        which the reference oracle, aging (its cursor scan reads the clock
        row by row) and non-columnar keys or metadata do.
        """
        events: list[Event] = [] if out is None else out
        cfg = self.config
        if (self._reference or self.fg.batch_key is None
                or cfg.aging_timeout_ns is not None
                or not all(f in PLAIN_FIELDS for f in self.metadata_fields)):
            for pkt in batch:
                self.insert(pkt, events)
            return events
        n = len(batch)
        if not n:
            return events
        routes, inverse = self._batch_routes(batch)
        table = np.array(routes, dtype=np.int64)
        slot_of = table[:, 2][inverse]
        order = np.argsort(slot_of.astype(np.uint16) if cfg.n_short <= 1 << 16
                           else slot_of, kind="stable")
        # Position space: rows in slot order, row order within a slot.
        sinv = inverse[order]
        sslot = slot_of[order]
        scg = table[:, 0][sinv]
        sfg = table[:, 4][sinv]
        tstamps = batch.column("tstamp")
        sts = tstamps[order]
        fg_idx = table[:, 3][sinv].tolist()
        # Metadata tuples first: the collector untracks a cell tuple at
        # once only when its metadata tuple already is.
        meta = (list(zip(*(batch.column(f)[order].tolist()
                           for f in self.metadata_fields)))
                if self.metadata_fields else [()] * n)
        cells = list(zip(fg_idx, meta))
        head = np.ones(n, bool)
        np.not_equal(sslot[1:], sslot[:-1], out=head[1:])
        seg_start = np.flatnonzero(head)
        seg_end = np.append(seg_start[1:], n)
        seg_slot = sslot[seg_start]
        # Static lifetimes (runs of one CG key in one slot) and their
        # candidate events: the first row of each FG key in a lifetime.
        life = head.copy()
        life[1:] |= scg[1:] != scg[:-1]
        lid = np.cumsum(life) - 1
        if np.array_equal(table[:, 0], table[:, 4]):
            cand = life.copy()
        else:
            cand = np.zeros(n, bool)
            cand[np.unique(lid * len(self._keys) + sfg,
                           return_index=True)[1]] = True
        # A slot's first lifetime may continue its resident group: then
        # only FG keys the table does not hold yet are events, and the
        # group's fill level sets its first buffer threshold.
        short_size, full = cfg.short_size, cfg.short_size + cfg.long_size
        thr = np.full(len(seg_start), n)
        carried_seg = self._slot_key[seg_slot] == scg[seg_start]
        if carried_seg.any():
            carried = np.zeros(int(lid[-1]) + 1, bool)
            carried[lid[seg_start[carried_seg]]] = True
            at = np.flatnonzero(carried[lid] & cand)
            cand[at] = self._fg_key[table[:, 3][sinv[at]]] != sfg[at]
            held = seg_slot[carried_seg]
            fill = np.fromiter((len(self._cells[s]) for s in held.tolist()),
                               np.int64, len(held))
            thr[carried_seg] = (seg_start[carried_seg] - fill - 1 + np.where(
                self._slot_long[held] >= 0, full, short_size))
        cand_pos = np.append(np.flatnonzero(cand), n)
        ci = np.searchsorted(cand_pos, seg_start)
        nxt = np.minimum(cand_pos[ci], thr)
        nxt = nxt[nxt < seg_end]
        heap = np.sort((order[nxt] << 32) | nxt).tolist()
        # Fig 14 samples inside this batch start from the resident groups.
        now0 = self._now
        samples = np.arange((-self.stats.pkts_in - 1) % _OCC_STRIDE, n,
                            _OCC_STRIDE)
        before = np.flatnonzero(self._slot_key >= 0)
        before = (before, self._slot_last[before], self._n_resident)

        # The event loop.  Each segment k has a pointer to its first
        # unapplied position; the heap holds (row << 32 | position) of
        # every segment's next event, plus stale entries it skips.
        v_order, v_sinv, v_sts, v_seg = map(memoryview, (
            order, sinv, sts, np.cumsum(head) - 1))
        starts, ptr = seg_start.tolist(), seg_start.tolist()
        ends, slots = seg_end.tolist(), seg_slot.tolist()
        ci, cand_pos = ci.tolist(), cand_pos.tolist()
        life_pos = np.append(np.flatnonzero(life), n).tolist()
        apply, filled, pending = self._apply, self._filled, self._cells
        v_key, v_long = self._v_key, self._v_long
        fg_key, fg_owner = self._v_fg_key, self._v_fg_owner
        resident, res_rows, res_vals = self._n_resident, [], []
        cuts, cut_before = {}, {}   # position / slot -> eviction row
        seg_of = dict(zip(slots, range(len(slots))))

        def restart(k: int, q: int) -> None:
            # Segment k's group restarts at q: queue each FG key's first row.
            stop = life_pos[bisect_right(life_pos, q)]
            for j in (np.unique(sfg[q:stop], return_index=True)[1]
                      + q).tolist():
                heappush(heap, v_order[j] << 32 | j)

        def catch_up(slot: int, row: int) -> None:
            # ``slot`` is about to be evicted at ``row``: apply its plain
            # rows before that, and cut its activity interval there.
            k = seg_of.get(slot)
            if k is None:
                cut_before[slot] = row
                return
            p = ptr[k]
            q = ptr[k] = bisect_left(v_order, row, p, ends[k])
            pending[slot].extend(cells[p:q])
            if q > starts[k]:
                cuts[q - 1] = row
            else:
                cut_before[slot] = row
            if q < ends[k]:
                restart(k, q)

        key = heappop(heap) if heap else -1
        while key >= 0:
            pos = key & 0xFFFFFFFF
            k = v_seg[pos]
            p = ptr[k]
            if pos < p:
                key = heappop(heap) if heap else -1
                continue
            s = slots[k]
            route = routes[v_sinv[pos]]
            if v_key[s] == route[0] and fg_key[route[3]] == route[4]:
                # Resident group, FG hit: a buffer threshold at most.
                pending[s].extend(cells[p:pos + 1])
                filled(s, events)
                p = ptr[k] = pos + 1
            else:
                if pos > p:
                    pending[s].extend(cells[p:pos])
                # An FG collision evicts the displaced key's group:
                # another slot's, or this one's own (when it is not being
                # replaced).
                displaced = fg_key[route[3]]
                owner = (fg_owner[route[3]]
                         if displaced >= 0 and displaced != route[4] else -1)
                if owner >= 0 and owner != s:
                    catch_up(owner, key >> 32)
                own = owner == s and v_key[s] == route[0]
                apply(route, v_sts[pos], cells[pos], events)
                p = ptr[k] = pos + 1
                if own:
                    restart(k, pos)
                if self._n_resident != resident:
                    resident = self._n_resident
                    res_rows.append(key >> 32)
                    res_vals.append(resident)
            c = ci[k]
            while cand_pos[c] < p:
                c += 1
            ci[k] = c
            nxt = cand_pos[c]
            thr = pos + (full if v_long[s] >= 0 else short_size) - len(
                pending[s])
            if thr < nxt:
                nxt = thr
            if nxt < ends[k]:
                key = heappushpop(heap, v_order[nxt] << 32 | nxt)
            else:
                key = heappop(heap) if heap else -1

        for s, p, e in zip(slots, ptr, ends):
            if p < e:
                pending[s].extend(cells[p:e])
        held = self._slot_key[seg_slot] >= 0
        self._slot_last[seg_slot[held]] = sts[seg_end[held] - 1]
        if len(samples):
            # A row keeps its slot active until the slot's next row, an
            # eviction, or the clock passing ts + window.
            runmax = np.maximum.accumulate(np.maximum(tstamps, now0))
            expire = np.searchsorted(runmax, tstamps + _OCC_WINDOW_NS,
                                     "right")
            end = np.append(order[1:], n)
            end[seg_end - 1] = n
            np.minimum(end, expire[order], out=end)
            for pos, row in cuts.items():
                end[pos] = min(end[pos], row)
            np.maximum(end, order, out=end)
            # A group resident before: until touched, evicted or expired.
            stop = np.full(cfg.n_short, n)
            stop[seg_slot] = order[seg_start]
            stop[list(cut_before)] = list(cut_before.values())
            carried_end = np.minimum(stop[before[0]], np.searchsorted(
                runmax, before[1] + _OCC_WINDOW_NS, "right"))
            ended = np.cumsum(np.bincount(end, minlength=n + 1))[samples]
            alive = len(carried_end) - np.cumsum(np.bincount(
                carried_end, minlength=n + 1))[samples]
            occupied = np.asarray(res_vals + [before[2]])[
                np.searchsorted(res_rows, samples, "right") - 1]
            self._occ_occupied += int(occupied.sum())
            self._occ_active += int((samples + 1 - ended + alive).sum())
        self.stats.pkts_in += n
        self.stats.bytes_in += int(batch.column("size").sum())
        self._now = max(now0, int(tstamps.max()))
        return events

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

    def flush(self) -> list[Event]:
        """Drain every resident group (end of measurement)."""
        events = []
        for slot in np.flatnonzero(self._slot_key >= 0).tolist():
            if self._cells[slot]:
                events.append(self._evict(slot, "flush"))
            else:
                self._remove(slot)
        return events

    def consume(self, pkt: Packet) -> list[Event]:
        """Dataplane stage protocol: alias of :meth:`insert`."""
        return self.insert(pkt)

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
        not routed yet hashed by :func:`hash_key_columns`) and each row's
        index into that list."""
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
            cg_hash = (fg_hash if cg_keys == missing
                       else hash_key_columns(list(zip(*cg_keys))))
            self._key_cache.update(zip(missing, zip(
                map(self._intern, cg_keys), cg_hash.tolist(),
                (cg_hash % cfg.n_short).tolist(),
                (fg_hash % cfg.fg_table_size).tolist(),
                map(self._intern, missing))))
            routes = list(map(self._key_cache.__getitem__, fg_keys))
        return routes, inverse

    def _apply(self, route: tuple, ts: int, cell: tuple,
               events: list[Event]) -> None:
        """The slot / FG / cell transitions of one packet whose route is
        resolved: the body of :meth:`insert` and of every event row of
        :meth:`insert_batch`."""
        cg_id, hash32, slot, fg_idx, fg_id = route
        key = self._v_key
        if key[slot] != cg_id:
            if key[slot] >= 0:
                # Case 1: hash collision — evict the older group (LRU-like).
                events.append(self._evict(slot, "collision"))
            self._create(slot, cg_id, hash32)
        if self._v_fg_key[fg_idx] != fg_id:
            self._resolve_fg(fg_id, fg_idx, slot, events)
            # The FG collision may have evicted this very group (the
            # displaced key projected onto it); re-create it.
            if key[slot] != cg_id:
                self._create(slot, cg_id, hash32)
            self._fgs[slot].append(fg_idx)
        self._v_last[slot] = ts
        cells = self._cells[slot]
        cells.append(cell)
        if len(cells) >= self.config.short_size:
            self._filled(slot, events)

    def _filled(self, slot: int, events: list[Event]) -> None:
        """The buffer transition, if any, due to ``slot``'s pending cells
        (at most one threshold crossed since the last call)."""
        cfg = self.config
        if self._v_long[slot] >= 0:
            if len(self._cells[slot]) >= cfg.short_size + cfg.long_size:
                # Case 2b: long buffer full — evict short + long, release
                # the long pointer; the (likely long) flow keeps its entry.
                events.append(self._emit(slot, "long_full"))
                self._free_long(slot)
        elif len(self._cells[slot]) >= cfg.short_size:
            if self._long_top and (self._long_allowed is None
                                   or self.long_buffers_in_use
                                   < self._long_allowed):
                self._long_top -= 1
                self._v_long[slot] = self._v_stack[self._long_top]
                self.stats.long_allocs += 1
            else:
                # Case 2a: short full, no long buffer — evict the short
                # buffer so it can be reused.
                self.stats.long_alloc_failures += 1
                events.append(self._emit(slot, "short_full"))

    def _create(self, slot: int, cg_id: int, hash32: int) -> None:
        self._v_key[slot] = cg_id
        self._v_hash[slot] = hash32
        self._cells[slot] = []
        self._fgs[slot] = []
        self._n_resident += 1

    def _free_long(self, slot: int) -> None:
        self._v_stack[self._long_top] = self._v_long[slot]
        self._long_top += 1
        self._v_long[slot] = -1

    def _resolve_fg(self, fg_id: int, fg_idx: int, inserting_slot: int,
                    events: list[Event]) -> None:
        """Install key ``fg_id`` into FG-table slot ``fg_idx`` (the caller
        checked it is not already there), appending the sync — and any
        collision eviction — to ``events``."""
        if self._v_fg_key[fg_idx] >= 0:
            # FG slot collision: the displaced key's owner group must be
            # flushed first — its resident cells reference this index.
            self.stats.fg_collisions += 1
            events.append(self._evict(self._v_fg_owner[fg_idx],
                                      "collision"))
        self._v_fg_key[fg_idx] = fg_id
        self._v_fg_owner[fg_idx] = inserting_slot
        sync = FGSync(fg_idx, self._keys[fg_id])
        events.append(sync)
        self.stats.syncs_out += 1
        self.stats.bytes_out += sync.wire_bytes(self.config)
        if self._t_fg_syncs is not None:
            self._t_fg_syncs.inc()

    def _emit(self, slot: int, reason: str) -> MGPVRecord:
        """The record of ``slot``'s pending cells, which it empties."""
        record = MGPVRecord(
            cg_key=self._keys[self._v_key[slot]],
            cg_hash32=self._v_hash[slot],
            cells=tuple(self._cells[slot]), reason=reason)
        self._cells[slot] = []
        self.stats.records_out += 1
        self.stats.cells_out += len(record.cells)
        self.stats.bytes_out += record.wire_bytes(self.config)
        self.stats.evictions[reason] += 1
        if self._t_evictions is not None:
            self._t_evictions.inc()
            self._t_record_cells.observe(len(record.cells))
        return record

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
        for fg_idx in self._fgs[slot]:
            self._v_fg_key[fg_idx] = -1
            self._v_fg_owner[fg_idx] = -1
        self._v_key[slot] = -1
        self._v_last[slot] = _NEVER
        self._cells[slot] = self._fgs[slot] = None
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
