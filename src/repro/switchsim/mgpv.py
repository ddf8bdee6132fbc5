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
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from heapq import heapify, heappop, heappush
from itertools import islice
from time import perf_counter_ns
from typing import Iterable, Iterator, Union

from repro.core.granularity import Granularity
from repro.net.packet import PLAIN_FIELDS, Packet, compile_field_accessor
from repro.streaming.hyperloglog import hash_key, hash_key_columns

#: Flows whose (cg_key, hash, slot, fg-slot) route is interned before the
#: cache is wiped.  The route is a pure function of the FG key, so the
#: cache never needs invalidation — the cap only bounds memory.
_KEY_CACHE_CAP = 1 << 17

#: Fig 14 buffer-efficiency accounting: occupancy is sampled every
#: ``_OCC_STRIDE`` packets, and a resident group counts as *active* when
#: it was last accessed within ``_OCC_WINDOW_NS`` of the running clock.
_OCC_STRIDE = 64
_OCC_WINDOW_NS = 100_000_000


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


class _Entry:
    """One CG group resident in the cache."""

    __slots__ = ("cg_key", "hash32", "short", "long", "long_idx",
                 "last_access", "fg_indices", "qkey")

    def __init__(self, cg_key: tuple, hash32: int, now: int) -> None:
        self.cg_key = cg_key
        self.hash32 = hash32
        self.short: list = []
        self.long: list = []
        self.long_idx: int | None = None
        self.last_access = now
        self.fg_indices: set[int] = set()
        # The group's live key in the cache's lazy-expiry heap; None
        # until first touched and again once its active window lapsed.
        self.qkey: int | None = None


class MGPVCache:
    """Functional simulator of the FE-Switch MGPV batching engine.

    Feed packets with :meth:`insert` (or drive a whole trace with
    :meth:`process`); it yields the ordered switch->NIC event stream of
    :class:`FGSync` and :class:`MGPVRecord` messages.  Call :meth:`flush`
    at end-of-trace to drain resident groups.
    """

    name = "mgpv"

    def __init__(self, cg: Granularity, fg: Granularity,
                 config: MGPVConfig | None = None,
                 metadata_fields: tuple[str, ...] = ("size", "tstamp"),
                 ) -> None:
        self.cg = cg
        self.fg = fg
        self.config = config or MGPVConfig()
        self.metadata_fields = metadata_fields
        self.stats = CacheStats()
        # Hot-path precompilation: the metadata accessor replaces the
        # per-packet string dispatch of Packet.field; the key cache
        # interns per-flow routing so repeated packets of a flow skip key
        # projection and hashing entirely.  SUPERFE_REFERENCE_PATH=1
        # keeps the original per-packet code as an equivalence oracle.
        self._meta_accessor = compile_field_accessor(tuple(metadata_fields))
        self._fg_packet_key = fg.packet_key
        self._cg_project = cg.project
        self._key_cache: dict[tuple, tuple] = {}
        self._reference = os.environ.get("SUPERFE_REFERENCE_PATH") == "1"
        self._slots: list[_Entry | None] = [None] * self.config.n_short
        self._occupied: set[int] = set()    # indices of resident entries
        self._long_stack: list[int] = list(range(self.config.n_long))
        self._fg_keys: list[tuple | None] = [None] * self.config.fg_table_size
        self._fg_owner_slot: list[int | None] = (
            [None] * self.config.fg_table_size)
        self._aging_cursor = 0
        self._long_allowed: int | None = None   # fault-injected squeeze
        self._now = 0
        # Occupancy-time integrals for buffer-efficiency reporting (Fig 14)
        # and the incremental active-group accounting behind them: the
        # count of entries holding a qkey, and a min-heap of plain-int
        # keys ``last_access * n_short + slot`` (never _Entry references,
        # so an evicted group is garbage at once) expired lazily at the
        # sample points.
        self._occ_occupied = 0
        self._occ_active = 0
        self._n_active = 0
        self._expiry: list[int] = []
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
                         lambda: len(self._occupied))
        reg.gauge_source("mgpv.active_groups", lambda: self._n_active)
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
        if self._reference:
            return self._insert_reference(pkt, out)
        events: list[Event] = [] if out is None else out
        self._now = max(self._now, pkt.tstamp)
        self.stats.pkts_in += 1
        self.stats.bytes_in += pkt.size

        if self.config.aging_timeout_ns is not None:
            self._aging_scan(events)

        fg_key = self._fg_packet_key(pkt)
        route = self._key_cache.get(fg_key)
        if route is None:
            route = self._compute_route(fg_key)
        self._insert_routed(fg_key, route, pkt.tstamp,
                            self._meta_accessor(pkt), events)
        if not self.stats.pkts_in % _OCC_STRIDE:
            self._sample_occupancy()
        return events

    def insert_batch(self, batch, out: list[Event] | None = None
                     ) -> list[Event]:
        """Columnar twin of :meth:`insert` over a whole
        :class:`~repro.net.packet.PacketBatch`: keys come from the
        granularity's vectorized ``batch_key`` kernel, routes for
        cache-missing flows are hashed in one :func:`hash_key_columns`
        sweep, and metadata cells are materialized from column lists —
        the stateful slot/buffer walk then runs as a tight loop with no
        Packet objects in sight.  Event stream, counters, and cache state
        transitions are identical to inserting the packets one at a time
        (the reference mode and non-columnar key/metadata configurations
        fall back to exactly that).
        """
        events: list[Event] = [] if out is None else out
        batch_key = self.fg.batch_key
        if (self._reference or batch_key is None
                or not all(f in PLAIN_FIELDS for f in self.metadata_fields)):
            for pkt in batch:
                self.insert(pkt, events)
            return events
        n = len(batch)
        if not n:
            return events

        fg_keys = batch_key(batch)
        tstamps, sizes = batch.column_lists(("tstamp", "size"))
        if self.metadata_fields:
            meta_rows = list(zip(*batch.column_lists(self.metadata_fields)))
        else:
            meta_rows = [()] * n

        # Resolve each distinct flow's routing tuple once: cached routes
        # are reused, the rest are hashed column-wise in two sweeps (CG
        # keys, then the FG keys that differ from their CG projection).
        routes: dict[tuple, tuple] = {}
        key_cache = self._key_cache
        missing = []
        for k in dict.fromkeys(fg_keys):
            route = key_cache.get(k)
            if route is None:
                missing.append(k)
            else:
                routes[k] = route
        if missing:
            cfg = self.config
            project = self._cg_project
            cg_keys = [project(k) for k in missing]
            cg_hashes = hash_key_columns(list(zip(*cg_keys))).tolist()
            distinct = [i for i, (f, c) in enumerate(zip(missing, cg_keys))
                        if f != c]
            if distinct:
                fg_hashes = hash_key_columns(
                    list(zip(*(missing[i] for i in distinct)))).tolist()
                fg_idx_by_row = dict(zip(
                    distinct,
                    (h % cfg.fg_table_size for h in fg_hashes)))
            else:
                fg_idx_by_row = {}
            for i, (fg_key, cg_key) in enumerate(zip(missing, cg_keys)):
                hash32 = cg_hashes[i]
                fg_idx = fg_idx_by_row.get(i, hash32 % cfg.fg_table_size)
                route = (cg_key, hash32, hash32 % cfg.n_short, fg_idx)
                routes[fg_key] = route
                if len(key_cache) >= _KEY_CACHE_CAP:
                    key_cache.clear()
                key_cache[fg_key] = route

        # Per-row route references resolved in one C pass (the dict is
        # fully populated above, so this cannot miss).
        rr = list(map(routes.__getitem__, fg_keys))

        stats = self.stats
        slots = self._slots
        fg_table = self._fg_keys
        occupied = self._occupied
        if self.config.aging_timeout_ns is not None:
            # Aging interleaves a cursor scan that reads the running
            # clock between rows — keep the straightforward loop with
            # per-row attribute sync for that configuration.
            for i in range(n):
                ts = tstamps[i]
                if ts > self._now:
                    self._now = ts
                stats.pkts_in += 1
                stats.bytes_in += sizes[i]
                self._aging_scan(events)
                self._insert_routed(fg_keys[i], rr[i], ts, meta_rows[i],
                                    events)
                if not stats.pkts_in % _OCC_STRIDE:
                    self._sample_occupancy()
            return events

        # Hot loop: nothing below reads pkts_in/bytes_in or the clock
        # mid-row (eviction and emission account their own fields), so
        # the rows run in chunks delimited by the occupancy sample
        # stride — the stride check, the packet/byte totals, and
        # the clock running-max leave the per-row body entirely and
        # resolve in C over each chunk's slices.  The `is not` guards
        # shortcut the tuple comparisons — routes are interned, so a
        # resident entry's key is usually the identical object.
        cfg = self.config
        short_size = cfg.short_size
        long_size = cfg.long_size
        long_stack = self._long_stack
        now = self._now
        pkts_in = stats.pkts_in
        rows = zip(tstamps, rr, fg_keys, meta_rows)
        start = 0
        while start < n:
            chunk = _OCC_STRIDE - (pkts_in % _OCC_STRIDE)
            if start + chunk > n:
                chunk = n - start
            for ts, route, fg_key, meta in islice(rows, chunk):
                cg_key, h32, slot_idx, fg_idx = route

                entry = slots[slot_idx]
                if entry is None:
                    entry = _Entry(cg_key, h32, ts)
                    slots[slot_idx] = entry
                    occupied.add(slot_idx)
                else:
                    ek = entry.cg_key
                    if ek is not cg_key and ek != cg_key:
                        events.append(self._evict(slot_idx, "collision"))
                        entry = _Entry(cg_key, h32, ts)
                        slots[slot_idx] = entry
                        occupied.add(slot_idx)

                resident = fg_table[fg_idx]
                if resident is not fg_key and resident != fg_key:
                    self._resolve_fg(fg_key, fg_idx, slot_idx, events)
                    entry = slots[slot_idx]
                    if entry is None or entry.cg_key != cg_key:
                        entry = _Entry(cg_key, h32, ts)
                        slots[slot_idx] = entry
                        occupied.add(slot_idx)
                entry.fg_indices.add(fg_idx)
                if entry.qkey is None or ts < entry.last_access:
                    self._activate(entry, slot_idx, ts)
                entry.last_access = ts

                # _append_cell inlined (same transitions, accounting).
                cell = (fg_idx, meta)
                if entry.long_idx is not None:
                    long = entry.long
                    long.append(cell)
                    if len(long) >= long_size:
                        events.append(self._emit(entry, "long_full"))
                        long_stack.append(entry.long_idx)
                        entry.long_idx = None
                        entry.short = []
                        entry.long = []
                else:
                    short = entry.short
                    short.append(cell)
                    if len(short) >= short_size:
                        allowed = (self._long_allowed is None
                                   or self.long_buffers_in_use
                                   < self._long_allowed)
                        if long_stack and allowed:
                            entry.long_idx = long_stack.pop()
                            stats.long_allocs += 1
                        else:
                            stats.long_alloc_failures += 1
                            events.append(self._emit(entry, "short_full"))
                            entry.short = []
            end = start + chunk
            mx = max(tstamps[start:end])
            if mx > now:
                now = mx
            pkts_in += chunk
            start = end
            if not pkts_in % _OCC_STRIDE:
                stats.pkts_in = pkts_in
                self._now = now
                self._sample_occupancy()
        stats.pkts_in = pkts_in
        stats.bytes_in += sum(sizes)
        self._now = now
        return events

    def _insert_routed(self, fg_key: tuple, route: tuple, ts: int,
                       meta: tuple, events: list[Event]) -> None:
        """The slot/FG/cell transitions of one packet whose route is
        resolved: the body of :meth:`insert` and of one row of
        :meth:`insert_batch`'s aging loop."""
        cg_key, hash32, slot_idx, fg_idx = route
        slots = self._slots
        entry = slots[slot_idx]
        if entry is not None and entry.cg_key != cg_key:
            # Case 1: hash collision — evict the older group (LRU-like).
            events.append(self._evict(slot_idx, "collision"))
            entry = None
        if entry is None:
            entry = _Entry(cg_key, hash32, ts)
            slots[slot_idx] = entry
            self._occupied.add(slot_idx)

        if self._fg_keys[fg_idx] != fg_key:
            self._resolve_fg(fg_key, fg_idx, slot_idx, events)
            # The FG collision path may have evicted our own entry (when
            # the displaced FG key belonged to this CG group); re-create.
            entry = slots[slot_idx]
            if entry is None or entry.cg_key != cg_key:
                entry = _Entry(cg_key, hash32, ts)
                slots[slot_idx] = entry
                self._occupied.add(slot_idx)
        entry.fg_indices.add(fg_idx)
        if entry.qkey is None or ts < entry.last_access:
            self._activate(entry, slot_idx, ts)
        entry.last_access = ts
        self._append_cell(slot_idx, entry, (fg_idx, meta), events)

    def _insert_reference(self, pkt: Packet, out: list[Event] | None = None
                          ) -> list[Event]:
        """The pre-optimization per-packet path, kept verbatim as the
        equivalence oracle behind ``SUPERFE_REFERENCE_PATH=1``: string
        dispatch per metadata field, key projection and (double) hashing
        on every packet, no interned routes."""
        self._now = max(self._now, pkt.tstamp)
        self.stats.pkts_in += 1
        self.stats.bytes_in += pkt.size
        events: list[Event] = [] if out is None else out

        if self.config.aging_timeout_ns is not None:
            self._aging_scan(events)

        fg_key = self.fg.packet_key(pkt)
        cg_key = self.cg.project(fg_key)
        hash32 = hash_key(cg_key)
        slot_idx = hash32 % self.config.n_short

        entry = self._slots[slot_idx]
        if entry is not None and entry.cg_key != cg_key:
            events.append(self._evict(slot_idx, "collision"))
            entry = None
        if entry is None:
            entry = _Entry(cg_key, hash32, pkt.tstamp)
            self._slots[slot_idx] = entry
            self._occupied.add(slot_idx)

        fg_idx = hash_key(fg_key) % self.config.fg_table_size
        if self._fg_keys[fg_idx] != fg_key:
            self._resolve_fg(fg_key, fg_idx, slot_idx, events)
            entry = self._slots[slot_idx]
            if entry is None or entry.cg_key != cg_key:
                entry = _Entry(cg_key, hash32, pkt.tstamp)
                self._slots[slot_idx] = entry
                self._occupied.add(slot_idx)
        entry.fg_indices.add(fg_idx)
        if entry.qkey is None or pkt.tstamp < entry.last_access:
            self._activate(entry, slot_idx, pkt.tstamp)
        entry.last_access = pkt.tstamp

        cell = (fg_idx, tuple(pkt.field(f) for f in self.metadata_fields))
        self._append_cell(slot_idx, entry, cell, events)
        if not self.stats.pkts_in % _OCC_STRIDE:
            self._sample_occupancy()
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
        for idx in sorted(self._occupied):
            entry = self._slots[idx]
            if entry is not None and (entry.short or entry.long):
                events.append(self._evict(idx, "flush"))
            elif entry is not None:
                self._remove(idx)
        self._expiry.clear()    # nothing resident: every key is stale
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
        return len(self._occupied)

    @property
    def long_buffers_in_use(self) -> int:
        return self.config.n_long - len(self._long_stack)

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
            return self._fg_keys[index]
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

    def _compute_route(self, fg_key: tuple) -> tuple:
        """Intern the per-flow routing tuple ``(cg_key, cg_hash32,
        short-slot index, FG-table index)``.

        Every element is a pure function of the FG key and the (fixed)
        config, so the cache needs no invalidation.  When the CG and FG
        keys coincide (single-granularity chains such as ``flow``) one
        hash serves both tables — the switch would otherwise hash the
        same bytes twice per packet.
        """
        cg_key = self._cg_project(fg_key)
        hash32 = hash_key(cg_key)
        if cg_key == fg_key:
            fg_idx = hash32 % self.config.fg_table_size
        else:
            fg_idx = hash_key(fg_key) % self.config.fg_table_size
        route = (cg_key, hash32, hash32 % self.config.n_short, fg_idx)
        cache = self._key_cache
        if len(cache) >= _KEY_CACHE_CAP:
            cache.clear()
        cache[fg_key] = route
        return route

    def _resolve_fg(self, fg_key: tuple, fg_idx: int, inserting_slot: int,
                    events: list[Event]) -> None:
        """Install ``fg_key`` into FG-table slot ``fg_idx`` (the caller
        checked it is not already there), appending the sync — and any
        collision eviction — to ``events``."""
        existing = self._fg_keys[fg_idx]
        if existing is not None:
            # FG slot collision: the displaced key's owner group must be
            # flushed first — its resident cells reference this index.
            self.stats.fg_collisions += 1
            owner = self._fg_owner_slot[fg_idx]
            if owner is not None and self._slots[owner] is not None:
                events.append(self._evict(owner, "collision"))
        self._fg_keys[fg_idx] = fg_key
        self._fg_owner_slot[fg_idx] = inserting_slot
        sync = FGSync(fg_idx, fg_key)
        events.append(sync)
        self.stats.syncs_out += 1
        self.stats.bytes_out += sync.wire_bytes(self.config)
        if self._t_fg_syncs is not None:
            self._t_fg_syncs.inc()

    def _append_cell(self, slot_idx: int, entry: _Entry, cell,
                     events: list[Event]) -> None:
        cfg = self.config
        if entry.long_idx is not None:
            entry.long.append(cell)
            if len(entry.long) >= cfg.long_size:
                # Case 2b: long buffer full — evict short + long, release
                # the long pointer; the (likely long) flow keeps its entry.
                events.append(self._emit(entry, "long_full"))
                self._long_stack.append(entry.long_idx)
                entry.long_idx = None
                entry.short = []
                entry.long = []
            return
        entry.short.append(cell)
        if len(entry.short) >= cfg.short_size:
            allowed = (self._long_allowed is None
                       or self.long_buffers_in_use < self._long_allowed)
            if self._long_stack and allowed:
                entry.long_idx = self._long_stack.pop()
                self.stats.long_allocs += 1
            else:
                # Case 2a: short full, no long buffer — evict the short
                # buffer so it can be reused.
                self.stats.long_alloc_failures += 1
                events.append(self._emit(entry, "short_full"))
                entry.short = []

    def _emit(self, entry: _Entry, reason: str) -> MGPVRecord:
        record = MGPVRecord(
            cg_key=entry.cg_key, cg_hash32=entry.hash32,
            cells=tuple(entry.short) + tuple(entry.long), reason=reason)
        self.stats.records_out += 1
        self.stats.cells_out += len(record.cells)
        self.stats.bytes_out += record.wire_bytes(self.config)
        self.stats.evictions[reason] += 1
        if self._t_evictions is not None:
            self._t_evictions.inc()
            self._t_record_cells.observe(len(record.cells))
        return record

    def _evict(self, slot_idx: int, reason: str) -> MGPVRecord:
        entry = self._slots[slot_idx]
        assert entry is not None
        if self._t_tracer is not None:
            start = perf_counter_ns()
            record = self._emit(entry, reason)
            self._remove(slot_idx)
            self._t_tracer.record("mgpv.evict", start, perf_counter_ns())
            return record
        record = self._emit(entry, reason)
        self._remove(slot_idx)
        return record

    def _remove(self, slot_idx: int) -> None:
        entry = self._slots[slot_idx]
        if entry is None:
            return
        if entry.long_idx is not None:
            self._long_stack.append(entry.long_idx)
        for fg_idx in entry.fg_indices:
            if self._fg_owner_slot[fg_idx] == slot_idx:
                self._fg_keys[fg_idx] = None
                self._fg_owner_slot[fg_idx] = None
        if entry.qkey is not None:
            self._n_active -= 1     # its heap key goes stale in place
        self._slots[slot_idx] = None
        self._occupied.discard(slot_idx)

    def _aging_scan(self, events: list[Event]) -> None:
        """Model of the recirculated internal packets: each arriving packet
        advances the scan cursor over a few entries, evicting timed-out
        groups entirely in the data plane (§5.2)."""
        timeout = self.config.aging_timeout_ns
        assert timeout is not None
        start = (perf_counter_ns() if self._t_tracer is not None
                 else 0)
        evicted = False
        for _ in range(self.config.aging_scan_per_pkt):
            idx = self._aging_cursor
            self._aging_cursor = (idx + 1) % self.config.n_short
            entry = self._slots[idx]
            if entry is None:
                continue
            if self._now - entry.last_access > timeout:
                if entry.short or entry.long:
                    events.append(self._evict(idx, "aging"))
                    evicted = True
                else:
                    self._remove(idx)
        # Only scans that actually evicted are span-worthy — recording
        # the no-op cursor advance would flood the span buffer.
        if evicted and self._t_tracer is not None:
            self._t_tracer.record("mgpv.recirculate", start,
                                  perf_counter_ns())

    def _activate(self, entry: _Entry, slot_idx: int, ts: int) -> None:
        """Active-group accounting hook of every insert path, reached
        when ``entry`` holds no heap key (new, or expired) or is being
        refreshed to an *older* timestamp — and of the sampler's re-key:
        key it at ``ts``, so its live key never postdates its
        ``last_access``."""
        if entry.qkey is None:
            self._n_active += 1
        entry.qkey = key = ts * self.config.n_short + slot_idx
        heappush(self._expiry, key)

    def _sample_occupancy(self) -> None:
        """Take one Fig 14 sample (callers gate on ``_OCC_STRIDE``).

        Heap keys older than the active window are popped: a key that is
        no longer its slot's live ``qkey`` is stale (group evicted or
        re-keyed); a group refreshed since is re-keyed at its
        ``last_access``; otherwise the group expires.  The clock only
        moves forward, so afterwards every keyed group is inside the
        window and every unkeyed one outside — ``_n_active`` equals a
        full rescan of the resident groups, at O(expired) cost."""
        n_short = self.config.n_short
        slots = self._slots
        heap = self._expiry
        threshold = self._now - _OCC_WINDOW_NS
        limit = threshold * n_short
        while heap and heap[0] < limit:
            key = heappop(heap)
            slot_idx = key % n_short
            entry = slots[slot_idx]
            if entry is None or entry.qkey != key:
                continue
            if entry.last_access >= threshold:
                self._activate(entry, slot_idx, entry.last_access)
            else:
                entry.qkey = None
                self._n_active -= 1
        resident = len(self._occupied)
        if len(heap) > 2 * resident + 64:
            # Eviction churn left mostly stale keys: rebuild from the
            # live ones (amortised over the pushes that got us here).
            heap[:] = [k for k in (slots[idx].qkey for idx in self._occupied)
                       if k is not None]
            heapify(heap)
        self._occ_occupied += resident
        self._occ_active += self._n_active
