"""Single-granularity GPV cache — the *Flow baseline (§5.1, Fig 6/13).

A GPV stores a flow key plus a variable-length list of packet metadata at
*one* granularity.  An application needing features at k granularities
must run k independent GPV instances, each holding its own copy of every
packet's metadata — the linear memory/bandwidth growth that Fig 13
contrasts with MGPV's single shared copy.

Implementation-wise a GPV cache is an MGPV whose CG and FG coincide and
whose FG-key table is unnecessary (the group key *is* the only key); we
model it directly for the separate byte accounting.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from repro.core.granularity import Granularity
from repro.net.packet import Packet
from repro.streaming.hyperloglog import hash_key
from repro.switchsim.mgpv import CacheStats, MGPVConfig, MGPVRecord


class GPVCache:
    """One-granularity grouped packet vectors, *Flow style."""

    def __init__(self, granularity: Granularity,
                 config: MGPVConfig | None = None,
                 metadata_fields: tuple[str, ...] = ("size", "tstamp"),
                 ) -> None:
        self.granularity = granularity
        self.config = config or MGPVConfig()
        self.metadata_fields = metadata_fields
        self.stats = CacheStats()
        self._slots: list = [None] * self.config.n_short
        self._long_stack = list(range(self.config.n_long))

    def memory_bytes(self) -> int:
        """SRAM footprint of this instance: buffers + per-group keys
        (no FG table)."""
        cfg = self.config
        key_bytes = max(self.granularity.key_bytes, 4)
        short = cfg.n_short * (cfg.short_size * cfg.cell_bytes
                               + key_bytes + 8)
        long = cfg.n_long * cfg.long_size * cfg.cell_bytes
        return short + long + cfg.n_long * 2

    def insert(self, pkt: Packet) -> list[MGPVRecord]:
        self.stats.pkts_in += 1
        self.stats.bytes_in += pkt.size
        key = self.granularity.packet_key(pkt)
        hash32 = hash_key(key)
        slot = hash32 % self.config.n_short
        events: list[MGPVRecord] = []
        entry = self._slots[slot]
        if entry is not None and entry[0] != key:
            events.append(self._evict(slot, "collision"))
            entry = None
        if entry is None:
            entry = [key, hash32, [], [], None]
            self._slots[slot] = entry
        cell = (0, tuple(pkt.field(f) for f in self.metadata_fields))
        _, _, short, long, long_idx = entry
        if long_idx is not None:
            long.append(cell)
            if len(long) >= self.config.long_size:
                events.append(self._emit(entry, "long_full"))
                self._long_stack.append(long_idx)
                entry[2], entry[3], entry[4] = [], [], None
        else:
            short.append(cell)
            if len(short) >= self.config.short_size:
                if self._long_stack:
                    entry[4] = self._long_stack.pop()
                    self.stats.long_allocs += 1
                else:
                    self.stats.long_alloc_failures += 1
                    events.append(self._emit(entry, "short_full"))
                    entry[2] = []
        return events

    def process(self, packets: Iterable[Packet],
                flush_at_end: bool = True) -> Iterator[MGPVRecord]:
        for pkt in packets:
            yield from self.insert(pkt)
        if flush_at_end:
            yield from self.flush()

    def flush(self) -> list[MGPVRecord]:
        events = []
        for idx, entry in enumerate(self._slots):
            if entry is not None and (entry[2] or entry[3]):
                events.append(self._evict(idx, "flush"))
            elif entry is not None:
                self._remove(idx)
        return events

    def _emit(self, entry, reason: str) -> MGPVRecord:
        record = MGPVRecord(cg_key=entry[0], cg_hash32=entry[1],
                            cells=tuple(entry[2]) + tuple(entry[3]),
                            reason=reason)
        self.stats.records_out += 1
        self.stats.cells_out += len(record.cells)
        # GPV records carry the (possibly wider) group key.
        self.stats.bytes_out += (self.config.record_header_bytes
                                 + max(self.granularity.key_bytes, 4)
                                 + len(record.cells) * self.config.cell_bytes)
        self.stats.evictions[reason] += 1
        return record

    def _evict(self, slot: int, reason: str) -> MGPVRecord:
        entry = self._slots[slot]
        record = self._emit(entry, reason)
        self._remove(slot)
        return record

    def _remove(self, slot: int) -> None:
        entry = self._slots[slot]
        if entry is None:
            return
        if entry[4] is not None:
            self._long_stack.append(entry[4])
        self._slots[slot] = None
