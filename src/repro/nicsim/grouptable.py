"""Group state tables with fixed-length chaining (§6.2, Fig 8).

Each (granularity) section keeps its per-group states in a hash table
organized so one 512-bit data-bus transfer covers a whole bucket: the
table has ``n_indices`` buckets of ``width`` fixed entries each, sized so
``width * entry_bytes <= bus width``.  Bucket-overflowing entries spill to
external DRAM — slow, but harmless while the collision rate stays low.

The table tracks access statistics (bucket hits, DRAM spills, cycle
costs) that feed the NIC cycle model and the Table 4 memory column.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.nicsim.memory import DRAM, MemoryLevel
from repro.streaming.hyperloglog import hash_key


@dataclass
class GroupTableStats:
    lookups: int = 0
    inserts: int = 0
    bucket_hits: int = 0
    dram_hits: int = 0
    dram_entries_peak: int = 0
    access_cycles: int = 0

    @property
    def collision_rate(self) -> float:
        """Fraction of lookups that had to chase the DRAM chain."""
        return self.dram_hits / self.lookups if self.lookups else 0.0


class GroupTable:
    """Fixed-length-chained hash table for per-group state objects.

    ``state_factory`` builds a fresh state for a new group: the engine
    passes its slab's row allocator (the state is then a row index into
    the section's state columns — 0 is a valid state) or, for group
    objects, a closure instantiating the section's map/reduce
    function objects.  Lookups return ``(state, created)`` and account
    the memory cycles of the access against ``stats``.
    """

    def __init__(self, n_indices: int, width: int, entry_bytes: int,
                 level: MemoryLevel, state_factory,
                 dram: MemoryLevel = DRAM) -> None:
        if n_indices < 1 or width < 1:
            raise ValueError("table geometry must be positive")
        self.n_indices = n_indices
        self.width = width
        self.entry_bytes = entry_bytes
        self.level = level
        self.dram = dram
        self.state_factory = state_factory
        self.stats = GroupTableStats()
        # Buckets map key -> state, bounded to `width` entries each;
        # materialized lazily on first touch (a fresh table allocates no
        # per-bucket storage), keyed by bucket index.
        self._buckets: dict[int, dict] = {}
        self._overflow: dict = {}
        # key -> bucket index memo: the index is a pure function of the
        # key, so repeat accesses skip the murmur hash (bounded, cleared
        # on overflow — correctness never depends on a hit).
        self._idx_cache: dict = {}

    def _bucket_idx(self, key, hash32: int | None = None) -> int:
        idx = self._idx_cache.get(key)
        if idx is None:
            if len(self._idx_cache) >= 1 << 17:
                self._idx_cache.clear()
            if hash32 is None:
                hash32 = hash_key(key)
            idx = hash32 % self.n_indices
            self._idx_cache[key] = idx
        return idx

    @property
    def bucket_bytes(self) -> int:
        return self.width * self.entry_bytes

    def fits_bus(self) -> bool:
        """True when one bus transfer loads a whole bucket (the design
        target of §6.2)."""
        return self.bucket_bytes <= self.level.bus_width_bytes

    def lookup_or_insert(self, key) -> tuple[object, bool]:
        state, created, _in_bucket = self.lookup_or_insert_located(key)
        return state, created

    def lookup_or_insert_located(self, key, hash32: int | None = None
                                 ) -> tuple[object, bool, bool]:
        """As :meth:`lookup_or_insert`, additionally reporting whether the
        entry lives in its home bucket (False: DRAM overflow).  The
        engine's block path looks a group up once per block and accounts
        its other cells via :meth:`account_hits` without re-hashing.
        ``hash32`` short-cuts the key hash when the caller already holds
        it (records carry the CG hash the switch computed)."""
        self.stats.lookups += 1
        idx = self._bucket_idx(key, hash32)
        bucket = self._buckets.get(idx)
        if bucket is None:
            bucket = self._buckets[idx] = {}
        self.stats.access_cycles += self.level.latency_cycles
        if key in bucket:
            self.stats.bucket_hits += 1
            return bucket[key], False, True
        if key in self._overflow:
            self.stats.dram_hits += 1
            self.stats.access_cycles += self.dram.latency_cycles
            return self._overflow[key], False, False
        # New group.
        self.stats.inserts += 1
        state = self.state_factory()
        if len(bucket) < self.width:
            bucket[key] = state
            return state, True, True
        self._overflow[key] = state
        self.stats.dram_hits += 1
        self.stats.access_cycles += self.dram.latency_cycles
        self.stats.dram_entries_peak = max(
            self.stats.dram_entries_peak, len(self._overflow))
        return state, True, False

    def account_hits(self, in_bucket: bool, count: int) -> None:
        """Account ``count`` repeat accesses to an entry whose location
        is already known, with exactly the counters/cycles that many
        fresh :meth:`lookup_or_insert` hits would record."""
        if count <= 0:
            return
        stats = self.stats
        stats.lookups += count
        stats.access_cycles += self.level.latency_cycles * count
        if in_bucket:
            stats.bucket_hits += count
        else:
            stats.dram_hits += count
            stats.access_cycles += self.dram.latency_cycles * count

    def get(self, key):
        bucket = self._buckets.get(self._bucket_idx(key))
        state = bucket.get(key) if bucket is not None else None
        return state if state is not None else self._overflow.get(key)

    def items(self):
        for idx in sorted(self._buckets):
            yield from self._buckets[idx].items()
        yield from self._overflow.items()

    def remove(self, key) -> bool:
        """Free a group's entry (NIC-side aging); True if it existed."""
        bucket = self._buckets.get(self._bucket_idx(key))
        if bucket is not None and key in bucket:
            del bucket[key]
            return True
        if key in self._overflow:
            del self._overflow[key]
            return True
        return False

    def clear(self) -> None:
        """Drop every resident group (device restart); stats survive."""
        self._buckets.clear()
        self._overflow.clear()

    def __len__(self) -> int:
        return (sum(len(b) for b in self._buckets.values())
                + len(self._overflow))

    def memory_bytes(self) -> int:
        """Bytes resident in this table's on-chip level."""
        return self.n_indices * self.bucket_bytes
