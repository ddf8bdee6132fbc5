"""MGPV cache invariants: lossless batching, per-group order
preservation, eviction cases, FG-table consistency, long-buffer stack
accounting, aging."""

import os
import tracemalloc
from dataclasses import replace
from itertools import cycle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.switchsim.mgpv as mgpv_mod
from repro.core.granularity import FLOW, HOST, SOCKET
from repro.net.packet import PROTO_TCP, Packet, PacketBatch
from repro.net.trace import generate_trace
from repro.switchsim.aging import sweep_aging_timeouts
from repro.streaming.hyperloglog import hash_key, hash_key_columns
from repro.switchsim.mgpv import FGSync, MGPVCache, MGPVConfig, MGPVRecord
from tests.conftest import reference_path


def pkt(t=0, src=1, dst=2, sport=10, dport=20, size=100):
    return Packet(t, size, src, dst, sport, dport, PROTO_TCP)


def drain(cache, packets):
    events = []
    for p in packets:
        events.extend(cache.insert(p))
    events.extend(cache.flush())
    return events


def small_config(**kw):
    defaults = dict(n_short=64, short_size=4, n_long=8, long_size=20,
                    fg_table_size=64)
    defaults.update(kw)
    return MGPVConfig(**defaults)


class TestConfig:
    def test_defaults_match_prototype(self):
        cfg = MGPVConfig()
        assert (cfg.n_short, cfg.short_size) == (16384, 4)
        assert (cfg.n_long, cfg.long_size) == (4096, 20)
        assert cfg.fg_table_size == 16384

    def test_invalid(self):
        with pytest.raises(ValueError):
            MGPVConfig(n_short=0)

    @pytest.mark.parametrize("timeout", (0, -5))
    def test_aging_timeout_must_be_positive(self, timeout):
        with pytest.raises(ValueError, match="aging timeout"):
            MGPVConfig(aging_timeout_ns=timeout)
        with pytest.raises(ValueError, match="aging timeout"):
            replace(MGPVConfig(), aging_timeout_ns=timeout)

    def test_aging_scan_must_cover_an_entry(self):
        with pytest.raises(ValueError, match="at least one entry"):
            MGPVConfig(aging_timeout_ns=1000, aging_scan_per_pkt=0)

    def test_sram_accounting_positive(self):
        assert MGPVConfig().sram_bytes > 1_000_000


class TestLosslessBatching:
    def test_every_packet_becomes_exactly_one_cell(self):
        trace = generate_trace("ENTERPRISE", n_flows=150, seed=1)
        cache = MGPVCache(HOST, SOCKET, small_config())
        events = drain(cache, trace)
        cells = sum(len(e.cells) for e in events
                    if isinstance(e, MGPVRecord))
        assert cells == len(trace)
        assert cache.stats.cells_out == len(trace)

    @given(st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5),
                              st.integers(0, 3)),
                    min_size=1, max_size=300))
    @settings(max_examples=50, deadline=None)
    def test_lossless_under_random_collisions(self, spec):
        """Tiny cache + adversarial key patterns: still no cell is ever
        lost or duplicated."""
        cache = MGPVCache(HOST, SOCKET,
                          small_config(n_short=4, n_long=1,
                                       fg_table_size=4))
        packets = [pkt(t=i, src=s, dst=d, sport=p)
                   for i, (s, d, p) in enumerate(spec)]
        events = drain(cache, packets)
        cells = sum(len(e.cells) for e in events
                    if isinstance(e, MGPVRecord))
        assert cells == len(packets)

    def test_cells_carry_requested_metadata(self):
        cache = MGPVCache(FLOW, FLOW, small_config(),
                          metadata_fields=("size", "tstamp", "direction"))
        events = drain(cache, [pkt(t=7, size=123)])
        record = next(e for e in events if isinstance(e, MGPVRecord))
        _, meta = record.cells[0]
        assert meta == (123, 7, 1)


class TestOrderPreservation:
    def test_per_group_cell_order(self):
        """Cells of one CG group must reach the NIC in arrival order —
        the §5.1 design goal MGPV exists for."""
        trace = generate_trace("MAWI-IXP", n_flows=60, seed=2)
        cache = MGPVCache(HOST, SOCKET,
                          small_config(n_short=16, n_long=2))
        events = drain(cache, trace)
        fg_keys: dict = {}
        seen_ts: dict = {}
        for e in events:
            if isinstance(e, FGSync):
                fg_keys[e.index] = e.key
                continue
            for fg_idx, meta in e.cells:
                key = e.cg_key
                last = seen_ts.get(key, -1)
                assert meta[1] >= last, "per-group order violated"
                seen_ts[key] = meta[1]


class TestEvictionCases:
    def test_hash_collision_evicts_older_group(self):
        cache = MGPVCache(HOST, SOCKET, small_config(n_short=1))
        cache.insert(pkt(src=1))
        events = cache.insert(pkt(src=2))
        records = [e for e in events if isinstance(e, MGPVRecord)]
        assert len(records) == 1
        assert records[0].reason == "collision"
        assert records[0].cg_key == (1,)

    def test_short_full_without_long_buffer(self):
        cache = MGPVCache(HOST, SOCKET,
                          small_config(short_size=2, n_long=1,
                                       long_size=4))
        # Fill the only long buffer with another flow first.
        for i in range(2):
            cache.insert(pkt(t=i, src=9))
        # Now src=1 fills its short buffer with no long available.
        events = []
        for i in range(4):
            events.extend(cache.insert(pkt(t=10 + i, src=1)))
        reasons = [e.reason for e in events if isinstance(e, MGPVRecord)]
        assert "short_full" in reasons
        assert cache.stats.long_alloc_failures >= 1

    def test_long_buffer_allocation_and_release(self):
        cfg = small_config(short_size=2, long_size=3, n_long=2)
        cache = MGPVCache(HOST, SOCKET, cfg)
        events = []
        for i in range(5):   # 2 into short (alloc long), 3 into long
            events.extend(cache.insert(pkt(t=i, src=1)))
        reasons = [e.reason for e in events if isinstance(e, MGPVRecord)]
        assert reasons == ["long_full"]
        record = next(e for e in events if isinstance(e, MGPVRecord))
        assert len(record.cells) == 5
        # Long buffer returned to the stack.
        assert cache.long_buffers_in_use == 0
        assert cache.stats.long_allocs == 1

    def test_flush_emits_residents(self):
        cache = MGPVCache(HOST, SOCKET, small_config())
        cache.insert(pkt(src=1))
        cache.insert(pkt(src=2))
        events = cache.flush()
        assert len(events) == 2
        assert all(e.reason == "flush" for e in events)
        assert cache.resident_groups == 0

    def test_stack_never_leaks(self):
        trace = generate_trace("MAWI-IXP", n_flows=100, seed=3)
        cfg = small_config(n_short=16, n_long=4, long_size=6)
        cache = MGPVCache(HOST, SOCKET, cfg)
        drain(cache, trace)
        assert cache.long_buffers_in_use == 0
        assert cache._long_top == cfg.n_long
        assert sorted(cache._long_stack.tolist()) == list(range(cfg.n_long))

    def test_stack_never_leaks_batched(self):
        trace = generate_trace("MAWI-IXP", n_flows=100, seed=3)
        cfg = small_config(n_short=16, n_long=4, long_size=6)
        cache = MGPVCache(HOST, SOCKET, cfg)
        for lo in range(0, len(trace), 500):
            cache.insert_batch(PacketBatch.from_packets(trace[lo:lo + 500]))
            held = cache._slot_long[cache._slot_long >= 0].tolist()
            free = cache._long_stack[:cache._long_top].tolist()
            assert sorted(held + free) == list(range(cfg.n_long))
        cache.flush()
        assert cache.long_buffers_in_use == 0
        assert sorted(cache._long_stack.tolist()) == list(range(cfg.n_long))


@pytest.mark.skipif(
    os.environ.get("SUPERFE_REFERENCE_PATH") == "1",
    reason="the reference oracle intentionally hashes per packet")
class TestHashInvocations:
    """Regression tests for the per-flow hash budget: routes are
    interned per FG key, and single-granularity chains (CG == FG) hash
    the key once, not twice — the optimization of ``_route``."""

    def _counting(self, monkeypatch):
        import repro.switchsim.mgpv as mgpv_mod
        real = mgpv_mod.hash_key
        calls = []

        def counting_hash(key):
            calls.append(key)
            return real(key)

        monkeypatch.setattr(mgpv_mod, "hash_key", counting_hash)
        return calls

    def test_cg_eq_fg_hashes_once_per_new_flow(self, monkeypatch):
        cache = MGPVCache(FLOW, FLOW, small_config())
        calls = self._counting(monkeypatch)
        n_flows = 7
        for i in range(n_flows):
            cache.insert(pkt(t=i, sport=100 + i))
        assert len(calls) == n_flows

    def test_repeat_packets_hash_zero_times(self, monkeypatch):
        cache = MGPVCache(FLOW, FLOW, small_config())
        for i in range(5):
            cache.insert(pkt(t=i, sport=100 + i))
        calls = self._counting(monkeypatch)
        for i in range(5):
            cache.insert(pkt(t=10 + i, sport=100 + i))
        assert calls == []

    def test_distinct_granularities_hash_twice_per_new_flow(
            self, monkeypatch):
        cache = MGPVCache(HOST, SOCKET, small_config())
        calls = self._counting(monkeypatch)
        n_flows = 4
        for i in range(n_flows):
            cache.insert(pkt(t=i, sport=100 + i))
        assert len(calls) == 2 * n_flows

    def test_single_hash_matches_double_hash_routing(self):
        """The shared hash must land the FG key in the same FG slot the
        two-hash formulation would pick (same hash function, same key)."""
        from repro.streaming.hyperloglog import hash_key
        cache = MGPVCache(FLOW, FLOW, small_config())
        p = pkt()
        cache.insert(p)
        fg_key = cache._fg_packet_key(p)
        route = cache._key_cache[fg_key]
        assert route[3] == hash_key(fg_key) % cache.config.fg_table_size


def colliding_flows():
    """Two distinct canonical flow keys with equal ``hash_key``, found by
    a seeded birthday search."""
    rng = np.random.default_rng(2024)
    n = 300_000
    src = rng.integers(1, 1 << 31, n)
    cols = (src, src + rng.integers(1, 1 << 20, n),
            rng.integers(0, 1 << 16, n), rng.integers(0, 1 << 16, n),
            np.full(n, PROTO_TCP))
    hashes = hash_key_columns(cols)
    order = np.argsort(hashes, kind="stable")
    same = np.flatnonzero(hashes[order][1:] == hashes[order][:-1])
    i, j = order[same[0]], order[same[0] + 1]
    a, b = (tuple(int(c[i]) for c in cols), tuple(int(c[j]) for c in cols))
    assert a != b and hash_key(a) == hash_key(b)
    return a, b


class TestExactGroupIdentity:
    """Groups are told apart by their keys, never by the 32-bit hash."""

    @pytest.mark.parametrize("batched", (False, True))
    def test_equal_hash_distinct_keys_collide(self, batched):
        a, b = colliding_flows()
        packets = [pkt(t=i, src=k[0], dst=k[1], sport=k[2], dport=k[3])
                   for i, k in enumerate((a, b))]
        cache = MGPVCache(FLOW, FLOW, small_config())
        if batched:
            events = cache.insert_batch(PacketBatch.from_packets(packets))
        else:
            events = [e for p in packets for e in cache.insert(p)]
        events += cache.flush()
        records = [e for e in events if isinstance(e, MGPVRecord)]
        assert [(r.cg_key, r.reason) for r in records] == [
            (a, "collision"), (b, "flush")]
        assert [e.key for e in events if isinstance(e, FGSync)] == [a, b]

    def test_fold_collision_falls_back_to_exact_rows(self):
        """Two rows whose 64-bit column fold is equal stay distinct."""
        prime = np.uint64(0x100000001B3)
        first = np.array([1, 2], np.uint64)
        second = np.array([7, 0], np.uint64)
        second[1:] = first[:1] * prime ^ second[:1] ^ first[1:] * prime
        rows, inverse = mgpv_mod._distinct_rows((first, second))
        assert len(rows) == 2 and inverse[0] != inverse[1]


class TestFGTable:
    def test_sync_before_first_reference(self):
        cache = MGPVCache(HOST, SOCKET, small_config())
        trace = generate_trace("ENTERPRISE", n_flows=80, seed=4)
        known = set()
        for e in drain(cache, trace):
            if isinstance(e, FGSync):
                known.add(e.index)
            else:
                for fg_idx, _ in e.cells:
                    assert fg_idx in known

    def test_fg_collision_evicts_owner(self):
        cache = MGPVCache(HOST, SOCKET, small_config(fg_table_size=1))
        cache.insert(pkt(src=1, sport=10))
        events = cache.insert(pkt(src=2, sport=11))
        # The colliding FG slot forces the old owner group out first.
        records = [e for e in events if isinstance(e, MGPVRecord)]
        assert len(records) == 1
        assert records[0].cg_key == (1,)
        assert cache.stats.fg_collisions == 1

    def test_one_sync_per_new_key_only(self):
        cache = MGPVCache(FLOW, FLOW, small_config())
        for i in range(10):
            cache.insert(pkt(t=i))
        assert cache.stats.syncs_out == 1


class TestAggregationRatio:
    def test_bytes_ratio_far_below_one(self):
        trace = generate_trace("ENTERPRISE", n_flows=300, seed=5)
        cache = MGPVCache(HOST, SOCKET, MGPVConfig())
        drain(cache, trace)
        assert 0 < cache.stats.aggregation_ratio_bytes < 0.2

    def test_rate_ratio_below_one(self):
        trace = generate_trace("MAWI-IXP", n_flows=200, seed=6)
        cache = MGPVCache(HOST, SOCKET, MGPVConfig())
        drain(cache, trace)
        assert 0 < cache.stats.aggregation_ratio_rate < 1.0


class TestAging:
    def test_idle_groups_evicted(self):
        cfg = small_config(aging_timeout_ns=1000, aging_scan_per_pkt=64)
        cache = MGPVCache(HOST, SOCKET, cfg)
        cache.insert(pkt(t=0, src=1))
        # A stream of packets from another host advances time and the
        # scan cursor; src=1 should age out.
        events = []
        for i in range(100):
            events.extend(cache.insert(pkt(t=5000 + i, src=2)))
        reasons = [e.reason for e in events if isinstance(e, MGPVRecord)]
        assert "aging" in reasons
        assert cache.stats.evictions["aging"] >= 1

    def test_no_aging_when_disabled(self):
        cache = MGPVCache(HOST, SOCKET, small_config())
        cache.insert(pkt(t=0, src=1))
        for i in range(100):
            cache.insert(pkt(t=10 ** 12 + i, src=2))
        assert cache.stats.evictions["aging"] == 0

    def test_active_groups_survive(self):
        cfg = small_config(aging_timeout_ns=10_000,
                           aging_scan_per_pkt=64)
        cache = MGPVCache(HOST, SOCKET, cfg)
        events = []
        for i in range(50):
            events.extend(cache.insert(pkt(t=i * 100, src=1)))
        aging = [e for e in events
                 if isinstance(e, MGPVRecord) and e.reason == "aging"]
        assert not aging


def recount_active(cache):
    """Brute-force oracle for ``active_groups``: walk every short slot's
    registers."""
    threshold = cache.now_ns - mgpv_mod._OCC_WINDOW_NS
    return sum(1 for key, last in zip(cache._slot_key.tolist(),
                                      cache._slot_last.tolist())
               if key >= 0 and last >= threshold)


def recount_resident(cache):
    return sum(1 for key in cache._slot_key.tolist() if key >= 0)


def replay(cache, packets, controls, batch_sizes=None):
    """Drive ``packets`` through ``insert`` (or, given ``batch_sizes``,
    ``insert_batch`` over batches of those sizes, cycled), calling
    ``controls[i](cache)`` before packet ``i``.  Whenever the cache
    stands at a sample point, the resident and active counts must equal
    the recounts."""
    cuts = sorted(set(controls) | {0, len(packets)})
    sizes = iter(()) if batch_sizes is None else cycle(batch_sizes)
    for lo, hi in zip(cuts, cuts[1:]):
        if lo in controls:
            controls[lo](cache)
        while lo < hi:
            if batch_sizes is None:
                cache.insert(packets[lo])
                lo += 1
            else:
                step = min(next(sizes), hi - lo)
                cache.insert_batch(
                    PacketBatch.from_packets(packets[lo:lo + step]))
                lo += step
            if not cache.stats.pkts_in % mgpv_mod._OCC_STRIDE:
                assert cache.active_groups == recount_active(cache)
                assert cache.resident_groups == recount_resident(cache)


MS = 1_000_000


class TestActiveGroupAccounting:
    """The Fig 14 occupancy integrals: a count over the slot arrays at
    each sample on the per-packet path, an interval sweep inside a
    batch — equal on every insert path."""

    @given(
        spec=st.lists(
            st.tuples(st.integers(0, 11),            # host (CG key)
                      st.integers(0, 3),             # port (FG key)
                      st.integers(0, 40),            # clock advance, ms
                      st.sampled_from((0, 0, 0, 60, 150, 300))),  # lag
            min_size=130, max_size=400),
        n_short=st.integers(4, 64),
        fg_table_size=st.integers(1, 4),
        aging_ms=st.sampled_from((None, 30, 200)),
        retune_ms=st.sampled_from((None, 20, 150)),
        control_at=st.tuples(st.integers(1, 129), st.integers(1, 129),
                             st.integers(1, 129)),
        batch_sizes=st.lists(st.integers(1, 90), min_size=1, max_size=5))
    @settings(max_examples=60, deadline=None)
    def test_incremental_count_equals_recount(self, spec, n_short,
                                              fg_table_size, aging_ms,
                                              retune_ms, control_at,
                                              batch_sizes):
        packets, clock = [], 0
        for host, port, advance, lag in spec:
            clock += advance * MS
            packets.append(pkt(t=max(0, clock - lag * MS), src=host,
                               sport=port))
        # squeeze early, flush mid-trace, release late, and retune the
        # aging timeout live (what Runtime.set_aging_timeout does); a
        # control index drawn twice keeps the last one, which is fine.
        squeeze, release, retune = control_at
        timeout = None if retune_ms is None else retune_ms * MS

        def set_aging(cache):
            cache.config = replace(cache.config, aging_timeout_ns=timeout)

        controls = {squeeze: lambda c: c.squeeze_long_buffers(0.25),
                    len(packets) // 2: lambda c: c.flush(),
                    len(packets) - release: lambda c: c.release_long_buffers(),
                    len(packets) - retune: set_aging}
        cfg = MGPVConfig(
            n_short=n_short, short_size=2, n_long=3, long_size=6,
            fg_table_size=fg_table_size,
            aging_timeout_ns=None if aging_ms is None else aging_ms * MS)

        def fresh():
            return MGPVCache(HOST, SOCKET, cfg)

        per_packet = fresh()
        replay(per_packet, packets, controls)
        batched = fresh()
        replay(batched, packets, controls, batch_sizes)
        with reference_path():
            reference = fresh()
        replay(reference, packets, controls)

        want = (per_packet._occ_occupied, per_packet._occ_active,
                per_packet.stats.as_dict())
        assert want[0] > 0
        assert (batched._occ_occupied, batched._occ_active,
                batched.stats.as_dict()) == want
        assert (reference._occ_occupied, reference._occ_active,
                reference.stats.as_dict()) == want

    def test_memory_bounded_under_churn(self):
        """Guard for the benchmark's peak_rss_mb bound: under eviction
        churn inside one active window, memory is bounded by the
        register sizes, not by how many flows have passed — interned
        keys are compacted to the live ones.  A traced window three
        times as long as an earlier one peaks no higher."""
        cache = MGPVCache(FLOW, FLOW, small_config(n_short=256,
                                                   fg_table_size=256))
        # Two packets per flow, 1 us apart: every flow is "active" for
        # the whole run and 50 016 distinct flows pass.
        n, step = 100_032, 64 * 25
        packets = [pkt(t=i * 1000, src=i // 2) for i in range(n)]
        batches = [PacketBatch.from_packets(packets[lo:lo + step])
                   for lo in range(0, n, step)]
        windows = {8: 12, 40: 52}       # first batch -> end of tracing
        peaks = []
        for i, batch in enumerate(batches):
            if i in windows:
                stop = windows[i]
                tracemalloc.start()
            cache.insert_batch(batch)
            if tracemalloc.is_tracing() and i + 1 == stop:
                peaks.append(tracemalloc.get_traced_memory()[1])
                tracemalloc.stop()
            assert cache.active_groups == recount_active(cache)
        assert cache.stats.evictions["collision"] >= 20_000
        assert len(cache._keys) <= cache._key_cap + step
        short, long = peaks
        assert long <= 1.2 * short

    def test_aging_sweep_buffer_efficiency_golden(self):
        """Fig 14's numbers as the rescanning implementation (the commit
        before the incremental accounting) computed them."""
        trace = generate_trace("MAWI-IXP", n_flows=300, seed=5)
        cfg = MGPVConfig(n_short=2048, short_size=4, n_long=256,
                         long_size=20, fg_table_size=2048,
                         aging_scan_per_pkt=1)
        points = sweep_aging_timeouts(
            trace, FLOW, FLOW, [None, 20 * MS, 100 * MS, 400 * MS],
            config=cfg, metadata_fields=("direction",))
        assert [p.buffer_efficiency for p in points] == [
            0.4657732819676522, 0.9964635209766496,
            0.9277677520596312, 0.6036922825576408]
        assert [p.aging_evictions for p in points] == [0, 288, 279, 278]

    def test_active_groups_gauge(self):
        from repro.core.telemetry import Telemetry
        telemetry = Telemetry()
        cache = MGPVCache(FLOW, FLOW, small_config())
        cache.attach_telemetry(telemetry)
        for i in range(64):
            cache.insert(pkt(t=i * 10 * MS, src=i))
        gauges = telemetry.registry.snapshot()["gauges"]
        assert gauges["mgpv.resident_groups"] == cache.resident_groups
        # 64 flows 10 ms apart: only the tail is inside the 100 ms window.
        assert (0 < gauges["mgpv.active_groups"] == recount_active(cache)
                < cache.resident_groups)
