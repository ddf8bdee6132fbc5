"""GPV baseline: functional parity with MGPV for one granularity, and
the linear memory growth Fig 13 contrasts MGPV against."""

import pytest

from repro.core.granularity import CHANNEL, FLOW, HOST, SOCKET
from repro.net.packet import PacketBatch
from repro.net.trace import generate_trace
from repro.switchsim.gpv import GPVCache
from repro.switchsim.mgpv import FGSync, MGPVCache, MGPVConfig, MGPVRecord


def small_config():
    return MGPVConfig(n_short=64, short_size=4, n_long=8, long_size=20,
                      fg_table_size=64)


def test_lossless():
    trace = generate_trace("ENTERPRISE", n_flows=120, seed=1)
    cache = GPVCache(FLOW, small_config())
    cells = 0
    for e in cache.process(trace):
        cells += len(e.cells)
    assert cells == len(trace)


def test_eviction_reasons_cover_cases():
    trace = generate_trace("MAWI-IXP", n_flows=150, seed=2)
    cache = GPVCache(HOST, MGPVConfig(n_short=8, short_size=2, n_long=2,
                                      long_size=4, fg_table_size=8))
    reasons = {e.reason for e in cache.process(trace)}
    assert "collision" in reasons
    assert reasons <= {"collision", "short_full", "long_full", "flush"}


def test_memory_grows_with_granularities():
    """k granularities need k GPV instances; MGPV needs one plus an FG
    table — the Fig 13 contrast."""
    cfg = MGPVConfig()
    gpv_total = sum(GPVCache(g, cfg).memory_bytes()
                    for g in (HOST, CHANNEL, SOCKET))
    mgpv = MGPVCache(HOST, SOCKET, cfg).memory_bytes()
    assert gpv_total > 2.5 * GPVCache(HOST, cfg).memory_bytes()
    assert mgpv < gpv_total / 2


def test_bandwidth_grows_with_granularities():
    trace = generate_trace("ENTERPRISE", n_flows=200, seed=3)
    cfg = small_config()
    gpv_bytes = 0
    for g in (HOST, CHANNEL, SOCKET):
        cache = GPVCache(g, cfg)
        for _ in cache.process(trace):
            pass
        gpv_bytes += cache.stats.bytes_out
    mgpv = MGPVCache(HOST, SOCKET, cfg)
    for _ in mgpv.process(trace):
        pass
    assert mgpv.stats.bytes_out < gpv_bytes


def test_stats_accounting():
    trace = generate_trace("CAMPUS", n_flows=60, seed=4)
    cache = GPVCache(SOCKET, small_config())
    n = sum(1 for _ in cache.process(trace))
    assert cache.stats.records_out == n
    assert cache.stats.pkts_in == len(trace)
    assert cache.stats.bytes_out > 0


def test_batch_calls_equal_per_packet_inserts():
    """The batch kernel keeps the GPV wire: no sync, the same records."""
    trace = generate_trace("ENTERPRISE", n_flows=150, seed=9)
    config = MGPVConfig(n_short=64, n_long=8, long_size=6)
    one, batched = GPVCache(FLOW, config), GPVCache(FLOW, config)
    want = list(one.process(trace))
    got = list(batched.insert_batch(PacketBatch.from_packets(trace)))
    got += list(batched.flush())
    assert got == want and one.stats == batched.stats
    assert not any(isinstance(e, FGSync) for e in got)
