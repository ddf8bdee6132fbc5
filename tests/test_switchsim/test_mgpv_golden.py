"""Golden switch event streams: an independent check of the MGPV cache
beside its in-module oracle.

A fixed sweep — 2 traces × {time-ordered, ±300 ms jitter} × 5 cache
configurations (one with aging, one with a 1-slot FG table, one with a
1-buffer long pool) × {FLOW/FLOW, HOST/SOCKET} — is driven through
``insert``, ``insert_batch`` at batch sizes 1 / 7 / 64 / 4 096 and the
``SUPERFE_REFERENCE_PATH=1`` oracle, with a long-buffer squeeze at a
quarter of the trace, a flush at half (then inserting on), and a release
at three quarters.  Every drive must reproduce, per configuration, the
SHA-256 of the event stream, ``CacheStats.as_dict()`` and the Fig 14
occupancy integrals recorded in ``golden_mgpv_events.json``.

Regenerate only on purpose, with
``PYTHONPATH=src python tests/test_switchsim/test_mgpv_golden.py``.
"""

import hashlib
import json
import os
from dataclasses import replace
from functools import lru_cache
from itertools import product
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from repro.core.granularity import FLOW, HOST, SOCKET
from repro.net.packet import PacketBatch
from repro.net.trace import generate_trace
from repro.switchsim.mgpv import FGSync, MGPVCache, MGPVConfig

GOLDEN = Path(__file__).with_name("golden_mgpv_events.json")
MS = 1_000_000
N_PACKETS = 600
METADATA = ("size", "tstamp", "direction")

TRACES = {"enterprise": ("ENTERPRISE", 240, 11),
          "mawi": ("MAWI-IXP", 20, 12)}
CONFIGS = {
    "small": dict(n_short=64, short_size=4, n_long=8, long_size=6,
                  fg_table_size=64),
    "aging": dict(n_short=128, short_size=4, n_long=8, long_size=12,
                  fg_table_size=128, aging_timeout_ns=20 * MS,
                  aging_scan_per_pkt=3),
    "fg1": dict(n_short=32, short_size=3, n_long=4, long_size=8,
                fg_table_size=1),
    "tiny_long": dict(n_short=48, short_size=2, n_long=1, long_size=6,
                      fg_table_size=37),
    "crowded": dict(n_short=16, short_size=2, n_long=3, long_size=5,
                    fg_table_size=13),
}
GRANULARITIES = {"flow": (FLOW, FLOW), "host_socket": (HOST, SOCKET)}
DRIVES = ("insert", "reference", "batch1", "batch7", "batch64",
          "batch4096")
SCENARIOS = [f"{t}/{order}/{c}/{g}" for t, order, c, g in product(
    TRACES, ("ordered", "jitter"), CONFIGS, GRANULARITIES)]


@lru_cache(maxsize=None)
def packets(trace: str, order: str) -> tuple:
    profile, flows, seed = TRACES[trace]
    pkts = generate_trace(profile, n_flows=flows, seed=seed)[:N_PACKETS]
    assert len(pkts) == N_PACKETS
    if order == "jitter":
        rng = np.random.default_rng(seed)
        lag = rng.integers(-300 * MS, 300 * MS, size=len(pkts)).tolist()
        pkts = [replace(p, tstamp=max(0, p.tstamp + d))
                for p, d in zip(pkts, lag)]
    return tuple(pkts)


def digest(events) -> str:
    h = hashlib.sha256()
    for e in events:
        if isinstance(e, FGSync):
            h.update(repr(("S", e.index, e.key)).encode())
        else:
            h.update(repr(("R", e.cg_key, e.cg_hash32, e.cells,
                           e.reason)).encode())
    return h.hexdigest()


def run(scenario: str, drive: str) -> dict:
    trace, order, config, gran = scenario.split("/")
    pkts = packets(trace, order)
    cg, fg = GRANULARITIES[gran]
    n = len(pkts)
    controls = {n // 4: ("squeeze_long_buffers", 0.25),
                n // 2: ("flush",),
                3 * n // 4: ("release_long_buffers",)}
    with mock.patch.dict(os.environ, {"SUPERFE_REFERENCE_PATH": str(
            int(drive == "reference"))}):
        cache = MGPVCache(cg, fg, MGPVConfig(**CONFIGS[config]), METADATA)
    step = int(drive[5:]) if drive.startswith("batch") else None
    events = []
    cuts = sorted(set(controls) | {0, n})
    for lo, hi in zip(cuts, cuts[1:]):
        if lo in controls:
            name, *args = controls[lo]
            out = getattr(cache, name)(*args)
            if out:
                events.extend(out)
        if step is None:
            for p in pkts[lo:hi]:
                cache.insert(p, events)
            continue
        for at in range(lo, hi, step):
            cache.insert_batch(
                PacketBatch.from_packets(pkts[at:min(at + step, hi)]),
                events)
    events.extend(cache.flush())
    return {"events": len(events), "sha256": digest(events),
            "stats": cache.stats.as_dict(),
            "occupancy": [cache._occ_occupied, cache._occ_active]}


def record_golden() -> dict:
    golden = {}
    for scenario in SCENARIOS:
        want = run(scenario, "insert")
        for drive in DRIVES[1:]:
            assert run(scenario, drive) == want, (scenario, drive)
        golden[scenario] = want
    return golden


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_sweep_is_complete(golden):
    assert sorted(golden) == sorted(SCENARIOS)
    # The sweep exercises every eviction kind, FG collisions and long
    # allocation failures somewhere.
    kinds = {k for g in golden.values()
             for k, v in g["stats"]["evictions"].items() if v}
    assert kinds == {"collision", "short_full", "long_full", "aging",
                     "flush"}
    assert any(g["stats"]["fg_collisions"] for g in golden.values())
    assert any(g["stats"]["long_alloc_failures"] for g in golden.values())


@pytest.mark.parametrize("drive", DRIVES)
@pytest.mark.parametrize("scenario", SCENARIOS)
def test_drive_reproduces_golden(golden, scenario, drive):
    assert run(scenario, drive) == golden[scenario]


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(record_golden(), indent=1,
                                 sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
