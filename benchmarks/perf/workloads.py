"""The five fixed workloads: input sizes, policies, call shapes, oracle.

Sizes are constants of the benchmark — the same on every commit.  Each
input is a synthetic Table 2 trace of ``flows`` flows, cut to exactly
``packets`` packets (a capture-window cut of the time-ordered stream):
flow lengths are heavy-tailed, so the raw packet count of a seeded
trace varies by ~10% between seeds, and a fixed count keeps
``attempted`` and the rep time comparable across seeds.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

#: ``--quick`` divides flows, packets and the set-up prefix by this.
QUICK_DIVISOR = 20


def flow_stats_policy():
    """Nine per-flow statistics (count; mean/var/min/max of size and of
    inter-packet time) over TCP traffic — the paper's Fig 5-style
    statistical extractor, small enough that the switch is half the
    cost."""
    from repro import pktstream
    return (pktstream()
            .filter("tcp.exist")
            .groupby("flow")
            .map("one", None, "f_one")
            .map("ipt", "tstamp", "f_ipt")
            .reduce("one", ["f_sum"])
            .reduce("size", ["f_mean", "f_var", "f_min", "f_max"])
            .reduce("ipt", ["f_mean", "f_var", "f_min", "f_max"])
            .collect("flow"))


def _table3(app: str) -> Callable:
    def build():
        from repro.apps import build_policy
        return build_policy(app)
    return build


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    profile: str            # Table 2 trace profile
    flows: int
    packets: int            # exact input size (trace is cut to this)
    prefix: int             # packets of the set-up warm rep
    policy: Callable
    n_nics: int
    stream: bool = False    # Extractor.stream over Packet objects
    sharded: bool = False   # process backend, shm transport
    flow_oracle: bool = False

    def sized(self, quick: bool) -> "Workload":
        if not quick:
            return self
        d = QUICK_DIVISOR
        return replace(self, flows=max(self.flows // d, 20),
                       packets=max(self.packets // d, 512),
                       prefix=max(self.prefix // d, 256))


def sharded_workers() -> int:
    """Pool size of the sharded workload: two, clamped to the cores this
    process may actually run on."""
    return min(2, len(os.sched_getaffinity(0)))


#: Stream call shape of ``kitsune-stream`` (closed loop, one consumer).
STREAM_BATCH = 256
STREAM_QUEUE = 8

WORKLOADS: dict[str, Workload] = {w.name: w for w in (
    Workload(
        "flow-enterprise",
        "short flows: every MGPV eviction kind fires, many FG syncs and "
        "vectors; switch and engine finalize each do about half the work",
        "ENTERPRISE", 20_000, 175_000, 20_000, flow_stats_policy, 4,
        flow_oracle=True),
    Workload(
        "flow-mawi",
        "elephant flows: long-buffer path, byte aggregation ratio under "
        "0.01, few vectors; the switch dominates, engine finalize is small",
        "MAWI-IXP", 4_000, 300_000, 20_000, flow_stats_policy, 4,
        flow_oracle=True),
    Workload(
        "mptd-campus",
        "166-dim MPTD policy: engine and streaming reducers dominate, so a "
        "switch change must not move it and an engine change must",
        "CAMPUS", 2_500, 110_000, 20_000, _table3("MPTD"), 4),
    Workload(
        "kitsune-stream",
        "per-packet tier: 256-packet chunks through Extractor.stream with a "
        "feeder thread, vectors per chunk; guards the tier batch gains skip",
        "CAMPUS", 400, 10_240, 1_024, _table3("Kitsune"), 1,
        stream=True),
    Workload(
        "flow-enterprise-sharded",
        "flow-enterprise input on the process backend over shm rings: the "
        "only workload where core.transport and core.parallel do work",
        "ENTERPRISE", 20_000, 175_000, 20_000, flow_stats_policy, 4,
        sharded=True, flow_oracle=True),
)}


def make_input(spec: Workload, seed: int) -> tuple[np.ndarray, dict]:
    """The workload's input as one PACKET_DTYPE array of exactly
    ``spec.packets`` rows, plus the load generator's own timings.
    Deterministic in (spec, seed)."""
    from repro.net.packet import PacketBatch
    from repro.net.trace import generate_trace
    flows = spec.flows
    t0 = time.perf_counter()
    packets = generate_trace(spec.profile, n_flows=flows, seed=seed)
    while len(packets) < spec.packets:
        # A seed whose heavy tail came up short: draw more flows (still
        # a pure function of the seed).
        flows = flows * 5 // 4 + 1
        packets = generate_trace(spec.profile, n_flows=flows, seed=seed)
    t1 = time.perf_counter()
    batch = PacketBatch.from_packets(packets[:spec.packets])
    t2 = time.perf_counter()
    return batch.data, {
        "net.trace_gen_s": t1 - t0,
        "net.from_packets_ns_per_pkt": (t2 - t1) * 1e9 / spec.packets,
        "flows_generated": flows,
    }


def flow_oracle(data: np.ndarray) -> dict[tuple, tuple[int, int, int]]:
    """Independent ground truth for the flow-stats policy: per
    bidirectional TCP flow, (packet count, min size, max size), by a
    numpy group-by over the input columns — no code shared with the
    extractor beyond the definition of a flow key."""
    tcp = data[data["proto"] == 6]
    src_ip = tcp["src_ip"].astype(np.int64)
    dst_ip = tcp["dst_ip"].astype(np.int64)
    src_port = tcp["src_port"].astype(np.int64)
    dst_port = tcp["dst_port"].astype(np.int64)
    swap = (src_ip > dst_ip) | ((src_ip == dst_ip) & (src_port > dst_port))
    keys = np.stack([np.where(swap, dst_ip, src_ip),
                     np.where(swap, src_ip, dst_ip),
                     np.where(swap, dst_port, src_port),
                     np.where(swap, src_port, dst_port)], axis=1)
    uniq, inverse = np.unique(keys, axis=0, return_inverse=True)
    inverse = inverse.reshape(-1)
    size = tcp["size"]
    count = np.bincount(inverse, minlength=len(uniq))
    lo = np.full(len(uniq), np.iinfo(np.int64).max)
    hi = np.zeros(len(uniq), dtype=np.int64)
    np.minimum.at(lo, inverse, size)
    np.maximum.at(hi, inverse, size)
    return {(*map(int, k), 6): (int(c), int(a), int(b))
            for k, c, a, b in zip(uniq, count, lo, hi)}


def check_flow_oracle(data: np.ndarray, vectors) -> tuple[int, int]:
    """(matching flows, flows compared): exact comparison of the oracle
    against the ``f_sum(one)``, ``f_min(size)``, ``f_max(size)``
    columns of the extractor's vectors."""
    truth = flow_oracle(data)
    if not vectors:
        return 0, len(truth)
    names = vectors[0].names
    cols = [names.index(n)
            for n in ("f_sum(one)", "f_min(size)", "f_max(size)")]
    got = {tuple(v.key): tuple(float(v.values[c]) for c in cols)
           for v in vectors}
    # A flow the extractor missed, invented or emitted twice counts
    # against the total, so only an exact match reads n/n.
    keys = truth.keys() | got.keys()
    matched = sum(1 for key in keys
                  if key in truth
                  and got.get(key) == tuple(map(float, truth[key])))
    return matched, len(keys) + len(vectors) - len(got)
