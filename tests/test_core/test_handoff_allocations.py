"""Allocation budget of the columnar hand-off (tracemalloc).

``insert_batch`` -> link -> sink used to leave Python objects live
behind every admitted packet: the cell's ``(fg index, metadata)`` tuple,
its metadata tuple and their ints, held by the switch's pending cells
and by the engine's deferred queue.  The switch now keeps a batch's
pending cells as positions into its cell columns, and what crosses to
the engine — and waits in its queue — is numpy columns.  Counted on the
``--quick`` ``flow-enterprise`` input and policy after a warm prefix,
blocks from ``repro`` source files still live afterwards: the tuple
hand-off measured 5.66 per admitted packet, the columnar one 1.45
(per-flow switch state: interned keys and routes, FG-entry lists); the
budget sits halfway.
"""

import os
import tracemalloc

import pytest

import repro.api as api
from repro import pktstream
from repro.net.packet import PacketBatch
from repro.net.trace import generate_trace

MAX_BLOCKS_PER_PACKET = 3.5


def flow_stats_policy():
    """``benchmarks/perf``'s flow-enterprise policy."""
    return (pktstream().filter("tcp.exist").groupby("flow")
            .map("one", None, "f_one").map("ipt", "tstamp", "f_ipt")
            .reduce("one", ["f_sum"])
            .reduce("size", ["f_mean", "f_var", "f_min", "f_max"])
            .reduce("ipt", ["f_mean", "f_var", "f_min", "f_max"])
            .collect("flow"))


def test_batch_handoff_allocations_per_packet():
    if os.environ.get("SUPERFE_REFERENCE_PATH") == "1":
        pytest.skip("budget pins the columnar hand-off; the reference "
                    "oracle inserts packet by packet")
    packets = generate_trace("ENTERPRISE", n_flows=1000, seed=1)[:8750]
    batch = PacketBatch.from_packets(packets)
    dataplane = api.compile(flow_stats_policy(), n_nics=4).dataplane()

    def hand_off(part: PacketBatch) -> int:
        admitted = part.compress(dataplane.filter.admit_batch(part))
        dataplane.sink.consume_batch(dataplane.link.consume_batch(
            dataplane.switch.insert_batch(admitted)))
        return len(admitted)

    # Warm prefix: interned routes, resident groups, the engines'
    # mirrors come into existence here.
    assert hand_off(batch[:1000]) > 500
    tracemalloc.start()
    before = tracemalloc.take_snapshot()
    admitted = hand_off(batch[1000:])
    after = tracemalloc.take_snapshot()
    tracemalloc.stop()

    only_repro = [tracemalloc.Filter(True, "*/repro/*")]
    diff = after.filter_traces(only_repro).compare_to(
        before.filter_traces(only_repro), "filename")
    per_packet = sum(max(d.count_diff, 0) for d in diff) / admitted
    assert per_packet <= MAX_BLOCKS_PER_PACKET, (
        f"the batch hand-off leaves {per_packet:.2f} blocks per admitted "
        f"packet (budget {MAX_BLOCKS_PER_PACKET}) — did per-cell tuples "
        f"come back?")
