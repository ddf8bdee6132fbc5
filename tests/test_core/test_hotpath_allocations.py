"""Allocation budget of the per-packet path (tracemalloc).

The hot-path pass removed the per-packet garbage — event lists, cell
fields dicts, fresh member views, key canonicalization tuples.  What
remains per steady-state packet is the data the pipeline genuinely
retains: the metadata tuple and the cell tuple batched into the MGPV
entry (~2 allocation blocks).  This test pins that budget with
tracemalloc so a regression (e.g. reintroducing a dict per cell, which
puts the reference oracle at ~2.3 blocks/packet) fails loudly.

Counting is restricted to blocks allocated from ``repro`` source files,
so pytest/hypothesis background allocations don't leak into the number.
"""

import os
import tracemalloc

import pytest

from repro.bench.parallel import scaling_policy
from repro.core.compiler import PolicyCompiler
from repro.net.trace import generate_trace
from repro.nicsim.loadbalance import NICCluster
from repro.switchsim.filter import FilterStage
from repro.switchsim.mgpv import MGPVCache

#: Steady-state allocation blocks per admitted packet across switch
#: insert + NIC consume.  Measured ~1.8; the pre-optimization reference
#: path measures ~2.3, so the budget separates the two with headroom.
MAX_BLOCKS_PER_PACKET = 2.1


def test_steady_state_allocations_per_packet():
    if os.environ.get("SUPERFE_REFERENCE_PATH") == "1":
        pytest.skip("budget pins the optimized path; the reference "
                    "oracle intentionally allocates more")
    compiled = PolicyCompiler().compile(scaling_policy())
    packets = generate_trace("ENTERPRISE", n_flows=60, seed=3)
    cache = MGPVCache(compiled.cg, compiled.fg,
                      compiled.sized_mgpv_config(None),
                      compiled.metadata_fields)
    stage = FilterStage(list(compiled.switch_filters))
    cluster = NICCluster(compiled, 2)
    buf = []

    def one_pass() -> int:
        admitted = 0
        for pkt in packets:
            if stage.admit(pkt):
                buf.clear()
                cache.insert(pkt, buf)
                for event in buf:
                    cluster.consume_batch([event])
                admitted += 1
        return admitted

    # Warm pass: flows, interned routes, group states, steering memos
    # all come into existence here — the traced pass below sees only
    # the per-packet steady state.
    warm = one_pass()
    assert warm > 100

    tracemalloc.start()
    before = tracemalloc.take_snapshot()
    admitted = one_pass()
    after = tracemalloc.take_snapshot()
    tracemalloc.stop()

    only_repro = [tracemalloc.Filter(True, "*/repro/*")]
    diff = after.filter_traces(only_repro).compare_to(
        before.filter_traces(only_repro), "filename")
    net_blocks = sum(max(d.count_diff, 0) for d in diff)
    per_packet = net_blocks / admitted
    assert per_packet <= MAX_BLOCKS_PER_PACKET, (
        f"per-packet path allocates {per_packet:.2f} blocks/packet "
        f"(budget {MAX_BLOCKS_PER_PACKET}) — did a per-cell dict or "
        f"per-insert list come back?")
