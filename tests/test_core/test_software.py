"""Software extractor specifics: perfect-switch event synthesis, stats
accounting, and FG index stability."""

import numpy as np
import pytest

import repro.api as api
from repro.core.policy import pktstream
from repro.net.packet import PROTO_TCP, Packet
from repro.net.trace import generate_trace


def policy():
    return (pktstream().groupby("flow")
            .reduce("size", ["f_sum"]).collect("flow"))


def pkt(t, src=1, dst=2, sport=10, dport=20, size=100):
    return Packet(t, size, src, dst, sport, dport, PROTO_TCP)


def test_one_record_per_packet():
    sw = api.compile(policy(), software=True)
    result = sw.run([pkt(0), pkt(1), pkt(2)])
    assert result.switch_stats.records_out == 3
    assert result.switch_stats.cells_out == 3
    assert result.switch_stats.pkts_in == 3


def test_fg_indices_stable_per_key():
    """Unlike the real switch's hash table, the perfect stream never
    reuses an index for a different key — each unique FG key gets its
    own slot forever."""
    sw = api.compile(policy(), software=True)
    packets = generate_trace("ENTERPRISE", n_flows=60, seed=2)
    result = sw.run(packets)
    assert result.engine.stats.orphan_cells == 0
    assert result.engine.stats.syncs == len(
        {p.flow_key for p in packets if True})


def test_filter_accounted():
    sw = api.compile(
        pktstream().filter("size > 50").groupby("flow")
        .reduce("size", ["f_sum"]).collect("flow"), software=True)
    result = sw.run([pkt(0, size=10), pkt(1, size=100)])
    assert result.switch_stats.pkts_in == 1
    assert len(result) == 1


def test_division_free_option_changes_arithmetic():
    packets = generate_trace("ENTERPRISE", n_flows=40, seed=3)
    p = (pktstream().groupby("flow")
         .reduce("size", ["f_mean"]).collect("flow"))
    exact = api.compile(p, software=True, division_free=False).run(packets)
    integer = api.compile(p, software=True, division_free=True).run(packets)
    diffs = [abs(exact.by_key()[k][0] - integer.by_key()[k][0])
             for k in exact.by_key()]
    assert max(diffs) <= 1.0            # integer mean within one unit
    # Integer path produces whole numbers.
    assert all(float(v).is_integer()
               for vec in integer.vectors for v in vec.values)


def test_empty_stream():
    result = api.compile(policy(), software=True).run([])
    assert len(result) == 0
    assert result.switch_stats.pkts_in == 0
