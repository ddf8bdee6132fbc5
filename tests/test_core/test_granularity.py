"""Granularities, dependency chains, projection invariants, and the §9
dependency-graph chain splitting."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.granularity import (
    CHANNEL,
    FLOW,
    GRANULARITIES,
    HOST,
    SOCKET,
    Granularity,
    dependency_chain,
    get_granularity,
    register_granularity,
    split_into_chains,
)
from repro.net.packet import PROTO_TCP, Packet


def pkt(src=1, dst=2, sport=10, dport=20):
    return Packet(0, 100, src, dst, sport, dport, PROTO_TCP)


class TestKeys:
    def test_packet_keys(self):
        p = pkt()
        assert HOST.packet_key(p) == (1,)
        assert CHANNEL.packet_key(p) == (1, 2)
        assert SOCKET.packet_key(p) == (1, 2, 10, 20, PROTO_TCP)

    def test_flow_key_bidirectional(self):
        fwd, rev = pkt(1, 2, 10, 20), pkt(2, 1, 20, 10)
        assert FLOW.packet_key(fwd) == FLOW.packet_key(rev)

    @given(st.integers(0, 2 ** 32 - 1), st.integers(0, 2 ** 32 - 1),
           st.integers(0, 65535), st.integers(0, 65535))
    @settings(max_examples=100, deadline=None)
    def test_projection_consistency(self, src, dst, sport, dport):
        """Projecting the socket (FG) key must equal keying the packet
        directly at the coarser granularity — the §5.1 invariant that
        makes the FG-key table sufficient."""
        p = pkt(src, dst, sport, dport)
        fg_key = SOCKET.packet_key(p)
        assert HOST.project(fg_key) == HOST.packet_key(p)
        assert CHANNEL.project(fg_key) == CHANNEL.packet_key(p)
        assert SOCKET.project(fg_key) == fg_key

    def test_key_bytes(self):
        assert HOST.key_bytes == 4
        assert CHANNEL.key_bytes == 8
        assert SOCKET.key_bytes == 13
        assert FLOW.key_bytes == 13


class TestChain:
    def test_orders_coarse_to_fine(self):
        chain = dependency_chain(["socket", "host", "channel"])
        assert [g.name for g in chain] == ["host", "channel", "socket"]

    def test_single(self):
        assert [g.name for g in dependency_chain(["flow"])] == ["flow"]

    def test_mixed_chains_rejected(self):
        with pytest.raises(ValueError, match="multiple dependency chains"):
            dependency_chain(["flow", "host"])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            dependency_chain([])

    def test_duplicates_deduped(self):
        chain = dependency_chain(["host", "host", "channel"])
        assert [g.name for g in chain] == ["host", "channel"]

    def test_unknown(self):
        with pytest.raises(KeyError):
            dependency_chain(["nope"])


class TestRegistration:
    def test_register_custom(self):
        g = Granularity(
            name="dstport_test", chain="custom", level=0,
            key_fields=("dst_port",),
            packet_key=lambda p: (p.dst_port,),
            project=lambda k: k)
        register_granularity(g)
        try:
            assert get_granularity("dstport_test") is g
            with pytest.raises(ValueError):
                register_granularity(g)
        finally:
            del GRANULARITIES["dstport_test"]


class TestChainSplitting:
    def test_single_chain_stays_single(self):
        chains = split_into_chains(["host", "channel", "socket"])
        assert chains == [["host", "channel", "socket"]]

    def test_two_independent_chains(self):
        chains = split_into_chains(["flow", "host", "socket"])
        assert len(chains) == 2
        flat = sorted(n for c in chains for n in c)
        assert flat == ["flow", "host", "socket"]
        # The directed pair stays in one chain.
        directed = next(c for c in chains if "host" in c)
        assert directed == ["host", "socket"]

    def test_singletons(self):
        assert split_into_chains(["flow"]) == [["flow"]]

    #: Every non-empty subset of the built-in granularities, with the
    #: cover the bipartite-matching implementation returned for it.
    COVERS = {
        ("host",): [["host"]],
        ("channel",): [["channel"]],
        ("socket",): [["socket"]],
        ("flow",): [["flow"]],
        ("host", "channel"): [["host", "channel"]],
        ("host", "socket"): [["host", "socket"]],
        ("host", "flow"): [["flow"], ["host"]],
        ("channel", "socket"): [["channel", "socket"]],
        ("channel", "flow"): [["channel"], ["flow"]],
        ("socket", "flow"): [["flow"], ["socket"]],
        ("host", "channel", "socket"): [["host", "channel", "socket"]],
        ("host", "channel", "flow"): [["flow"], ["host", "channel"]],
        ("host", "socket", "flow"): [["flow"], ["host", "socket"]],
        ("channel", "socket", "flow"): [["channel", "socket"], ["flow"]],
        ("host", "channel", "socket", "flow"):
            [["flow"], ["host", "channel", "socket"]],
    }

    @pytest.mark.parametrize("names", sorted(COVERS), ids=",".join)
    def test_builtin_subsets_keep_their_cover(self, names):
        want = self.COVERS[names]
        assert split_into_chains(list(names)) == want
        assert split_into_chains(list(reversed(names))) == want

    def test_shared_level_splits_into_separate_chains(self):
        """Two granularities on one level of one chain cannot share a
        chain; each resulting chain still passes dependency_chain."""
        extra = [Granularity(name=name, chain="directed", level=level,
                             key_fields=("src_ip",),
                             packet_key=HOST.packet_key,
                             project=HOST.project)
                 for name, level in (("host_b", 0), ("channel_b", 1),
                                     ("channel_c", 1))]
        for gran in extra:
            register_granularity(gran)
        try:
            chains = split_into_chains(
                ["socket", "channel_c", "host", "channel", "host_b",
                 "channel_b"])
            assert chains == [["channel_c"], ["host", "channel", "socket"],
                              ["host_b", "channel_b"]]
            for chain in chains:
                assert [g.name for g in dependency_chain(chain)] == chain
        finally:
            for gran in extra:
                del GRANULARITIES[gran.name]
