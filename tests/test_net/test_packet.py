"""Packet / FiveTuple abstraction: field access, canonicalization,
validation, IP conversion round trips."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.packet import (
    DIR_EGRESS,
    DIR_INGRESS,
    PROTO_TCP,
    PROTO_UDP,
    FiveTuple,
    Packet,
    PacketBatch,
    int_to_ip,
    ip_to_int,
    sort_by_time,
)


class TestIpConversion:
    def test_known_values(self):
        assert ip_to_int("10.0.0.1") == 0x0A000001
        assert ip_to_int("255.255.255.255") == 0xFFFFFFFF
        assert int_to_ip(0xC0A80001) == "192.168.0.1"

    @given(st.integers(min_value=0, max_value=0xFFFFFFFF))
    @settings(max_examples=200, deadline=None)
    def test_round_trip(self, value):
        assert ip_to_int(int_to_ip(value)) == value

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            ip_to_int("1.2.3")
        with pytest.raises(ValueError):
            ip_to_int("1.2.3.256")
        with pytest.raises(ValueError):
            int_to_ip(-1)
        with pytest.raises(ValueError):
            int_to_ip(2 ** 32)


class TestFiveTuple:
    def test_reversed(self):
        ft = FiveTuple(1, 2, 10, 20, PROTO_TCP)
        rev = ft.reversed()
        assert rev == FiveTuple(2, 1, 20, 10, PROTO_TCP)
        assert rev.reversed() == ft

    def test_canonical_is_direction_independent(self):
        ft = FiveTuple(100, 2, 9999, 80, PROTO_TCP)
        assert ft.canonical() == ft.reversed().canonical()

    @given(st.integers(0, 2 ** 32 - 1), st.integers(0, 2 ** 32 - 1),
           st.integers(0, 65535), st.integers(0, 65535))
    @settings(max_examples=100, deadline=None)
    def test_canonical_idempotent(self, a, b, pa, pb):
        ft = FiveTuple(a, b, pa, pb, PROTO_TCP)
        assert ft.canonical().canonical() == ft.canonical()

    def test_str(self):
        text = str(FiveTuple(ip_to_int("10.0.0.1"),
                             ip_to_int("192.168.0.1"), 1234, 80,
                             PROTO_TCP))
        assert "10.0.0.1:1234" in text


class TestPacket:
    def make(self, **kw):
        defaults = dict(tstamp=1000, size=100, src_ip=1, dst_ip=2,
                        src_port=10, dst_port=20, proto=PROTO_TCP)
        defaults.update(kw)
        return Packet(**defaults)

    def test_validation(self):
        with pytest.raises(ValueError):
            self.make(size=-1)
        with pytest.raises(ValueError):
            self.make(direction=0)

    def test_protocol_flags(self):
        assert self.make(proto=PROTO_TCP).is_tcp
        assert not self.make(proto=PROTO_TCP).is_udp
        assert self.make(proto=PROTO_UDP).is_udp

    def test_flow_key_shared_by_both_directions(self):
        fwd = self.make(src_ip=1, dst_ip=2, src_port=10, dst_port=20)
        rev = self.make(src_ip=2, dst_ip=1, src_port=20, dst_port=10,
                        direction=DIR_INGRESS)
        assert fwd.flow_key == rev.flow_key

    def test_field_access(self):
        pkt = self.make()
        assert pkt.field("size") == 100
        assert pkt.field("tstamp") == 1000
        assert pkt.field("tcp.exist") is True
        assert pkt.field("udp.exist") is False
        assert pkt.field("direction") == DIR_EGRESS
        assert pkt.field("flow") == pkt.flow_key

    def test_field_unknown(self):
        with pytest.raises(KeyError):
            self.make().field("nope")

    def test_with_direction(self):
        pkt = self.make().with_direction(DIR_INGRESS)
        assert pkt.direction == DIR_INGRESS

    def test_sort_by_time(self):
        pkts = [self.make(tstamp=t) for t in (5, 1, 3)]
        assert [p.tstamp for p in sort_by_time(pkts)] == [1, 3, 5]


class TestFromPacketsWireRanges:
    """Every Packet list ``Dataplane.process`` takes goes through
    ``PacketBatch.from_packets``: a value its fixed-width column cannot
    hold is a ValueError naming the field, never a silent wrap."""

    @pytest.mark.parametrize("field, value", [
        ("src_ip", -1), ("src_ip", 1 << 32),
        ("dst_ip", -1), ("dst_ip", 1 << 32),
        ("src_port", -1), ("src_port", 70000),
        ("dst_port", -1), ("dst_port", 1 << 16),
        ("proto", -1), ("proto", 256),
        ("tcp_flags", -1), ("tcp_flags", 300),
    ])
    def test_out_of_range_field_is_named(self, field, value):
        good = Packet(1, 60, 1, 2, 3, 4)
        bad = Packet(**{**{f: getattr(good, f) for f in good.__slots__},
                        field: value})
        with pytest.raises(ValueError, match=field):
            PacketBatch.from_packets([good, bad])

    def test_size_is_checked_even_without_packet_validation(self):
        class Raw:
            tstamp, size, src_ip, dst_ip = 1, -5, 1, 2
            src_port = dst_port = proto = tcp_flags = 0
            direction = DIR_EGRESS
        with pytest.raises(ValueError, match="size"):
            PacketBatch.from_packets([Raw()])

    def test_wire_extremes_round_trip(self):
        pkt = Packet(2**40, 9000, 0xFFFFFFFF, 0, 0xFFFF, 0, 0xFF, 0xFF,
                     DIR_INGRESS)
        assert PacketBatch.from_packets([pkt]).to_packets() == [pkt]
        assert len(PacketBatch.from_packets([])) == 0
