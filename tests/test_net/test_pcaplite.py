"""pcap codec: round trips, resolution handling, malformed inputs."""

import struct

import numpy as np
import pytest

from repro.net.packet import (
    PROTO_ICMP,
    PROTO_TCP,
    PROTO_UDP,
    Packet,
    PacketBatch,
)
from repro.net.pcaplite import (
    TruncatedPcapWarning,
    read_batches,
    read_pcap,
    write_pcap,
)
from repro.net.trace import generate_trace


def test_round_trip_preserves_fields(tmp_path):
    pkts = generate_trace("ENTERPRISE", n_flows=40, seed=1)
    path = str(tmp_path / "t.pcap")
    write_pcap(path, pkts)
    back = read_pcap(path)
    assert len(back) == len(pkts)
    for a, b in zip(pkts, back):
        assert (a.tstamp, a.src_ip, a.dst_ip, a.src_port, a.dst_port,
                a.proto, a.direction) == (
            b.tstamp, b.src_ip, b.dst_ip, b.src_port, b.dst_port,
            b.proto, b.direction)
        assert b.size >= a.size or b.size == max(a.size, 54)


def test_tcp_flags_survive(tmp_path):
    pkt = Packet(123456789, 100, 1, 2, 10, 20, PROTO_TCP, tcp_flags=0x12)
    path = str(tmp_path / "flags.pcap")
    write_pcap(path, [pkt])
    assert read_pcap(path)[0].tcp_flags == 0x12


def test_udp_packet(tmp_path):
    pkt = Packet(5, 200, 3, 4, 53, 5353, PROTO_UDP)
    path = str(tmp_path / "udp.pcap")
    write_pcap(path, [pkt])
    back = read_pcap(path)[0]
    assert back.proto == PROTO_UDP
    assert (back.src_port, back.dst_port) == (53, 5353)


def test_icmp_has_no_ports(tmp_path):
    pkt = Packet(5, 64, 3, 4, 0, 0, PROTO_ICMP)
    path = str(tmp_path / "icmp.pcap")
    write_pcap(path, [pkt])
    back = read_pcap(path)[0]
    assert back.proto == PROTO_ICMP
    assert back.src_port == 0


def test_nanosecond_timestamps(tmp_path):
    pkt = Packet(1_234_567_890_123_456_789, 100, 1, 2, 1, 2, PROTO_TCP)
    path = str(tmp_path / "ns.pcap")
    write_pcap(path, [pkt])
    assert read_pcap(path)[0].tstamp == 1_234_567_890_123_456_789


def test_not_a_pcap(tmp_path):
    path = tmp_path / "junk.bin"
    path.write_bytes(b"not a pcap at all, definitely")
    with pytest.raises(ValueError, match="not a pcap"):
        read_pcap(str(path))


def test_truncated_header(tmp_path):
    path = tmp_path / "short.pcap"
    path.write_bytes(b"\x4d\x3c\xb2\xa1")
    with pytest.raises(ValueError, match="truncated"):
        read_pcap(str(path))


def test_truncated_record_warns_and_keeps_prefix(tmp_path):
    """A cut mid-data drops only the final record, with a warning."""
    pkts = [Packet(1, 100, 1, 2, 1, 2, PROTO_TCP),
            Packet(2, 100, 3, 4, 5, 6, PROTO_TCP)]
    path = tmp_path / "trunc.pcap"
    write_pcap(str(path), pkts)
    data = path.read_bytes()
    path.write_bytes(data[:-5])
    with pytest.warns(TruncatedPcapWarning, match="captured bytes"):
        back = read_pcap(str(path))
    assert len(back) == 1
    assert back[0].src_ip == 1


def test_truncated_record_header_warns_and_keeps_prefix(tmp_path):
    """A cut mid-record-header keeps the complete records before it."""
    pkts = [Packet(1, 100, 1, 2, 1, 2, PROTO_TCP),
            Packet(2, 100, 3, 4, 5, 6, PROTO_TCP)]
    path = tmp_path / "trunc_hdr.pcap"
    write_pcap(str(path), pkts)
    data = path.read_bytes()
    # Cut inside the second record's 16-byte header: keep the global
    # header, the full first record, and 7 stray header bytes.
    first_record_end = 24 + 16 + (len(data) - 24 - 2 * 16) // 2
    path.write_bytes(data[:first_record_end + 7])
    with pytest.warns(TruncatedPcapWarning, match="record header"):
        back = read_pcap(str(path))
    assert len(back) == 1
    assert back[0].src_ip == 1


def test_microsecond_pcap_read(tmp_path):
    """A classic (us-resolution) pcap file is converted to ns."""
    path = tmp_path / "us.pcap"
    frame = bytes.fromhex("020000000001") + bytes.fromhex("020000000002")
    frame += struct.pack(">H", 0x0800)
    frame += struct.pack(">BBHHHBBHII", 0x45, 0, 40, 0, 0, 64, 6, 0, 1, 2)
    frame += struct.pack(">HHIIBBHHH", 10, 20, 0, 0, 0x50, 0, 0, 0, 0)
    with open(path, "wb") as fh:
        fh.write(struct.pack("<IHHiIII", 0xA1B2C3D4, 2, 4, 0, 0, 65535, 1))
        fh.write(struct.pack("<IIII", 1, 500, len(frame), len(frame)))
        fh.write(frame)
    pkts = read_pcap(str(path))
    assert len(pkts) == 1
    assert pkts[0].tstamp == 1_000_000_000 + 500 * 1000


@pytest.mark.parametrize("batch_size", [1, 97, 100_000])
def test_read_batches_concatenate_to_read_pcap(tmp_path, batch_size):
    """The chunks are ``read_pcap``'s packets as batch rows, in order,
    each of ``batch_size`` rows but the last."""
    path = str(tmp_path / "b.pcap")
    write_pcap(path, generate_trace("ENTERPRISE", n_flows=20, seed=4))
    want = PacketBatch.from_packets(read_pcap(path)).data
    chunks = list(read_batches(path, batch_size))
    assert [len(c) for c in chunks[:-1]] == [batch_size] * (len(chunks) - 1)
    assert 0 < len(chunks[-1]) <= batch_size
    got = np.concatenate([c.data for c in chunks])
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def test_read_batches_truncated_record_warns_and_keeps_prefix(tmp_path):
    pkts = [Packet(1, 100, 1, 2, 1, 2, PROTO_TCP),
            Packet(2, 100, 3, 4, 5, 6, PROTO_TCP)]
    path = tmp_path / "trunc.pcap"
    write_pcap(str(path), pkts)
    path.write_bytes(path.read_bytes()[:-5])
    with pytest.warns(TruncatedPcapWarning, match="captured bytes"):
        chunks = list(read_batches(str(path), 4))
    assert [len(c) for c in chunks] == [1]
    assert chunks[0].data.tobytes() == PacketBatch.from_packets(
        pkts[:1]).data.tobytes()


def test_read_batches_rejects_empty_batches(tmp_path):
    path = str(tmp_path / "e.pcap")
    write_pcap(path, [Packet(1, 100, 1, 2, 1, 2, PROTO_TCP)])
    with pytest.raises(ValueError, match="batch_size"):
        next(read_batches(path, 0))
