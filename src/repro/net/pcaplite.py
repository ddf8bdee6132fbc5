"""Minimal pcap reader/writer (libpcap format, no dependencies).

Lets traces produced by :mod:`repro.net.trace` round-trip through standard
tooling (tcpdump/wireshark) and lets users feed real captures into the
extractor.  Only Ethernet + IPv4 + TCP/UDP framing is synthesized/parsed —
enough to carry every field of :class:`repro.net.packet.Packet`; packets
with other link/network layers are skipped on read.

The pcap on-disk format: a 24-byte global header, then per-packet 16-byte
record headers followed by the captured bytes.  We write nanosecond-
resolution pcap (magic 0xA1B23C4D) so packet timestamps survive exactly.
"""

from __future__ import annotations

import struct
import warnings
from typing import BinaryIO, Iterator

import numpy as np

from repro.net.packet import (
    DIR_EGRESS,
    PACKET_DTYPE,
    PROTO_TCP,
    PROTO_UDP,
    Packet,
    PacketBatch,
)

_MAGIC_NS = 0xA1B23C4D
_MAGIC_US = 0xA1B2C3D4
_LINKTYPE_ETHERNET = 1
_ETHERTYPE_IPV4 = 0x0800

_GLOBAL_HDR = struct.Struct("<IHHiIII")
_RECORD_HDR = struct.Struct("<IIII")


class TruncatedPcapWarning(UserWarning):
    """The capture ended mid-record (killed tcpdump, full disk); the
    packets before the cut are returned."""

#: Synthetic MACs: the low bit of the first dest-MAC byte encodes packet
#: direction so it survives a pcap round trip (02:.. egress, 03:.. ingress).
_MAC_EGRESS = bytes.fromhex("020000000001")
_MAC_INGRESS = bytes.fromhex("030000000001")
_MAC_SRC = bytes.fromhex("020000000002")


def _build_frame(pkt: Packet) -> bytes:
    """Assemble an Ethernet/IPv4/L4 frame for ``pkt``.

    The IP total-length field carries the packet's true wire size so it is
    recoverable even though we don't emit padding payload bytes.
    """
    dst_mac = _MAC_EGRESS if pkt.direction == DIR_EGRESS else _MAC_INGRESS
    eth = dst_mac + _MAC_SRC + struct.pack(">H", _ETHERTYPE_IPV4)
    ip_total_len = max(20, pkt.size - 14)
    ip = struct.pack(
        ">BBHHHBBHII",
        0x45, 0, ip_total_len, 0, 0, 64, pkt.proto, 0,
        pkt.src_ip, pkt.dst_ip,
    )
    if pkt.proto == PROTO_TCP:
        l4 = struct.pack(">HHIIBBHHH", pkt.src_port, pkt.dst_port, 0, 0,
                         0x50, pkt.tcp_flags, 0, 0, 0)
    elif pkt.proto == PROTO_UDP:
        l4 = struct.pack(">HHHH", pkt.src_port, pkt.dst_port, 8, 0)
    else:
        l4 = b""
    return eth + ip + l4


def write_pcap(path: str, packets: list[Packet]) -> None:
    """Write packets to a nanosecond-resolution pcap file."""
    with open(path, "wb") as fh:
        fh.write(_GLOBAL_HDR.pack(_MAGIC_NS, 2, 4, 0, 0, 65535,
                                  _LINKTYPE_ETHERNET))
        for pkt in packets:
            frame = _build_frame(pkt)
            sec, nsec = divmod(pkt.tstamp, 1_000_000_000)
            fh.write(_RECORD_HDR.pack(sec, nsec, len(frame),
                                      max(pkt.size, len(frame))))
            fh.write(frame)


def _parse_row(data: bytes, tstamp: int, orig_len: int) -> tuple | None:
    """One frame's fields as a plain tuple in :class:`Packet` (and
    ``PACKET_DTYPE``) declaration order; None for non-IPv4 frames."""
    if len(data) < 34:
        return None
    ethertype = struct.unpack_from(">H", data, 12)[0]
    if ethertype != _ETHERTYPE_IPV4:
        return None
    ihl = (data[14] & 0x0F) * 4
    proto = data[23]
    src_ip, dst_ip = struct.unpack_from(">II", data, 26)
    l4_off = 14 + ihl
    src_port = dst_port = 0
    tcp_flags = 0
    if proto == PROTO_TCP and len(data) >= l4_off + 14:
        src_port, dst_port = struct.unpack_from(">HH", data, l4_off)
        tcp_flags = data[l4_off + 13]
    elif proto == PROTO_UDP and len(data) >= l4_off + 4:
        src_port, dst_port = struct.unpack_from(">HH", data, l4_off)
    direction = DIR_EGRESS if data[0] & 0x01 == 0 else -1
    return (tstamp, orig_len, src_ip, dst_ip, src_port, dst_port,
            proto, tcp_flags, direction)


def _parse_frame(data: bytes, tstamp: int, orig_len: int) -> Packet | None:
    row = _parse_row(data, tstamp, orig_len)
    return Packet(*row) if row is not None else None


def _iter_records(fh: BinaryIO, ns_resolution: bool, path: str = ""
                  ) -> Iterator[tuple[int, bytes, int]]:
    while True:
        hdr = fh.read(_RECORD_HDR.size)
        if not hdr:
            return
        if len(hdr) < _RECORD_HDR.size:
            # A cut mid-header: everything before it is intact, so keep
            # what was read instead of failing the whole replay.
            warnings.warn(
                f"{path}: truncated record header at end of capture "
                f"({len(hdr)} of {_RECORD_HDR.size} bytes); stopping",
                TruncatedPcapWarning, stacklevel=3)
            return
        sec, frac, incl_len, orig_len = _RECORD_HDR.unpack(hdr)
        data = fh.read(incl_len)
        if len(data) < incl_len:
            warnings.warn(
                f"{path}: final packet record truncated ({len(data)} of "
                f"{incl_len} captured bytes); stopping",
                TruncatedPcapWarning, stacklevel=3)
            return
        nsec = frac if ns_resolution else frac * 1000
        yield sec * 1_000_000_000 + nsec, data, orig_len


def _read_global_header(fh: BinaryIO, path: str) -> bool:
    """Validate the 24-byte global header; True for ns resolution."""
    ghdr = fh.read(_GLOBAL_HDR.size)
    if len(ghdr) < _GLOBAL_HDR.size:
        raise ValueError(f"{path}: truncated pcap global header")
    magic = _GLOBAL_HDR.unpack(ghdr)[0]
    if magic == _MAGIC_NS:
        return True
    if magic == _MAGIC_US:
        return False
    raise ValueError(f"{path}: not a pcap file (magic {magic:#010x})")


def read_pcap(path: str) -> list[Packet]:
    """Read an IPv4 pcap file; non-IPv4 records are skipped."""
    with open(path, "rb") as fh:
        ns_resolution = _read_global_header(fh, path)
        packets = []
        for tstamp, data, orig_len in _iter_records(fh, ns_resolution,
                                                    path):
            pkt = _parse_frame(data, tstamp, orig_len)
            if pkt is not None:
                packets.append(pkt)
        return packets


def read_batches(path: str, batch_size: int = 4096
                 ) -> Iterator[PacketBatch]:
    """Read an IPv4 pcap file as a stream of columnar
    :class:`~repro.net.packet.PacketBatch` chunks of at most
    ``batch_size`` packets (the last may be shorter; non-IPv4 records
    are skipped).  Frames go straight into structured-array rows — no
    intermediate :class:`Packet` objects — so a capture can feed
    ``Extractor.run``/``stream`` on the columnar dataplane path
    end to end.
    """
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    with open(path, "rb") as fh:
        ns_resolution = _read_global_header(fh, path)
        rows: list[tuple] = []
        for tstamp, data, orig_len in _iter_records(fh, ns_resolution,
                                                    path):
            row = _parse_row(data, tstamp, orig_len)
            if row is None:
                continue
            rows.append(row)
            if len(rows) >= batch_size:
                yield PacketBatch(np.array(rows, dtype=PACKET_DTYPE))
                rows = []
        if rows:
            yield PacketBatch(np.array(rows, dtype=PACKET_DTYPE))
