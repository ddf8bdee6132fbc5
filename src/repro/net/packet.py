"""Packet and five-tuple abstractions.

SuperFE abstracts a packet as a key-value tuple (§4.1): header fields
(addresses, ports, protocol, TCP flags) carry values parsed from the packet,
and switch-filled metadata (arrival timestamp, wire size, direction) carries
values the programmable switch attaches on ingress.  :class:`Packet` is the
in-memory form of that tuple; :meth:`Packet.field` exposes the uniform
key-based view the policy language operates on.

IP addresses are stored as 32-bit integers for speed; :func:`ip_to_int` and
:func:`int_to_ip` convert to and from dotted-quad strings at the edges.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field, replace
from typing import Callable, Iterator

import numpy as np

PROTO_ICMP = 1
PROTO_TCP = 6
PROTO_UDP = 17

#: TCP flag bits (subset used by the scenario generators and filters).
TCP_FIN = 0x01
TCP_SYN = 0x02
TCP_RST = 0x04
TCP_PSH = 0x08
TCP_ACK = 0x10

#: Direction constants: +1 for egress (initiator -> responder, or inside ->
#: outside the monitored network), -1 for ingress.  Matches the ±1 encoding
#: used by the website-fingerprinting policies of §4.2.
DIR_EGRESS = 1
DIR_INGRESS = -1


def ip_to_int(addr: str) -> int:
    """Convert a dotted-quad IPv4 address to its 32-bit integer form."""
    parts = addr.split(".")
    if len(parts) != 4:
        raise ValueError(f"not an IPv4 address: {addr!r}")
    value = 0
    for part in parts:
        octet = int(part)
        if not 0 <= octet <= 255:
            raise ValueError(f"octet out of range in {addr!r}")
        value = (value << 8) | octet
    return value


def int_to_ip(value: int) -> str:
    """Convert a 32-bit integer to a dotted-quad IPv4 string."""
    if not 0 <= value <= 0xFFFFFFFF:
        raise ValueError(f"not a 32-bit value: {value}")
    return ".".join(str((value >> shift) & 0xFF) for shift in (24, 16, 8, 0))


@dataclass(frozen=True, slots=True)
class FiveTuple:
    """The classic flow 5-tuple: addresses, ports, and IP protocol."""

    src_ip: int
    dst_ip: int
    src_port: int
    dst_port: int
    proto: int

    def reversed(self) -> "FiveTuple":
        """The same conversation seen from the opposite direction."""
        return FiveTuple(self.dst_ip, self.src_ip, self.dst_port,
                         self.src_port, self.proto)

    def canonical(self) -> "FiveTuple":
        """A direction-independent form: the lexicographically smaller
        endpoint is placed first, so both directions of a conversation map
        to the same key."""
        if (self.src_ip, self.src_port) <= (self.dst_ip, self.dst_port):
            return self
        return self.reversed()

    def __str__(self) -> str:
        return (f"{int_to_ip(self.src_ip)}:{self.src_port} -> "
                f"{int_to_ip(self.dst_ip)}:{self.dst_port}/{self.proto}")


@dataclass(frozen=True, slots=True)
class Packet:
    """One packet as a key-value tuple.

    Header-field keys (parsed from the wire): ``src_ip``, ``dst_ip``,
    ``src_port``, ``dst_port``, ``proto``, ``tcp_flags``.

    Switch-filled metadata keys: ``tstamp`` (arrival time, ns), ``size``
    (wire length, bytes), ``direction`` (+1 egress / -1 ingress, derived
    from the ingress port).
    """

    tstamp: int
    size: int
    src_ip: int
    dst_ip: int
    src_port: int = 0
    dst_port: int = 0
    proto: int = PROTO_TCP
    tcp_flags: int = 0
    direction: int = DIR_EGRESS

    def __post_init__(self) -> None:
        if self.size < 0:
            raise ValueError("packet size must be non-negative")
        if self.direction not in (DIR_EGRESS, DIR_INGRESS):
            raise ValueError("direction must be +1 or -1")

    @property
    def five_tuple(self) -> FiveTuple:
        return FiveTuple(self.src_ip, self.dst_ip, self.src_port,
                         self.dst_port, self.proto)

    @property
    def flow_key(self) -> FiveTuple:
        """Direction-independent flow key (canonical 5-tuple)."""
        return self.five_tuple.canonical()

    @property
    def is_tcp(self) -> bool:
        return self.proto == PROTO_TCP

    @property
    def is_udp(self) -> bool:
        return self.proto == PROTO_UDP

    def field(self, name: str):
        """Uniform key-based access used by the policy language.

        Supports every header/metadata key plus the derived keys
        ``flow`` (canonical 5-tuple) and the protocol-existence pseudo
        fields ``tcp.exist`` / ``udp.exist``.
        """
        if name == "flow":
            return self.flow_key
        if name == "tcp.exist":
            return self.is_tcp
        if name == "udp.exist":
            return self.is_udp
        try:
            return getattr(self, name)
        except AttributeError:
            raise KeyError(f"unknown packet field: {name!r}") from None

    def with_direction(self, direction: int) -> "Packet":
        return replace(self, direction=direction)


#: Fields resolvable as plain attributes (everything except the derived
#: ``flow`` / ``tcp.exist`` / ``udp.exist`` pseudo keys).
PLAIN_FIELDS = frozenset((
    "tstamp", "size", "src_ip", "dst_ip", "src_port", "dst_port",
    "proto", "tcp_flags", "direction"))


def compile_field_accessor(fields: tuple[str, ...]
                           ) -> Callable[[Packet], tuple]:
    """Compile a field-name tuple into one closure returning the value
    tuple for a packet.

    :meth:`Packet.field` dispatches on the field *name* per call; the
    per-packet stages (MGPV cell construction, the software baseline's
    record channel) resolve the same names for every packet, so the
    dispatch is hoisted here to policy-compile time.  Plain header and
    metadata fields become a single :func:`operator.attrgetter`; any
    derived pseudo field falls back to the generic dispatch.
    """
    if not fields:
        return lambda pkt: ()
    if all(f in PLAIN_FIELDS for f in fields):
        if len(fields) == 1:
            getter = operator.attrgetter(fields[0])
            return lambda pkt: (getter(pkt),)
        return operator.attrgetter(*fields)
    return lambda pkt: tuple(pkt.field(f) for f in fields)


def sort_by_time(packets: Iterator[Packet]) -> list[Packet]:
    """Return packets sorted by arrival timestamp (stable)."""
    return sorted(packets, key=lambda p: p.tstamp)


#: Columnar packet layout: one structured-array row per packet, fields in
#: :class:`Packet` declaration order.  Integer widths match the wire
#: format (32-bit addresses, 16-bit ports, 8-bit proto/flags); ``tstamp``
#: and ``size`` are int64 so nanosecond clocks and jumbo sizes round-trip
#: exactly.  ``.tolist()`` of any column yields plain Python ints equal to
#: the original :class:`Packet` attributes — the property the columnar
#: dataplane's bit-identical equivalence gate rests on.
PACKET_DTYPE = np.dtype([
    ("tstamp", np.int64),
    ("size", np.int64),
    ("src_ip", np.uint32),
    ("dst_ip", np.uint32),
    ("src_port", np.uint16),
    ("dst_port", np.uint16),
    ("proto", np.uint8),
    ("tcp_flags", np.uint8),
    ("direction", np.int8),
])

_PACKET_FIELDS = tuple(PACKET_DTYPE.names)

_ROW_GETTER = operator.attrgetter(*_PACKET_FIELDS)


class PacketBatch:
    """A columnar batch of packets — the array form of ``list[Packet]``.

    Backed by one numpy structured array (:data:`PACKET_DTYPE`).  The
    batch is the unit the vectorized dataplane ingests: filters evaluate
    one boolean mask per predicate, the switch computes group keys and
    hashes over whole columns, and the per-packet object layer is never
    materialized on the fast path.  Iteration and integer indexing
    materialize :class:`Packet` objects on demand, so every per-packet
    fallback path (chaos stages, tracing, custom filters) accepts a
    batch transparently.
    """

    __slots__ = ("_data", "_col_cache")

    def __init__(self, data: np.ndarray) -> None:
        if data.dtype != PACKET_DTYPE:
            raise ValueError(
                f"PacketBatch needs a PACKET_DTYPE structured array, got "
                f"dtype {data.dtype!r}")
        self._data = data
        # Per-field .tolist() memo: sliced batches get re-read column by
        # column in dispatch (filter mask, switch keys, hash columns),
        # and the conversion dominated dispatch profiles.  The backing
        # array is treated as immutable (see ``data``), so caching is
        # safe.
        self._col_cache: dict[str, list] = {}

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_packets(cls, packets) -> "PacketBatch":
        """Build a batch from any iterable of :class:`Packet`."""
        rows = [_ROW_GETTER(p) for p in packets]
        data = (np.array(rows, dtype=PACKET_DTYPE) if rows
                else np.empty(0, dtype=PACKET_DTYPE))
        return cls(data)

    @classmethod
    def from_arrays(cls, tstamp, size, src_ip, dst_ip,
                    src_port=0, dst_port=0, proto=PROTO_TCP,
                    tcp_flags=0, direction=DIR_EGRESS) -> "PacketBatch":
        """Build a batch from per-field arrays (or scalars, which
        broadcast).  Validates the same invariants as :class:`Packet`
        (non-negative sizes, ±1 directions) plus the wire-format value
        ranges the fixed-width columns require."""
        tstamp = np.asarray(tstamp, dtype=np.int64)
        if tstamp.ndim != 1:
            raise ValueError("tstamp must be a 1-d array")
        n = len(tstamp)
        data = np.empty(n, dtype=PACKET_DTYPE)
        data["tstamp"] = tstamp
        columns = (("size", size, 0, None),
                   ("src_ip", src_ip, 0, 0xFFFFFFFF),
                   ("dst_ip", dst_ip, 0, 0xFFFFFFFF),
                   ("src_port", src_port, 0, 0xFFFF),
                   ("dst_port", dst_port, 0, 0xFFFF),
                   ("proto", proto, 0, 0xFF),
                   ("tcp_flags", tcp_flags, 0, 0xFF))
        for name, values, lo, hi in columns:
            arr = np.asarray(values, dtype=np.int64)
            if arr.ndim == 0:
                arr = np.broadcast_to(arr, (n,))
            elif len(arr) != n:
                raise ValueError(
                    f"{name} has {len(arr)} rows, expected {n}")
            if len(arr) and (arr.min() < lo
                             or (hi is not None and arr.max() > hi)):
                raise ValueError(f"{name} values out of range for the "
                                 f"wire format")
            data[name] = arr
        dirs = np.asarray(direction, dtype=np.int64)
        if dirs.ndim == 0:
            dirs = np.broadcast_to(dirs, (n,))
        elif len(dirs) != n:
            raise ValueError(f"direction has {len(dirs)} rows, "
                             f"expected {n}")
        if len(dirs) and not np.isin(dirs, (DIR_EGRESS, DIR_INGRESS)).all():
            raise ValueError("direction must be +1 or -1")
        data["direction"] = dirs
        return cls(data)

    # -- sequence protocol -------------------------------------------------

    def __len__(self) -> int:
        return len(self._data)

    def __getitem__(self, index):
        """Integer index → :class:`Packet`; slice/mask/fancy index →
        :class:`PacketBatch` (a view where numpy returns one)."""
        if isinstance(index, (int, np.integer)):
            row = self._data[int(index)]
            return Packet(*(v.item() for v in row))
        return PacketBatch(self._data[index])

    def __iter__(self) -> Iterator[Packet]:
        # One .tolist() per column: the rows come out as plain Python
        # ints (bit-identical to the originals), and the per-row cost is
        # one Packet construction instead of nine .item() calls.
        cols = [self._column_list(name) for name in _PACKET_FIELDS]
        for row in zip(*cols):
            yield Packet(*row)

    def __repr__(self) -> str:
        return f"PacketBatch(n={len(self._data)})"

    # -- columnar access ---------------------------------------------------

    @property
    def data(self) -> np.ndarray:
        """The backing structured array (read it, don't resize it)."""
        return self._data

    def column(self, name: str) -> np.ndarray:
        """One field's column as an ndarray view."""
        if name not in _PACKET_FIELDS:
            raise KeyError(f"unknown packet field: {name!r}")
        return self._data[name]

    def _column_list(self, name: str) -> list:
        cached = self._col_cache.get(name)
        if cached is None:
            cached = self._data[name].tolist()
            self._col_cache[name] = cached
        return cached

    def compress(self, mask: np.ndarray) -> "PacketBatch":
        """The sub-batch selected by a boolean mask (filter admission).
        An all-true mask is the common fast path (most batches admit
        every packet) and returns ``self`` — no copy, and the column
        memo survives."""
        if mask.all():
            return self
        return PacketBatch(self._data[mask])

    def to_packets(self) -> list[Packet]:
        """Materialize the batch as a list of :class:`Packet`."""
        return list(self)
