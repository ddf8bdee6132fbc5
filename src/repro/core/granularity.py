"""Grouping granularities and dependency chains (§4.1, §5.1).

SuperFE groups packet streams at a handful of common granularities
(Table 5).  The directed granularities form the dependency chain the MGPV
cache exploits: every packet's ``socket`` key projects onto its ``channel``
key, which projects onto its ``host`` key, so the switch only needs to
store the finest-granularity (FG) key per packet and the NIC can recover
every coarser grouping by projection.

- ``host``    — the packet's source IP (directed; coarsest).
- ``channel`` — the (source IP, destination IP) pair (directed).
- ``socket``  — the directed 5-tuple (finest).
- ``flow``    — the *bidirectional* 5-tuple: both directions of a
  conversation share one group, with per-packet direction metadata
  preserved.  Used by website-fingerprinting and per-flow statistical
  policies; it forms its own (single-element) chain.

More complex granularity relationships form a dependency *graph*; §9
sketches splitting such a graph into a minimum number of chains —
implemented here in :func:`split_into_chains` (the paper's future work).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import networkx as nx
import numpy as np

from repro.net.packet import Packet


@dataclass(frozen=True)
class Granularity:
    """One grouping granularity.

    ``packet_key`` derives the group key of a packet; ``project`` derives
    this granularity's key from a key of the finest granularity in the same
    chain (the FG-key-table mechanism of §5.1).  ``level`` orders a chain
    from coarse (small) to fine (large).
    """

    name: str
    chain: str                 # chain id: granularities in the same chain
    level: int                 # coarse (0) -> fine (larger)
    key_fields: tuple[str, ...]
    packet_key: Callable[[Packet], tuple]
    project: Callable[[tuple], tuple]
    records_direction: bool = True
    #: Optional columnar twin of ``packet_key``: maps a PacketBatch to
    #: the key as a tuple of integer columns, one per key position (row
    #: i's key is the tuple of the columns' i-th values as Python ints,
    #: identical to calling ``packet_key`` on that row).  None → the
    #: batch dataplane falls back to per-packet keying.
    batch_key: Callable | None = None

    #: bytes needed to store one key of this granularity on the switch
    @property
    def key_bytes(self) -> int:
        sizes = {"src_ip": 4, "dst_ip": 4, "src_port": 2, "dst_port": 2,
                 "proto": 1}
        return sum(sizes.get(f, 4) for f in self.key_fields)

    def __str__(self) -> str:
        return self.name


def _host_key(pkt: Packet) -> tuple:
    return (pkt.src_ip,)


def _channel_key(pkt: Packet) -> tuple:
    return (pkt.src_ip, pkt.dst_ip)


def _socket_key(pkt: Packet) -> tuple:
    return (pkt.src_ip, pkt.dst_ip, pkt.src_port, pkt.dst_port, pkt.proto)


def _flow_key(pkt: Packet) -> tuple:
    # Canonicalized inline (same ordering as FiveTuple.canonical) —
    # the per-packet path skips the two FiveTuple allocations.
    src_ip, dst_ip = pkt.src_ip, pkt.dst_ip
    src_port, dst_port = pkt.src_port, pkt.dst_port
    if (src_ip, src_port) <= (dst_ip, dst_port):
        return (src_ip, dst_ip, src_port, dst_port, pkt.proto)
    return (dst_ip, src_ip, dst_port, src_port, pkt.proto)


def _host_key_batch(batch) -> tuple:
    return (batch.column("src_ip"),)


def _channel_key_batch(batch) -> tuple:
    return batch.column("src_ip"), batch.column("dst_ip")


def _socket_key_batch(batch) -> tuple:
    return tuple(batch.column(f) for f in
                 ("src_ip", "dst_ip", "src_port", "dst_port", "proto"))


def _flow_key_batch(batch) -> tuple:
    # The canonicalization branch of `_flow_key` as a where-swap: a row
    # swaps endpoints exactly when (src_ip, src_port) > (dst_ip, dst_port)
    # lexicographically.
    src_ip = batch.column("src_ip")
    dst_ip = batch.column("dst_ip")
    src_port = batch.column("src_port")
    dst_port = batch.column("dst_port")
    swap = (src_ip > dst_ip) | ((src_ip == dst_ip) & (src_port > dst_port))
    return (np.where(swap, dst_ip, src_ip), np.where(swap, src_ip, dst_ip),
            np.where(swap, dst_port, src_port),
            np.where(swap, src_port, dst_port), batch.column("proto"))


#: Directed chain: host > channel > socket.  Projections take a socket key
#: (the FG key of the chain) down to the coarser key.
HOST = Granularity(
    name="host", chain="directed", level=0, key_fields=("src_ip",),
    packet_key=_host_key, project=lambda k: (k[0],),
    batch_key=_host_key_batch,
)
CHANNEL = Granularity(
    name="channel", chain="directed", level=1,
    key_fields=("src_ip", "dst_ip"),
    packet_key=_channel_key, project=lambda k: (k[0], k[1]),
    batch_key=_channel_key_batch,
)
SOCKET = Granularity(
    name="socket", chain="directed", level=2,
    key_fields=("src_ip", "dst_ip", "src_port", "dst_port", "proto"),
    packet_key=_socket_key, project=lambda k: k,
    batch_key=_socket_key_batch,
)
#: Bidirectional flow: its own chain; FG == CG.
FLOW = Granularity(
    name="flow", chain="bidir", level=0,
    key_fields=("src_ip", "dst_ip", "src_port", "dst_port", "proto"),
    packet_key=_flow_key, project=lambda k: k,
    batch_key=_flow_key_batch,
)

GRANULARITIES: dict[str, Granularity] = {
    g.name: g for g in (HOST, CHANNEL, SOCKET, FLOW)
}


def get_granularity(name: str) -> Granularity:
    try:
        return GRANULARITIES[name]
    except KeyError:
        raise KeyError(
            f"unknown granularity {name!r} (have {sorted(GRANULARITIES)})"
        ) from None


def register_granularity(gran: Granularity) -> None:
    """User extension point: add a custom granularity (§4.1 — "groupby(g)
    can be easily extended to support more group granularities")."""
    if gran.name in GRANULARITIES:
        raise ValueError(f"granularity {gran.name!r} already registered")
    GRANULARITIES[gran.name] = gran


def dependency_chain(names: list[str]) -> list[Granularity]:
    """Order the used granularities coarse -> fine and verify they form a
    single dependency chain (the paper's modeling assumption, §5.1).

    Raises ``ValueError`` when granularities from different chains are
    mixed — such policies need the dependency-graph split of §9, see
    :func:`split_into_chains`.
    """
    grans = [get_granularity(n) for n in dict.fromkeys(names)]
    if not grans:
        raise ValueError("policy uses no granularity")
    chains = {g.chain for g in grans}
    if len(chains) > 1:
        raise ValueError(
            f"granularities {sorted(g.name for g in grans)} span multiple "
            f"dependency chains {sorted(chains)}; split the policy with "
            f"repro.core.granularity.split_into_chains"
        )
    ordered = sorted(grans, key=lambda g: g.level)
    levels = [g.level for g in ordered]
    if len(set(levels)) != len(levels):
        raise ValueError("duplicate granularity levels in chain")
    return ordered


def split_into_chains(names: list[str]) -> list[list[str]]:
    """Split a set of granularities whose refinement relation forms a DAG
    into a minimum number of dependency chains (§9's future work).

    By Dilworth's theorem the minimum chain cover of a DAG equals the
    maximum antichain; the classical construction reduces it to maximum
    bipartite matching on the transitive closure, which we solve with
    networkx.  Each returned chain can be assigned its own MGPV instance.
    """
    grans = [get_granularity(n) for n in dict.fromkeys(names)]
    dag = nx.DiGraph()
    dag.add_nodes_from(g.name for g in grans)
    for a in grans:
        for b in grans:
            if a.chain == b.chain and a.level < b.level:
                dag.add_edge(a.name, b.name)
    closure = nx.transitive_closure_dag(dag)
    # Minimum path cover via bipartite matching: out-copy u -> in-copy v.
    bipartite = nx.Graph()
    out_nodes = {f"out:{n}" for n in closure.nodes}
    in_nodes = {f"in:{n}" for n in closure.nodes}
    bipartite.add_nodes_from(out_nodes, bipartite=0)
    bipartite.add_nodes_from(in_nodes, bipartite=1)
    for u, v in closure.edges:
        bipartite.add_edge(f"out:{u}", f"in:{v}")
    matching = nx.bipartite.maximum_matching(bipartite, top_nodes=out_nodes)
    successor = {
        u.removeprefix("out:"): v.removeprefix("in:")
        for u, v in matching.items() if u.startswith("out:")
    }
    has_predecessor = set(successor.values())
    chains = []
    for name in sorted(closure.nodes):
        if name in has_predecessor:
            continue
        chain = [name]
        while chain[-1] in successor:
            chain.append(successor[chain[-1]])
        chains.append(chain)
    return chains
