"""The composable dataplane graph behind every extraction path (Fig 1).

This module is the one place the paper's filter → MGPV → link →
engine wiring lives: one-shot runs and stream sessions
(:class:`repro.api.Extractor`), the continuous §7 runtime
(:class:`~repro.core.runtime.SuperFERuntime`) and §8.5 multi-NIC
scale-out all execute through it.  A :class:`Dataplane` is an ordered
chain of *stages*::

    FilterStage -> MGPVCache -> SwitchNICLink -> FeatureEngine | NICCluster
                   (or PerfectSwitch, the software baseline's channel)

Every stage follows one protocol — ``consume(event) -> events``,
``flush() -> events``, ``counters() -> dict`` — so the composer can push
packets through the graph, drain it at end-of-trace, and export uniform
per-stage counters for :mod:`repro.core.observe` pollers.

:class:`SwitchNICLink` models the paper's switch→NIC record channel
(PCIe or Ethernet, §8.1's 2×40 GbE).  The link stage does the
per-record + per-batch byte accounting itself, models a configurable
bandwidth and DMA batch size, and can inject message loss or
backpressure drops for robustness tests, so Fig 12's metrics come from
the component that physically carries them.
"""

from __future__ import annotations

import math
from contextlib import nullcontext
from dataclasses import dataclass
from time import perf_counter_ns
from typing import Iterable, Protocol, runtime_checkable

import numpy as np

from repro.core.compiler import CompiledPolicy
from repro.core.functions import ExecContext
from repro.core.observe import Trace
from repro.core.parallel import ExecutionConfig, ShardedCluster
from repro.core.telemetry import (
    DEFAULT_COUNT_BOUNDS,
    Telemetry,
    merge_snapshots,
)
from repro.net.packet import Packet, PacketBatch, compile_field_accessor
from repro.nicsim.engine import FeatureEngine, FeatureVector
from repro.nicsim.loadbalance import NICCluster
from repro.nicsim.placement import PlacementResult
from repro.streaming.hyperloglog import hash_key
from repro.switchsim.filter import FilterStage
from repro.switchsim.mgpv import (
    CacheStats,
    EventBatch,
    FGSync,
    MGPVCache,
    MGPVConfig,
    MGPVRecord,
)


@runtime_checkable
class Stage(Protocol):
    """One dataplane stage: events in, events out, counters exported."""

    name: str

    def consume(self, event) -> Iterable:
        """Process one event; returns the events it forwards downstream
        (empty when the event is absorbed or dropped)."""
        ...

    def flush(self) -> Iterable:
        """Drain any internal residency (end of trace / hot swap)."""
        ...

    def counters(self) -> dict:
        """Uniform named counters (see :mod:`repro.core.observe`)."""
        ...


# ---------------------------------------------------------------------------
# The switch -> NIC record channel
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LinkConfig:
    """Knobs of the switch→NIC record channel.

    Defaults model the testbed's 2×40 GbE channel with per-record DMA
    (batch of 1, no extra framing) — byte-for-byte the accounting the
    MGPV cache used to do itself, so Fig 12 numbers are unchanged.
    """

    bandwidth_gbps: float = 80.0
    batch_records: int = 1              # events per DMA/transmit batch
    batch_header_bytes: int = 0         # extra framing per batch
    capacity_records: int | None = None  # queue bound; None = unbounded
    drop_rate: float = 0.0              # injected loss probability
    drop_kind: str = "any"              # any | sync | record
    seed: int = 0
    retransmit_retries: int = 0         # sync recovery attempts; 0 disables
    retransmit_backoff_ns: float = 1000.0   # base backoff, doubles per retry
    retransmit_request_bytes: int = 8   # NIC->switch request message size

    def __post_init__(self) -> None:
        for name in ("batch_records", "batch_header_bytes",
                     "capacity_records", "seed", "retransmit_retries",
                     "retransmit_request_bytes"):
            value = getattr(self, name)
            if type(value) is not int and not (
                    value is None and name == "capacity_records"):
                raise TypeError(f"{name} must be an int, got {value!r}")
        if self.batch_records < 1:
            raise ValueError("batch_records must be >= 1")
        if not 0.0 <= self.drop_rate <= 1.0:
            raise ValueError("drop_rate must be in [0, 1]")
        if self.drop_kind not in ("any", "sync", "record"):
            raise ValueError(f"unknown drop_kind {self.drop_kind!r}")
        if not (math.isfinite(self.bandwidth_gbps)
                and self.bandwidth_gbps > 0):
            raise ValueError(f"bandwidth must be finite and positive, "
                             f"got {self.bandwidth_gbps}")
        if self.capacity_records is not None and self.capacity_records < 1:
            raise ValueError(f"capacity_records must be >= 1 when set, "
                             f"got {self.capacity_records}")
        for name in ("batch_header_bytes", "seed", "retransmit_retries",
                     "retransmit_backoff_ns", "retransmit_request_bytes"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0, "
                                 f"got {getattr(self, name)}")


#: The ledger :meth:`SwitchNICLink.counters` reports besides queue depth.
_LINK_COUNTERS = (
    "records_in", "syncs_in", "records_out", "syncs_out", "cells_out",
    "record_bytes", "sync_bytes", "batch_overhead_bytes", "bytes_out",
    "batches_out", "drops_injected", "drops_fault", "drops_backpressure",
    "seq_sent", "gaps_detected", "seqs_lost", "retransmit_requests",
    "retransmits_ok", "retransmits_exhausted", "retransmit_bytes",
    "retransmit_backoff_ns")


class SwitchNICLink:
    """The modeled record channel between FE-Switch and FE-NIC.

    Events enter in switch order, queue until a batch fills (or the
    graph flushes), and leave in the same order — FG syncs must still
    precede the cells that reference them, so the queue is strictly
    FIFO.  The stage accounts wire bytes per record/sync plus per-batch
    framing, tracks channel busy time against the configured bandwidth,
    and owns the aggregation-ratio metrics of Fig 12.

    Every message carries an implicit sequence number; a loss leaves a
    gap the NIC detects at the next delivered message.  Because the
    channel is strictly FIFO the synchronous simulator runs the
    gap-triggered recovery at the drop point — equivalent timing-wise,
    and it keeps the sync-before-cells ordering intact.  Recovery is
    possible only for FG syncs (the switch's FG-key table still holds
    the key, attached via :meth:`attach_fg_source`); an evicted record's
    cells left switch SRAM with the eviction and cannot be re-fetched.
    The retry loop is bounded (``retransmit_retries``) with exponential
    backoff modeled in channel busy time; each retry re-crosses the same
    lossy channel.
    """

    name = "link"

    def __init__(self, wire: MGPVConfig,
                 config: LinkConfig | None = None) -> None:
        self.wire = wire
        self.config = config or LinkConfig()
        self._rng = (np.random.default_rng(self.config.seed)
                     if self.config.drop_rate > 0 else None)
        self._retry_rng = None
        self._queue: list = []
        self._traffic: CacheStats | None = None
        self._fg_source = None
        # Fault-injection overlay (scripted by repro.core.faults).
        self._fault_rate = 0.0
        self._fault_kind = "any"
        self._fault_rng = None
        self._capacity_clamp: int | None = None
        self._pending_gap = 0
        for name in _LINK_COUNTERS:
            setattr(self, name, 0)
        self.busy_ns = self.retransmit_backoff_ns = 0.0
        # Telemetry instruments (attach_telemetry); None = not attached.
        self._t_tracer = None
        self._t_retx_attempts = None
        self._t_batch_bytes = None

    # -- wiring ---------------------------------------------------------------

    def attach_telemetry(self, telemetry: Telemetry) -> None:
        """Register the link's typed instruments: retransmit-attempt and
        batch-size distributions, live queue depth, and (when sampling)
        spans around the recovery loop."""
        reg = telemetry.registry
        self._t_tracer = (telemetry.tracer if telemetry.tracer.active
                          else None)
        self._t_retx_attempts = reg.histogram(
            "link.retransmit.attempts", DEFAULT_COUNT_BOUNDS)
        self._t_batch_bytes = reg.histogram(
            "link.batch.bytes",
            (16, 32, 64, 128, 256, 512, 1024, 4096, 16384, 65536))
        reg.gauge_source("link.queue_depth", lambda: len(self._queue))

    def attach_traffic(self, stats: CacheStats) -> None:
        """Give the link a view of the upstream traffic counters so it
        can express its load as the paper's aggregation ratios."""
        self._traffic = stats

    def attach_fg_source(self, source) -> None:
        """Attach the switch-side FG-key table (anything with
        ``fg_entry(index)``) that lost syncs are re-fetched from."""
        self._fg_source = source

    # -- fault-injection overlay -----------------------------------------------

    def set_fault_loss(self, rate: float, kind: str = "any",
                       seed=0) -> None:
        """Scripted loss burst on top of the configured channel loss
        (applied by :class:`repro.core.faults.FaultInjector`)."""
        if not 0.0 <= rate <= 1.0:
            raise ValueError("fault loss rate must be in [0, 1]")
        if kind not in ("any", "sync", "record"):
            raise ValueError(f"unknown drop_kind {kind!r}")
        self._fault_rate = rate
        self._fault_kind = kind
        self._fault_rng = np.random.default_rng(seed) if rate > 0 else None

    def clear_fault_loss(self) -> None:
        self._fault_rate = 0.0
        self._fault_rng = None

    def clamp_capacity(self, capacity: int | None) -> None:
        """Scripted queue-capacity clamp (None restores the configured
        bound)."""
        if capacity is not None and capacity < 1:
            raise ValueError("capacity clamp must be >= 1 or None")
        self._capacity_clamp = capacity

    # -- stage protocol --------------------------------------------------------

    def consume(self, event) -> tuple:
        return self._carry(event, emitted=False)

    def _carry(self, event, emitted: bool) -> tuple:
        """One event across the channel.  A batch walk's events are
        ``emitted``: at a sync's stream position the switch's FG table
        held its key (it had just written it), so the stale-slot check
        passes; a lone event meets the table as it stands."""
        if isinstance(event, FGSync):
            self.syncs_in += 1
        else:
            self.records_in += 1
        self.seq_sent += 1
        cause = self._dropped(event)
        if cause is not None:
            if cause == "fault":
                self.drops_fault += 1
            else:
                self.drops_injected += 1
            if not self._recover(event, emitted):
                self._pending_gap += 1
                return ()
        cap = self.config.capacity_records
        if self._capacity_clamp is not None:
            cap = (self._capacity_clamp if cap is None
                   else min(cap, self._capacity_clamp))
        if cap is not None and len(self._queue) >= cap:
            # Backpressure with a full queue: the switch cannot stall the
            # line rate, so the newest message is lost.
            self.drops_backpressure += 1
            return ()
        self._queue.append(event)
        if len(self._queue) >= self.config.batch_records:
            return self._transmit()
        return ()

    def consume_batch(self, events) -> EventBatch | list:
        """Carry a whole event slice across the channel, returning the
        delivered events in order.  The lossless per-record channel
        delivers the whole :class:`EventBatch`, accounted as arithmetic
        on its tables (``busy_ns`` summed in event order, bit for bit);
        any other channel state walks the events one by one.  An
        :class:`EventBatch` is taken as just emitted by the attached
        switch, so a lost sync passes the stale-slot check (the table
        held its key at its stream position); a plain event list meets
        the table as it stands, as :meth:`consume` does."""
        emitted = isinstance(events, EventBatch)
        batch = EventBatch.of(events)
        cfg, wire = self.config, self.wire
        if not (self._rng is None and self._fault_rng is None
                and cfg.batch_records == 1 and self._capacity_clamp is None
                and cfg.capacity_records is None
                and not self._queue and not self._pending_gap):
            return [out for event in batch
                    for out in self._carry(event, emitted)]
        # Every event is its own DMA batch: _transmit()'s accounting.
        n, n_rec = len(batch), len(batch.rec_pos)
        sizes = np.full(n, 2 + wire.fg_key_bytes, np.int64)
        sizes[batch.rec_pos] = (wire.record_header_bytes + wire.cg_key_bytes
                                + batch.rec_len * wire.cell_bytes)
        record_bytes = int(sizes[batch.rec_pos].sum())
        self.records_in += n_rec
        self.records_out += n_rec
        self.syncs_in += n - n_rec
        self.syncs_out += n - n_rec
        self.seq_sent += n
        self.batches_out += n
        self.batch_overhead_bytes += n * cfg.batch_header_bytes
        self.cells_out += int(batch.rec_len.sum())
        self.record_bytes += record_bytes
        self.sync_bytes += int(sizes.sum()) - record_bytes
        sizes += cfg.batch_header_bytes
        self.bytes_out += int(sizes.sum())
        self.busy_ns = float(np.add.accumulate(np.concatenate((
            [self.busy_ns], sizes * 8 / cfg.bandwidth_gbps)))[-1])
        if self._t_batch_bytes is not None:
            self._t_batch_bytes.observe_many(sizes)
        return batch

    def flush(self) -> tuple:
        return self._transmit()

    def counters(self) -> dict:
        counters = {name: getattr(self, name) for name in _LINK_COUNTERS}
        counters["queue_depth"] = len(self._queue)
        return counters

    # -- channel model ---------------------------------------------------------

    def _kind_matches(self, kind: str, event) -> bool:
        if kind == "sync":
            return isinstance(event, FGSync)
        if kind == "record":
            return isinstance(event, MGPVRecord)
        return True

    def _dropped(self, event, retry_rng=None) -> str | None:
        """Which loss process (if any) claims this transmission; a
        retransmission crosses the same processes with ``retry_rng``'s
        draws."""
        if self._rng is not None \
                and self._kind_matches(self.config.drop_kind, event) \
                and (retry_rng or self._rng).random() < self.config.drop_rate:
            return "config"
        if self._fault_rng is not None \
                and self._kind_matches(self._fault_kind, event) \
                and (retry_rng or self._fault_rng).random() < self._fault_rate:
            return "fault"
        return None

    def _recover(self, event, emitted: bool) -> bool:
        """Bounded retransmit-request loop for a lost FG sync.  The NIC
        requests the FG-table slot again; the switch re-reads its FG-key
        table and resends.  True when a retry got through."""
        if self._t_tracer is not None:
            start = perf_counter_ns()
            ok = self._recover_inner(event, emitted)
            self._t_tracer.record("link.retransmit", start,
                                  perf_counter_ns())
            return ok
        return self._recover_inner(event, emitted)

    def _recover_inner(self, event, emitted: bool) -> bool:
        cfg = self.config
        if cfg.retransmit_retries < 1 or not isinstance(event, FGSync):
            return False
        if self._fg_source is None or not emitted \
                and self._fg_source.fg_entry(event.index) != event.key:
            return False
        if self._retry_rng is None:
            self._retry_rng = np.random.default_rng(cfg.seed + 0x5FE1)
        for attempt in range(cfg.retransmit_retries):
            backoff = cfg.retransmit_backoff_ns * (2 ** attempt)
            self.retransmit_requests += 1
            self.retransmit_bytes += cfg.retransmit_request_bytes
            self.retransmit_backoff_ns += backoff
            self.busy_ns += backoff
            if self._dropped(event, self._retry_rng) is None:
                self.retransmits_ok += 1
                if self._t_retx_attempts is not None:
                    self._t_retx_attempts.observe(attempt + 1)
                return True
        self.retransmits_exhausted += 1
        if self._t_retx_attempts is not None:
            self._t_retx_attempts.observe(cfg.retransmit_retries)
        return False

    def _transmit(self) -> tuple:
        batch, self._queue = self._queue, []
        if not batch:
            return ()
        if self._pending_gap:
            # The receiver sees the sequence jump on this delivery.
            self.gaps_detected += 1
            self.seqs_lost += self._pending_gap
            self._pending_gap = 0
        self.batches_out += 1
        batch_bytes = self.config.batch_header_bytes
        self.batch_overhead_bytes += self.config.batch_header_bytes
        for event in batch:
            wire_bytes = event.wire_bytes(self.wire)
            if isinstance(event, FGSync):
                self.syncs_out += 1
                self.sync_bytes += wire_bytes
            else:
                self.records_out += 1
                self.cells_out += len(event.cells)
                self.record_bytes += wire_bytes
            batch_bytes += wire_bytes
        self.bytes_out += batch_bytes
        self.busy_ns += batch_bytes * 8 / self.config.bandwidth_gbps
        if self._t_batch_bytes is not None:
            self._t_batch_bytes.observe(batch_bytes)
        return tuple(batch)

    # -- metrics (Fig 12) ------------------------------------------------------

    @property
    def aggregation_ratio_bytes(self) -> float:
        """Bytes over the link / original traffic bytes (Fig 12)."""
        if self._traffic is None or not self._traffic.bytes_in:
            return 0.0
        return self.bytes_out / self._traffic.bytes_in

    @property
    def aggregation_ratio_rate(self) -> float:
        """Messages over the link / packets received (Fig 12)."""
        if self._traffic is None or not self._traffic.pkts_in:
            return 0.0
        return (self.records_out + self.syncs_out) / self._traffic.pkts_in

    def utilization(self, duration_ns: float) -> float:
        """Fraction of ``duration_ns`` the channel was busy."""
        return self.busy_ns / duration_ns if duration_ns > 0 else 0.0


# ---------------------------------------------------------------------------
# The software baseline's "perfect switch"
# ---------------------------------------------------------------------------

class PerfectSwitch:
    """The unbatched channel of the software baseline: every packet
    crosses to the compute stage individually (one single-cell record per
    packet, an FG sync per new key), as port mirroring delivers it.
    Unlike the real FG table, indices are never reused for a different
    key.  Sync messages are control-plane writes in this model, so only
    records count toward the stats (the historical accounting the Fig 9
    software baseline was measured with).
    """

    name = "perfect-switch"

    def __init__(self, compiled: CompiledPolicy) -> None:
        self.compiled = compiled
        self.stats = CacheStats()
        # fg_key -> (index, cg_key, cg_hash32): index assignment plus the
        # per-flow projection/hash, computed once per flow instead of per
        # packet (the same interning the MGPV cache does).
        self._fg_routes: dict[tuple, tuple[int, tuple, int]] = {}
        self._fg_keys_by_index: list[tuple] = []
        self._fg_packet_key = compiled.fg.packet_key
        self._meta_accessor = compile_field_accessor(
            tuple(compiled.metadata_fields))
        self._now = 0

    def fg_entry(self, index: int) -> tuple | None:
        """Current key of FG slot ``index`` (retransmission source)."""
        if 0 <= index < len(self._fg_keys_by_index):
            return self._fg_keys_by_index[index]
        return None

    def insert(self, pkt: Packet, out: list | None = None) -> list:
        """Process one packet, appending its events to ``out`` (fresh
        list when not given); same buffer contract as
        :meth:`MGPVCache.insert`."""
        events: list = [] if out is None else out
        if pkt.tstamp > self._now:
            self._now = pkt.tstamp
        self.stats.pkts_in += 1
        self.stats.bytes_in += pkt.size
        fg_key = self._fg_packet_key(pkt)
        route = self._fg_routes.get(fg_key)
        if route is None:
            idx = len(self._fg_routes)
            cg_key = self.compiled.cg.project(fg_key)
            route = (idx, cg_key, hash_key(cg_key))
            self._fg_routes[fg_key] = route
            self._fg_keys_by_index.append(fg_key)
            events.append(FGSync(idx, fg_key))
        idx, cg_key, cg_hash32 = route
        cell = (idx, self._meta_accessor(pkt))
        events.append(MGPVRecord(
            cg_key=cg_key, cg_hash32=cg_hash32,
            cells=(cell,), reason="software"))
        self.stats.records_out += 1
        self.stats.cells_out += 1
        return events

    def consume(self, pkt: Packet) -> tuple:
        return tuple(self.insert(pkt))

    def flush(self) -> tuple:
        return ()

    @property
    def now_ns(self) -> int:
        return self._now

    def counters(self) -> dict:
        s = self.stats
        return {
            "pkts_in": s.pkts_in,
            "bytes_in": s.bytes_in,
            "records_out": s.records_out,
            "cells_out": s.cells_out,
            "fg_keys": len(self._fg_routes),
        }


# ---------------------------------------------------------------------------
# The switch-side-only sink (the engine and both clusters are their own)
# ---------------------------------------------------------------------------

class NullSink:
    """Event sink for switch-side-only measurements (Fig 12 benches):
    counts what arrives, computes nothing."""

    name = "sink"

    def __init__(self) -> None:
        self.records = 0
        self.syncs = 0
        self.cells = 0

    def consume(self, event) -> tuple:
        if isinstance(event, FGSync):
            self.syncs += 1
        else:
            self.records += 1
            self.cells += len(event.cells)
        return ()

    def consume_batch(self, events) -> tuple:
        batch = EventBatch.of(events)
        self.records += len(batch.rec_pos)
        self.syncs += len(batch.sync_pos)
        self.cells += int(batch.rec_len.sum())
        return ()

    def flush(self) -> tuple:
        return ()

    def counters(self) -> dict:
        return {"records": self.records, "syncs": self.syncs,
                "cells": self.cells}

    def finalize(self) -> list[FeatureVector]:
        return []

    def advance_clock(self, now_ns: int) -> None:
        pass

    def take_packet_vectors(self) -> list[FeatureVector]:
        return []


# ---------------------------------------------------------------------------
# The composer
# ---------------------------------------------------------------------------

class Dataplane:
    """One wired instance of the paper's pipeline.

    Build one with :meth:`build` (the only place in the repo that
    assembles filter → switch → link → sink), then drive it with
    :meth:`process` and :meth:`flush`.  Every deployment shape —
    hardware, software baseline, multi-NIC, the §7 runtime — executes
    through here.
    """

    def __init__(self, filter_stage: FilterStage,
                 switch: MGPVCache | PerfectSwitch,
                 link: SwitchNICLink,
                 sink: FeatureEngine | NICCluster | ShardedCluster | NullSink,
                 compiled: CompiledPolicy,
                 trace: Trace | None = None,
                 telemetry: Telemetry | None = None) -> None:
        self.filter = filter_stage
        self.switch = switch
        self.link = link
        self.sink = sink
        self.compiled = compiled
        self.trace = trace
        self.faults = None          # FaultInjector, via attach_faults()
        self._pkt_index = 0
        self.stages: list[Stage] = [filter_stage, switch, link, sink]
        self.telemetry: Telemetry | None = None
        self._t_packets = None
        self._t_batches = None
        if telemetry is not None:
            self.attach_telemetry(telemetry)

    def attach_faults(self, plan) -> None:
        """Attach a scripted :class:`repro.core.faults.FaultPlan`; its
        injector ticks once per processed packet."""
        from repro.core.faults import FaultInjector
        self.faults = FaultInjector(plan, self)
        if self.telemetry is not None:
            self.faults.attach_telemetry(self.telemetry)

    def attach_telemetry(self, telemetry: Telemetry) -> None:
        """Attach one :class:`~repro.core.telemetry.Telemetry` bundle to
        the whole graph: every stage that knows how registers its typed
        instruments in the shared registry, and :meth:`process` counts
        packets and batches (and, when the tracer is active, records
        ``stage.*`` spans for sampled packets and batches)."""
        self.telemetry = telemetry
        reg = telemetry.registry
        self._t_packets = reg.counter("pipeline.packets")
        self._t_batches = reg.counter("pipeline.batches")
        for stage in self.stages:
            attach = getattr(stage, "attach_telemetry", None)
            if attach is not None:
                attach(telemetry)
        if self.faults is not None:
            self.faults.attach_telemetry(telemetry)

    @classmethod
    def build(cls, compiled: CompiledPolicy, *,
              mgpv_config: MGPVConfig | None = None,
              ctx: ExecContext | None = None,
              placement: PlacementResult | None = None,
              table_indices: int = 4096,
              table_width: int = 4,
              n_nics: int = 1,
              link_config: LinkConfig | None = None,
              software: bool = False,
              compute: bool = True,
              trace: Trace | None = None,
              fault_plan=None,
              execution: ExecutionConfig | None = None,
              pool=None,
              telemetry: Telemetry | None = None) -> "Dataplane":
        """Wire the Fig 1 graph for a compiled policy.

        ``software`` swaps the MGPV cache for the baseline's
        :class:`PerfectSwitch`; ``n_nics > 1`` terminates in a
        hash-steered :class:`NICCluster`; ``compute=False`` terminates
        in a :class:`NullSink` for switch-side-only measurements;
        ``fault_plan`` attaches a scripted chaos schedule
        (:class:`repro.core.faults.FaultPlan`); ``execution`` selects
        how NIC shards run (:class:`repro.core.parallel.
        ExecutionConfig`) — the process backend with ``n_nics > 1``
        terminates in the shard-parallel
        :class:`~repro.core.parallel.ShardedCluster`, itself the sink,
        instead of the serial cluster (a single shard has no parallelism
        and always runs inline).
        When ``execution`` is None it is read from the
        ``SUPERFE_EXEC_BACKEND`` / ``SUPERFE_EXEC_WORKERS`` environment
        (the CI matrix hook).  ``telemetry`` attaches a
        :class:`~repro.core.telemetry.Telemetry` bundle to every stage
        (see :meth:`attach_telemetry`).  ``pool`` hands the sharded
        cluster a persistent :class:`~repro.core.parallel.WorkerPool` to
        lease instead of spawning per-run workers.
        """
        if n_nics < 1:
            raise ValueError(f"n_nics must be >= 1, got {n_nics}")
        if execution is None:
            execution = ExecutionConfig.from_env()
        wire = compiled.sized_mgpv_config(mgpv_config)
        filter_stage = FilterStage(list(compiled.switch_filters))
        if software:
            switch: MGPVCache | PerfectSwitch = PerfectSwitch(compiled)
        else:
            switch = MGPVCache(compiled.cg, compiled.fg, wire,
                               compiled.metadata_fields)
        link = SwitchNICLink(wire, link_config)
        link.attach_traffic(switch.stats)
        link.attach_fg_source(switch)
        engine_kwargs = dict(ctx=ctx, placement=placement,
                             table_indices=table_indices,
                             table_width=table_width)
        if not compute:
            sink: FeatureEngine | NICCluster | ShardedCluster | NullSink = \
                NullSink()
        elif n_nics > 1:
            if execution is not None and execution.is_parallel:
                sink = ShardedCluster(compiled, n_nics, execution,
                                      pool=pool, **engine_kwargs)
            else:
                sink = NICCluster(compiled, n_nics, **engine_kwargs)
        else:
            sink = FeatureEngine(compiled, **engine_kwargs)
        dataplane = cls(filter_stage, switch, link, sink, compiled,
                        trace=trace, telemetry=telemetry)
        if fault_plan is not None:
            dataplane.attach_faults(fault_plan)
        return dataplane

    # -- convenience views ----------------------------------------------------

    @property
    def cache(self) -> MGPVCache | None:
        """The MGPV cache, when this graph runs the hardware path."""
        return self.switch if isinstance(self.switch, MGPVCache) else None

    @property
    def engine(self) -> FeatureEngine | None:
        return self.sink if isinstance(self.sink, FeatureEngine) else None

    @property
    def cluster(self) -> NICCluster | ShardedCluster | None:
        return (self.sink if isinstance(self.sink, (NICCluster, ShardedCluster))
                else None)

    @property
    def aggregation_ratio_bytes(self) -> float:
        return self.link.aggregation_ratio_bytes

    @property
    def aggregation_ratio_rate(self) -> float:
        return self.link.aggregation_ratio_rate

    # -- data path ------------------------------------------------------------

    def process(self, packets: Iterable[Packet]) -> list[FeatureVector]:
        """Feed a batch of packets through the graph; returns the
        per-packet vectors the batch produced (empty for per-group
        policies, which emit at :meth:`snapshot` / :meth:`flush`).

        Two code paths, chosen from what the call can observe: a
        :class:`~repro.net.packet.PacketBatch` whose switch and filter
        are batch-capable takes the columnar path
        (:meth:`_process_packet_batch`); everything else takes the one
        per-packet loop below.  Observers never select a path — an
        event tap (``trace=``) or a sampled packet is a branch inside
        the loop (:meth:`_process_observed`), and with telemetry
        attached but nothing sampled the loop pays one batch-level
        counter update (the <3% overhead budget the
        ``telemetry-overhead`` CI job enforces).
        """
        if isinstance(packets, PacketBatch):
            return self._process_packet_batch(packets)
        # The graph shape is static (filter -> switch -> link -> sink,
        # with the sink absorbing), so run it as one inlined loop with
        # bound methods and a reused switch event buffer.  Fault
        # actions mutate stage *state*, never the stage objects, so
        # binding is safe.
        tel = self.telemetry
        faults = self.faults
        tap = self.trace
        should_sample = (tel.tracer.should_sample
                         if tel is not None and tel.tracer.active else None)
        observed = tap is not None or should_sample is not None
        admit = self.filter.admit
        insert = self.switch.insert
        link_consume = self.link.consume
        sink_consume = self.sink.consume
        buf: list = []
        start_index = self._pkt_index
        for pkt in packets:
            if faults is not None:
                faults.on_packet(self._pkt_index)
            self._pkt_index += 1
            if observed:
                sampled = should_sample is not None and should_sample()
                if sampled or tap is not None:
                    self._process_observed(pkt, buf, sampled)
                    continue
            if not admit(pkt):
                continue
            buf.clear()
            insert(pkt, buf)
            for event in buf:
                for delivered in link_consume(event):
                    sink_consume(delivered)
        if tel is not None:
            self._t_packets.inc(self._pkt_index - start_index)
            self._t_batches.inc()
        # Keep the NIC clock moving even for policies whose cells carry
        # no timestamp (idle eviction relies on it).
        self.sink.advance_clock(self.switch.now_ns)
        if self.compiled.collect_unit == "pkt":
            return self.sink.take_packet_vectors()
        return []

    def _process_observed(self, pkt: Packet, buf: list,
                          sampled: bool) -> None:
        """One packet through the loop body under observation: the
        event tap sees every event at every stage boundary, and a
        sampled packet has its switch, link and sink hops timed (FG
        syncs separately from records)."""
        tap = self.trace
        if tap is not None:
            tap(self.filter.name, pkt)
        if not self.filter.admit(pkt):
            return
        if tap is not None:
            tap(self.switch.name, pkt)
        link, sink = self.link, self.sink
        record = self.telemetry.tracer.record if sampled else None
        buf.clear()
        t0 = perf_counter_ns()
        self.switch.insert(pkt, buf)
        if record is not None:
            record("stage.switch", t0, perf_counter_ns())
        for event in buf:
            if tap is not None:
                tap(link.name, event)
            t1 = perf_counter_ns()
            delivered = link.consume(event)
            if record is not None:
                record("stage.fg_sync" if isinstance(event, FGSync)
                       else "stage.link", t1, perf_counter_ns())
            if not delivered:
                continue
            if tap is not None:
                for ev in delivered:
                    tap(sink.name, ev)
            t2 = perf_counter_ns()
            for ev in delivered:
                sink.consume(ev)
            if record is not None:
                record("stage.sink", t2, perf_counter_ns())

    def _process_packet_batch(self, batch: PacketBatch
                              ) -> list[FeatureVector]:
        """The columnar path: vectorized admission mask, one
        :meth:`MGPVCache.insert_batch` call, and batched link/sink
        delivery.  Falls back to the per-packet loop (iterating the
        batch) only for what is per-packet by definition — an event
        tap, a chaos schedule — or a stage without a batch method (a
        switch without ``insert_batch``, a non-vectorizable filter
        rule).  Both paths produce identical events, counters and
        vectors; only the call shape differs.  Span sampling is a
        decision about the batch, not another path: the tracer is
        asked once, and a sampled batch has its three stage calls
        recorded as ``stage.switch`` / ``stage.link`` / ``stage.sink``.
        """
        tel = self.telemetry
        insert_batch = getattr(self.switch, "insert_batch", None)
        if (self.trace is not None or self.faults is not None
                or insert_batch is None):
            return self.process(iter(batch))
        mask = self.filter.admit_batch(batch)
        if mask is None:
            return self.process(iter(batch))
        n = len(batch)
        self._pkt_index += n
        admitted = batch if mask.all() else batch.compress(mask)
        record = (tel.tracer.record
                  if tel is not None and tel.tracer.should_sample(n)
                  else None)
        if len(admitted):
            t0 = perf_counter_ns()
            events = insert_batch(admitted)
            t1 = perf_counter_ns()
            delivered = self.link.consume_batch(events)
            t2 = perf_counter_ns()
            if delivered:
                self.sink.consume_batch(delivered)
            if record is not None:
                record("stage.switch", t0, t1)
                record("stage.link", t1, t2)
                record("stage.sink", t2, perf_counter_ns())
        if tel is not None:
            self._t_packets.inc(n)
            self._t_batches.inc()
        self.sink.advance_clock(self.switch.now_ns)
        if self.compiled.collect_unit == "pkt":
            return self.sink.take_packet_vectors()
        return []

    def flush(self) -> list[FeatureVector]:
        """Drain every stage in order (switch residency through the
        link, then the link's queue) and emit final vectors.

        Each stage's flush output crosses the remaining stages as one
        slice per hop (the link and sinks expose ``consume_batch``);
        every stage preserves order, so downstream state transitions —
        and what an event tap sees at each stage — match a per-event
        walk."""
        span = (self.telemetry.tracer.span("pipeline.flush")
                if self.telemetry is not None else nullcontext())
        tap = self.trace
        with span:
            for i, stage in enumerate(self.stages):
                frontier = stage.flush()
                for nxt in self.stages[i + 1:]:
                    if not frontier:
                        break
                    if tap is not None:
                        for event in frontier:
                            tap(nxt.name, event)
                    frontier = nxt.consume_batch(frontier)
            return self.sink.finalize()

    def snapshot(self) -> list[FeatureVector]:
        """Current vectors of all resident groups; does not disturb the
        data path."""
        return self.sink.finalize()

    def close(self) -> None:
        """Release execution resources (the sharded cluster's worker
        pool).  Serial graphs have none; calling this is always safe.
        A closed sharded cluster keeps serving its last counters and
        final vectors, so results stay readable after close.
        Idempotent and exception-safe: the graph is marked closed even
        if the sink's own close raises."""
        if getattr(self, "_graph_closed", False):
            return
        try:
            close = getattr(self.sink, "close", None)
            if close is not None:
                close()
        finally:
            self._graph_closed = True

    def set_deadline(self, deadline: float | None) -> None:
        """Propagate a per-batch deadline (monotonic seconds; None
        clears) to the sink — the supervised sharded cluster clamps every
        worker operation to it.  No-op on sinks without deadlines."""
        setter = getattr(self.sink, "set_deadline", None)
        if setter is not None:
            setter(deadline)

    def health(self) -> dict | None:
        """The sink's liveness/supervision report (sharded cluster only);
        None for sinks that have no worker pool to report on."""
        probe = getattr(self.sink, "health", None)
        return probe() if probe is not None else None

    # -- observability ---------------------------------------------------------

    def counters(self) -> dict:
        """Uniform per-stage counters, keyed by stage name (plus the
        fault injector's, when a chaos schedule is attached)."""
        counters = {stage.name: stage.counters() for stage in self.stages}
        if self.faults is not None:
            counters[self.faults.name] = self.faults.counters()
        return counters

    def telemetry_snapshot(self) -> dict | None:
        """The cluster-wide metric snapshot: this process's registry
        merged with every shard worker's (the sharded cluster ships them
        back over the result protocol).  None when no telemetry is
        attached."""
        if self.telemetry is None:
            return None
        snaps = [self.telemetry.snapshot()]
        worker_snaps = getattr(self.sink, "telemetry_snapshots", None)
        if worker_snaps is not None:
            snaps.extend(s for s in worker_snaps() if s)
        return merge_snapshots(*snaps)

    def telemetry_spans(self) -> list[tuple]:
        """Spans collected so far (coordinator-side only)."""
        if self.telemetry is None:
            return []
        return list(self.telemetry.tracer.spans)

    def telemetry_trace_events(self) -> list[dict]:
        """Ctx-tagged trace events from every process: the
        coordinator's tracer plus each shard worker's (shipped back
        alongside telemetry snapshots).  Empty unless tracing is on."""
        worker_events = getattr(self.sink, "trace_events", None)
        if worker_events is not None:
            # The sharded cluster's gather already includes the
            # coordinator tracer (it shares our Telemetry object).
            return worker_events()
        if self.telemetry is not None:
            return list(self.telemetry.tracer.events)
        return []

    def flight_events(self) -> list[dict]:
        """Flight-recorder events from every process, coordinator ring
        first.  Always available — the recorder needs no telemetry."""
        probe = getattr(self.sink, "flight_events", None)
        if probe is not None:
            return probe()
        from repro.core import flightrec
        return flightrec.snapshot()
