"""Multi-SmartNIC load balancing (§8.5) and NIC failover.

"We can also add more SmartNICs to scale up FE-NIC further, with a
simple load-balance mechanism implemented on the switch to distribute
the MGPV traffic across them evenly."  This module implements that
mechanism: the switch routes every MGPV record to a NIC by the CG-key
hash it already computed, and each FG-sync message follows its owner CG
group — so all state for one group lands on one NIC and no cross-NIC
coordination is needed.

Failover extends the steering for NIC death (fault-injected or real):
a dead NIC's shard re-routes consistently to the survivors (same hash,
modulo the live set), the control plane replays the dead NIC's FG
mirror to the new owners so their cells keep fine-granularity
attribution, and the dead NIC's in-flight per-group state is demoted to
``degraded`` residual vectors reconciled at drain — a flow never
silently disappears.
"""

from __future__ import annotations

from repro.core.compiler import CompiledPolicy
from repro.core.functions import ExecContext
from repro.nicsim.engine import EngineStats, FeatureEngine, FeatureVector
from repro.streaming.hyperloglog import hash_key, hash_key_columns
from repro.switchsim.mgpv import Event, FGSync, MGPVRecord


def route_shard(cg_key: tuple, alive: list[bool],
                hash32: int | None = None) -> tuple[int, bool]:
    """The switch's steering function: ``(shard, rerouted)`` for a CG
    key over a liveness map.  A dead home shard maps onto the live set
    by the same hash, so every event of one group picks the same
    survivor (while the live set is stable).

    Shared by the serial :class:`NICCluster` and the coordinator of
    :class:`~repro.core.parallel.ShardedCluster` — one routing function
    is what makes the two paths bit-identical.  ``hash32`` short-cuts
    the key hash when the caller already holds it (MGPV records carry
    the hash the switch computed).
    """
    if hash32 is None:
        hash32 = hash_key(cg_key)
    shard = hash32 % len(alive)
    if alive[shard]:
        return shard, False
    survivors = [i for i, up in enumerate(alive) if up]
    return survivors[hash32 % len(survivors)], True


def route_syncs(events, project, cache: dict, alive: list[bool]) -> None:
    """Resolve the routes of a batch's FG syncs ahead of its event loop:
    a new flow's sync arrives before any record has cached the route,
    so the CG keys ``cache`` lacks are hashed in one
    :func:`hash_key_columns` sweep (bit-identical to :func:`hash_key`)
    instead of one scalar murmur per flow.  Shared by both clusters'
    ``consume_batch``; ``cache`` keeps the callers' bound."""
    missing = dict.fromkeys(
        cg_key for cg_key in (project(event.key) for event in events
                              if type(event) is FGSync)
        if cg_key not in cache)
    if not missing:
        return
    if len(cache) + len(missing) >= 1 << 17:
        cache.clear()
    hashes = hash_key_columns(list(zip(*missing))).tolist()
    for cg_key, hash32 in zip(missing, hashes):
        cache[cg_key] = route_shard(cg_key, alive, hash32)


def reconcile_residual(vectors: list[FeatureVector],
                       residual: list[FeatureVector]
                       ) -> tuple[list[FeatureVector], int]:
    """Merge a drain's vectors with the residual vectors of dead NICs:
    a shard rebuilt on a survivor keeps the survivor's (post-failover)
    vector, flagged degraded because the pre-failure cells are gone;
    groups that never re-appeared emit their residual vector.  Returns
    ``(vectors, demoted_count)``.
    """
    if not residual:
        return vectors, 0
    residual_keys = {tuple(v.key) for v in residual}
    for vec in vectors:
        if tuple(vec.key) in residual_keys:
            vec.degraded = True
    live_keys = {tuple(v.key) for v in vectors}
    demoted = 0
    for vec in residual:
        if tuple(vec.key) in live_keys:
            demoted += 1
        else:
            vectors.append(vec)
    return vectors, demoted


class NICCluster:
    """A bank of FE-NIC engines fed by hash-based switch steering."""

    name = "cluster"

    def __init__(self, compiled: CompiledPolicy, n_nics: int,
                 ctx: ExecContext | None = None, **engine_kwargs) -> None:
        if n_nics < 1:
            raise ValueError("need at least one NIC")
        self.compiled = compiled
        self.n_nics = n_nics
        self.engines = [FeatureEngine(compiled, ctx=ctx, **engine_kwargs)
                        for _ in range(n_nics)]
        self.alive = [True] * n_nics
        self.failovers = 0
        self.restarts = 0
        self.rerouted_events = 0
        self.fg_resyncs = 0
        self.demoted_vectors = 0
        self._residual: list[FeatureVector] = []
        # Steering memo: route_shard hashes the CG key on every event;
        # while the live set is stable the answer per key is fixed, so
        # cache it and drop the memo whenever liveness changes.
        self._route_cache: dict[tuple, tuple[int, bool]] = {}
        self._t_failovers = None

    def attach_telemetry(self, telemetry) -> None:
        """Register the cluster's failover counter and attach every
        engine to the same registry — same-named engine instruments are
        shared across the bank, so they naturally hold bank-wide totals
        (the serial counterpart of the process backend's snapshot
        merge)."""
        self._t_failovers = telemetry.registry.counter("cluster.failovers")
        for engine in self.engines:
            engine.attach_telemetry(telemetry)

    def _route_key(self, cg_key: tuple,
                   hash32: int | None = None) -> int:
        cached = self._route_cache.get(cg_key)
        if cached is None:
            if len(self._route_cache) >= 1 << 17:
                self._route_cache.clear()
            cached = route_shard(cg_key, self.alive, hash32)
            self._route_cache[cg_key] = cached
        nic, rerouted = cached
        if rerouted:
            self.rerouted_events += 1
        return nic

    def consume(self, event: Event) -> None:
        if isinstance(event, FGSync):
            # An FG key is referenced only by its owner CG group (§5.1),
            # so the sync follows the group's route.
            cg_key = self.compiled.cg.project(event.key)
            self.engines[self._route_key(cg_key)].consume(event)
        elif isinstance(event, MGPVRecord):
            self.engines[self._route_key(event.cg_key,
                                         event.cg_hash32)].consume(event)
        else:
            raise TypeError(f"unknown event {event!r}")

    def consume_batch(self, events) -> None:
        """Route a whole delivered event slice (dataplane columnar path):
        events partition per engine in arrival order and each engine
        reduces its subsequence as one columnar block.  Routing is
        per-event exactly as :meth:`consume`; engines hold disjoint
        state, so only the per-engine order is observable — and that is
        preserved."""
        project = self.compiled.cg.project
        route = self._route_key
        route_syncs(events, project, self._route_cache, self.alive)
        slices: dict[int, list] = {}
        for event in events:
            if isinstance(event, FGSync):
                nic = route(project(event.key))
            elif isinstance(event, MGPVRecord):
                nic = route(event.cg_key, event.cg_hash32)
            else:
                raise TypeError(f"unknown event {event!r}")
            lst = slices.get(nic)
            if lst is None:
                slices[nic] = [event]
            else:
                lst.append(event)
        for nic, evs in slices.items():
            self.engines[nic].consume_batch(evs)

    def run(self, events) -> "NICCluster":
        for event in events:
            self.consume(event)
        return self

    # -- failover --------------------------------------------------------------

    def fail_nic(self, nic: int) -> None:
        """Kill one NIC: its shard re-routes to survivors, its FG mirror
        is replayed to the new owners (reconciliation), and its resident
        per-group state is demoted to degraded residual vectors held for
        the drain."""
        self._check_nic(nic)
        if not self.alive[nic]:
            raise ValueError(f"NIC {nic} is already dead")
        if sum(self.alive) == 1:
            raise ValueError("cannot fail the last live NIC")
        self.alive[nic] = False
        self._route_cache.clear()
        self.failovers += 1
        if self._t_failovers is not None:
            self._t_failovers.inc()
        engine = self.engines[nic]
        mirror = engine.fg_mirror_items()
        self._residual.extend(engine.crash())
        for index, key in mirror:
            cg_key = self.compiled.cg.project(key)
            self.engines[self._route_key(cg_key)].consume(
                FGSync(index, key))
            self.fg_resyncs += 1

    def restore_nic(self, nic: int) -> None:
        """Bring a dead NIC back (restarted empty: :meth:`fail_nic`
        wiped its state); its shard routes to it again."""
        self._check_nic(nic)
        if self.alive[nic]:
            raise ValueError(f"NIC {nic} is already alive")
        self.alive[nic] = True
        self._route_cache.clear()
        self.restarts += 1

    def _check_nic(self, nic: int) -> None:
        if not 0 <= nic < self.n_nics:
            raise ValueError(f"no NIC {nic} in a cluster of "
                             f"{self.n_nics}")

    def finalize(self) -> list[FeatureVector]:
        vectors: list[FeatureVector] = []
        for engine in self.engines:
            vectors.extend(engine.finalize())
        vectors, demoted = reconcile_residual(vectors, self._residual)
        if self._residual:
            self.demoted_vectors = demoted
        return vectors

    def advance_clock(self, now_ns: int) -> None:
        for engine in self.engines:
            engine.advance_clock(now_ns)

    def cells_per_nic(self) -> list[int]:
        """Load distribution (for the evenness check)."""
        return [engine.stats.cells for engine in self.engines]

    def orphan_cells(self) -> int:
        return sum(engine.stats.orphan_cells for engine in self.engines)

    @property
    def stats(self) -> EngineStats:
        """Aggregated engine statistics across the bank."""
        total = EngineStats()
        for engine in self.engines:
            s = engine.stats
            total.records += s.records
            total.cells += s.cells
            total.syncs += s.syncs
            total.orphan_cells += s.orphan_cells
            total.degraded_cells += s.degraded_cells
            total.unrecoverable_cells += s.unrecoverable_cells
            total.skipped_updates += s.skipped_updates
            total.vectors_emitted += s.vectors_emitted
        return total

    def counters(self) -> dict:
        """Uniform stage counters (observe convention), including the
        per-NIC cell distribution the evenness checks read and the
        failover ledger."""
        s = self.stats
        return {
            "n_nics": self.n_nics,
            "live_nics": sum(self.alive),
            "records": s.records,
            "cells": s.cells,
            "syncs": s.syncs,
            "orphan_cells": s.orphan_cells,
            "degraded_cells": s.degraded_cells,
            "unrecoverable_cells": s.unrecoverable_cells,
            "skipped_updates": s.skipped_updates,
            "vectors_emitted": s.vectors_emitted,
            "failovers": self.failovers,
            "restarts": self.restarts,
            "rerouted_events": self.rerouted_events,
            "fg_resyncs": self.fg_resyncs,
            "demoted_vectors": self.demoted_vectors,
            "residual_vectors": len(self._residual),
            "cells_per_nic": {str(i): c
                              for i, c in enumerate(self.cells_per_nic())},
        }
