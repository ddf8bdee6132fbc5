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
modulo the live set), the control plane replays the FG mirror the dead
NIC's own engine held to the new owners so their cells keep
fine-granularity attribution, and the dead NIC's in-flight per-group
state is demoted to ``degraded`` residual vectors reconciled at drain —
a flow never silently disappears.
"""

from __future__ import annotations

import numpy as np

from repro.core.compiler import CompiledPolicy
from repro.core.functions import ExecContext
from repro.nicsim.engine import EngineStats, FeatureEngine, FeatureVector
from repro.streaming.hyperloglog import hash_key
from repro.switchsim.mgpv import EventBatch, FGSync


def route_shard(cg_key: tuple, alive: list[bool],
                hash32: int | None = None) -> tuple[int, bool]:
    """The switch's steering function: ``(shard, rerouted)`` for a CG
    key over a liveness map.  A dead home shard maps onto the live set
    by the same hash, so every event of one group picks the same
    survivor (while the live set is stable).  :func:`steer` is its
    column form, which both clusters route batches through;
    ``hash32`` short-cuts the key hash the switch already computed.
    """
    if hash32 is None:
        hash32 = hash_key(cg_key)
    shard = hash32 % len(alive)
    if alive[shard]:
        return shard, False
    survivors = [i for i, up in enumerate(alive) if up]
    return survivors[hash32 % len(survivors)], True


def steer(hashes: np.ndarray, alive: list[bool]) -> tuple[np.ndarray, int]:
    """:func:`route_shard` over a column of CG hashes: ``(shards,
    rerouted count)`` — how both clusters route a batch."""
    up = np.array(alive)
    shards = hashes % len(alive)
    dead = ~up[shards]
    if dead.any():
        survivors = np.flatnonzero(up)
        shards[dead] = survivors[hashes[dead] % len(survivors)]
    return shards, int(dead.sum())


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


#: The engine statistics a cluster sums across its bank.
_BANK_STATS = ("records", "cells", "syncs", "orphan_cells", "degraded_cells",
               "unrecoverable_cells", "skipped_updates", "vectors_emitted")


class ClusterBase:
    """What both NIC clusters share: hash steering of event batches
    over a liveness map (:func:`steer`), the failover ledger and the
    bank-wide counters.  Subclasses hold the engines, take batches in
    ``consume_batch``, crash one engine in :meth:`_crash` and report
    their stats through :meth:`_engine_stats`."""

    name = "cluster"

    def __init__(self, compiled: CompiledPolicy, n_nics: int) -> None:
        if n_nics < 1:
            raise ValueError("need at least one NIC")
        self.compiled = compiled
        self.n_nics = n_nics
        self.alive = [True] * n_nics
        self.failovers = self.restarts = self.rerouted_events = 0
        self.fg_resyncs = self.demoted_vectors = 0
        self._residual: list[FeatureVector] = []

    def _steer(self, events) -> tuple[EventBatch, np.ndarray, np.ndarray]:
        """``events`` as a batch, with each record's and sync's NIC."""
        batch = EventBatch.of(events, self.compiled.cg.project)
        records, rerouted = steer(batch.rec_hash, self.alive)
        syncs, resynced = steer(batch.sync_hash, self.alive)
        self.rerouted_events += rerouted + resynced
        return batch, records, syncs

    def run(self, events) -> "ClusterBase":
        self.consume_batch(events)
        return self

    def flush(self) -> tuple:
        return ()

    # -- failover --------------------------------------------------------------

    def fail_nic(self, nic: int) -> None:
        """Kill one NIC: its shard re-routes to survivors, the FG mirror
        its engine held is replayed to the new owners as one sync batch
        (reconciliation), and its resident per-group state is demoted to
        degraded residual vectors held for the drain."""
        self._check_nic(nic)
        if not self.alive[nic]:
            raise ValueError(f"NIC {nic} is already dead")
        if sum(self.alive) == 1:
            raise ValueError("cannot fail the last live NIC")
        self.alive[nic] = False
        self.failovers += 1
        mirror, residual = self._crash(nic)
        self._residual.extend(residual)
        self._replay_mirror(mirror)

    def _crash(self, nic: int) -> tuple:
        """Crash NIC ``nic``'s engine: ``(its FG mirror (index, key)
        pairs in index order, its residual vectors)``."""
        raise NotImplementedError

    def _replay_mirror(self, mirror) -> None:
        """A dead NIC's FG mirror pairs, replayed as one sync batch."""
        syncs = [FGSync(index, key) for index, key in mirror]
        if syncs:
            self.consume_batch(syncs)
            self.fg_resyncs += len(syncs)

    def restore_nic(self, nic: int) -> None:
        """Bring a dead NIC back (restarted empty: ``fail_nic`` wiped its
        state); its shard routes to it again."""
        self._check_nic(nic)
        if self.alive[nic]:
            raise ValueError(f"NIC {nic} is already alive")
        self.alive[nic] = True
        self.restarts += 1

    def _check_nic(self, nic: int) -> None:
        if not 0 <= nic < self.n_nics:
            raise ValueError(f"no NIC {nic} in a cluster of "
                             f"{self.n_nics}")

    # -- accounting ------------------------------------------------------------

    def _engine_stats(self) -> list[EngineStats]:
        raise NotImplementedError

    def cells_per_nic(self) -> list[int]:
        """Load distribution (for the evenness check)."""
        return [s.cells for s in self._engine_stats()]

    def orphan_cells(self) -> int:
        return sum(s.orphan_cells for s in self._engine_stats())

    @property
    def stats(self) -> EngineStats:
        """Aggregated engine statistics across the bank."""
        total = EngineStats()
        for s in self._engine_stats():
            for name in _BANK_STATS:
                setattr(total, name, getattr(total, name) + getattr(s, name))
        return total

    def counters(self) -> dict:
        """Uniform stage counters (observe convention), including the
        per-NIC cell distribution the evenness checks read and the
        failover ledger."""
        s = self.stats
        return {
            "n_nics": self.n_nics,
            "live_nics": sum(self.alive),
            **{name: getattr(s, name) for name in _BANK_STATS},
            "failovers": self.failovers,
            "restarts": self.restarts,
            "rerouted_events": self.rerouted_events,
            "fg_resyncs": self.fg_resyncs,
            "demoted_vectors": self.demoted_vectors,
            "residual_vectors": len(self._residual),
            "cells_per_nic": {str(i): c
                              for i, c in enumerate(self.cells_per_nic())},
        }


class NICCluster(ClusterBase):
    """A bank of FE-NIC engines fed by hash-based switch steering; the
    dataplane's terminal stage across NICs (§8.5)."""

    def __init__(self, compiled: CompiledPolicy, n_nics: int,
                 ctx: ExecContext | None = None, **engine_kwargs) -> None:
        super().__init__(compiled, n_nics)
        self.engines = [FeatureEngine(compiled, ctx=ctx, **engine_kwargs)
                        for _ in range(n_nics)]

    def attach_telemetry(self, telemetry) -> None:
        """Register the cluster's failover count and attach every
        engine to the same registry — same-named engine sources sum
        across the bank into bank-wide totals (the serial counterpart
        of the process backend's snapshot merge)."""
        telemetry.registry.counter_source("cluster.failovers",
                                          lambda: self.failovers)
        for engine in self.engines:
            engine.attach_telemetry(telemetry)

    def consume_batch(self, events) -> tuple:
        """Route a delivered event slice: one :func:`steer` over the
        record hashes and one over the syncs' owner hashes (an FG key is
        referenced only by its owner CG group, §5.1, so a sync follows
        the group's route), then each engine takes its sub-batch in
        arrival order.  Engines hold disjoint state, so only the
        per-engine order is observable — and that is preserved."""
        batch, rec_nic, sync_nic = self._steer(events)
        for nic, engine in enumerate(self.engines):
            records, syncs = rec_nic == nic, sync_nic == nic
            if records.any() or syncs.any():
                engine.consume_batch(batch.select(records, syncs))
        return ()

    def _crash(self, nic: int) -> tuple:
        engine = self.engines[nic]
        return engine.fg_mirror_items(), engine.crash()

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

    def take_packet_vectors(self) -> list[FeatureVector]:
        return [vector for engine in self.engines
                for vector in engine.take_packet_vectors()]

    def _engine_stats(self) -> list[EngineStats]:
        return [engine.stats for engine in self.engines]
