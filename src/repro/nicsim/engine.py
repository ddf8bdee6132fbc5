"""The FE-NIC feature computing engine (§6).

Consumes the ordered switch->NIC event stream (FG-table sync messages and
evicted MGPV records), maintains a synchronized FG-key mirror, and for
every metadata cell updates the per-group map/reduce states of every
granularity section — recovering intermediate granularities by projecting
the cell's FG key (§5.1).  ``collect`` semantics:

- per-group (``collect(flow)`` etc.): vectors are produced at
  :meth:`FeatureEngine.finalize` for every group of the collect
  granularity, concatenating that group's features with those of its
  enclosing coarser groups;
- per-packet (``collect(pkt)``): a vector is snapshotted after each cell,
  concatenating the current features of the cell's group at every section
  (the Kitsune mode).

Group states live in :class:`~repro.nicsim.grouptable.GroupTable` hash
tables whose memory level comes from the ILP placement (§6.2).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat
from time import perf_counter_ns

import numpy as np

from repro.core.compiler import CompiledPolicy, PolicyError, Section
from repro.core.functions import (
    COLUMNAR_KERNELS,
    SHARED_ACCUMULATORS,
    ExecContext,
    make_map_factory,
    make_reduce_factory,
    make_synth_fn,
    reducer_share_plan,
)
from repro.nicsim.grouptable import GroupTable
from repro.nicsim.placement import PlacementResult, section_level
from repro.streaming.folds import (
    Fold,
    MemberView,
    ObjectFold,
    ObjectMap,
    Segments,
    as_column,
    overlay,
    typed_column,
    write_members,
)
from repro.switchsim.mgpv import Event, EventBatch, EventBuffer, FGSync, MGPVRecord


@dataclass
class FeatureVector:
    """One output vector: the emitting unit's key, feature names, values.

    ``degraded`` marks vectors produced under faults with bounded error:
    the group lost finer-granularity attribution (orphaned cells demoted
    to its coarse section) or part of its state to a NIC failure.
    Fault-free runs never set it.

    ``names`` has one entry per *feature*; array-valued features
    (histograms, samples) contribute several ``values`` slots, in which
    case ``widths`` records each feature's slot count so consumers can
    label every column (``ExtractionResult.frame`` does).  It stays
    ``None`` in the common all-scalar case where names and values
    already align one to one.
    """

    key: tuple
    names: tuple[str, ...]
    values: np.ndarray
    degraded: bool = False
    widths: tuple[int, ...] | None = None


# Reducer-source dispatch kinds (see _SectionPlan).
_POS, _MAPPED_OR_POS, _MAPPED = 0, 1, 2

# Deferred-work queue tags (FeatureEngine._pending / _drain).
_CELLS, _CLOCK = 0, 1

# Events consumed one at a time are admitted in runs of at most this many.
_RAW_EVENTS = 1024

# Row cap of one collect(pkt) block: its vectors are row views of one
# buffer, so this bounds both the allocation and what a kept vector pins.
_PKT_BLOCK_ROWS = 2048


def _concat_blocks(blocks: list) -> tuple:
    """Queued cell blocks ``(kids, cols, offs, cg_keys, cg_hashes)`` as
    one; parts of differing dtype join as an object column."""
    kids, cols, offs, cg_keys, cg_hashes = zip(*blocks)
    base = np.cumsum([0] + [len(k) for k in kids[:-1]])
    return (np.concatenate(kids),
            tuple(np.concatenate(parts if len({p.dtype for p in parts}) == 1
                                 else [p.astype(object) for p in parts])
                  for parts in zip(*cols)),
            np.concatenate([o + b for o, b in zip(offs, base.tolist())]),
            [key for keys in cg_keys for key in keys],
            [h for hashes in cg_hashes for h in hashes])


class _SectionPlan:
    """Precompiled per-section recipe shared by every group of the
    section: fn specs are parsed and resolved to factories once, source
    keys to their positions in the metadata tuple once — a new group
    only instantiates fresh function objects.

    Positional plan semantics, as the block kernels read them: a
    source that is a metadata field no map overwrites (declared
    ``dst``) reads straight from the cell tuple; a map-written source
    takes the mapped value and falls back to the cell tuple when the
    field also exists there — the member's resolution order.  Reducer
    entries carry the dispatch kind: ``_POS`` (always present,
    positional), ``_MAPPED_OR_POS`` (mapped else positional),
    ``_MAPPED`` (mapped else skip).
    """

    __slots__ = ("columnar", "blocker", "map_factories", "red_factories",
                 "red_feats", "synths", "map_fns", "map_probes", "probes",
                 "leader_of")

    def __init__(self, section: Section, ctx: ExecContext, index: dict,
                 pkt_col0: int | None = None) -> None:
        self.map_fns = tuple(m.fn for m in section.maps)
        self.map_factories = tuple(make_map_factory(fn, ctx)
                                   for fn in self.map_fns)
        self.red_feats = tuple(section.features)
        self.red_factories = tuple(make_reduce_factory(f.reduce_fn, ctx)
                                   for f in self.red_feats)
        self.synths = tuple(tuple(make_synth_fn(spec, ctx)
                                  for spec in f.synth_fns)
                            for f in self.red_feats)
        # What a section's groups look like is fixed by the factories,
        # so probe one instance of each function once: the exact classes
        # decide how each function runs, and followers of a declared
        # family (f_var after f_mean, f_dstd after f_dw with the same
        # lam, … over the same source) share the leader's accumulator
        # (a follower's probe later stands in for it on every row).
        self.map_probes = [f() for f in self.map_factories]
        self.probes = [f() for f in self.red_factories]
        self.leader_of = {f: l for f, l, _attr in reducer_share_plan(
            (feat.src, probe)
            for feat, probe in zip(self.red_feats, self.probes))}
        self.blocker: str | None = None
        self.columnar = self._build_columnar(index, section, pkt_col0)

    # Columnar map-source modes (cmaps entries below); a member column
    # reads its source from the member view.
    _SRC_NONE, _SRC_POS, _SRC_MAPPED, _SRC_MEMBER = 0, 1, 2, 3

    def _build_columnar(self, index: dict, section: Section,
                        pkt_col0: int | None):
        """Precompile the section's columnar recipe.  A function runs
        natively when its exact class declared a batch twin
        (``declare_columnar_kernel``) whose reads the block can serve;
        any other is a *member column* — one object per row, each cell's
        member view handed to ``apply`` / ``update`` — and the first
        such names :attr:`blocker` (``"<fn>: <reason>"``).  A sharing
        family with a member column in it is one member column.

        Returns ``(cmaps, creds, ts_pos, dir_pos)`` where each cmaps
        entry is ``(map_idx, dst, kernel, src_mode, src_arg, fallback)``
        (a member map: mode ``_SRC_MEMBER``, ``src_arg`` its source key)
        and each creds entry — one per accumulator *leader*, standing
        for ``weight`` reducers — is ``(kind, src, pos, red_idx,
        needs_dir, weight, outs, member)``.  ``outs`` is None for a
        per-group policy; under ``collect(pkt)``, where this section's
        vector columns start at ``pkt_col0``, it lists ``(red_idx, stat,
        col)``: the family's collected members, the ``run_stat`` each
        finalizes to and its vector column.
        """
        positions = {"tstamp": index.get("tstamp"),
                     "direction": index.get("direction")}
        used: set = set()
        # Metadata names a map has overwritten: a later reader sees the
        # *mapped* value through its member, while kernels read the
        # metadata column.
        shadowed: set = set()

        def demote(fn, why: str) -> None:
            self.blocker = self.blocker or f"{fn}: {why}"

        def served(fn, probe, check):
            """``probe``'s declaration when ``fn`` runs natively, else
            None; ``check(decl)`` names what else keeps it off."""
            decl = COLUMNAR_KERNELS.get(type(probe))
            if decl is None:
                return demote(fn, "no declared batch kernel")
            for name in sorted(decl[1] - {"src"}):
                if positions[name] is None:
                    return demote(fn, f"reads {name!r}, which the cells "
                                  f"do not carry")
                if name in shadowed:
                    return demote(fn, f"reads {name!r} after a map "
                                  f"overwrote it")
            why = check(decl)
            if why:
                return demote(fn, why)
            used.update(decl[1])
            return decl

        cmaps = []
        valid_dsts: dict[str, bool] = {}   # dst -> always emits a value
        for i, m in enumerate(section.maps):
            dst, src = m.dst, m.src
            src_pos = None if src in valid_dsts else index.get(src)
            fallback = index.get(src)

            def check(decl):
                if decl[0] is None:
                    return "declared without a map kernel"
                if ("src" in decl[1] and src_pos is None
                        and not valid_dsts.get(src) and fallback is None):
                    # Absent for some member: the member view raises
                    # KeyError there.
                    return f"source {src!r} can be absent"
                return None

            decl = served(m.fn, self.map_probes[i], check)
            if decl is None:
                entry = (i, dst, None, self._SRC_MEMBER, src, None)
            elif "src" not in decl[1]:
                entry = (i, dst, decl[0], self._SRC_NONE, None, None)
            elif src_pos is not None:
                entry = (i, dst, decl[0], self._SRC_POS, src_pos, None)
            else:
                entry = (i, dst, decl[0], self._SRC_MAPPED, src, fallback)
            cmaps.append(entry)
            valid_dsts[dst] = ((decl is not None and not decl[2])
                               or bool(valid_dsts.get(dst)))
            if dst in positions:
                shadowed.add(dst)

        def check(decl):
            if pkt_col0 is None:
                return (decl[1] - {"direction"}) and (
                    "update_many is only handed values and directions")
            return None if decl[3] else ("declares no run_stat to emit "
                                         "a vector per cell")

        collected = {f.name for f in section.collected}
        creds: dict = {}        # leader red_idx -> its (mutable) entry
        col = pkt_col0
        for red_idx, feat in enumerate(self.red_feats):
            src, pos = feat.src, index.get(feat.src)
            kind = (_MAPPED if pos is None else
                    _MAPPED_OR_POS if src in valid_dsts else _POS)
            decl = served(feat.reduce_fn, self.probes[red_idx], check)
            if decl and pkt_col0 is not None and feat.synth_fns:
                decl = demote(feat.synth_fns[0],
                              "synthesizes a per-packet feature")
            entry = creds.setdefault(
                self.leader_of.get(red_idx, red_idx),
                [kind, src, pos, red_idx, False, 0,
                 None if pkt_col0 is None else [], False])
            entry[4] |= decl is not None and "direction" in decl[1]
            entry[5] += 1
            entry[7] |= decl is None
            if pkt_col0 is not None and feat.name in collected:
                entry[6].append((red_idx, decl and decl[3], col))
                col += 1
        return (tuple(cmaps), tuple(map(tuple, creds.values())),
                positions["tstamp"] if "tstamp" in used else None,
                positions["direction"] if "direction" in used else None)


class _Stamps(Fold):
    """Every group's ``last_update`` clock stamp."""

    COLUMNS = (("last_update", None, np.int64),)


class _Slab:
    """One section's resident groups as a struct of arrays — the
    bus-wide hash-table entry of §6.2 with one numpy column per state
    word instead of one Python object graph per group.  The section's
    :class:`GroupTable` stores a *row* per key (``alloc`` is its state
    factory; freed rows are reused, zeroed); every stateful map and
    every accumulator leader of the share plan is a
    :mod:`~repro.streaming.folds` fold over those rows.  A function
    that declared no fold rides an object column — ``objects`` names
    the first such function — and so does a member column of the plan,
    driven per cell through member views.  Under ``collect(pkt)`` the
    leaders
    declaring one per-packet fold share it (*stacked*); ``stacks`` lists
    ``[fold, leaders, wanted, cols]``: what its ``trace`` emits, where."""

    def __init__(self, plan: _SectionPlan, pkt: bool = False) -> None:
        self.plan = plan
        self.pkt = pkt
        self.objects: str | None = None
        self.maps = [self._map_fold(slot)
                     for slot in range(len(plan.columnar[0]))]
        self.reds: dict = {}        # leader red_idx -> its fold
        self.stats: dict = {}       # red_idx -> the stat finalize() reads
        self.stacks: list = []
        stacked: dict = {}          # per-packet fold factory -> leaders
        family: dict = {}
        for idx in range(len(plan.probes)):
            family.setdefault(plan.leader_of.get(idx, idx), []).append(idx)
        members = {cred[3] for cred in plan.columnar[1] if cred[7]}
        for leader, idxs in family.items():
            decls = [leader not in members
                     and COLUMNAR_KERNELS[type(plan.probes[i])][4]
                     for i in idxs]
            factory = decls[0] and decls[0][0]
            odd = next((i for i, decl in zip(idxs, decls)
                        if not decl or decl[0] is not factory
                        or hasattr(factory, "trace") is not pkt), None)
            if odd is None and pkt:
                stacked.setdefault(factory, []).append(leader)
                continue
            if odd is None:
                self.stats.update((i, decl[1])
                                  for i, decl in zip(idxs, decls))
            self.reds[leader] = self._red_fold(leader, odd)
            if pkt:
                self.stacks.append(self._stack(self.reds[leader], [leader]))
        for factory, leaders in stacked.items():
            fold = factory([self._holder(leader) for leader in leaders])
            self.reds.update(dict.fromkeys(leaders, fold))
            self.stacks.append(self._stack(fold, leaders))
        self.stamps = _Stamps(None)
        self.used = self.cap = 0
        self.free: list[int] = []
        self.fresh: list[int] = []      # allocated, columns not yet reset

    def _holder(self, leader: int, reducer=None):
        """The object holding a (fresh) reducer's state: its declared
        shared accumulator, else the reducer itself."""
        reducer = reducer or self.plan.red_factories[leader]()
        attr = SHARED_ACCUMULATORS.get(type(reducer))
        return reducer if attr is None else getattr(reducer, attr)

    def _map_fold(self, slot: int, native: bool = True):
        """Map ``slot``'s declared fold, else an object column."""
        plan = self.plan
        m_idx, _dst, kernel, *_ = plan.columnar[0][slot]
        fold = kernel and COLUMNAR_KERNELS[type(plan.map_probes[m_idx])][4]
        if native and fold:
            return fold(plan.map_probes[m_idx])
        self.objects = self.objects or str(plan.map_fns[m_idx])
        return ObjectMap(plan.map_factories[m_idx], kernel)

    def _red_fold(self, leader: int, odd: int | None):
        """The family's declared fold; an object column when member
        ``odd`` declared none (or another one)."""
        plan = self.plan
        if odd is None:
            factory = COLUMNAR_KERNELS[type(plan.probes[leader])][4][0]
            return factory(self._holder(leader))
        self.objects = self.objects or str(plan.red_feats[odd].reduce_fn)
        return ObjectFold(plan.red_factories[leader],
                          SHARED_ACCUMULATORS.get(type(plan.probes[leader])),
                          plan.red_feats[leader].src)

    def _stack(self, fold, leaders: list) -> list:
        plan = self.plan
        outs = {cred[3]: cred[6] for cred in plan.columnar[1]}
        native = not isinstance(fold, ObjectFold)
        wanted = [(k, stat) if native
                  else (plan.probes[idx], plan.synths[idx])
                  for k, leader in enumerate(leaders)
                  for idx, stat, _col in outs[leader]]
        cols = [col for leader in leaders for _i, _s, col in outs[leader]]
        return [fold, leaders, wanted, np.array(cols, np.intp)]

    def folds(self) -> list:
        return [*self.maps, *{id(f): f for f in self.reds.values()}.values(),
                self.stamps]

    def alloc(self) -> int:
        if self.free:
            row = self.free.pop()
        else:
            row = self.used
            self.used += 1
        self.fresh.append(row)
        return row

    def settle(self) -> None:
        """Make the columns cover every allocated row (doubling) and
        reset the rows allocated since the last call."""
        if self.used > self.cap:
            self.cap = max(2 * self.cap, self.used, 64)
            for fold in self.folds():
                fold.grow(self.cap)
        if self.fresh:
            rows = np.array(self.fresh, np.intp)
            for fold in self.folds():
                fold.clear(rows)
            self.fresh = []

    def to_objects(self, slot: int | None = None,
                   leader: int | None = None, k: int = 0):
        """Move one native fold's rows into an object column — a block
        left the range the fold is exact in — and return that column
        (``k``: the leader's place in a stacked fold)."""
        if leader is None:
            old = self.maps[slot]
            new = self.maps[slot] = self._map_fold(slot, native=False)
        else:
            old = self.reds[leader]
            new = self.reds[leader] = self._red_fold(leader, leader)
        new.grow(self.cap)
        new.clear(range(self.used))
        for row in range(self.used):
            fn = new.col[row]
            old.export(row, fn if leader is None
                       else self._holder(leader, fn), k)
        return new

    def unstack(self, stack: list) -> list:
        """:meth:`to_objects` for each leader of ``stack``: new stacks."""
        i = next(i for i, st in enumerate(self.stacks) if st is stack)
        self.stacks[i:i + 1] = stacks = [
            self._stack(self.to_objects(leader=leader, k=k), [leader])
            for k, leader in enumerate(stack[1])]
        return stacks


@dataclass
class EngineStats:
    records: int = 0
    cells: int = 0
    cells_columnar: int = 0         # of cells: reduced as block slices
    syncs: int = 0
    orphan_cells: int = 0
    degraded_cells: int = 0         # orphans recovered at CG granularity
    unrecoverable_cells: int = 0    # orphans with no CG section to demote to
    skipped_updates: int = 0
    vectors_emitted: int = 0


class FeatureEngine:
    """Turns an MGPV event stream into feature vectors; the dataplane's
    terminal stage on one NIC."""

    name = "engine"

    def __init__(self, compiled: CompiledPolicy,
                 ctx: ExecContext | None = None,
                 placement: PlacementResult | None = None,
                 table_indices: int = 4096,
                 table_width: int = 4) -> None:
        self.compiled = compiled
        self.ctx = ctx or ExecContext(division_free=True)
        self._stats = EngineStats()
        # Deferred columnar work: (tag, ...) entries replayed in order
        # by _drain() as one merged grouped pass (see _enqueue).
        self._pending: list = []
        self._clock = 0     # ns; advanced by cell tstamps or externally
        # The FG mirror: FG index -> engine key id (-1: none) naming
        # _fg_keys; single events wait in _raw (see consume).
        self._mirror = np.full(1, -1, np.int32)
        self._fg_ids: dict[tuple, int] = {}
        self._fg_keys: list[tuple] = []
        self._raw = EventBuffer()
        self._pkt_vectors: list[FeatureVector] = []
        self._pv_cursor = 0     # take_packet_vectors' position
        self._degraded_cg_keys: set[tuple] = set()
        self._validate_collect_unit()

        # Block-path precompilation: positional metadata resolution and
        # the clock field's position.
        meta = compiled.metadata_fields
        self._meta_index = {name: i for i, name in enumerate(meta)}
        self._ts_idx = self._meta_index.get("tstamp")

        self._pkt_mode = compiled.collect_unit == "pkt"
        pkt_col = 0 if self._pkt_mode else None
        self._plans: list[_SectionPlan] = []
        for section in compiled.sections:
            self._plans.append(_SectionPlan(section, self.ctx,
                                            self._meta_index, pkt_col))
            if self._pkt_mode:
                pkt_col += len(section.collected)
        # Group state lives in slabs: the tables map a key to a slab row.
        self._slabs = [_Slab(plan, self._pkt_mode) for plan in self._plans]
        self._tables: list[tuple[Section, GroupTable]] = []
        for section, plan, slab in zip(compiled.sections, self._plans,
                                       self._slabs):
            self._tables.append((section, GroupTable(
                n_indices=table_indices, width=table_width,
                entry_bytes=section.granularity.key_bytes + sum(
                    int(getattr(probe, "state_bytes", 8))
                    for probe in plan.probes),
                level=section_level(section, placement),
                state_factory=slab.alloc)))
        # Vector-assembly plan, one entry per table (None: nothing
        # collected): collected feature names and (reducer index,
        # compiled synth chain) pairs in reducer order.
        self._final_plans: list = []
        for section, plan in zip(compiled.sections, self._plans):
            collected = {f.name for f in section.collected}
            idxs = [i for i, f in enumerate(plan.red_feats)
                    if f.name in collected]
            self._final_plans.append(idxs and (
                tuple(plan.red_feats[i].name for i in idxs),
                tuple((i, plan.synths[i]) for i in idxs)) or None)
        # Per-packet vectors concatenate every collected section.
        self._pkt_names = tuple(n for fp in self._final_plans if fp
                                for n in fp[0])
        self._pkt_dims = len(self._pkt_names) if self._pkt_mode else 0

        # Telemetry instruments (attach_telemetry); None = not attached.
        self._t_tracer = None
        self._t_record_cells = None

    def attach_telemetry(self, telemetry) -> None:
        """Register the engine's typed instruments: record/sync/cell
        counts read from :attr:`stats`, the cells-per-record
        distribution, per-granularity table occupancy gauges, and (when
        sampling) a span per record reduce.

        Serial engines of one cluster may share a registry — same-named
        sources sum, keeping serial totals comparable to the merged
        per-worker snapshots of the process backend."""
        from repro.core.telemetry import DEFAULT_COUNT_BOUNDS
        reg = telemetry.registry
        self._t_tracer = (telemetry.tracer if telemetry.tracer.active
                          else None)
        self._t_record_cells = reg.histogram("engine.record.cells",
                                             DEFAULT_COUNT_BOUNDS)
        reg.counter_source("engine.records", lambda: self.stats.records)
        reg.counter_source("engine.syncs", lambda: self.stats.syncs)
        reg.counter_source("engine.cells.columnar",
                           lambda: self.stats.cells_columnar)
        reg.counter_source("engine.cells.per_cell", lambda: (
            self.stats.cells - self.stats.cells_columnar))
        for section, table in self._tables:
            reg.gauge_source(
                f"engine.table.{section.granularity.name}.groups",
                lambda t=table, drain=self._drain: (drain(), len(t))[1])

    # -- setup helpers -------------------------------------------------------

    def _validate_collect_unit(self) -> None:
        unit = self.compiled.collect_unit
        if unit == "pkt":
            return
        collected_levels = [sec.granularity.level
                            for sec in self.compiled.sections
                            if sec.collected]
        unit_level = next(sec.granularity.level
                          for sec in self.compiled.sections
                          if sec.granularity.name == unit)
        if any(lvl > unit_level for lvl in collected_levels):
            raise PolicyError(
                f"collect unit {unit!r} is coarser than a section with "
                f"collected features; collect at the finest used "
                f"granularity or per pkt")

    # -- event consumption ---------------------------------------------------

    @property
    def stats(self) -> EngineStats:
        """Engine statistics.  Reading drains any deferred columnar
        work first, so counters always reflect every consumed event."""
        self._drain()
        return self._stats

    def _drain(self) -> None:
        """Replay the deferred columnar work as ONE merged grouped pass.

        Pending entries are cell blocks interleaved with external clock
        advances, in consumption order.  Grouping and reduction don't
        depend on where the run was split into blocks — slices preserve
        cell-stream order and the table accounting is per-cell-total —
        so the blocks concatenate; only ``last_update`` stamps see the
        clock.  A clock advance is a floor under every later cell's
        stamp, so the merged block carries ``(first cell, floor)`` pairs
        and :meth:`_process_cells_block` computes the piecewise prefix
        maximum in numpy — bit for bit the eager per-block stamps.
        """
        if self._raw:
            self._admit_raw()
        pending = self._pending
        if pending:
            # Snapshot + clear IN PLACE: an orphan record drains mid-way
            # through an admission that still appends to this queue.
            entries = pending[:]
            pending.clear()
            blocks: list = []
            floors: list = []
            floor = n = 0
            for entry in entries:
                if entry[0] is _CLOCK:
                    if entry[1] > floor:
                        floor = entry[1]
                    continue
                if floor and (not floors or floor > floors[-1][1]):
                    floors.append((n, floor))
                blocks.append(entry[1:])
                n += len(entry[1])
            if blocks:
                self._process_cells_block(*_concat_blocks(blocks), floors)
            if floor > self._clock:
                self._clock = floor

    def consume(self, event: Event) -> None:
        """One event, queued raw: a run of queued events is admitted
        as one batch by the next batch, clock advance or drain (at once
        when the run grows long).  The dataplane hands the engine batches
        (:meth:`consume_batch`); this entry stays for the benchmark
        harness's per-event drive and goes when Benchmark v2 drops it."""
        start = perf_counter_ns() if self._t_tracer is not None else 0
        record = isinstance(event, MGPVRecord)
        if not record and not isinstance(event, FGSync):
            raise TypeError(f"unknown event {event!r}")
        if record and self._t_record_cells is not None:
            self._t_record_cells.observe(len(event.cells))
        self._raw.add(event)
        if len(self._raw) >= _RAW_EVENTS:
            self._admit_raw()
        if start and record:
            self._t_tracer.record("engine.reduce", start, perf_counter_ns())

    def run(self, events) -> "FeatureEngine":
        self.consume_batch(events)
        return self

    def consume_batch(self, events) -> tuple:
        """Consume a slice of events — an :class:`EventBatch`, or an
        event list normalised into one.  The cells are attributed with
        one gather against the FG mirror (:meth:`_enqueue`) and queued
        for :meth:`_drain`."""
        batch = EventBatch.of(events)
        if self._t_record_cells is not None:
            self._t_record_cells.observe_many(batch.rec_len)
        if self._raw:
            self._admit_raw()
        self._enqueue(batch, traced=True)
        return ()

    def flush(self) -> tuple:
        return ()

    def take_packet_vectors(self) -> list[FeatureVector]:
        """Per-packet vectors produced since the last take."""
        vectors = self.packet_vectors
        new, self._pv_cursor = vectors[self._pv_cursor:], len(vectors)
        return new

    def _admit_raw(self) -> None:
        raw, self._raw = self._raw, EventBuffer()
        self._enqueue(raw.batch())

    def _intern(self, keys: list) -> np.ndarray:
        """The engine key ids of distinct FG key tuples."""
        ids, table = self._fg_ids, self._fg_keys
        fresh = [key for key in keys if key not in ids]
        ids.update(zip(fresh, range(len(table), len(table) + len(fresh))))
        table.extend(fresh)
        return np.fromiter(map(ids.__getitem__, keys), np.int64, len(keys))

    def _compact_keys(self) -> None:
        """Renumber the interned FG keys to those the mirror holds once
        they outgrow it (drained first: queued blocks hold key ids)."""
        if len(self._fg_keys) <= 2 * len(self._mirror) + 4096:
            return
        self._drain()
        live = np.flatnonzero(self._mirror >= 0)
        held, self._mirror[live] = np.unique(self._mirror[live],
                                             return_inverse=True)
        self._fg_keys = list(map(self._fg_keys.__getitem__, held.tolist()))
        self._fg_ids = {key: i for i, key in enumerate(self._fg_keys)}

    def _set_mirror(self, index: np.ndarray, ids: np.ndarray) -> None:
        """FG slots ``index`` now hold keys ``ids`` (distinct slots)."""
        size, top = len(self._mirror), int(index.max()) + 1
        if top > size:
            self._mirror = np.concatenate((self._mirror, np.full(
                max(top, 2 * size) - size, -1, np.int32)))
        self._mirror[index] = ids

    def _enqueue(self, batch: EventBatch, traced: bool = False) -> None:
        """Attribute a batch's cells to FG keys and queue them.

        A cell resolves against the latest sync *before its record* in
        stream order, else the mirror as it stood — an FG collision
        evicts the displaced owner before the new sync, so within one
        batch an index can name two keys.  The mirror then takes each
        index's last sync.  Records with an orphan cell (its sync never
        arrived) close the queued block and take the ordered path,
        :meth:`_process_record_orphaned` (a span each when ``traced``:
        per-event records had theirs at consume).
        """
        self._compact_keys()
        stats = self._stats
        stats.syncs += len(batch.sync_pos)
        fg, cols = batch.cell_fg, batch.cell_meta
        mirror = self._mirror
        inside = (fg >= 0) & (fg < len(mirror))
        kids = np.where(inside, mirror[np.where(inside, fg, 0)], -1)
        if len(batch.sync_pos):
            held, inverse = np.unique(batch.sync_key, return_inverse=True)
            ids = self._intern(list(map(batch.keys.__getitem__,
                                        held.tolist())))[inverse]
            span = len(batch)
            order = np.argsort(batch.sync_index * span + batch.sync_pos)
            index, ids = batch.sync_index[order], ids[order]
            at = np.searchsorted(index * span + batch.sync_pos[order],
                                 fg * span + np.repeat(batch.rec_pos,
                                                       batch.rec_len)) - 1
            hit = at >= 0
            hit[hit] = index[at[hit]] == fg[hit]
            kids[hit] = ids[at[hit]]
            last = np.append(index[1:] != index[:-1], True)
            self._set_mirror(index[last], ids[last])
        starts, lens = batch.rec_start.tolist(), batch.rec_len.tolist()
        n_rec = len(starts)
        orphaned = np.unique(np.repeat(np.arange(n_rec), batch.rec_len)[
            kids < 0]).tolist()
        cg_keys = list(map(batch.keys.__getitem__, batch.rec_key.tolist()))
        hashes = batch.rec_hash.tolist()
        lo = 0
        for r in orphaned + [n_rec]:
            if r > lo:
                stats.records += r - lo
                s, e = starts[lo], starts[r - 1] + lens[r - 1]
                if e > s:
                    self._pending.append((
                        _CELLS, kids[s:e], tuple(col[s:e] for col in cols),
                        batch.rec_start[lo:r] - s, cg_keys[lo:r],
                        hashes[lo:r]))
            if r < n_rec:
                s, e = starts[r], starts[r] + lens[r]
                start = perf_counter_ns()
                self._process_record_orphaned(
                    cg_keys[r], hashes[r], kids[s:e],
                    tuple(col[s:e] for col in cols))
                if traced and self._t_tracer is not None:
                    self._t_tracer.record("engine.reduce", start,
                                          perf_counter_ns())
            lo = r + 1

    def _process_record_orphaned(self, cg_key: tuple, cg_hash32: int,
                                 kids: np.ndarray, cols: tuple) -> None:
        """A record with orphan cells (key id -1) on the block path: runs
        of attributed cells reduce as blocks and every orphan demotes to
        its record's CG group (:meth:`_demote_cell`), in cell order."""
        self._drain()
        stats = self._stats
        stats.records += 1
        orphan = kids < 0
        cuts = (np.flatnonzero(orphan[1:] != orphan[:-1]) + 1).tolist()
        for lo, hi in zip([0] + cuts, cuts + [len(kids)]):
            run = tuple(col[lo:hi] for col in cols)
            if not orphan[lo]:
                self._process_cells_block(kids[lo:hi], run,
                                          np.zeros(1, np.int64), [cg_key],
                                          [cg_hash32])
                continue
            stats.cells += hi - lo
            stats.orphan_cells += hi - lo
            for meta in (zip(*(col.tolist() for col in run)) if run
                         else [()] * (hi - lo)):
                self._demote_cell(cg_key, meta)

    def _process_cells_block(self, kids: np.ndarray, cols: tuple,
                             offs: np.ndarray, cg_keys: list,
                             cg_hashes: list, floors=()) -> None:
        """Reduce a block of cells (possibly spanning records) group by
        group instead of cell by cell.  ``kids`` holds each cell's engine
        FG key id (orphans are excluded by the callers), ``cols`` one
        column per metadata field; record ``r`` starts at cell
        ``offs[r]``, and ``cg_keys[r]`` / ``cg_hashes[r]`` are its CG key
        and hash (the hash shortcut of a group's first lookup).
        ``floors`` lists ``(first cell, clock)`` advances that arrived
        between the block's cells (see :meth:`_drain`).

        Bit-identical to a per-cell loop by construction: each section
        groups cells by its own *projected* key — states shared across
        fine groups (a coarse section under a finer FG) still see their
        updates in exact cell-stream order — cell order is kept within a
        group, first-appearance order preserves table insertion order,
        and ``last_update`` is the clock's prefix maximum at the group's
        last cell (the scalar loop advances the clock per cell before
        stamping).

        A ``collect(pkt)`` block goes in pieces of at most
        ``_PKT_BLOCK_ROWS`` cells: a piece's vectors view one buffer.
        """
        n = len(kids)
        stats = self._stats
        stats.cells += n
        stats.cells_columnar += n
        if self._ts_idx is None:
            stamps = np.zeros(n, dtype=np.int64)
        else:
            stamps = np.maximum.accumulate(
                cols[self._ts_idx].astype(np.int64))
        if self._clock:
            np.maximum(stamps, self._clock, out=stamps)
        for first, floor in floors:
            np.maximum(stamps[first:], floor, out=stamps[first:])
        self._clock = int(stamps[-1])
        step = _PKT_BLOCK_ROWS if self._pkt_mode else n
        for lo in range(0, n, step):
            hi = lo + step
            self._fold_block(kids[lo:hi], [col[lo:hi] for col in cols],
                             (offs - lo, cg_keys, cg_hashes),
                             stamps[lo:hi])

    def _fold_block(self, kids: np.ndarray, cols: list, cgs: tuple,
                    stamps: np.ndarray) -> None:
        """:meth:`_process_cells_block` over one piece (``cgs`` relative
        to it); under ``collect(pkt)`` buffer row ``i`` is the vector
        right after cell ``i``."""
        # Every section sorts the block by its own groups; they share
        # the FG grouping — first-appearance ordinals, ``heads`` their
        # first cells — and the metadata columns.
        groups, heads, cells = np.unique(kids, return_index=True,
                                         return_inverse=True)
        rank = np.argsort(heads)
        ordinal = np.empty(len(rank), np.intp)
        ordinal[rank] = np.arange(len(rank))
        cells = ordinal[cells.reshape(-1)]
        heads = heads[rank].tolist()
        group_keys = list(map(self._fg_keys.__getitem__,
                              groups[rank].tolist()))
        arrays = dict(enumerate(cols))
        out = (np.empty((len(kids), self._pkt_dims)) if self._pkt_mode
               else None)
        ragged: dict = {}       # out column -> each cell's object value
        fg_name = self.compiled.fg.name
        skips = 0
        for i, (section, _table) in enumerate(self._tables):
            if section.granularity.name == fg_name:
                skips += self._fold_section(i, group_keys, heads, cells,
                                            arrays, cgs, stamps, out,
                                            ragged)
                continue
            # Coarser groups, still in first-appearance order: the
            # projection is a pure function of the FG key.
            project = section.granularity.project
            coarse: dict = {}
            of_fine = []
            for fg_key, head in zip(group_keys, heads):
                at = coarse.setdefault(project(fg_key), (len(coarse), head))
                of_fine.append(at[0])
            skips += self._fold_section(
                i, coarse, [head for _at, head in coarse.values()],
                np.array(of_fine, np.intp)[cells], arrays, cgs, stamps, out,
                ragged)
        self._stats.skipped_updates += skips
        if out is None:
            return
        keys = list(map(group_keys.__getitem__, cells.tolist()))
        if ragged:
            # A member column emitted an array: each vector its widths.
            rows = out.tolist()
            for col, values in ragged.items():
                for row, value in zip(rows, values):
                    row[col] = value
            parts = map(self._vector_parts, rows)
        else:
            parts = zip(out, repeat(None))
        self._pkt_vectors.extend(
            FeatureVector(key, self._pkt_names, values,
                          self._vector_degraded(key), widths)
            for key, (values, widths) in zip(keys, parts))
        self._stats.vectors_emitted += len(keys)

    def _fold_section(self, i: int, group_keys, heads, cells: np.ndarray,
                      arrays: dict, cgs, stamps: np.ndarray,
                      vectors: np.ndarray | None = None,
                      ragged: dict | None = None) -> int:
        """Fold one section's share of a block into its slab: cell ``c``
        belongs to the ``cells[c]``-th of ``group_keys`` (in
        first-appearance order; ``heads`` are their first cells, None
        for a demoted orphan, which has no hash shortcut, nor ``cgs`` —
        the block's ``(offs, cg_keys, cg_hashes)``).  ``arrays`` holds
        the metadata columns by position.  One located table lookup per
        group with the repeats accounted in bulk, one stable sort by
        group, then every map and every accumulator family (under
        ``collect(pkt)``: stack, writing its columns of ``vectors`` —
        or, for an array-valued member column, of ``ragged`` — None for
        a demoted orphan) takes all segments in one call.  Member
        columns take each cell's member view, built at the first one.
        Returns the skipped updates."""
        table = self._tables[i][1]
        slab = self._slabs[i]
        cmaps, creds, ts_pos, dir_pos = self._plans[i].columnar
        lens = np.bincount(cells, minlength=len(group_keys))
        if heads is None:
            shortcuts = repeat((None, None))
        else:
            offs, cg_keys, cg_hashes = cgs
            recs = (np.searchsorted(offs, heads, "right") - 1).tolist()
            shortcuts = zip(map(cg_keys.__getitem__, recs),
                            map(cg_hashes.__getitem__, recs))
        lookup = table.lookup_or_insert_located
        rows = []
        homed = []
        for key, (cg_key, cg_hash32) in zip(group_keys, shortcuts):
            row, _created, in_bucket = lookup(
                key, cg_hash32 if key == cg_key else None)
            rows.append(row)
            homed.append(in_bucket)
        homed = np.array(homed)
        table.account_hits(True, int((lens - 1)[homed].sum()))
        table.account_hits(False, int((lens - 1)[~homed].sum()))
        slab.settle()
        seg = Segments(np.array(rows, np.intp), lens)
        order = np.argsort(cells, kind="stable")
        slab.stamps.last_update[seg.rows] = stamps[order[seg.ends]]
        sorted_cols: dict = {}

        def column(pos):
            col = sorted_cols.get(pos)
            if col is None:
                raw = arrays[pos]
                if raw.dtype == object:
                    # int64 can only come from ints (a bool among them
                    # counts as one in every function, too); what numpy
                    # may have rounded — a float beside ints, an int past
                    # int64 — is typed by the values themselves.
                    items = raw.tolist()
                    raw = np.array(items)
                    if raw.dtype != np.int64:
                        raw = as_column(items)[0]
                    arrays[pos] = raw
                col = sorted_cols[pos] = raw[order]
            return col

        mapped: dict = {}       # dst -> (values, valid mask or None)
        views: list = []        # member views, once a member column asks

        def members() -> list:
            if not views:
                fields = self.compiled.metadata_fields
                views.extend(MemberView(zip(fields, cell)) for cell in (
                    zip(*(column(pos).tolist()
                          for pos in range(len(fields))))
                    if fields else repeat((), seg.n)))
                for dst, out in mapped.items():
                    write_members(views, dst, out)
            return views

        ts = None if ts_pos is None else column(ts_pos)
        dirs = None if dir_pos is None else column(dir_pos)
        for slot, (_m, dst, _k, mode, arg, fallback) in enumerate(cmaps):
            if mode == _SectionPlan._SRC_MEMBER:
                out = slab.maps[slot].each(seg, members(), arg)
            else:
                if mode == _SectionPlan._SRC_NONE:
                    src = None
                elif mode == _SectionPlan._SRC_POS:
                    src = column(arg)
                elif fallback is None:
                    src = mapped[arg][0]
                else:
                    src = overlay(mapped[arg], (column(fallback), None))[0]
                out = (slab.maps[slot].apply(seg, src, ts, dirs)
                       or slab.to_objects(slot=slot).apply(seg, src, ts,
                                                           dirs))
            if views:
                write_members(views, dst, out)
            under = mapped.get(dst)
            mapped[dst] = out if under is None else overlay(out, under)
        # Under collect(pkt) every leader sees every cell, a None (no
        # emission) as a hole in its valid mask: a snapshot all the same.
        skips = 0
        packed: dict = {}       # src -> its emitted cells only
        inputs: dict = {}       # collect(pkt): leader -> (values, valid)
        for kind, src, pos, red_idx, needs_dir, weight, _o, member in creds:
            valid = None
            if kind == _POS:
                values = column(pos)
            elif kind == _MAPPED_OR_POS:
                values = overlay(mapped[src], (column(pos), None))[0]
            elif src in mapped:
                values, valid = mapped[src]
            else:
                values, valid = np.zeros(seg.n), np.zeros(seg.n, np.bool_)
            if valid is not None:
                skips += (seg.n - int(valid.sum())) * weight
            if slab.pkt:
                inputs[red_idx] = values, valid
                continue
            if member:
                slab.reds[red_idx].feed(seg, members())
                continue
            part, rdirs = seg, dirs
            if valid is not None:
                if src not in packed:
                    packed[src] = (seg.select(valid), values[valid],
                                   None if dirs is None else dirs[valid])
                part, values, rdirs = packed[src]
                if not part.n:
                    continue
            args = part, values, rdirs if needs_dir else None
            if not slab.reds[red_idx].update(*args):
                slab.to_objects(leader=red_idx).update(*args)
        todo = list(slab.stacks)
        while todo:
            stack = todo.pop()
            fold, leaders, wanted, cols = stack
            if isinstance(fold, ObjectFold):
                block = fold.trace(seg, members(), wanted)
            else:
                block = fold.trace(
                    seg, *zip(*map(inputs.__getitem__, leaders)), ts, dirs,
                    wanted)
            if block is None:
                todo.extend(slab.unstack(stack))
            elif vectors is None:
                continue
            elif isinstance(block, list):
                for k, col in enumerate(cols.tolist()):
                    at = ragged[col] = [None] * len(vectors)
                    for c, cell in zip(order.tolist(), block):
                        at[c] = cell[k]
            else:
                vectors[order[:, None], cols] = block
        return skips

    def advance_clock(self, now_ns: int) -> None:
        """Advance the engine's notion of time; cells carrying a
        ``tstamp`` field advance it automatically.  While columnar
        blocks are queued the advance is recorded as a marker in the
        queue so the deferred merge replays clock motion in stream
        order."""
        if self._raw:
            self._admit_raw()
        if self._pending:
            self._pending.append((_CLOCK, now_ns))
        elif now_ns > self._clock:
            self._clock = now_ns

    def _demote_cell(self, cg_key: tuple, meta: tuple) -> None:
        """Graceful degradation for an orphaned cell: its FG key is
        unknown, but the record's CG key still attributes it to the
        coarsest section.  Update that section only and mark the CG
        group degraded, so its vectors carry the flag instead of the
        cell silently vanishing.  Per-packet emission is skipped — a
        CG-only snapshot would have a different width."""
        if self._ts_idx is not None:
            self._clock = max(self._clock, meta[self._ts_idx])
        cg_name = self.compiled.cg.name
        updated = False
        for i, (section, _table) in enumerate(self._tables):
            if section.granularity.name != cg_name:
                continue
            self._stats.skipped_updates += self._fold_section(
                i, [cg_key], None, np.zeros(1, np.intp),
                {pos: typed_column([value])
                 for pos, value in enumerate(meta)},
                None, np.array([self._clock]))
            updated = True
        if updated:
            self._stats.degraded_cells += 1
            self._degraded_cg_keys.add(cg_key)
        else:
            self._stats.unrecoverable_cells += 1

    # -- output --------------------------------------------------------------

    @staticmethod
    def _vector_parts(parts: list) -> tuple[np.ndarray, tuple | None]:
        """Concatenate finalized feature values into one float64 vector;
        the common all-scalar case builds the array in one shot instead
        of wrapping every feature in a length-1 ndarray.  When any
        feature is array-valued, also return the per-feature slot
        widths (None in the scalar case — names already align)."""
        for part in parts:
            if isinstance(part, (np.ndarray, list, tuple)):
                arrs = [np.atleast_1d(np.asarray(p, dtype=np.float64))
                        for p in parts]
                return (np.concatenate(arrs),
                        tuple(a.shape[0] for a in arrs))
        return np.array(parts, dtype=np.float64), None

    def _vector_degraded(self, key: tuple) -> bool:
        """True when the key's CG group absorbed demoted orphan cells —
        its coarse-section features carry bounded error."""
        if not self._degraded_cg_keys:
            return False
        return self.compiled.cg.project(key) in self._degraded_cg_keys

    @property
    def packet_vectors(self) -> list[FeatureVector]:
        """Per-packet vectors accumulated so far (per-pkt policies).
        Like :attr:`stats`, reading drains any deferred work first —
        callers slice this list with a cursor."""
        self._drain()
        return self._pkt_vectors

    def finalize(self) -> list[FeatureVector]:
        """Produce the output feature vectors.

        Per-packet policies return the vectors accumulated during
        consumption; per-group policies emit one vector per group of the
        collect granularity, including features of enclosing coarser
        groups.
        """
        self._drain()
        unit = self.compiled.collect_unit
        if unit == "pkt":
            return list(self._pkt_vectors)

        vectors = self._resident_vectors()
        self._stats.vectors_emitted += len(vectors)
        return vectors

    def _resident_vectors(self) -> list[FeatureVector]:
        """The current vector of every group of the collect
        granularity, in table order."""
        unit = self.compiled.collect_unit
        return self._vectors(list(next(
            table.items() for section, table in self._tables
            if section.granularity.name == unit)))

    def evict_idle(self, now_ns: int, timeout_ns: int
                   ) -> list[FeatureVector]:
        """NIC-side group aging: emit the final vector of every
        collect-granularity group idle longer than ``timeout_ns`` and
        free its state; idle groups of other sections are reaped without
        emission.  Per-packet policies only reap (their vectors were
        already emitted per cell).

        This is the "feature vectors will be evicted from the SmartNIC"
        path of §3.2 for long-running deployments.
        """
        if timeout_ns <= 0:
            raise ValueError("timeout must be positive")
        self._drain()
        unit = self.compiled.collect_unit
        vectors: list[FeatureVector] = []

        # The collect granularity first: its vectors read the enclosing
        # coarser groups, which are reaped after it.
        tables = sorted(enumerate(self._tables),
                        key=lambda e: e[1][0].granularity.name != unit)
        for i, (section, table) in tables:
            items = list(table.items())
            stamps = self._slabs[i].stamps.last_update[
                [row for _key, row in items]]
            reaped = [items[j] for j in np.flatnonzero(
                now_ns - stamps > timeout_ns)]
            if section.granularity.name == unit:
                vectors = self._vectors(reaped)
            for key, _row in reaped:
                table.remove(key)
            self._slabs[i].free.extend(row for _key, row in reaped)
        self._stats.vectors_emitted += len(vectors)
        return vectors

    def _vectors(self, items: list) -> list[FeatureVector]:
        """The vectors of collect-granularity groups ``items`` (``(key,
        slab row)`` pairs), in that order, each with the features of
        its enclosing coarser groups; a vector whose coarser group is
        gone omits that section."""
        if not items:
            return []
        unit = self.compiled.collect_unit
        keys = [key for key, _state in items]
        sec_states = []
        for (section, table), fp in zip(self._tables, self._final_plans):
            if fp is None:
                states = None
            elif section.granularity.name == unit:
                states = [state for _key, state in items]
            else:
                project = section.granularity.project
                states = [table.get(project(key)) for key in keys]
            sec_states.append(states)
        if all(states is None or None not in states
               for states in sec_states):
            return self._matrix_vectors(keys, sec_states)
        # evict_idle reaped a coarser group under live finer ones: the
        # vectors differ in shape, so one at a time.
        return [vec for j, key in enumerate(keys)
                for vec in self._matrix_vectors(
                    [key], [None if states is None or states[j] is None
                            else [states[j]] for states in sec_states])]

    def _matrix_vectors(self, keys: list, sec_states: list) -> list:
        """:meth:`_vectors` for groups with the same sections present
        (``sec_states[i]`` is None where section ``i`` contributes
        nothing): one expression per feature over all groups, written
        into one (groups x dims) matrix whose rows are the vectors'
        values."""
        names: list[str] = []
        blocks: list = []   # per feature: (groups,) or (groups, width)
        for i, states in enumerate(sec_states):
            if states is None:
                continue
            sec_names, finals = self._final_plans[i]
            names.extend(sec_names)
            plan, slab = self._plans[i], self._slabs[i]
            rows = np.array(states, np.intp)
            for idx, synths in finals:
                fold = slab.reds[plan.leader_of.get(idx, idx)]
                block = fold.stat(slab.stats.get(idx), rows,
                                  plan.probes[idx])
                if synths and not isinstance(block, list):
                    block = (block.tolist() if block.ndim == 1
                             else list(block))
                for fn in synths:
                    block = [fn(value) for value in block]
                if isinstance(block, list):
                    # Object values: a column when their shapes agree.
                    try:
                        column = np.array(block, dtype=np.float64)
                    except (ValueError, TypeError):
                        column = None
                    if column is not None and 1 <= column.ndim <= 2:
                        block = column
                blocks.append(block)
        if not blocks:
            return []
        names = tuple(names)
        degraded = [self._vector_degraded(key) for key in keys]
        if any(isinstance(block, list) for block in blocks):
            # Ragged (an unbounded array feature): per-vector assembly.
            parts = [self._vector_parts([block[j] for block in blocks])
                     for j in range(len(keys))]
            return [FeatureVector(key, names, values, flag, widths)
                    for key, (values, widths), flag
                    in zip(keys, parts, degraded)]
        widths = tuple(1 if block.ndim == 1 else block.shape[1]
                       for block in blocks)
        matrix = np.empty((len(keys), sum(widths)))
        at = 0
        for block, width in zip(blocks, widths):
            matrix[:, at:at + width] = (block if block.ndim == 2
                                        else block[:, None])
            at += width
        if all(block.ndim == 1 for block in blocks):
            widths = None
        return [FeatureVector(key, names, values, flag, widths)
                for key, values, flag in zip(keys, matrix, degraded)]

    # -- failure handling -------------------------------------------------------

    def fg_mirror_items(self) -> tuple:
        """Snapshot of the synchronized FG mirror (index, key) pairs —
        what a control plane replays to survivors on failover."""
        if self._raw:
            self._admit_raw()
        live = np.flatnonzero(self._mirror >= 0)
        return tuple(zip(live.tolist(), map(self._fg_keys.__getitem__,
                                            self._mirror[live].tolist())))

    def crash(self) -> list[FeatureVector]:
        """Simulate losing this device: demote the resident per-group
        state to final vectors flagged ``degraded`` (they are missing
        whatever cells were still en route) and clear every table and
        the FG mirror, as a restart would.  Already-emitted per-packet
        vectors and cumulative stats survive — they left the device."""
        self._drain()
        residual: list[FeatureVector] = []
        if self.compiled.collect_unit != "pkt":
            residual = self._resident_vectors()
            for vec in residual:
                vec.degraded = True
        for _, table in self._tables:
            table.clear()
        for slab in self._slabs:
            slab.__init__(slab.plan, slab.pkt)  # empty; tables keep alloc
        self._mirror[:] = -1
        self._fg_ids.clear()
        self._fg_keys.clear()
        self._degraded_cg_keys.clear()
        return residual

    # -- accounting ----------------------------------------------------------

    def counters(self) -> dict:
        """Uniform stage counters (observe convention)."""
        s = self.stats
        return {
            "records": s.records,
            "cells": s.cells,
            "cells_columnar": s.cells_columnar,
            "cells_per_cell": s.cells - s.cells_columnar,
            "syncs": s.syncs,
            "orphan_cells": s.orphan_cells,
            "degraded_cells": s.degraded_cells,
            "unrecoverable_cells": s.unrecoverable_cells,
            "degraded_groups": len(self._degraded_cg_keys),
            "skipped_updates": s.skipped_updates,
            "vectors_emitted": s.vectors_emitted,
        }

    def path(self) -> tuple[str, str | None]:
        """Where the policy's group state lives: ``("slab", None)`` —
        every function's state in numpy columns — or ``("slab+objects",
        fn)`` with some of it in per-row objects: ``fn`` is the first
        member column's ``"<fn>: <reason>"`` (a function whose declared
        twin cannot serve it, driven per cell through member views), else
        the first function that declared no fold.  Only an orphan cell
        leaves the block path (``cells_per_cell`` counts those)."""
        fn = next((p.blocker for p in self._plans if p.blocker), None) or \
            next((slab.objects for slab in self._slabs if slab.objects),
                 None)
        return ("slab+objects", fn) if fn else ("slab", None)

    def total_state_bytes(self) -> int:
        """Bytes of live reducer state across all group tables, as the
        NIC model counts it: each feature's ``state_bytes`` per group,
        a shared accumulator once per feature that reads it."""
        self._drain()
        total = 0
        for (_, table), plan, slab in zip(self._tables, self._plans,
                                          self._slabs):
            rows = [row for _key, row in table.items()]
            for idx, probe in enumerate(plan.probes):
                fold = slab.reds[plan.leader_of.get(idx, idx)]
                if isinstance(fold, ObjectFold):
                    total += sum(
                        int(getattr(fold.view(row, probe), "state_bytes", 8))
                        for row in rows)
                else:
                    total += len(rows) * int(getattr(probe, "state_bytes", 8))
        return total

    def table_stats(self) -> dict:
        self._drain()
        return {section.granularity.name: table.stats
                for section, table in self._tables}
