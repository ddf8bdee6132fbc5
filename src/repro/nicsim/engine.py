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

import os
from array import array
from bisect import bisect_right
from dataclasses import dataclass
from itertools import repeat
from time import perf_counter_ns

import numpy as np

from repro.core.compiler import CompiledPolicy, PolicyError, Section
from repro.core.functions import (
    COLUMNAR_KERNELS,
    NS_PER_S,
    SHARED_ACCUMULATORS,
    ExecContext,
    make_map_factory,
    make_reduce_factory,
    make_synth_fn,
    reducer_share_plan,
)
from repro.nicsim.grouptable import GroupTable
from repro.nicsim.memory import EMEM, level_by_name
from repro.nicsim.placement import PlacementResult
from repro.streaming.folds import (
    Fold,
    ObjectFold,
    ObjectMap,
    Segments,
    as_column,
    overlay,
    typed_column,
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


class MemberView:
    """A member tuple as seen inside one section: the cell's metadata
    fields overlaid with this section's mapped keys."""

    __slots__ = ("_fields", "_mapped")

    def __init__(self, fields: dict) -> None:
        self._fields = fields
        self._mapped: dict = {}

    def get(self, key: str):
        if key in self._mapped:
            return self._mapped[key]
        try:
            return self._fields[key]
        except KeyError:
            raise KeyError(f"member has no key {key!r}") from None

    def set(self, key: str, value) -> None:
        self._mapped[key] = value

    def has(self, key: str) -> bool:
        return key in self._mapped or key in self._fields


# Reducer-source dispatch kinds (see _SectionPlan) and the unset-slot
# sentinel of _shell_plan.
_POS, _MAPPED_OR_POS, _MAPPED = 0, 1, 2
_MISSING = object()

# Deferred-work queue tags (FeatureEngine._pending / _drain).
_CELLS, _CLOCK = 0, 1

# Events consumed one at a time are admitted in runs of at most this many.
_RAW_EVENTS = 1024

# Row cap of one collect(pkt) block: its vectors are row views of one
# buffer, so this bounds both the allocation and what a kept vector pins.
_PKT_BLOCK_ROWS = 2048


_IMMUTABLE = (int, float, bool, str, type(None))


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


def _shell_plan(probe, attr: str):
    """How to allocate a share-plan follower bare: ``(cls, extras)``
    when the object's entire state is slots — ``attr`` (the accumulator
    the share wiring overwrites) plus immutable parameters, returned as
    ``((slot, value), ...)`` copied from ``probe``.  Such followers skip
    ``__init__``, which would only build an accumulator the wiring
    immediately discards.  None means "construct normally"."""
    cls = type(probe)
    slots: set[str] = set()
    for klass in cls.__mro__:
        s = klass.__dict__.get("__slots__")
        if s is None:
            if klass is not object:
                return None
            continue
        slots.update((s,) if isinstance(s, str) else s)
    if attr not in slots:
        return None
    extras = tuple((name, getattr(probe, name, _MISSING))
                   for name in sorted(slots - {attr}))
    if any(type(value) not in _IMMUTABLE for _n, value in extras):
        return None
    return cls, extras


class _PerCell(Exception):
    """Raised while compiling a section's columnar recipe: names the
    function that keeps the section on the per-cell path, and why."""

    def __init__(self, fn, why: str) -> None:
        super().__init__(f"{fn}: {why}")


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

    __slots__ = ("maps", "reds", "share_plan", "columnar", "blocker",
                 "map_factories", "red_factories", "red_feats",
                 "red_followers", "red_shells", "shell_extras",
                 "map_fns", "map_probes", "probes", "leader_of")

    def __init__(self, section: Section, ctx: ExecContext,
                 meta_index: dict | None = None,
                 share_states: bool = False,
                 pkt_col0: int | None = None) -> None:
        index = meta_index or {}
        map_dsts: set = set()
        maps = []
        for m in section.maps:
            src_pos = (index.get(m.src)
                       if m.src is not None and m.src not in map_dsts
                       else None)
            maps.append((m.dst, m.src, src_pos,
                         make_map_factory(m.fn, ctx)))
            map_dsts.add(m.dst)
        self.maps = tuple(maps)
        reds = []
        for feat in section.features:
            pos = index.get(feat.src)
            if pos is None:
                kind = _MAPPED
            elif feat.src in map_dsts:
                kind = _MAPPED_OR_POS
            else:
                kind = _POS
            reds.append((feat, kind, feat.src, pos,
                         make_reduce_factory(feat.reduce_fn, ctx)))
        # What a section's groups look like is fixed by the factories,
        # so probe one instance of each function once: the exact classes
        # decide columnar eligibility, and followers of a declared
        # family (f_var after f_mean, f_dstd after f_dw with the same
        # lam, … over the same source) share the leader's accumulator —
        # the index-based wiring is replayed per group (reference mode
        # keeps independent copies).
        probes = [factory() for _f, _k, _s, _p, factory in reds]
        self.share_plan = reducer_share_plan(
            (feat.src, probe) for (feat, *_), probe in zip(reds, probes)
        ) if share_states else ()
        followers = frozenset(f for f, _l, _a in self.share_plan)
        self.reds = tuple(
            (feat, kind, src, pos, factory, i in followers)
            for i, (feat, kind, src, pos, factory) in enumerate(reds))
        # Flat views for the hot group constructor: factories in plan
        # order, so a new state is a couple of list comprehensions.
        self.map_factories = tuple(f for _d, _s, _p, f in self.maps)
        self.red_factories = tuple(f for _f, _k, _s, _p, f, _fol
                                   in self.reds)
        self.red_feats = tuple(f for f, _k, _s, _p, _fac, _fol
                               in self.reds)
        self.red_followers = tuple(fol for _f, _k, _s, _p, _fac, fol
                                   in self.reds)
        shells = [None] * len(reds)
        extras = []
        for f_idx, _l, attr in self.share_plan:
            shell = _shell_plan(probes[f_idx], attr)
            if shell is not None:
                shells[f_idx] = shell[0]
                extras.extend((f_idx, name, value)
                              for name, value in shell[1])
        self.red_shells = tuple(shells)
        self.shell_extras = tuple(extras)
        # What a slab is built from: the probed instances (a follower's
        # probe later stands in for it on every row), the functions'
        # names, and each follower's leader.
        self.map_fns = tuple(m.fn for m in section.maps)
        self.map_probes = [f() for f in self.map_factories]
        self.probes = probes
        self.leader_of = {f: l for f, l, _attr in self.share_plan}
        try:
            self.columnar = self._build_columnar(
                index, section, self.map_probes, probes, pkt_col0)
            self.blocker = None
        except _PerCell as blocker:
            self.columnar, self.blocker = None, str(blocker)

    # Columnar map-source modes (cmaps entries below).
    _SRC_NONE, _SRC_POS, _SRC_MAPPED = 0, 1, 2

    def _build_columnar(self, index: dict, section: Section,
                        map_probes: list, red_probes: list,
                        pkt_col0: int | None):
        """Precompile the section's columnar recipe, or raise
        :class:`_PerCell` at the first disqualifying function — such
        sections stay on the per-cell path, whose semantics the kernels
        must match bit for bit.  A function qualifies when its exact
        class declared a batch twin (``declare_columnar_kernel``) whose
        reads the block can serve.

        Returns ``(cmaps, creds, ts_pos, dir_pos)`` where each cmaps
        entry is ``(map_idx, dst, kernel, src_mode, src_arg, fallback)``
        and each creds entry — one per accumulator *leader*, standing
        for ``weight`` reducers — is ``(kind, src, pos, red_idx,
        needs_dir, weight, run)``.  ``run`` is None for a per-group
        policy (``update_many``); under ``collect(pkt)``, where this
        section's vector columns start at ``pkt_col0``, it is ``(attr,
        cols)``: the attribute holding the accumulator with the run
        kernel, and the vector column of each of its ``RUN_STATS`` (-1,
        a row's scratch slot, when no collected feature wants it).
        """
        positions = {"tstamp": index.get("tstamp"),
                     "direction": index.get("direction")}
        used: set = set()
        # Metadata names a map has overwritten: the per-cell path would
        # hand a later reader the *mapped* value through the member,
        # while kernels read the metadata column.
        shadowed: set = set()

        def declared(fn, probe):
            decl = COLUMNAR_KERNELS.get(type(probe))
            if decl is None:
                raise _PerCell(fn, "no declared batch kernel")
            for name in decl[1] - {"src"}:
                if positions[name] is None:
                    raise _PerCell(fn, f"reads {name!r}, which the "
                                   f"cells do not carry")
                if name in shadowed:
                    raise _PerCell(fn, f"reads {name!r} after a map "
                                   f"overwrote it")
            used.update(decl[1])
            return decl

        cmaps = []
        valid_dsts: dict[str, bool] = {}   # dst -> always emits a value
        for i, ((dst, src, src_pos, _factory), m) in enumerate(
                zip(self.maps, section.maps)):
            kernel, reads, maybe_none, *_ = declared(m.fn, map_probes[i])
            if kernel is None:
                raise _PerCell(m.fn, "declared without a map kernel")
            if "src" not in reads:
                entry = (i, dst, kernel, self._SRC_NONE, None, None)
            elif src_pos is not None:
                entry = (i, dst, kernel, self._SRC_POS, src_pos, None)
            elif src in valid_dsts:
                fallback = index.get(src)
                if not valid_dsts[src] and fallback is None:
                    # The source can be absent for a member and has no
                    # positional fallback — the per-cell path raises
                    # KeyError there; keep that behavior.
                    raise _PerCell(m.fn, f"source {src!r} can be absent")
                entry = (i, dst, kernel, self._SRC_MAPPED, src, fallback)
            else:
                raise _PerCell(m.fn, f"unreadable source {src!r}")
            cmaps.append(entry)
            valid_dsts[dst] = not maybe_none or bool(valid_dsts.get(dst))
            if dst in positions:
                shadowed.add(dst)
        leader_of = self.leader_of
        collected = {f.name for f in section.collected}
        creds: dict = {}        # leader red_idx -> its (mutable) entry
        col = pkt_col0
        for red_idx, (feat, kind, src, pos, _factory, _follower) \
                in enumerate(self.reds):
            probe = red_probes[red_idx]
            _k, reads, _m, stat, _fold = declared(feat.reduce_fn, probe)
            entry = creds.setdefault(
                leader_of.get(red_idx, red_idx),
                [kind, src, pos, red_idx, "direction" in reads, 0, None])
            entry[5] += 1
            if pkt_col0 is None:
                if reads - {"direction"}:
                    raise _PerCell(feat.reduce_fn, "update_many is only "
                                   "handed values and directions")
                continue
            attr = SHARED_ACCUMULATORS.get(type(probe))
            if stat is None or attr is None:
                raise _PerCell(feat.reduce_fn, "no declared run kernel "
                               "to emit a vector per cell")
            if feat.synth_fns:
                raise _PerCell(feat.synth_fns[0],
                               "synthesizes a per-packet feature")
            stats = getattr(probe, attr).RUN_STATS
            if entry[6] is None:
                entry[6] = (attr, [-1] * len(stats))
            if feat.name in collected:
                cols, k = entry[6][1], stats.index(stat)
                if cols[k] >= 0:
                    raise _PerCell(feat.reduce_fn, "repeats a statistic "
                                   "its accumulator already emits")
                cols[k] = col
                col += 1
        return (tuple(cmaps), tuple(map(tuple, creds.values())),
                positions["tstamp"] if "tstamp" in used else None,
                positions["direction"] if "direction" in used else None)


class _GroupState:
    """Per-group function instances for one section.

    Construction is on the hot path (one per new group), so it only
    instantiates the function objects; the per-cell loop's dispatch
    views (``map_fns``/``upd_reducers``) are derived from the shared
    section plan on first use and cached — the run kernels index
    ``map_objs``/``red_objs`` directly and never build them.
    """

    __slots__ = ("plan", "map_objs", "red_all", "red_objs", "last_update",
                 "_map_fns", "_upd_reducers")

    def __init__(self, plan: _SectionPlan) -> None:
        self.plan = plan
        self.map_objs = [f() for f in plan.map_factories]
        red_all = [f() if shell is None else shell.__new__(shell)
                   for f, shell in zip(plan.red_factories,
                                       plan.red_shells)]
        self.red_all = red_all
        # Family followers (f_var after f_mean over the same source, …)
        # share the leader's accumulator and sit as None in the update
        # view ("state already updated by the leader"); their finalize
        # reads the shared accumulator wired here.
        share = plan.share_plan
        if share:
            for f_idx, l_idx, attr in share:
                setattr(red_all[f_idx], attr,
                        getattr(red_all[l_idx], attr))
            for f_idx, name, value in plan.shell_extras:
                setattr(red_all[f_idx], name, value)
            self.red_objs = [None if fol else r for r, fol
                             in zip(red_all, plan.red_followers)]
        else:
            self.red_objs = red_all
        self.last_update = 0
        self._map_fns = self._upd_reducers = None

    @property
    def map_fns(self) -> list:
        mf = self._map_fns
        if mf is None:
            mf = self._map_fns = [
                (dst, src, fn) for (dst, src, _p, _f), fn
                in zip(self.plan.maps, self.map_objs)]
        return mf

    @property
    def upd_reducers(self) -> tuple:
        ur = self._upd_reducers
        if ur is None:
            ur = self._upd_reducers = tuple(zip(self.plan.red_feats,
                                                self.red_objs))
        return ur

    def state_bytes(self) -> int:
        return sum(int(getattr(r, "state_bytes", 8))
                   for r in self.red_all)


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
    the first such function."""

    def __init__(self, plan: _SectionPlan) -> None:
        self.plan = plan
        self.objects: str | None = None
        self.maps = [self._map_fold(slot)
                     for slot in range(len(plan.columnar[0]))]
        self.reds: dict = {}        # leader red_idx -> its fold
        self.stats: dict = {}       # red_idx -> the stat finalize() reads
        family: dict = {}
        for idx in range(len(plan.probes)):
            family.setdefault(plan.leader_of.get(idx, idx), []).append(idx)
        for leader, members in family.items():
            decls = [COLUMNAR_KERNELS[type(plan.probes[i])][4]
                     for i in members]
            factory = decls[0] and decls[0][0]
            odd = next((i for i, decl in zip(members, decls)
                        if not decl or decl[0] is not factory), None)
            if odd is None:
                self.stats.update((i, decl[1])
                                  for i, decl in zip(members, decls))
            self.reds[leader] = self._red_fold(leader, odd)
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
        fold = COLUMNAR_KERNELS[type(plan.map_probes[m_idx])][4]
        if native and fold is not None:
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
                          SHARED_ACCUMULATORS.get(type(plan.probes[leader])))

    def folds(self) -> list:
        return [*self.maps, *self.reds.values(), self.stamps]

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
                   leader: int | None = None):
        """Move one native fold's rows into an object column — a block
        left the range the fold is exact in — and return that column."""
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
                       else self._holder(leader, fn))
        return new


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
        self._synth_cache: dict = {}
        self._pkt_vectors: list[FeatureVector] = []
        self._pv_cursor = 0     # take_packet_vectors' position
        self._degraded_cg_keys: set[tuple] = set()
        self._validate_collect_unit()

        # Block-path precompilation: positional metadata resolution and
        # the clock field's position.  SUPERFE_REFERENCE_PATH=1 keeps
        # every policy on the per-cell loop, with unshared accumulators,
        # as the equivalence oracle.
        meta = compiled.metadata_fields
        self._meta_index = {name: i for i, name in enumerate(meta)}
        self._ts_idx = self._meta_index.get("tstamp")
        self._reference = os.environ.get("SUPERFE_REFERENCE_PATH") == "1"

        self._pkt_mode = compiled.collect_unit == "pkt"
        pkt_col = 0 if self._pkt_mode else None
        self._plans: list[_SectionPlan] = []
        for section in compiled.sections:
            self._plans.append(_SectionPlan(
                section, self.ctx, self._meta_index,
                share_states=not self._reference, pkt_col0=pkt_col))
            if self._pkt_mode:
                pkt_col += len(section.collected)
        # Columnar fast path eligibility: every section has an exact
        # batch recipe (for a per-packet policy, run kernels that emit a
        # row per cell); any other policy runs the per-cell loop.  Only
        # orphan cells leave the block path — checked at record time.
        self._columnar = (not self._reference
                          and all(p.columnar is not None
                                  for p in self._plans))
        # A columnar per-group policy keeps its group state in slabs:
        # the tables then map a key to a slab row, not to a state object.
        self._slabs = ([_Slab(plan) for plan in self._plans]
                       if self._columnar and not self._pkt_mode else None)
        self._tables: list[tuple[Section, GroupTable]] = []
        for i, (section, plan) in enumerate(zip(compiled.sections,
                                                self._plans)):
            self._tables.append((section, GroupTable(
                n_indices=table_indices, width=table_width,
                entry_bytes=self._entry_bytes(section, plan),
                level=self._section_level(section, placement),
                state_factory=(self._slabs[i].alloc if self._slabs
                               else lambda p=plan: _GroupState(p)))))
        # Vector-assembly plan, one entry per table: collected feature
        # names and (red_all index, compiled synth chain) pairs in
        # reducer order — what _vectors/_emit_packet_vector would
        # rediscover per group via name-set membership.
        self._final_plans: list = []
        for (section, _table), plan in zip(self._tables, self._plans):
            if not section.collected:
                self._final_plans.append(None)
                continue
            collected = {f.name for f in section.collected}
            names = tuple(f.name for f in plan.red_feats
                          if f.name in collected)
            finals = tuple(
                (i, tuple(self._synth(spec) for spec in f.synth_fns))
                for i, f in enumerate(plan.red_feats)
                if f.name in collected)
            self._final_plans.append((names, finals))
        # Per-packet vectors concatenate every collected section.
        self._pkt_names = tuple(n for fp in self._final_plans if fp
                                for n in fp[0])
        self._pkt_dims = len(self._pkt_names) if self._pkt_mode else 0

        # Telemetry instruments (attach_telemetry); None = not attached.
        self._t_tracer = None
        self._t_records = None
        self._t_syncs = None
        self._t_record_cells = None
        self._t_cells_columnar = None
        self._t_cells_per_cell = None

    def attach_telemetry(self, telemetry) -> None:
        """Register the engine's typed instruments: record/sync counts,
        the cells-per-record distribution, per-granularity table
        occupancy gauges, and (when sampling) a span per record reduce.

        Serial engines of one cluster may share a registry — counters
        get-or-create by name and sum naturally, keeping serial totals
        comparable to the merged per-worker snapshots of the process
        backend."""
        from repro.core.telemetry import DEFAULT_COUNT_BOUNDS
        reg = telemetry.registry
        self._t_tracer = (telemetry.tracer if telemetry.tracer.active
                          else None)
        self._t_records = reg.counter("engine.records")
        self._t_syncs = reg.counter("engine.syncs")
        self._t_record_cells = reg.histogram("engine.record.cells",
                                             DEFAULT_COUNT_BOUNDS)
        self._t_cells_columnar = reg.counter("engine.cells.columnar")
        self._t_cells_per_cell = reg.counter("engine.cells.per_cell")
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

    @staticmethod
    def _section_level(section: Section,
                       placement: PlacementResult | None):
        if placement is None:
            return EMEM
        names = [placement.placement.get(f.name)
                 for f in section.features]
        names = [n for n in names if n]
        if not names:
            return EMEM
        return max((level_by_name(n) for n in names),
                   key=lambda l: l.latency_cycles)

    def _entry_bytes(self, section: Section, plan: _SectionPlan) -> int:
        probe = _GroupState(plan)
        return section.granularity.key_bytes + probe.state_bytes()

    def _synth(self, spec):
        if spec not in self._synth_cache:
            self._synth_cache[spec] = make_synth_fn(spec, self.ctx)
        return self._synth_cache[spec]

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
        """One event.  The per-cell loop applies it now; the block path
        queues it raw, and a run of queued events is admitted as one
        batch by the next batch, clock advance or drain (at once when
        the run grows long)."""
        start = perf_counter_ns() if self._t_tracer is not None else 0
        record = isinstance(event, MGPVRecord)
        if not record and not isinstance(event, FGSync):
            raise TypeError(f"unknown event {event!r}")
        if self._t_records is not None:
            if record:
                self._t_records.inc()
                self._t_record_cells.observe(len(event.cells))
            else:
                self._t_syncs.inc()
        if self._columnar:
            self._raw.add(event)
            if len(self._raw) >= _RAW_EVENTS:
                self._admit_raw()
        elif record:
            if self._t_cells_per_cell is not None:
                self._t_cells_per_cell.inc(len(event.cells))
            self._process_record_reference(event)
        else:
            self._stats.syncs += 1
            self._compact_keys()
            self._set_mirror(np.array([event.index]),
                             self._intern([event.key]))
        if start and record:
            self._t_tracer.record("engine.reduce", start, perf_counter_ns())

    def run(self, events) -> "FeatureEngine":
        for event in events:
            self.consume(event)
        return self

    def consume_batch(self, events) -> tuple:
        """Consume a slice of events — an :class:`EventBatch`, or an
        event list normalised into one.  The block path attributes the
        cells with one gather against the FG mirror (:meth:`_enqueue`)
        and queues them for :meth:`_drain`; the per-cell loop consumes
        the events one by one."""
        batch = EventBatch.of(events)
        if not self._columnar:
            for event in batch:
                self.consume(event)
            return ()
        if self._t_records is not None:
            self._t_records.inc(len(batch.rec_pos))
            self._t_syncs.inc(len(batch.sync_pos))
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
        its record's CG group (:meth:`_demote_cell`), in cell order —
        what the per-cell loop does."""
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
            if self._t_cells_per_cell is not None:
                self._t_cells_per_cell.inc(hi - lo)
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

        Bit-identical to the per-cell loop by construction: each section
        groups cells by its own *projected* key — states shared across
        fine groups (a coarse section under a finer FG) still see their
        updates in exact cell-stream order — cell order is kept within a
        group, first-appearance order preserves table insertion order,
        and ``last_update`` is the clock's prefix maximum at the group's
        last cell (the scalar loop advances the clock per cell before
        stamping).

        A per-group policy folds all of a section's groups at once into
        its slab (:meth:`_fold_section`); a ``collect(pkt)`` policy
        walks the groups with run kernels (:meth:`_run_block`).
        """
        n = len(kids)
        stats = self._stats
        stats.cells += n
        stats.cells_columnar += n
        if self._t_cells_columnar is not None:
            self._t_cells_columnar.inc(n)
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
        if self._slabs is None:
            # Capped: a block's vectors are row views of one buffer.
            keys = list(map(self._fg_keys.__getitem__, kids.tolist()))
            cols = [col.tolist() for col in cols]
            offs, cgs = offs.tolist(), list(zip(cg_keys, cg_hashes))
            prefix = stamps.tolist()
            for lo in range(0, n, _PKT_BLOCK_ROWS):
                hi = lo + _PKT_BLOCK_ROWS
                self._run_block(keys[lo:hi], [c[lo:hi] for c in cols],
                                offs, cgs, lo, prefix[lo:hi])
            return
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
        cgs = offs, cg_keys, cg_hashes
        fg_name = self.compiled.fg.name
        skips = 0
        for i, (section, _table) in enumerate(self._tables):
            if section.granularity.name == fg_name:
                skips += self._fold_section(i, group_keys, heads, cells,
                                            arrays, cgs, stamps)
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
                np.array(of_fine, np.intp)[cells], arrays, cgs, stamps)
        stats.skipped_updates += skips

    def _fold_section(self, i: int, group_keys, heads, cells: np.ndarray,
                      arrays: dict, cgs, stamps: np.ndarray) -> int:
        """Fold one section's share of a block into its slab: cell ``c``
        belongs to the ``cells[c]``-th of ``group_keys`` (in
        first-appearance order; ``heads`` are their first cells, None
        for a demoted orphan, which has no hash shortcut, nor ``cgs`` —
        the block's ``(offs, cg_keys, cg_hashes)``).  ``arrays`` holds
        the metadata columns by position.  One located table lookup per
        group with the repeats accounted in bulk, one stable sort by
        group, then every map and every accumulator family takes all
        segments in one call.  Returns the skipped updates."""
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

        ts = None if ts_pos is None else column(ts_pos)
        dirs = None if dir_pos is None else column(dir_pos)
        mapped: dict = {}       # dst -> (values, valid mask or None)
        for slot, (_m, dst, _k, mode, arg, fallback) in enumerate(cmaps):
            if mode == _SectionPlan._SRC_NONE:
                src = None
            elif mode == _SectionPlan._SRC_POS:
                src = column(arg)
            elif fallback is None:
                src = mapped[arg][0]
            else:
                src = overlay(mapped[arg], (column(fallback), None))[0]
            out = (slab.maps[slot].apply(seg, src, ts, dirs)
                   or slab.to_objects(slot=slot).apply(seg, src, ts, dirs))
            under = mapped.get(dst)
            mapped[dst] = out if under is None else overlay(out, under)
        skips = 0
        packed: dict = {}       # src -> its emitted cells only
        for kind, src, pos, red_idx, needs_dir, weight, _run in creds:
            part, rdirs = seg, dirs
            if kind == _POS:
                values = column(pos)
            elif kind == _MAPPED_OR_POS:
                values = overlay(mapped[src], (column(pos), None))[0]
            elif src not in mapped:
                skips += seg.n * weight
                continue
            else:
                values, valid = mapped[src]
                if valid is not None:
                    if src not in packed:
                        packed[src] = (seg.select(valid), values[valid],
                                       None if dirs is None else dirs[valid])
                    part, values, rdirs = packed[src]
                    skips += (seg.n - part.n) * weight
                    if not part.n:
                        continue
            args = part, values, rdirs if needs_dir else None
            if not slab.reds[red_idx].update(*args):
                slab.to_objects(leader=red_idx).update(*args)
        return skips

    def _run_block(self, keys: list, cols: list, offs: list, cgs: list,
                   cell0: int, prefix: list) -> None:
        """One ``collect(pkt)`` block (cells ``cell0`` onwards of the
        merged block): per group, one table lookup plus a bulk
        repeat-hit account per section, map kernels over the group's
        metadata columns, and each accumulator's run kernel, which
        replays the group's run and writes its statistics into the
        run's rows of one per-block buffer.  Sections are independent,
        so row ``i`` ends up holding every section's state right after
        cell ``i``: the rows are the vectors, in cell order."""
        n = len(keys)
        dims = self._pkt_dims
        stats = self._stats
        # Rows of 1 + dims slots: column -1 of a row is the scratch
        # slot that unwanted statistics are written to.
        buf = array("d", (0.0,)) * (n * (dims + 1))
        offsets = range(1, len(buf), dims + 1)
        skips = 0
        src_none = _SectionPlan._SRC_NONE
        src_pos = _SectionPlan._SRC_POS
        fg_name = self.compiled.fg.name
        for (section, table), plan in zip(self._tables, self._plans):
            cmaps, creds, ts_pos, dir_pos = plan.columnar
            # Group cell indices by this section's projected key in
            # first-appearance order.  The FG-granularity section's
            # projection is the identity, so it groups on the key as-is;
            # coarser sections memoize the projection per FG key — it is
            # a pure function of the key.
            groups: dict = {}
            if section.granularity.name == fg_name:
                for i, key in enumerate(keys):
                    lst = groups.get(key)
                    if lst is None:
                        groups[key] = [i]
                    else:
                        lst.append(i)
            else:
                project = section.granularity.project
                proj: dict = {}
                for i, fg_key in enumerate(keys):
                    key = proj.get(fg_key)
                    if key is None:
                        key = proj[fg_key] = project(fg_key)
                    lst = groups.get(key)
                    if lst is None:
                        groups[key] = [i]
                    else:
                        lst.append(i)
            lookup = table.lookup_or_insert_located
            account = table.account_hits
            for key, idxs in groups.items():
                k = len(idxs)
                whole = k == n
                cg_key, cg_hash32 = cgs[
                    bisect_right(offs, cell0 + idxs[0]) - 1]
                state, _created, in_bucket = lookup(
                    key, cg_hash32 if key == cg_key else None)
                if k > 1:
                    account(in_bucket, k - 1)
                state.last_update = prefix[idxs[-1]]
                # Per-group column-slice memo: several consumers (map
                # sources, sibling reducers over one source) slice the
                # same column; cut the list comp to once per column.
                csl: dict = {}
                ts_g = dir_g = None
                if ts_pos is not None:
                    c = cols[ts_pos]
                    ts_g = csl[ts_pos] = (c if whole
                                          else [c[i] for i in idxs])
                if dir_pos is not None:
                    c = cols[dir_pos]
                    dir_g = csl[dir_pos] = (c if whole
                                            else [c[i] for i in idxs])
                mapped: dict[str, list] = {}
                map_objs = state.map_objs
                for m_idx, dst, kernel, mode, arg, fallback in cmaps:
                    if mode == src_none:
                        src_vals = None
                    elif mode == src_pos:
                        src_vals = csl.get(arg)
                        if src_vals is None:
                            c = cols[arg]
                            src_vals = csl[arg] = (
                                c if whole else [c[i] for i in idxs])
                    else:
                        base = mapped[arg]
                        if fallback is None:
                            src_vals = base
                        else:
                            fb = csl.get(fallback)
                            if fb is None:
                                c = cols[fallback]
                                fb = csl[fallback] = (
                                    c if whole else [c[i] for i in idxs])
                            src_vals = [m if m is not None else fb[j]
                                        for j, m in enumerate(base)]
                    out = kernel(map_objs[m_idx], src_vals, ts_g,
                                 dir_g, k)
                    prev = mapped.get(dst)
                    if prev is None:
                        mapped[dst] = out
                    else:
                        mapped[dst] = [v if v is not None else p
                                       for v, p in zip(out, prev)]
                red_objs = state.red_objs
                at = offsets if whole else [offsets[i] for i in idxs]
                secs = ts_g and [t / NS_PER_S for t in ts_g]
                memo: dict = {}
                for kind, src, pos, red_idx, _d, weight, run in creds:
                    if kind == _MAPPED:
                        # None = "skip the update, snapshot anyway".
                        vals = mapped.get(src) or [None] * k
                        skips += vals.count(None) * weight
                    else:
                        vals = csl.get(pos)
                        if vals is None:
                            c = cols[pos]
                            vals = csl[pos] = (
                                c if whole else [c[i] for i in idxs])
                        if kind == _MAPPED_OR_POS:
                            fb = vals
                            vals = [m if m is not None else fb[j]
                                    for j, m in enumerate(mapped[src])]
                    getattr(red_objs[red_idx], run[0]).update_run(
                        vals, secs, dir_g, buf, at, run[1], memo)
        stats.skipped_updates += skips
        rows = np.frombuffer(buf).reshape(n, dims + 1)[:, 1:]
        self._pkt_vectors.extend(
            FeatureVector(key, self._pkt_names, row,
                          self._vector_degraded(key))
            for key, row in zip(keys, rows))
        stats.vectors_emitted += n

    def _process_record_reference(self, record: MGPVRecord) -> None:
        """The per-cell loop — the ``SUPERFE_REFERENCE_PATH=1`` oracle
        and the one fallback of a policy :meth:`path` reports as
        ``per-cell``: a fields dict and fresh member views per cell, one
        table lookup per cell per section."""
        self._stats.records += 1
        fields_order = self.compiled.metadata_fields
        mirror = self._mirror
        for fg_idx, meta in record.cells:
            self._stats.cells += 1
            fields = dict(zip(fields_order, meta))
            kid = mirror[fg_idx] if 0 <= fg_idx < len(mirror) else -1
            if kid < 0:
                self._stats.orphan_cells += 1
                self._demote_cell(record.cg_key, meta)
                continue
            self._process_cell(self._fg_keys[kid], fields)

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

    def _update_section(self, state: _GroupState, fields: dict) -> None:
        state.last_update = self._clock
        view = MemberView(fields)
        for dst, src, fn in state.map_fns:
            src_value = view.get(src) if src is not None else None
            value = fn.apply(view, src_value)
            if value is not None:
                view.set(dst, value)
        for feat, reducer in state.upd_reducers:
            if not view.has(feat.src):
                self._stats.skipped_updates += 1
                continue
            if reducer is not None:
                reducer.update(view.get(feat.src), view)

    def _process_cell(self, fg_key: tuple, fields: dict) -> None:
        tstamp = fields.get("tstamp")
        if tstamp is not None:
            self._clock = max(self._clock, tstamp)
        for section, table in self._tables:
            key = section.granularity.project(fg_key)
            state, _ = table.lookup_or_insert(key)
            self._update_section(state, fields)
        if self.compiled.collect_unit == "pkt":
            self._emit_packet_vector(fg_key)

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
        for i, (section, table) in enumerate(self._tables):
            if section.granularity.name != cg_name:
                continue
            if self._slabs is None:
                state, _ = table.lookup_or_insert(cg_key)
                self._update_section(
                    state, dict(zip(self.compiled.metadata_fields, meta)))
            else:
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

    def _emit_packet_vector(self, fg_key: tuple) -> None:
        parts: list = []
        append = parts.append
        for (section, table), fp in zip(self._tables, self._final_plans):
            if fp is None:
                continue
            red_all = table.get(section.granularity.project(fg_key)).red_all
            for idx, synths in fp[1]:
                value = red_all[idx].finalize()
                for fn in synths:
                    value = fn(value)
                append(value)
        if parts:
            self._stats.vectors_emitted += 1
            values, widths = self._vector_parts(parts)
            self._pkt_vectors.append(FeatureVector(
                key=fg_key, names=self._pkt_names, values=values,
                degraded=self._vector_degraded(fg_key),
                widths=widths))

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
            states = [state for _key, state in items]
            stamps = (self._slabs[i].stamps.last_update[states]
                      if self._slabs is not None else
                      np.array([state.last_update for state in states]))
            reaped = [items[j] for j in np.flatnonzero(
                now_ns - stamps > timeout_ns)]
            if section.granularity.name == unit:
                vectors = self._vectors(reaped)
            for key, state in reaped:
                table.remove(key)
            if self._slabs is not None:
                self._slabs[i].free.extend(row for _key, row in reaped)
        self._stats.vectors_emitted += len(vectors)
        return vectors

    def _vectors(self, items: list) -> list[FeatureVector]:
        """The vectors of collect-granularity groups ``items`` (``(key,
        state)`` pairs, a state being a slab row or a
        :class:`_GroupState`), in that order, each with the features of
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
            if self._slabs is not None:
                plan, slab = self._plans[i], self._slabs[i]
                rows = np.array(states, np.intp)
            for idx, synths in finals:
                if self._slabs is None:
                    block = [state.red_all[idx].finalize()
                             for state in states]
                else:
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
        for slab in self._slabs or ():
            slab.__init__(slab.plan)    # empty again; tables keep alloc
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
        """Which record path the policy's cells take, named by where
        the group state lives: ``("slab", None)`` — a per-group policy
        on the block path with every function's state in numpy columns;
        ``("slab+objects", fn)`` — the same with ``fn`` the first
        function that declared no fold and rides an object column;
        ``("columnar", None)`` — ``collect(pkt)`` run kernels over
        per-group objects; or ``("per-cell", why)`` — the reference
        loop — naming the first thing that disqualifies the block path
        (an orphan cell leaves it either way, alone: ``cells_per_cell``
        counts those)."""
        if self._slabs is not None:
            fn = next((slab.objects for slab in self._slabs
                       if slab.objects), None)
            return ("slab+objects", fn) if fn else ("slab", None)
        if self._columnar:
            return "columnar", None
        if self._reference:
            return "per-cell", "SUPERFE_REFERENCE_PATH=1"
        return "per-cell", next(p.blocker for p in self._plans
                                if p.columnar is None)

    def total_state_bytes(self) -> int:
        """Bytes of live reducer state across all group tables (Fig 15's
        memory axis)."""
        self._drain()
        if self._slabs is None:
            return sum(state.state_bytes()
                       for _, table in self._tables
                       for _, state in table.items())
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
