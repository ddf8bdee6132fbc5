"""The per-cell reference engine: the equivalence oracle of
:class:`~repro.nicsim.engine.FeatureEngine`.

It runs §6's per-cell program literally: for every cell, a fields dict
and a fresh member view, one ``GroupTable.lookup_or_insert`` per
section, every map's ``apply`` and every reducer's ``update`` on the
group's own function objects — private accumulators built straight
from the factories, no declared sharing — and, under ``collect(pkt)``,
one vector per cell from every section's ``finalize()``.  It serves the
sink surface the serial dataplane and ``NICCluster`` call, so
``tests/conftest.py::reference_path`` can build it in place of every
serial engine.  Nothing here uses the slab, the section plans or the
segment folds the production engine runs on.
"""

from __future__ import annotations

from time import perf_counter_ns

import numpy as np

from repro.core.compiler import CompiledPolicy, PolicyError, Section
from repro.core.functions import (
    ExecContext,
    make_map_factory,
    make_reduce_factory,
    make_synth_fn,
)
from repro.nicsim.engine import EngineStats, FeatureVector
from repro.nicsim.grouptable import GroupTable
from repro.nicsim.placement import PlacementResult, section_level
from repro.switchsim.mgpv import Event, EventBatch, FGSync, MGPVRecord


class MemberView(dict):
    """A member tuple as one section's functions see it: the cell's
    metadata fields, overlaid with the section's mapped keys; ``get``
    raises KeyError for a key the member lacks."""

    __slots__ = ()
    get = dict.__getitem__
    set = dict.__setitem__
    has = dict.__contains__


class _Recipe:
    """One section's functions resolved to factories once: ``maps`` as
    ``(dst, src, factory)``, the reducers' features and factories, and
    ``finals`` — ``(name, reducer index, synth chain)`` per collected
    feature, in reducer order."""

    def __init__(self, section: Section, ctx: ExecContext) -> None:
        self.maps = tuple((m.dst, m.src, make_map_factory(m.fn, ctx))
                          for m in section.maps)
        self.red_feats = tuple(section.features)
        self.red_factories = tuple(make_reduce_factory(f.reduce_fn, ctx)
                                   for f in self.red_feats)
        collected = {f.name for f in section.collected}
        self.finals = tuple(
            (f.name, i, tuple(make_synth_fn(spec, ctx)
                              for spec in f.synth_fns))
            for i, f in enumerate(self.red_feats) if f.name in collected)


class _GroupState:
    """Per-group function instances for one section.  ``share_plan``
    (a :func:`~repro.core.functions.reducer_share_plan`) wires each
    follower onto its leader's accumulator and leaves it out of the
    update view; the oracle's own groups keep every accumulator
    private."""

    __slots__ = ("recipe", "map_objs", "red_all", "red_objs",
                 "last_update")

    def __init__(self, recipe: _Recipe, share_plan: tuple = ()) -> None:
        self.recipe = recipe
        self.map_objs = [f() for _dst, _src, f in recipe.maps]
        self.red_all = red_all = [f() for f in recipe.red_factories]
        for f_idx, l_idx, attr in share_plan:
            setattr(red_all[f_idx], attr, getattr(red_all[l_idx], attr))
        followers = {f_idx for f_idx, _l, _a in share_plan}
        self.red_objs = [None if i in followers else r
                         for i, r in enumerate(red_all)]
        self.last_update = 0

    def state_bytes(self) -> int:
        return sum(int(getattr(r, "state_bytes", 8))
                   for r in self.red_all)


def _vector_parts(parts: list) -> tuple[np.ndarray, tuple | None]:
    """Finalized feature values as one float64 vector, plus the
    per-feature slot widths when any feature is array-valued."""
    if any(isinstance(p, (np.ndarray, list, tuple)) for p in parts):
        arrs = [np.atleast_1d(np.asarray(p, dtype=np.float64))
                for p in parts]
        return np.concatenate(arrs), tuple(a.shape[0] for a in arrs)
    return np.array(parts, dtype=np.float64), None


class ReferenceEngine:
    """Turns an MGPV event stream into feature vectors one cell at a
    time; a drop-in for the serial ``FeatureEngine``."""

    name = "engine"

    def __init__(self, compiled: CompiledPolicy,
                 ctx: ExecContext | None = None,
                 placement: PlacementResult | None = None,
                 table_indices: int = 4096,
                 table_width: int = 4) -> None:
        self.compiled = compiled
        self.ctx = ctx or ExecContext(division_free=True)
        self._stats = EngineStats()
        self._clock = 0
        self._mirror: dict[int, tuple] = {}     # FG index -> FG key
        self._pkt_vectors: list[FeatureVector] = []
        self._pv_cursor = 0
        self._degraded_cg_keys: set[tuple] = set()
        self._validate_collect_unit()
        self._ts_idx = {name: i for i, name in enumerate(
            compiled.metadata_fields)}.get("tstamp")
        self._recipes = [_Recipe(section, self.ctx)
                         for section in compiled.sections]
        self._tables: list[tuple[Section, GroupTable]] = [
            (section, GroupTable(
                n_indices=table_indices, width=table_width,
                entry_bytes=(section.granularity.key_bytes
                             + _GroupState(recipe).state_bytes()),
                level=section_level(section, placement),
                state_factory=lambda r=recipe: _GroupState(r)))
            for section, recipe in zip(compiled.sections, self._recipes)]
        self._pkt_names = tuple(name for recipe in self._recipes
                                for name, _i, _s in recipe.finals)
        self._t_tracer = None
        self._t_record_cells = None

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

    def attach_telemetry(self, telemetry) -> None:
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
                lambda t=table: len(t))

    # -- event consumption ---------------------------------------------------

    @property
    def stats(self) -> EngineStats:
        return self._stats

    def consume(self, event: Event) -> None:
        start = perf_counter_ns() if self._t_tracer is not None else 0
        record = isinstance(event, MGPVRecord)
        if not record and not isinstance(event, FGSync):
            raise TypeError(f"unknown event {event!r}")
        if record and self._t_record_cells is not None:
            self._t_record_cells.observe(len(event.cells))
        if record:
            self._process_record(event)
        else:
            self._stats.syncs += 1
            self._mirror[event.index] = event.key
        if start and record:
            self._t_tracer.record("engine.reduce", start, perf_counter_ns())

    def consume_batch(self, events) -> tuple:
        for event in EventBatch.of(events):
            self.consume(event)
        return ()

    def run(self, events) -> "ReferenceEngine":
        self.consume_batch(events)
        return self

    def flush(self) -> tuple:
        return ()

    def advance_clock(self, now_ns: int) -> None:
        if now_ns > self._clock:
            self._clock = now_ns

    def _process_record(self, record: MGPVRecord) -> None:
        self._stats.records += 1
        fields_order = self.compiled.metadata_fields
        for fg_idx, meta in record.cells:
            self._stats.cells += 1
            fg_key = self._mirror.get(fg_idx)
            if fg_key is None:
                self._stats.orphan_cells += 1
                self._demote_cell(record.cg_key, meta)
                continue
            self._process_cell(fg_key, dict(zip(fields_order, meta)))

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

    def _update_section(self, state: _GroupState, fields: dict) -> None:
        state.last_update = self._clock
        view = MemberView(fields)
        for (dst, src, _f), fn in zip(state.recipe.maps, state.map_objs):
            src_value = view.get(src) if src is not None else None
            value = fn.apply(view, src_value)
            if value is not None:
                view.set(dst, value)
        for feat, reducer in zip(state.recipe.red_feats, state.red_objs):
            if not view.has(feat.src):
                self._stats.skipped_updates += 1
                continue
            if reducer is not None:
                reducer.update(view.get(feat.src), view)

    def _demote_cell(self, cg_key: tuple, meta: tuple) -> None:
        """An orphaned cell updates its record's CG group only, which
        turns degraded; with no CG section it is unrecoverable."""
        if self._ts_idx is not None:
            self._clock = max(self._clock, meta[self._ts_idx])
        cg_name = self.compiled.cg.name
        updated = False
        for section, table in self._tables:
            if section.granularity.name != cg_name:
                continue
            state, _ = table.lookup_or_insert(cg_key)
            self._update_section(
                state, dict(zip(self.compiled.metadata_fields, meta)))
            updated = True
        if updated:
            self._stats.degraded_cells += 1
            self._degraded_cg_keys.add(cg_key)
        else:
            self._stats.unrecoverable_cells += 1

    # -- output --------------------------------------------------------------

    def _finals(self, recipe: _Recipe, state: _GroupState):
        for name, idx, synths in recipe.finals:
            value = state.red_all[idx].finalize()
            for fn in synths:
                value = fn(value)
            yield name, value

    def _emit_packet_vector(self, fg_key: tuple) -> None:
        parts = [value for (section, table), recipe
                 in zip(self._tables, self._recipes)
                 for _name, value in self._finals(recipe, table.get(
                     section.granularity.project(fg_key)))]
        if parts:
            self._stats.vectors_emitted += 1
            values, widths = _vector_parts(parts)
            self._pkt_vectors.append(FeatureVector(
                fg_key, self._pkt_names, values,
                self._vector_degraded(fg_key), widths))

    def _vector_degraded(self, key: tuple) -> bool:
        return (bool(self._degraded_cg_keys)
                and self.compiled.cg.project(key) in self._degraded_cg_keys)

    @property
    def packet_vectors(self) -> list[FeatureVector]:
        return self._pkt_vectors

    def take_packet_vectors(self) -> list[FeatureVector]:
        vectors = self._pkt_vectors
        new, self._pv_cursor = vectors[self._pv_cursor:], len(vectors)
        return new

    def finalize(self) -> list[FeatureVector]:
        if self.compiled.collect_unit == "pkt":
            return list(self._pkt_vectors)
        vectors = self._resident_vectors()
        self._stats.vectors_emitted += len(vectors)
        return vectors

    def _resident_vectors(self) -> list[FeatureVector]:
        unit = self.compiled.collect_unit
        return self._vectors(list(next(
            table.items() for section, table in self._tables
            if section.granularity.name == unit)))

    def evict_idle(self, now_ns: int, timeout_ns: int
                   ) -> list[FeatureVector]:
        if timeout_ns <= 0:
            raise ValueError("timeout must be positive")
        unit = self.compiled.collect_unit
        vectors: list[FeatureVector] = []
        # The collect granularity first: its vectors read the enclosing
        # coarser groups, which are reaped after it.
        for section, table in sorted(
                self._tables, key=lambda e: e[0].granularity.name != unit):
            reaped = [(key, state) for key, state in table.items()
                      if now_ns - state.last_update > timeout_ns]
            if section.granularity.name == unit:
                vectors = self._vectors(reaped)
            for key, _state in reaped:
                table.remove(key)
        self._stats.vectors_emitted += len(vectors)
        return vectors

    def _vectors(self, items: list) -> list[FeatureVector]:
        """One vector per collect-granularity ``(key, state)``, with the
        features of its enclosing coarser groups (a section whose group
        is gone is left out)."""
        unit = self.compiled.collect_unit
        vectors = []
        for key, state in items:
            names, parts = [], []
            for (section, table), recipe in zip(self._tables,
                                                self._recipes):
                group = (state if section.granularity.name == unit
                         else table.get(section.granularity.project(key)))
                if group is None:
                    continue
                for name, value in self._finals(recipe, group):
                    names.append(name)
                    parts.append(value)
            if parts:
                values, widths = _vector_parts(parts)
                vectors.append(FeatureVector(
                    key, tuple(names), values, self._vector_degraded(key),
                    widths))
        return vectors

    # -- failure handling ----------------------------------------------------

    def fg_mirror_items(self) -> tuple:
        return tuple(sorted(self._mirror.items()))

    def crash(self) -> list[FeatureVector]:
        residual: list[FeatureVector] = []
        if self.compiled.collect_unit != "pkt":
            residual = self._resident_vectors()
            for vec in residual:
                vec.degraded = True
        for _, table in self._tables:
            table.clear()
        self._mirror.clear()
        self._degraded_cg_keys.clear()
        return residual

    # -- accounting ----------------------------------------------------------

    def counters(self) -> dict:
        s = self._stats
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

    def total_state_bytes(self) -> int:
        return sum(state.state_bytes() for _, table in self._tables
                   for _, state in table.items())

    def table_stats(self) -> dict:
        return {section.granularity.name: table.stats
                for section, table in self._tables}
