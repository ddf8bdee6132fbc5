"""Which policies the engine's columnar path serves — as a manifest.

Eligibility is a declared property of each function class
(``declare_columnar_kernel``), decided once per section from probed
instances.  All ten Table 3 policies must take the columnar path and,
on a fault-free run, none of their cells the per-cell loop — the three
``collect(pkt)`` ones through their accumulators' run kernels;
everything the declaration contract excludes — a subclass overriding
``apply``/``update``/``finalize``, an undeclared registration, a later
reader of a map-shadowed metadata field, a synth chain under
``collect(pkt)`` — runs the engine's one per-cell loop, the reference
oracle's own, and must match it in everything observable; an orphan
cell leaves the block path alone, not with its record.
"""

import os
import tracemalloc
import pytest

import repro.api as api
from repro.apps import APP_POLICIES, build_policy
from repro.apps.extensions import _DirectionGate, _FDmean
from repro.bench.parallel import vectors_checksum
from repro.cli import main
from repro.core.compiler import PolicyCompiler
from repro.core.faults import FaultAction, FaultPlan
from repro.core.parallel import ExecutionConfig
from repro.core.functions import (
    COLUMNAR_KERNELS,
    FN_IMPLICIT_FIELDS,
    MAP_FNS,
    REDUCE_FNS,
    _FIpt,
    _FSum,
    declare_columnar_kernel,
    register_map_fn,
    register_reduce_fn,
)
from repro.core.policy import pktstream
from repro.net.packet import PacketBatch
from repro.net.trace import generate_trace
from repro.nicsim import engine as engine_mod
from repro.nicsim.engine import FeatureEngine
from repro.switchsim.mgpv import FGSync, MGPVRecord
from tests.conftest import engine_ledger, reference_path

PER_GROUP = ["CUMUL", "AWF", "DF", "TF", "PeerShark", "MPTD", "NPOD"]
#: Where each policy's group state lives (``FeatureEngine.path()``): the
#: fingerprinting policies keep their unbounded ``f_array`` as objects
#: (CUMUL's direction gate, which declares no fold, comes first).
LAYOUT = {"CUMUL": ("slab+objects", "f_ingress_only"),
          **{app: ("slab+objects", "f_array")
             for app in ("AWF", "DF", "TF")}}
PER_PACKET = ["Kitsune", "HELAD", "N-BaIoT"]
#: Packets the per-packet comparisons run on: the reference oracle
#: costs ~0.4 ms/packet on these policies.
PKT_PREFIX = 1000


def engine_for(policy) -> FeatureEngine:
    return FeatureEngine(PolicyCompiler().compile(policy))


@pytest.fixture(scope="module")
def campus():
    return generate_trace("CAMPUS", n_flows=120, seed=5)


@pytest.fixture(scope="module")
def pkt_trace(campus):
    return campus[:PKT_PREFIX]


def reference_checksum(policy, trace) -> str:
    with reference_path():
        return vectors_checksum(api.compile(policy).run(trace).vectors)


def emitted(vectors) -> list:
    """Per-packet vectors as emitted: order, value bits and flags."""
    return [(tuple(v.key), v.names, v.values.tobytes(), v.degraded,
             v.widths) for v in vectors]


def run_batch(policy, trace):
    """(checksum, engine counters) of a ``PacketBatch`` run."""
    result = api.compile(policy).run(PacketBatch.from_packets(trace))
    return (vectors_checksum(result.vectors),
            result.dataplane.counters()["engine"])


def ledger(vectors, sink) -> tuple:
    """Everything observable of a run: the vectors as emitted and, per
    engine, every counter and every ``GroupTableStats`` field."""
    return emitted(vectors), engine_ledger(sink)


def check_fallback_is_oracle(policy, trace, blocker):
    """A policy ``path()`` reports as per-cell runs the reference loop
    (with shared accumulators): nothing observable tells them apart."""
    assert engine_for(policy).path() == ("per-cell", blocker)
    with reference_path():
        ref = api.compile(policy).run(trace)
    result = api.compile(policy).run(PacketBatch.from_packets(trace))
    counters = result.dataplane.counters()["engine"]
    assert counters["cells_columnar"] == 0
    assert counters["cells_per_cell"] == counters["cells"] > 0
    assert (ledger(result.vectors, result.engine)
            == ledger(ref.vectors, ref.engine))


def test_reference_path_restores_a_preset_variable(monkeypatch):
    monkeypatch.setenv("SUPERFE_REFERENCE_PATH", "1")
    with reference_path():
        pass
    assert os.environ["SUPERFE_REFERENCE_PATH"] == "1"


class TestManifest:
    def test_manifest_covers_table3(self):
        assert sorted(PER_GROUP + PER_PACKET) == sorted(APP_POLICIES)

    @pytest.mark.parametrize("app", PER_GROUP)
    def test_per_group_policy_is_columnar(self, app, campus):
        engine = engine_for(build_policy(app))
        assert engine._columnar
        assert engine.path() == LAYOUT.get(app, ("slab", None))
        checksum, counters = run_batch(build_policy(app), campus)
        assert counters["cells"] > 0
        assert counters["cells_per_cell"] == 0
        assert counters["cells_columnar"] == counters["cells"]
        assert checksum == reference_checksum(build_policy(app), campus)

    @pytest.mark.parametrize("app", PER_PACKET)
    def test_per_packet_is_columnar(self, app, pkt_trace):
        engine = engine_for(build_policy(app))
        assert engine.path() == ("columnar", None)
        # Leaders only: one run-kernel entry per shared accumulator.
        assert (sum(len(p.columnar[1]) for p in engine._plans)
                < sum(len(p.reds) for p in engine._plans))
        with reference_path():
            ref = api.compile(build_policy(app)).run(pkt_trace)
        for trace in (pkt_trace, PacketBatch.from_packets(pkt_trace)):
            result = api.compile(build_policy(app)).run(trace)
            counters = result.dataplane.counters()["engine"]
            assert counters["cells_per_cell"] == 0
            assert counters["cells_columnar"] == counters["cells"] > 0
            assert emitted(result.vectors) == emitted(ref.vectors)

    def test_cli_apps_prints_the_path(self, capsys):
        assert main(["apps"]) == 0
        rows = {line.split()[0]: line
                for line in capsys.readouterr().out.splitlines()[1:]}
        assert sorted(rows) == sorted(APP_POLICIES)
        for app in APP_POLICIES:
            layout, fn = LAYOUT.get(app, ("slab" if app in PER_GROUP
                                          else "columnar", None))
            assert rows[app].rstrip().endswith(
                f"{layout} ({fn})" if fn else layout)


class _GateLoud(_DirectionGate):
    """Overrides ``apply``: the parent's kernel no longer describes it."""

    def apply(self, member, src_value):
        value = super().apply(member, src_value)
        return None if value is None else 2 * value


class _SumTwice(_FSum):
    __slots__ = ()

    def update(self, value, member) -> None:
        super().update(2 * value, member)


class _UserIpt:
    """Same arithmetic as ``f_ipt`` but never declared."""

    def __init__(self) -> None:
        self._prev = None

    def apply(self, member, src_value):
        prev, self._prev = self._prev, member.get("tstamp")
        return None if prev is None else self._prev - prev


@pytest.fixture()
def user_fns():
    register_map_fn("f_gate_loud", lambda spec, ctx: _GateLoud(1),
                    implicit_fields=("direction",))
    register_map_fn("f_user_ipt", lambda spec, ctx: _UserIpt(),
                    implicit_fields=("tstamp",))
    register_reduce_fn("f_sum_twice", lambda spec, ctx: _SumTwice())
    try:
        yield
    finally:
        for name in ("f_gate_loud", "f_user_ipt"):
            del MAP_FNS[name]
            FN_IMPLICIT_FIELDS.pop(name)
        del REDUCE_FNS["f_sum_twice"]
        COLUMNAR_KERNELS.pop(_UserIpt, None)


def flow_policy(map_fn="f_ipt", src="tstamp", reduce_fn="f_sum"):
    return (pktstream().groupby("flow")
            .map("x", src, map_fn)
            .reduce("x", [reduce_fn, "f_max"])
            .collect("flow"))


class TestOpaqueStaysPerCell:
    def test_builtin_twin_is_columnar(self, campus):
        assert engine_for(flow_policy())._columnar

    def test_subclass_overriding_apply(self, user_fns, campus):
        check_fallback_is_oracle(
            flow_policy("f_gate_loud", "size"), campus,
            "f_gate_loud: no declared batch kernel")

    def test_subclass_overriding_update(self, user_fns, campus):
        check_fallback_is_oracle(
            flow_policy(reduce_fn="f_sum_twice"), campus,
            "f_sum_twice: no declared batch kernel")

    def test_reducer_update_reading_tstamp(self, campus):
        check_fallback_is_oracle(
            flow_policy(reduce_fn="f_dmean{lam=0.1}"), campus,
            "f_dmean{lam=0.1}: update_many is only handed values and "
            "directions")

    def test_undeclared_registration_then_declared(self, user_fns, campus):
        policy = flow_policy("f_user_ipt")
        check_fallback_is_oracle(policy, campus,
                                 "f_user_ipt: no declared batch kernel")
        # Declaring the class — exactly what apps/extensions.py does for
        # its direction gate — is all it takes.
        kernel, reads, maybe_none, *_ = COLUMNAR_KERNELS[_FIpt]
        declare_columnar_kernel(_UserIpt, kernel, reads=tuple(reads),
                                maybe_none=maybe_none)
        assert engine_for(policy)._columnar
        checksum, counters = run_batch(policy, campus)
        assert counters["cells_per_cell"] == 0
        assert checksum == reference_checksum(policy, campus)

    def test_declaration_rejects_unknown_reads(self):
        with pytest.raises(ValueError, match="unknown kernel reads"):
            declare_columnar_kernel(_UserIpt, None, reads=("size",))


class TestShadowRule:
    """A map may overwrite ``direction``/``tstamp`` (AWF does); only a
    *later* function that reads the field through the member sees the
    difference, and only then must the section stay per-cell."""

    def shadowing_policy(self, app):
        # The app's maps, then one that overwrites ``direction`` with a
        # constant, then f_mag — whose update reads direction through
        # the member and so sees the *mapped* value per cell.
        base = build_policy(app)
        policy = pktstream().filter("tcp.exist").groupby("flow")
        for m in PolicyCompiler().compile(base).sections[0].maps:
            policy = policy.map(m.dst, m.src, str(m.fn))
        return (policy.map("direction", "one", "f_identity")
                .reduce("size", ["f_mag", "f_sum"])
                .collect("flow"))

    @pytest.mark.parametrize("app", ["CUMUL", "AWF"])
    def test_later_reader_of_shadowed_direction_stays_per_cell(
            self, app, campus):
        check_fallback_is_oracle(
            self.shadowing_policy(app), campus,
            "f_mag: reads 'direction' after a map overwrote it")

    def test_shadow_without_later_reader_is_columnar(self):
        # AWF itself: f_direction reads the metadata *before* its own
        # write lands, f_array reads the mapped value as a source.
        assert engine_for(build_policy("AWF"))._columnar


class _DmeanLoud(_FDmean):
    """Overrides ``finalize``: the parent's declared run statistic no
    longer describes it."""

    __slots__ = ()

    def finalize(self) -> float:
        return 2 * super().finalize()


class _UserLast:
    """A user reducer nobody declared."""

    state_bytes = 8

    def __init__(self) -> None:
        self.last = 0.0

    def update(self, value, member) -> None:
        self.last = float(value)

    def finalize(self) -> float:
        return self.last


@pytest.fixture()
def user_reducers():
    register_reduce_fn("f_dmean_loud",
                       lambda spec, ctx: _DmeanLoud(spec, ctx),
                       implicit_fields=("tstamp",))
    register_reduce_fn("f_user_last", lambda spec, ctx: _UserLast())
    try:
        yield
    finally:
        del REDUCE_FNS["f_dmean_loud"], REDUCE_FNS["f_user_last"]
        FN_IMPLICIT_FIELDS.pop("f_dmean_loud")


def pkt_policy(*fns, synth=None):
    # ``size`` is mapped *and* a metadata field: where the gate emits
    # nothing, the reducer falls back to the packet's own size.
    policy = (pktstream().groupby("host")
              .map("size", "size", "f_egress_only")
              .reduce("size", ["f_dw{lam=1}", "f_dstd{lam=1}"])
              .collect("pkt")
              .groupby("channel")
              .map("ipt", "tstamp", "f_ipt")
              .reduce("ipt", ["f_dmean{lam=0.1}", *fns]))
    if synth:
        policy = policy.synthesize(synth)
    return policy.collect("pkt")


class TestPerPacketBlock:
    """``collect(pkt)`` on the block path: what stays per-cell, orphan
    cells between the runs of a block, and the emit buffer's bound."""

    def test_declared_damped_policy_is_columnar(self, pkt_trace):
        policy = pkt_policy("f_dw{lam=0.1}")
        assert engine_for(policy).path() == ("columnar", None)
        with reference_path():
            ref = api.compile(policy).run(pkt_trace)
        result = api.compile(policy).run(pkt_trace)
        assert emitted(result.vectors) == emitted(ref.vectors)
        assert (result.dataplane.counters()["engine"]
                == {**ref.dataplane.counters()["engine"],
                    "cells_columnar": PKT_PREFIX, "cells_per_cell": 0})

    def test_subclass_overriding_finalize(self, user_reducers, pkt_trace):
        check_fallback_is_oracle(
            pkt_policy("f_dmean_loud{lam=0.1}"), pkt_trace,
            "f_dmean_loud{lam=0.1}: no declared batch kernel")

    def test_undeclared_user_reducer(self, user_reducers, pkt_trace):
        check_fallback_is_oracle(pkt_policy("f_user_last"), pkt_trace,
                                 "f_user_last: no declared batch kernel")

    def test_builtin_without_a_run_kernel(self, pkt_trace):
        check_fallback_is_oracle(
            pkt_policy("f_mean"), pkt_trace,
            "f_mean: no declared run kernel to emit a vector per cell")

    def test_synth_chain(self, pkt_trace):
        check_fallback_is_oracle(
            pkt_policy(synth="f_norm"), pkt_trace,
            "f_norm: synthesizes a per-packet feature")

    def test_repeated_statistic(self, pkt_trace):
        check_fallback_is_oracle(
            pkt_policy("f_dmean{lam=0.1}"), pkt_trace,
            "f_dmean{lam=0.1}: repeats a statistic its accumulator "
            "already emits")

    def test_orphan_records_interleave_with_blocks(self, campus):
        """Sync loss: only the orphan cells leave the block path,
        between deferred clean blocks — vectors, their order, degraded
        flags, table stats and every counter match the oracle, whatever
        the input form."""
        trace = campus[:1500]
        plan = FaultPlan(seed=3, actions=(
            FaultAction(kind="link_loss", at_packet=0, rate=0.08,
                        drop_kind="sync"),))
        policy = build_policy("Kitsune")

        def outcome(drive):
            ex = api.compile(policy, fault_plan=plan, telemetry=True)
            vectors, dataplane = drive(ex)
            counters = dataplane.counters()["engine"]
            # The registry counts each cell on the path it took too.
            registry = ex.telemetry.snapshot()["counters"]
            assert (registry["engine.cells.columnar"],
                    registry["engine.cells.per_cell"]) == (
                counters["cells_columnar"], counters["cells_per_cell"])
            (_counters, tables), = ledger(vectors, dataplane.engine)[1]
            return emitted(vectors), counters, tables

        def run_as(form):
            def drive(ex):
                result = ex.run(form(trace))
                return result.vectors, result.dataplane
            return drive

        def streamed(ex):
            # The final flush re-yields every per-packet vector.
            seen = {id(v): v for chunk in ex.stream(trace, batch_size=200)
                    for v in chunk}
            return list(seen.values()), ex._session.dataplane

        with reference_path():
            ref_vectors, ref_counters, ref_tables = outcome(run_as(list))
        orphans = ref_counters["orphan_cells"]
        assert orphans > 0
        assert any(flag for *_v, flag, _w in ref_vectors)
        assert not all(flag for *_v, flag, _w in ref_vectors)
        for drive in (run_as(list), run_as(PacketBatch.from_packets),
                      streamed):
            vectors, counters, tables = outcome(drive)
            assert vectors == ref_vectors
            assert tables == ref_tables
            assert counters == {
                **ref_counters,
                "cells_columnar": counters["cells"] - orphans,
                "cells_per_cell": orphans}

    def test_orphan_in_the_middle_of_a_record(self):
        """The runs around an orphan stay on the block path: the vector
        emitted before the demotion is unflagged, the one after it
        flagged, and only the orphan counts as per-cell."""
        key = (1, 2, 10, 20, 6)

        def session(feed):
            engine = engine_for(pkt_policy())
            fields = engine.compiled.metadata_fields
            cells = tuple(
                (fg, tuple({"size": 100 + j, "tstamp": 5_000 + j,
                            "direction": 1}[f] for f in fields))
                for j, fg in enumerate((0, 0, 9, 0)))
            getattr(engine, feed)([FGSync(0, key),
                                   MGPVRecord(key[:1], 0, cells, "test")])
            return engine, ledger(engine.finalize(), engine)

        with reference_path():
            _engine, (ref_vectors, [(ref_counters, ref_tables)]) = session(
                "run")
        assert [flag for *_v, flag, _w in ref_vectors] == [False, False, True]
        for feed in ("run", "consume_batch"):
            engine, (vectors, [(counters, tables)]) = session(feed)
            assert engine.path() == ("columnar", None)
            assert (vectors, tables) == (ref_vectors, ref_tables)
            assert counters == {**ref_counters, "cells_columnar": 3,
                                "cells_per_cell": 1}

    def test_packet_vectors_drains_deferred_work(self):
        """``consume_batch`` only queues; the property the sinks slice
        with a cursor must not read past the queue."""
        engine = engine_for(pkt_policy())
        key = (1, 2, 10, 20, 6)
        meta = {"size": 100, "tstamp": 5_000, "direction": 1}
        cell = (0, tuple(meta[f] for f in engine.compiled.metadata_fields))
        engine.consume_batch([FGSync(0, key),
                              MGPVRecord(key[:1], 0, (cell,) * 3, "test")])
        assert engine._pending
        assert len(engine.packet_vectors) == 3
        assert engine.counters()["cells_columnar"] == 3

    def test_process_backend_takes_vectors_per_chunk(self, campus):
        """The same through a worker's ``take_pkt``: every ``process``
        call returns its own chunk's vectors, not the final flush."""
        chunks = [campus[i:i + 150] for i in range(0, 600, 150)]

        def per_chunk(**kw):
            with api.compile(build_policy("N-BaIoT"), n_nics=2, **kw) as ex:
                dataplane = ex.dataplane()
                try:
                    return [emitted(dataplane.process(c)) for c in chunks]
                finally:
                    dataplane.close()

        sharded = per_chunk(execution=ExecutionConfig(workers=2,
                                                      backend="process"))
        assert sharded == per_chunk()
        assert sum(map(len, sharded)) > 0

    def test_emit_buffer_is_capped_per_block(self, campus, monkeypatch):
        """``run(PacketBatch)`` never allocates cells x dims at once:
        emit buffers are per block, each under the row cap.  (A cap of
        64 rows over 1k packets stands in for the default over 50k —
        tracemalloc costs ~1 ms per traced packet.)"""
        cap, n = 64, 1000
        monkeypatch.setattr(engine_mod, "_PKT_BLOCK_ROWS", cap)
        batch = PacketBatch.from_packets(campus[:n])
        ex = api.compile(build_policy("N-BaIoT"))
        cap_bytes = cap * len(ex.feature_names) * 8
        tracemalloc.start()
        try:
            result = ex.run(batch)
            traces = tracemalloc.take_snapshot().traces
        finally:
            tracemalloc.stop()
        assert len(result.vectors) == n
        sizes = [t.size for t in traces
                 if t.traceback[0].filename == engine_mod.__file__]
        assert sum(size >= cap_bytes // 2 for size in sizes) >= n // cap
        assert max(sizes) <= 2 * cap_bytes
